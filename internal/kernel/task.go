package kernel

import (
	"sync"

	"anception/internal/abi"
	"anception/internal/netstack"
	"anception/internal/sim"
	"anception/internal/vfs"
)

// TaskState is the lifecycle state of a task.
type TaskState int

// Task states.
const (
	TaskRunning TaskState = iota + 1
	TaskZombie
	TaskDead
)

// String names the state as ps would.
func (s TaskState) String() string {
	switch s {
	case TaskRunning:
		return "R"
	case TaskZombie:
		return "Z"
	case TaskDead:
		return "X"
	default:
		return "?"
	}
}

// FDKind distinguishes what a file descriptor refers to. It is one byte,
// so FDEntry.Regular packs beside it.
type FDKind uint8

// FD kinds.
const (
	FDFile FDKind = iota + 1
	FDSocket
	FDPipeRead
	FDPipeWrite
	// FDRemote marks a descriptor whose real object lives in the CVM
	// proxy; the Anception interceptor owns all operations on it and the
	// local kernel never dereferences it.
	FDRemote
	// FDProcMem is an open /proc/<pid>/mem handle.
	FDProcMem
	// FDEpoll is an epoll instance watching socket readiness.
	FDEpoll
)

// FDEntry is one slot of a task's descriptor table.
type FDEntry struct {
	Kind FDKind
	// Regular marks an FDRemote descriptor the container reported as a
	// regular file: only those may be served from host memory.
	Regular bool
	File    *vfs.File
	Sock    *netstack.Socket
	Pipe    *Pipe
	Epoll   *Epoll // valid for FDEpoll
	GuestFD int    // valid for FDRemote
	Target  *Task  // valid for FDProcMem
	Path    string // diagnostic: what was opened
	// Flags are the open flags of an FDRemote file; the host consults
	// the access mode before serving the descriptor from host memory.
	Flags abi.OpenFlag
}

// Pipe is an in-kernel unidirectional byte queue.
type Pipe struct {
	mu     sync.Mutex
	buf    []byte
	closed bool
}

// Write appends data; EPIPE once the read end is gone.
func (p *Pipe) Write(data []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, abi.EPIPE
	}
	p.buf = append(p.buf, data...)
	return len(data), nil
}

// Read drains up to len(buf) bytes; EAGAIN when empty.
func (p *Pipe) Read(buf []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		if p.closed {
			return 0, nil
		}
		return 0, abi.EAGAIN
	}
	n := copy(buf, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// Close marks the pipe closed.
func (p *Pipe) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
}

// Task is the simulated task_struct. The RE field is Anception's one-byte
// redirection entry (Section IV-2): when non-zero, the patched syscall
// handler consults the alternate, interceptor-backed table.
type Task struct {
	mu sync.Mutex

	PID  int
	PPID int
	Comm string

	Cred  abi.Cred
	Umask abi.FileMode
	CWD   string

	// RE is the redirection entry byte checked by ASIM on every call.
	RE byte

	fds    map[int]*FDEntry
	nextFD int

	AS *AddressSpace

	State    TaskState
	ExitCode int
	ExecPath string

	// Pending holds delivered-but-unhandled signal numbers.
	Pending []int
	// Handlers records signal numbers with registered handlers.
	Handlers map[int]bool

	// Shadow is opaque state the Anception layer attaches (the proxy
	// binding). The kernel never interprets it.
	Shadow any

	// Lane is the task's own timeline: every sim charge the kernel makes
	// for the task's calls is attributed to it. A proxy shares its host
	// task's lane, so work done in the container on the task's behalf
	// counts as the task's own.
	Lane *sim.Lane
}

func newTask(pid, ppid int, cred abi.Cred, comm string) *Task {
	return &Task{
		PID:      pid,
		PPID:     ppid,
		Comm:     comm,
		Cred:     cred,
		Umask:    0o022,
		CWD:      "/",
		fds:      make(map[int]*FDEntry),
		nextFD:   3, // 0,1,2 notionally reserved for stdio
		State:    TaskRunning,
		Handlers: make(map[int]bool),
		Lane:     new(sim.Lane),
	}
}

// InstallFD places an entry at the next free descriptor and returns it.
func (t *Task) InstallFD(e *FDEntry) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd := t.nextFD
	t.nextFD++
	t.fds[fd] = e
	return fd
}

// InstallFDAt places an entry at an explicit descriptor (dup2).
func (t *Task) InstallFDAt(fd int, e *FDEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fds[fd] = e
	if fd >= t.nextFD {
		t.nextFD = fd + 1
	}
}

// FD returns the entry for fd, or nil.
func (t *Task) FD(fd int) *FDEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fds[fd]
}

// CloseFD removes the descriptor and returns its entry, or nil.
func (t *Task) CloseFD(fd int) *FDEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.fds[fd]
	delete(t.fds, fd)
	return e
}

// FDs returns a snapshot of the descriptor table.
func (t *Task) FDs() map[int]*FDEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]*FDEntry, len(t.fds))
	for k, v := range t.fds {
		out[k] = v
	}
	return out
}

// SetState transitions the lifecycle state.
func (t *Task) SetState(s TaskState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.State = s
}

// CurrentState returns the lifecycle state.
func (t *Task) CurrentState() TaskState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.State
}

// DeliverSignal queues a signal on the task.
func (t *Task) DeliverSignal(sig int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Pending = append(t.Pending, sig)
}

// TakeSignals drains pending signals.
func (t *Task) TakeSignals() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.Pending
	t.Pending = nil
	return out
}
