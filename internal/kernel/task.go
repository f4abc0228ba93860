package kernel

import (
	"path"
	"sync"
	"sync/atomic"

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

// FDEntry is one slot of a task's descriptor table, held by value: the
// objects it points to (an open file description, a socket, a pipe) are
// what dup and fork share.
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
	// paths memoizes recent joins onto CWD (AbsPath). It is made on the
	// task's first relative path: most tasks never name one.
	paths atomic.Pointer[pathMemo]

	// RE is the redirection entry byte checked by ASIM on every call.
	RE byte

	// fds holds the descriptor table by value. nextFD only grows (an
	// explicit install above it moves it past), so a task never reuses a
	// descriptor number it handed out by InstallFD.
	fds    map[int]FDEntry
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

// pathMemoLen is how many recent relative-path joins a task remembers.
const pathMemoLen = 4

// pathMemo remembers a task's last few joins of a relative path onto its
// working directory, replaced round-robin. It has its own lock, as several
// goroutines may resolve paths for one task at once.
type pathMemo struct {
	mu   sync.Mutex
	next int
	ents [pathMemoLen]pathJoin
}

// pathJoin is one remembered join: abs is cwd joined with rel.
type pathJoin struct{ cwd, rel, abs string }

// AbsPath resolves p against the task's working directory, the way every
// path-named call does before it reaches the filesystem. An empty path
// stays empty, so the filesystem answers ENOENT as Linux does; a clean
// absolute path is returned as is; a relative path the task named
// recently from the same working directory returns the string joined
// then, so a repeated path costs no allocation. A chdir changes the
// working directory the entries are compared with, so it never hits a
// stale join.
func (t *Task) AbsPath(p string) string {
	switch {
	case p == "":
		return ""
	case p[0] == '/':
		return path.Clean(p)
	}
	m := t.paths.Load()
	if m == nil {
		m = new(pathMemo)
		if !t.paths.CompareAndSwap(nil, m) {
			m = t.paths.Load()
		}
	}
	return m.join(t.CWD, p)
}

func (m *pathMemo) join(cwd, rel string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.ents {
		if e := &m.ents[i]; e.rel == rel && e.cwd == cwd {
			return e.abs
		}
	}
	abs := path.Join(cwd, rel)
	m.ents[m.next] = pathJoin{cwd, rel, abs}
	m.next = (m.next + 1) % pathMemoLen
	return abs
}

func newTask(pid, ppid int, cred abi.Cred, comm string) *Task {
	return &Task{
		PID:      pid,
		PPID:     ppid,
		Comm:     comm,
		Cred:     cred,
		Umask:    0o022,
		CWD:      "/",
		fds:      make(map[int]FDEntry),
		nextFD:   3, // 0,1,2 notionally reserved for stdio
		State:    TaskRunning,
		Handlers: make(map[int]bool),
		Lane:     new(sim.Lane),
	}
}

// InstallFD places e at the next free descriptor and returns it. The
// table holds entries by value: e is complete before it is published, and
// nothing writes to it afterwards.
func (t *Task) InstallFD(e FDEntry) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.installLocked(-1, e)
}

// InstallFDAt places e at an explicit descriptor (dup2, fork).
func (t *Task) InstallFDAt(fd int, e FDEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installLocked(fd, e)
}

// InstallRemoteFD places e, an FDRemote entry, at fd, or at the next free
// descriptor when fd < 0, unless e names no guest descriptor (GuestFD
// <= 0) or one the task already maps; ok reports whether it was
// installed. The check and the install are one step under the task lock.
func (t *Task) InstallRemoteFD(fd int, e FDEntry) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.GuestFD <= 0 {
		return -1, false
	}
	for _, o := range t.fds {
		if o.Kind == FDRemote && o.GuestFD == e.GuestFD {
			return -1, false
		}
	}
	return t.installLocked(fd, e), true
}

// installLocked places e at fd, or at the next free descriptor when
// fd < 0, and returns where.
func (t *Task) installLocked(fd int, e FDEntry) int {
	if fd < 0 {
		fd = t.nextFD
	}
	t.fds[fd] = e
	t.nextFD = max(t.nextFD, fd+1)
	return fd
}

// MaxGuestFD returns the largest guest descriptor t's remote entries
// name, or 0.
func (t *Task) MaxGuestFD() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	high := 0
	for _, e := range t.fds {
		if e.Kind == FDRemote {
			high = max(high, e.GuestFD)
		}
	}
	return high
}

// SkipFDs makes every descriptor t hands out from now on larger than fd.
func (t *Task) SkipFDs(fd int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextFD = max(t.nextFD, fd+1)
}

// FD returns a copy of the entry for fd; ok is false when fd is not open.
// A copy held across a close still names what fd named: its objects, and
// for a remote entry a guest descriptor the container never reuses.
func (t *Task) FD(fd int) (FDEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.fds[fd]
	return e, ok
}

// CloseFD removes the descriptor and returns its entry; ok is false when
// fd was not open.
func (t *Task) CloseFD(fd int) (FDEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.fds[fd]
	delete(t.fds, fd)
	return e, ok
}

// HostFDsOf translates a descriptor list of guest descriptors (abi's
// list encoding) in place: each becomes the host descriptor whose remote
// entry names it, in the order given. A guest descriptor no entry names
// is dropped; where several name one, the lowest host descriptor wins.
// It returns the translated prefix of guest. The table is scanned once
// under the task lock and not copied.
func (t *Task) HostFDsOf(guest []byte) []byte {
	var foundArr [netBatch]int // longer lists allocate
	found := foundArr[:0]
	for range len(guest) / 4 {
		found = append(found, -1)
	}
	t.mu.Lock()
	for fd, e := range t.fds {
		if e.Kind != FDRemote {
			continue
		}
		for i := range found {
			if abi.FDAt(guest, i) == e.GuestFD && (found[i] < 0 || fd < found[i]) {
				found[i] = fd
			}
		}
	}
	t.mu.Unlock()
	n := 0
	for _, fd := range found {
		if fd >= 0 {
			abi.PutFD(guest, n, fd)
			n++
		}
	}
	return guest[:4*n]
}

// FDs returns a snapshot of the descriptor table.
func (t *Task) FDs() map[int]FDEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]FDEntry, len(t.fds))
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
