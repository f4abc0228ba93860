// Package kernel implements the simulated operating system kernel: the
// task table, page-granular virtual memory, the syscall dispatch path with
// Anception's redirection-entry hook, procfs, pipes, and the compromise
// model the security evaluation runs against.
//
// Two instances of this kernel exist in an Anception platform: the trusted
// host kernel and the deprivileged CVM kernel, each with its own
// filesystem, network stack, binder driver, and frame allocator region.
package kernel

import (
	"fmt"
	"sync"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/netstack"
	"anception/internal/sim"
	"anception/internal/vfs"
)

// Interceptor is the hook the Anception layer installs on the host kernel.
// ASIM consults it for every syscall issued by a task whose redirection
// entry is set; returning handled=true means the call was fully serviced
// (typically in the CVM) and the local kernel must not dispatch it.
// args is the interceptor's own copy: with handled=false the local kernel
// dispatches the call's original Args, whatever the interceptor did to
// its copy.
type Interceptor interface {
	Intercept(k *Kernel, t *Task, args Args) (res Result, handled bool)
}

// Detector is an optional syscall-interface policy check (the "simple
// policy-based checks" the paper notes would catch the two residual
// exploits). It observes every call and may veto it.
type Detector func(t *Task, args *Args) error

// Compromise records a successful kernel takeover within this kernel.
type Compromise struct {
	ByPID int
	Via   string
}

// Config assembles a kernel instance.
type Config struct {
	Name   string
	Clock  *sim.Clock
	Model  sim.LatencyModel
	Trace  *sim.Trace
	FS     *vfs.FileSystem
	Net    *netstack.Stack
	Binder *binder.Driver
	Alloc  *Allocator
	// MmapMinAddr is the null-page-mapping hardening knob inherited by
	// every task's address space.
	MmapMinAddr uint64
}

// Kernel is one simulated kernel instance.
type Kernel struct {
	name   string
	clock  *sim.Clock
	model  sim.LatencyModel
	trace  *sim.Trace
	fs     *vfs.FileSystem
	net    *netstack.Stack
	binder *binder.Driver
	alloc  *Allocator

	mu          sync.Mutex
	tasks       map[int]*Task
	nextPID     int
	interceptor Interceptor
	detectors   []Detector
	compromise  *Compromise
	panicReason string

	mmapMinAddr uint64

	vuln   vulnState
	shmReg *shmState

	// hotplugHelper is the path the kernel executes (as root) when a
	// hotplug uevent fires; the Exploid vulnerability is the ability of
	// an unprivileged app to point this machinery at its own file.
	hotplugHelper string

	syscallCount map[abi.SyscallNr]int
}

// New boots a kernel from the config.
func New(cfg Config) *Kernel {
	k := &Kernel{
		name:          cfg.Name,
		clock:         cfg.Clock,
		model:         cfg.Model,
		trace:         cfg.Trace,
		fs:            cfg.FS,
		net:           cfg.Net,
		binder:        cfg.Binder,
		alloc:         cfg.Alloc,
		tasks:         make(map[int]*Task),
		nextPID:       1,
		mmapMinAddr:   cfg.MmapMinAddr,
		hotplugHelper: "/sbin/hotplug",
		syscallCount:  make(map[abi.SyscallNr]int),
	}
	return k
}

// Name returns the kernel's label ("host" or "cvm").
func (k *Kernel) Name() string { return k.name }

// FS returns the kernel's filesystem.
func (k *Kernel) FS() *vfs.FileSystem { return k.fs }

// Net returns the kernel's network stack.
func (k *Kernel) Net() *netstack.Stack { return k.net }

// Binder returns the kernel's binder driver.
func (k *Kernel) Binder() *binder.Driver { return k.binder }

// Clock returns the shared simulation clock.
func (k *Kernel) Clock() *sim.Clock { return k.clock }

// Model returns the latency model.
func (k *Kernel) Model() sim.LatencyModel { return k.model }

// Trace returns the event trace (may be nil).
func (k *Kernel) Trace() *sim.Trace { return k.trace }

// Allocator returns the kernel's frame allocator.
func (k *Kernel) Allocator() *Allocator { return k.alloc }

// Region returns the physical region this kernel may touch.
func (k *Kernel) Region() Region { return k.alloc.Region() }

// SetInterceptor installs the Anception layer hook.
func (k *Kernel) SetInterceptor(i Interceptor) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.interceptor = i
}

// AddDetector installs a syscall-interface policy check.
func (k *Kernel) AddDetector(d Detector) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.detectors = append(k.detectors, d)
}

// Spawn creates a new running task.
func (k *Kernel) Spawn(cred abi.Cred, comm string) *Task {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	t := newTask(pid, 0, cred, comm)
	t.Cred.PID = pid
	t.AS = NewAddressSpace(k.alloc, pid)
	t.AS.MmapMinAddr = k.mmapMinAddr
	k.tasks[pid] = t
	k.mu.Unlock()
	if k.trace != nil {
		k.trace.Record(sim.EvLifecycle, "[%s] spawn pid=%d comm=%s uid=%d", k.name, pid, comm, cred.UID)
	}
	return t
}

// Task returns the task with the given PID, or nil.
func (k *Kernel) Task(pid int) *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tasks[pid]
}

// Tasks returns a snapshot of all tasks.
func (k *Kernel) Tasks() []*Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, t)
	}
	return out
}

// FindByComm returns the first running task with the given command name.
func (k *Kernel) FindByComm(comm string) *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, t := range k.tasks {
		if t.Comm == comm && t.CurrentState() == TaskRunning {
			return t
		}
	}
	return nil
}

// CompromiseKernel records that a task achieved arbitrary code execution
// in this kernel (the terminal event of a successful root exploit). The
// task's credentials are elevated to root.
func (k *Kernel) CompromiseKernel(t *Task, via string) {
	k.mu.Lock()
	if k.compromise == nil {
		k.compromise = &Compromise{ByPID: t.PID, Via: via}
	}
	k.mu.Unlock()
	t.mu.Lock()
	t.Cred.UID = abi.UIDRoot
	t.Cred.GID = abi.UIDRoot
	t.mu.Unlock()
	if k.trace != nil {
		k.trace.Record(sim.EvSecurity, "[%s] KERNEL COMPROMISED by pid=%d via %s", k.name, t.PID, via)
	}
}

// Compromised reports the recorded compromise, if any.
func (k *Kernel) Compromised() *Compromise {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.compromise == nil {
		return nil
	}
	c := *k.compromise
	return &c
}

// Panic marks the kernel as crashed (e.g. a null dereference with no
// mapped shellcode). A panicked CVM takes its apps' proxies with it but —
// and this is the point of the design — leaves the host untouched.
func (k *Kernel) Panic(reason string) {
	k.mu.Lock()
	if k.panicReason == "" {
		k.panicReason = reason
	}
	tasks := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		tasks = append(tasks, t)
	}
	k.mu.Unlock()
	for _, t := range tasks {
		t.SetState(TaskDead)
	}
	if k.trace != nil {
		k.trace.Record(sim.EvSecurity, "[%s] KERNEL PANIC: %s", k.name, reason)
	}
}

// Panicked returns the panic reason, or "".
func (k *Kernel) Panicked() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.panicReason
}

// SetHotplugHelper points the hotplug machinery at a new helper path;
// on a hardened kernel only root may do this, which is enforced by the
// caller (the procfs write path).
func (k *Kernel) SetHotplugHelper(path string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.hotplugHelper = path
}

// HotplugHelper returns the configured helper path.
func (k *Kernel) HotplugHelper() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.hotplugHelper
}

// TriggerHotplug runs the hotplug helper as root, as the kernel does on a
// uevent. If the helper file carries attacker-controlled content the
// attacker gains root in *this* kernel — the Exploid attack. If the helper
// does not exist here (because the attacker's file was redirected into the
// CVM), nothing happens.
func (k *Kernel) TriggerHotplug(by *Task) error {
	return k.TriggerUevent(by, k.HotplugHelper())
}

// TriggerUevent models the CVE-2009-1185 surface: the uevent handler runs
// the helper named in the (unauthenticated) message as root, without
// validating the message's origin. The helper path is resolved in *this*
// kernel's filesystem, which is why the split execution defeats Exploid:
// the attacker's file exists only in the CVM while the uevent machinery
// fires here on the host.
func (k *Kernel) TriggerUevent(by *Task, helper string) error {
	data, err := k.fs.ReadFile(abi.Cred{UID: abi.UIDRoot}, helper)
	if err != nil {
		if k.trace != nil {
			k.trace.Record(sim.EvSecurity, "[%s] hotplug helper %q missing; uevent ignored", k.name, helper)
		}
		return nil // the kernel logs and moves on
	}
	if isAttackerPayload(data) {
		k.CompromiseKernel(by, "hotplug helper execution (Exploid)")
	}
	return nil
}

// AttackerPayloadMagic marks file contents as attacker-controlled
// executables in the exploit corpus.
const AttackerPayloadMagic = "#!attacker-payload"

func isAttackerPayload(data []byte) bool {
	return len(data) >= len(AttackerPayloadMagic) && string(data[:len(AttackerPayloadMagic)]) == AttackerPayloadMagic
}

// IsAttackerPayload exposes the payload check to the services layer (vold
// uses it when an injected command makes it re-execute a file).
func IsAttackerPayload(data []byte) bool { return isAttackerPayload(data) }

// SyscallCounts returns a copy of the per-syscall invocation counters.
func (k *Kernel) SyscallCounts() map[abi.SyscallNr]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[abi.SyscallNr]int, len(k.syscallCount))
	for nr, c := range k.syscallCount {
		out[nr] = c
	}
	return out
}

// CountSyscall counts one call that entered the kernel.
func (k *Kernel) CountSyscall(nr abi.SyscallNr) {
	k.mu.Lock()
	k.syscallCount[nr]++
	k.mu.Unlock()
}

// ResidentProcessPages sums resident pages across running tasks; the
// memory-overhead experiment (Section VI-C) reads this for the CVM.
func (k *Kernel) ResidentProcessPages() int {
	n := 0
	for _, t := range k.Tasks() {
		if t.CurrentState() == TaskRunning && t.AS != nil {
			n += t.AS.ResidentPages()
		}
	}
	return n
}

func (k *Kernel) errResult(err error) Result { return Result{Ret: -1, Err: err} }

// String identifies the kernel in diagnostics.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(%s)", k.name)
}
