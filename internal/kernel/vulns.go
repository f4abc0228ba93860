package kernel

import (
	"sync"

	"anception/internal/abi"
	"anception/internal/sim"
)

// KernelVulns selects historical kernel bugs present in this kernel
// instance (both the host and CVM kernels run the same code, so a kernel
// bug exists in both; what differs is what an exploit can reach).
type KernelVulns struct {
	// ProcMemWriteBypass re-creates CVE-2012-0056 (mempodroid): the
	// permission check on /proc/<pid>/mem is bypassable, so an
	// unprivileged writer can scribble into a root process.
	ProcMemWriteBypass bool
	// PerfCounterBug re-creates CVE-2013-2094: perf_event_open with an
	// out-of-range event id corrupts a kernel array, giving code
	// execution.
	PerfCounterBug bool
	// PutUserUnchecked re-creates CVE-2013-6282: missing address checks
	// in the ARM put_user path let a crafted syscall write to an
	// arbitrary kernel address.
	PutUserUnchecked bool
}

// RootEvent records an exploit gaining userspace root (a root shell) in
// this kernel — distinct from kernel code execution but equally terminal
// for the Android security model.
type RootEvent struct {
	ByPID int
	Shell *Task
	Via   string
}

type vulnState struct {
	mu     sync.Mutex
	vulns  KernelVulns
	events []RootEvent
}

// SetVulns installs the kernel-bug profile.
func (k *Kernel) SetVulns(v KernelVulns) {
	k.vuln.mu.Lock()
	defer k.vuln.mu.Unlock()
	k.vuln.vulns = v
}

// Vulns returns the kernel-bug profile.
func (k *Kernel) Vulns() KernelVulns {
	k.vuln.mu.Lock()
	defer k.vuln.mu.Unlock()
	return k.vuln.vulns
}

// GrantUserspaceRoot spawns a root shell on behalf of an exploit that
// hijacked a root-privileged process, and records the event.
func (k *Kernel) GrantUserspaceRoot(by *Task, via string) *Task {
	shell := k.Spawn(abi.Cred{UID: abi.UIDRoot, GID: abi.UIDRoot}, "rootshell")
	k.vuln.mu.Lock()
	k.vuln.events = append(k.vuln.events, RootEvent{ByPID: by.PID, Shell: shell, Via: via})
	k.vuln.mu.Unlock()
	if k.trace != nil {
		k.trace.Record(sim.EvSecurity, "[%s] USERSPACE ROOT by pid=%d via %s (shell pid=%d)",
			k.name, by.PID, via, shell.PID)
	}
	return shell
}

// RootEvents returns recorded userspace-root events.
func (k *Kernel) RootEvents() []RootEvent {
	k.vuln.mu.Lock()
	defer k.vuln.mu.Unlock()
	out := make([]RootEvent, len(k.vuln.events))
	copy(out, k.vuln.events)
	return out
}

// Rooted reports whether this kernel has been taken over at any level:
// kernel code execution, kernel panic excluded, or a userspace root shell.
func (k *Kernel) Rooted() bool {
	if k.Compromised() != nil {
		return true
	}
	k.vuln.mu.Lock()
	defer k.vuln.mu.Unlock()
	return len(k.vuln.events) > 0
}

// sysPerfEventOpen implements the CVE-2013-2094 surface: a host-class
// call (performance counters belong to the physical CPU) that, with the
// bug present, yields kernel code execution for any caller.
func (k *Kernel) sysPerfEventOpen(t *Task, args Args) Result {
	if !k.Vulns().PerfCounterBug {
		return k.errResult(abi.EINVAL) // patched: wild event ids rejected
	}
	if args.Size < 0 { // the exploit's out-of-range (negative) event id
		k.CompromiseKernel(t, "perf_event_open array underflow (CVE-2013-2094)")
		return Result{}
	}
	return Result{Ret: int64(t.InstallFD(FDEntry{Kind: FDFile, Path: "perf"}))}
}
