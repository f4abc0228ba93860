// Package proxy implements the CVM side of Anception's split execution: a
// lightweight proxy process per host app (Figure 3) that holds the app's
// delegated resources (files, sockets) inside the container, carries the
// same security credentials as its host counterpart, and executes
// forwarded system calls from guest kernel space.
//
// The manager maintains the host-task -> proxy bijection across fork,
// exec, credential changes, and exit.
package proxy

import (
	"fmt"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
)

// FootprintPages is the resident size of one proxy. A proxy is much
// smaller than its host process (Section VI-C): it needs no app code or
// heap, only kernel bookkeeping and a small guest-side stack.
const FootprintPages = 24

// Manager owns the proxies inside one CVM's guest kernel.
type Manager struct {
	guest *kernel.Kernel
	model sim.LatencyModel
	clock *sim.Clock
	trace *sim.Trace

	// naiveDispatch switches to the unoptimized 4-context-switch wakeup
	// path (ablation A3).
	naiveDispatch bool

	mu        sync.Mutex
	byHostPID map[int]*kernel.Task
	// chainStep, when set, is invoked before each link of a fused chain
	// executes (fault-drill instrumentation; see SetChainStep).
	chainStep func(next int)
}

// NewManager creates an empty proxy manager for the given guest kernel.
func NewManager(guest *kernel.Kernel, clock *sim.Clock, model sim.LatencyModel, trace *sim.Trace) *Manager {
	return &Manager{
		guest:     guest,
		clock:     clock,
		model:     model,
		trace:     trace,
		byHostPID: make(map[int]*kernel.Task),
	}
}

// SetNaiveDispatch toggles the unoptimized dispatch path (ablation A3).
func (m *Manager) SetNaiveDispatch(naive bool) { m.naiveDispatch = naive }

// Ensure returns the proxy for a host task, creating it on first use (app
// enrollment). The proxy receives the host task's credentials, umask and
// working directory, so the CVM's permission checks replicate the host's.
func (m *Manager) Ensure(host *kernel.Task) (*kernel.Task, error) {
	m.mu.Lock()
	if p, ok := m.byHostPID[host.PID]; ok {
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()

	// A panicked guest cannot enroll proxies: fail with the distinct
	// "container dead" errno rather than spawning into a dead kernel.
	if m.guest.Panicked() != "" {
		return nil, fmt.Errorf("proxy for pid %d: container down: %w", host.PID, abi.EHOSTDOWN)
	}

	p := m.guest.Spawn(host.Cred, host.Comm+":proxy")
	// A host task may still hold remote entries naming guest fds of an
	// earlier container boot: the new proxy numbers its descriptors past
	// them, so no stale entry ever names one of its files.
	p.SkipFDs(host.MaxGuestFD())
	p.Umask = host.Umask
	p.CWD = host.CWD
	p.Lane = host.Lane
	// The proxy sleeps in guest kernel space awaiting forwarded calls;
	// its user footprint is a small fixed mapping.
	if _, err := p.AS.MapAnon(FootprintPages, kernel.ProtRead|kernel.ProtWrite, kernel.VMAAnon, "proxy"); err != nil {
		return nil, fmt.Errorf("proxy for pid %d: %w", host.PID, err)
	}

	m.mu.Lock()
	m.byHostPID[host.PID] = p
	m.mu.Unlock()
	if m.trace != nil {
		m.trace.Record(sim.EvLifecycle, "proxy created: host pid=%d -> guest pid=%d uid=%d", host.PID, p.PID, p.Cred.UID)
	}
	return p, nil
}

// ProxyFor returns the existing proxy for a host PID, or nil.
func (m *Manager) ProxyFor(hostPID int) *kernel.Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byHostPID[hostPID]
}

// Execute runs one forwarded call in the proxy's context. The proxy is
// already waiting in guest kernel space, so dispatch costs a single
// in-kernel handoff rather than four context switches (Section IV-3).
func (m *Manager) Execute(proxy *kernel.Task, args kernel.Args) kernel.Result {
	if m.naiveDispatch {
		m.clock.Charge(proxy.Lane, m.model.ProxyDispatch+4*m.model.GuestContextSwitch)
	} else {
		m.clock.Charge(proxy.Lane, m.model.ProxyDispatch)
	}
	// Guest-side trap entry for the call itself.
	m.clock.Charge(proxy.Lane, m.model.SyscallEntry)
	return m.guest.InvokeLocal(proxy, args)
}

// ExecuteBatch runs several forwarded calls in the proxy's context off a
// single wakeup: the proxy is dispatched once for the whole batch (the
// redirection cache's coalesced flush path), then each call pays only its
// own guest-side trap entry. The result slice is always fully populated,
// one entry per call; the error additionally identifies the first call
// that failed, so batch callers cannot mistake a mid-batch failure for
// success by looking only at the slice length. The results reuse dst's
// storage when it has room for every call, as ExecuteChainDrained's do.
func (m *Manager) ExecuteBatch(proxy *kernel.Task, calls []*kernel.Args, dst []kernel.Result) ([]kernel.Result, error) {
	if m.naiveDispatch {
		m.clock.Charge(proxy.Lane, m.model.ProxyDispatch+4*m.model.GuestContextSwitch)
	} else {
		m.clock.Charge(proxy.Lane, m.model.ProxyDispatch)
	}
	return m.runCalls(proxy, calls, dst)
}

// ExecuteDrained runs one forwarded call whose proxy dispatch was already
// paid: the ring's SQ poller charges one ProxyDispatch per wakeup and then
// drains every queued submission, so each drained call costs only its
// guest-side trap entry (the guest half of doorbell coalescing).
func (m *Manager) ExecuteDrained(proxy *kernel.Task, args kernel.Args) kernel.Result {
	m.clock.Charge(proxy.Lane, m.model.SyscallEntry)
	return m.guest.InvokeLocal(proxy, args)
}

// ExecuteBatchDrained is ExecuteBatch without the dispatch charge, for
// batches arriving through the ring (the poller already paid the wakeup).
func (m *Manager) ExecuteBatchDrained(proxy *kernel.Task, calls []*kernel.Args, dst []kernel.Result) ([]kernel.Result, error) {
	return m.runCalls(proxy, calls, dst)
}

// runCalls executes a call vector into dst's storage, charging per-call
// trap entries and attributing the first failure to its position in the
// batch.
func (m *Manager) runCalls(proxy *kernel.Task, calls []*kernel.Args, dst []kernel.Result) ([]kernel.Result, error) {
	if cap(dst) < len(calls) {
		dst = make([]kernel.Result, len(calls))
	}
	results := dst[:len(calls)]
	var firstErr error
	for i, a := range calls {
		m.clock.Charge(proxy.Lane, m.model.SyscallEntry)
		results[i] = m.guest.InvokeLocal(proxy, *a)
		if !results[i].Ok() && firstErr == nil {
			firstErr = fmt.Errorf("batch call %d (%s): %w", i, a.Nr, results[i].Err)
		}
	}
	return results, firstErr
}

// MirrorFork creates the proxy for a freshly forked host child by forking
// the parent's proxy, so the child's delegated descriptors exist in the
// container exactly as the parent's did.
func (m *Manager) MirrorFork(parentHostPID int, child *kernel.Task) (*kernel.Task, error) {
	m.mu.Lock()
	parentProxy := m.byHostPID[parentHostPID]
	m.mu.Unlock()
	if parentProxy == nil {
		// Parent never touched the CVM; enroll the child fresh.
		return m.Ensure(child)
	}
	res := m.guest.InvokeLocal(parentProxy, kernel.Args{Nr: abi.SysFork})
	if !res.Ok() {
		return nil, fmt.Errorf("mirror fork for host pid %d: %w", child.PID, res.Err)
	}
	childProxy := m.guest.Task(int(res.Ret))
	// The child inherits its parent's remote entries, stale ones of an
	// earlier boot included; its proxy numbers past all of them.
	childProxy.SkipFDs(child.MaxGuestFD())
	childProxy.Comm = child.Comm + ":proxy"
	childProxy.Lane = child.Lane
	m.mu.Lock()
	m.byHostPID[child.PID] = childProxy
	m.mu.Unlock()
	if m.trace != nil {
		m.trace.Record(sim.EvLifecycle, "proxy forked: host pid=%d -> guest pid=%d", child.PID, childProxy.PID)
	}
	return childProxy, nil
}

// MirrorChdir propagates a working-directory change.
func (m *Manager) MirrorChdir(hostPID int, cwd string) {
	if p := m.ProxyFor(hostPID); p != nil {
		p.CWD = cwd
	}
}

// MirrorUmask propagates a umask change.
func (m *Manager) MirrorUmask(hostPID int, umask abi.FileMode) {
	if p := m.ProxyFor(hostPID); p != nil {
		p.Umask = umask
	}
}

// MirrorExit tears down the proxy when its host task exits.
func (m *Manager) MirrorExit(hostPID int) {
	m.mu.Lock()
	p := m.byHostPID[hostPID]
	delete(m.byHostPID, hostPID)
	m.mu.Unlock()
	if p == nil {
		return
	}
	p.SetState(kernel.TaskDead)
	if p.AS != nil {
		p.AS.Release()
	}
	if m.trace != nil {
		m.trace.Record(sim.EvLifecycle, "proxy reaped: host pid=%d guest pid=%d", hostPID, p.PID)
	}
}

// Count reports the number of live proxies.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byHostPID)
}

// VerifyBijection checks the credential-mirror invariant from DESIGN.md:
// every enrolled host task has exactly one live proxy with matching
// UID/GID, umask and cwd. It returns the first violation found.
func (m *Manager) VerifyBijection(hostTasks []*kernel.Task) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]bool)
	for _, h := range hostTasks {
		p, ok := m.byHostPID[h.PID]
		if !ok {
			continue // not enrolled: fine
		}
		if seen[p.PID] {
			return fmt.Errorf("proxy guest pid %d bound to two host tasks", p.PID)
		}
		seen[p.PID] = true
		if p.CurrentState() != kernel.TaskRunning {
			return fmt.Errorf("host pid %d: proxy %d not running", h.PID, p.PID)
		}
		if p.Cred.UID != h.Cred.UID || p.Cred.GID != h.Cred.GID {
			return fmt.Errorf("host pid %d: proxy cred %d/%d != host %d/%d",
				h.PID, p.Cred.UID, p.Cred.GID, h.Cred.UID, h.Cred.GID)
		}
		if p.Umask != h.Umask {
			return fmt.Errorf("host pid %d: proxy umask %o != host %o", h.PID, p.Umask, h.Umask)
		}
		if p.CWD != h.CWD {
			return fmt.Errorf("host pid %d: proxy cwd %q != host %q", h.PID, p.CWD, h.CWD)
		}
	}
	return nil
}

// DispatchCost reports the modeled per-call dispatch cost, for the A3
// ablation bench.
func (m *Manager) DispatchCost() time.Duration {
	if m.naiveDispatch {
		return m.model.ProxyDispatch + 4*m.model.GuestContextSwitch
	}
	return m.model.ProxyDispatch
}
