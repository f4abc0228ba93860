package proxy

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/marshal"
)

// Guest-side execution of linked submissions (DESIGN.md §17). A chain
// arrives through the ring as one SQ slot; the SQ poller that pops it
// has already paid the wakeup, and the whole chain executes inside a
// single guest trap context — the exceptionless-syscall shape: one
// doorbell, one dispatch, one trap entry, N dependent calls.

// SetChainStep installs a hook invoked before each chain link executes,
// with the index of the link about to run. The supervisor's fault drills
// use it to kill the CVM between links K and K+1; nil removes it.
func (m *Manager) SetChainStep(f func(next int)) {
	m.mu.Lock()
	m.chainStep = f
	m.mu.Unlock()
}

func (m *Manager) chainStepHook() func(int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.chainStep
}

// ExecuteChainDrained runs a linked submission in the proxy's context.
// Like ExecuteDrained, the ring's SQ poller already paid the dispatch; unlike
// the batch paths, the whole chain shares ONE guest trap entry — the
// links run back-to-back in kernel context without returning to the
// proxy's user half between calls.
//
// Register bindings are resolved here, guest-side: FDFrom replaces the
// link's descriptor with the result descriptor of an earlier link, and
// UseCursor offsets the link by the running bytes-read cursor. A link
// that fails short-circuits the rest of the chain: the links that never
// ran carry the failing error verbatim, and Executed stops counting, so
// the host can split completions from failures positionally.
//
// The result vector reuses dst's storage when it has room for every
// link, so a caller that keeps it between chains allocates nothing.
func (m *Manager) ExecuteChainDrained(proxy *kernel.Task, links []marshal.ChainLink, dst []kernel.Result) marshal.ChainResult {
	m.clock.Charge(proxy.Lane, m.model.SyscallEntry)
	if cap(dst) < len(links) {
		dst = make([]kernel.Result, len(links))
	}
	cr := marshal.ChainResult{Results: dst[:len(links)]}
	hook := m.chainStepHook()
	var cursor int64
	var failErr error
	for i, ln := range links {
		if hook != nil {
			hook(i)
		}
		// A CVM restart mid-chain fails every remaining link with the
		// "container dead" errno; the links already executed keep their
		// results (epoch semantics: Submitted = Completed + Failed).
		if failErr == nil && m.guest.Panicked() != "" {
			failErr = fmt.Errorf("chain link %d: container down: %w", i, abi.EHOSTDOWN)
		}
		if failErr != nil {
			cr.Results[i] = kernel.Result{Ret: -1, Err: failErr}
			continue
		}
		a := *ln.Args
		if ln.FDFrom >= 0 {
			prev := cr.Results[ln.FDFrom]
			if prev.FD > 0 {
				a.FD = prev.FD
			} else {
				a.FD = int(prev.Ret)
			}
		}
		if ln.UseCursor {
			a.Off += cursor
		}
		// Wire chains carry read buffers as a size, like sockops: the
		// destination lives guest-side until the completion copies it out.
		if chainReadLike(a.Nr) && len(a.Buf) == 0 && a.Size > 0 {
			a.Buf = make([]byte, a.Size)
		}
		res := m.guest.InvokeLocal(proxy, a)
		cr.Results[i] = res
		cr.Executed++
		if !res.Ok() {
			failErr = res.Err
			continue
		}
		if chainReadLike(a.Nr) && res.Ret > 0 {
			cursor += res.Ret
		}
	}
	return cr
}

// chainReadLike mirrors the layer's read-like set: calls whose positive
// return value advances the chain's bytes-read cursor.
func chainReadLike(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysRead, abi.SysPread64, abi.SysRecv, abi.SysRecvfrom,
		abi.SysReadv, abi.SysPreadv:
		return true
	default:
		return false
	}
}
