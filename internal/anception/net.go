package anception

import (
	"errors"
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

// This file implements the layer side of the redirected network fast
// path (DESIGN.md §14): socket operations ride the async ring as compact
// fixed-layout frames (marshal.AppendSockOp) small enough for the
// inline slot window, bulk send/recv payloads above GrantThreshold move
// by grant reference like file I/O, and accept4/epoll_wait completions
// carry whole batches of descriptors. Per-slot deadlines, degraded-mode
// EAGAIN, and EHOSTDOWN-on-restart semantics match the file and binder
// paths slot-for-slot; the supervisor's SocketDrainer hook sits between
// the ring and binder drains in the post-restart order.

// DefaultNetBatch is the per-completion cap on batched accepted
// connections / readiness events.
const DefaultNetBatch = 16

// NetPathStats counts network fast-path activity, surfaced via
// LayerStats.Net.
type NetPathStats struct {
	// Submitted/Completed/Failed is the socket-op accounting identity:
	// every forwarded socket op is submitted exactly once and ends as
	// either a completion (a guest-executed result, including guest
	// errnos like EAGAIN on an empty queue) or a failure (degraded-mode
	// rejection, transport loss, deadline, EHOSTDOWN drain).
	Submitted int64
	Completed int64
	Failed    int64
	// RingOps counts socket ops that rode the compact sockop ring frame
	// (the rest took the synchronous TLV path).
	RingOps int64
	// Batches / BatchedFDs count batched accept4/epoll_wait completions
	// and the descriptors they carried — one ring completion, N fds.
	Batches    int64
	BatchedFDs int64
	// Drains counts DrainSockets invocations (CVM restart hook).
	Drains int64
}

// isSockCall reports the socket ops the network fast path owns on remote
// descriptors. setsockopt-style attribute calls stay on the generic
// forward path — they are rare and carry odd argument shapes.
func isSockCall(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysBind, abi.SysConnect, abi.SysListen, abi.SysShutdownSk,
		abi.SysSend, abi.SysSendto, abi.SysRecv, abi.SysRecvfrom:
		return true
	default:
		return false
	}
}

// netBatchLimit clamps a caller's accept/epoll batch request to the
// per-completion cap.
func netBatchLimit(want int) int {
	if want <= 0 || want > DefaultNetBatch {
		return DefaultNetBatch
	}
	return want
}

// forwardSock forwards one socket op (guest descriptor already
// translated) and maintains the Submitted = Completed + Failed identity.
func (l *Layer) forwardSock(st *layerState, t *kernel.Task, args *kernel.Args) kernel.Result {
	l.counters.sockSubmitted.Add(1)
	res, failed := l.forwardSockInner(st, t, args)
	if failed {
		l.counters.sockFailed.Add(1)
	} else {
		l.counters.sockCompleted.Add(1)
	}
	return res
}

// forwardSockInner routes the op: over the ring it travels as a compact
// sockop frame in an SQ slot (inline when small — no chunk copies); on
// the synchronous channel it takes the generic TLV forward, which is
// exactly the pinned uncached baseline.
func (l *Layer) forwardSockInner(st *layerState, t *kernel.Task, args *kernel.Args) (kernel.Result, bool) {
	ring, async := st.transport.(marshal.AsyncTransport)
	if !async {
		res := l.forwardSyncOn(st, t, args)
		return res, sockTransportFailure(res.Err)
	}
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return kernel.Result{Ret: -1, Err: fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)}, true
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("enroll proxy: %w", err)}, true
	}
	l.counters.redirected.Add(1)
	l.counters.sockRing.Add(1)
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect %s pid=%d -> proxy %d (sock ring)", args.Nr, t.PID, p.PID)
	}

	// Read-style ops ship only the size; the bytes come home in the
	// reply (inline when they fit the CQ descriptor area).
	enc := *args
	if isReadLike(args.Nr) && enc.Buf != nil {
		enc.Size = len(enc.Buf)
		enc.Buf = nil
	}
	f := l.getFrame()
	defer l.putFrame(f)
	f.req = marshal.AppendSockOp(f.req[:0], &enc)
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	f.st, f.proxy = st, p
	span := l.clock.StartSpan(t.Lane)
	pending, serr := ring.Submit(t.Lane, f.req, f.execSockFn)
	if serr != nil {
		return l.transportFailure(t, args, span, serr), true
	}
	respBytes, werr := pending.Wait()
	if werr != nil {
		return l.transportFailure(t, args, span, werr), true
	}
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "%s pid=%d completed past %v deadline", args.Nr, t.PID, l.deadline)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("call exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)}, true
	}
	res, derr := marshal.DecodeResult(respBytes)
	if derr != nil {
		return kernel.Result{Ret: -1, Err: derr}, true
	}
	landReply(args, &res)
	return res, false
}

// sockTransportFailure classifies a synchronous-path error as a
// transport-level failure (vs. a guest-executed errno, which counts as a
// completion).
func sockTransportFailure(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, abi.EHOSTDOWN) || errors.Is(err, abi.ETIMEDOUT) ||
		errors.Is(err, abi.ENXIO) || errors.Is(err, abi.EIO)
}

// handleAccept4 forwards a batched accept: the guest drains up to
// Args.Size pending connections in one ring completion and the reply's
// fd list is re-installed as host remote descriptors.
func (l *Layer) handleAccept4(t *kernel.Task, args *kernel.Args) kernel.Result {
	st := l.currentState()
	fwd := *args
	fwd.FD = t.FD(args.FD).GuestFD
	fwd.Size = netBatchLimit(args.Size)
	res := l.forwardSock(st, t, &fwd)
	if !res.Ok() {
		return res
	}
	// The landed list is the layer's own copy: install each accepted
	// guest descriptor and write its host descriptor over it.
	list := res.Data
	if len(list)%4 != 0 {
		return kernel.Result{Ret: -1, Err: abi.EINVAL}
	}
	n := len(list) / 4
	for i := range n {
		hfd := t.InstallFD(&kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: abi.FDAt(list, i), Path: "sock:accepted"})
		abi.PutFD(list, i, hfd)
	}
	l.counters.sockBatches.Add(1)
	l.counters.sockBatchedFDs.Add(int64(n))
	return kernel.Result{Ret: int64(n), Data: list}
}

// handleEpollWait forwards a batched readiness poll and translates the
// returned guest descriptors back to the caller's host descriptors.
func (l *Layer) handleEpollWait(t *kernel.Task, args *kernel.Args) kernel.Result {
	st := l.currentState()
	fwd := *args
	fwd.FD = t.FD(args.FD).GuestFD
	fwd.Size = netBatchLimit(args.Size)
	res := l.forwardSock(st, t, &fwd)
	if !res.Ok() || len(res.Data) == 0 {
		return res
	}
	if len(res.Data)%4 != 0 {
		return kernel.Result{Ret: -1, Err: abi.EINVAL}
	}
	// Reverse-translate the landed list (the layer's own copy) in place,
	// in one scan of the descriptor table.
	hostFDs := t.HostFDsOf(res.Data)
	n := len(hostFDs) / 4
	l.counters.sockBatches.Add(1)
	l.counters.sockBatchedFDs.Add(int64(n))
	return kernel.Result{Ret: int64(n), Data: hostFDs}
}

// handleEpollCtl translates both descriptors (the epoll instance and the
// watched socket) to their guest numbers before forwarding.
func (l *Layer) handleEpollCtl(t *kernel.Task, args *kernel.Args) kernel.Result {
	target := t.FD(args.FD2)
	if target == nil || target.Kind != kernel.FDRemote {
		return kernel.Result{Ret: -1, Err: abi.EBADF}
	}
	fwd := *args
	fwd.FD = t.FD(args.FD).GuestFD
	fwd.FD2 = target.GuestFD
	return l.forwardSock(l.currentState(), t, &fwd)
}

// DrainSockets rolls the network fast path to a new CVM boot generation:
// ring slots still carrying socket ops against the old boot fail
// EHOSTDOWN via the ring's generation check, and the guest stack's
// generation is rolled so surviving sockets re-run the then-current
// ConnectPolicy on their next operation. Called on CVM restart
// (ReplaceGuest and the supervisor's SocketDrainer hook, ordered after
// the ring re-arm and before the binder drain).
func (l *Layer) DrainSockets(gen int) {
	l.counters.sockDrains.Add(1)
	if ring, ok := l.currentState().transport.(marshal.AsyncTransport); ok {
		ring.Rearm(gen)
	}
	if g := l.guestKernel(); g != nil {
		g.Net().SetGeneration(uint64(gen))
	}
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "socket fast path drained to generation %d", gen)
	}
}

// NetStats snapshots the network fast-path counters.
func (l *Layer) NetStats() NetPathStats {
	return NetPathStats{
		Submitted:  l.counters.sockSubmitted.Load(),
		Completed:  l.counters.sockCompleted.Load(),
		Failed:     l.counters.sockFailed.Load(),
		RingOps:    l.counters.sockRing.Load(),
		Batches:    l.counters.sockBatches.Load(),
		BatchedFDs: l.counters.sockBatchedFDs.Load(),
		Drains:     l.counters.sockDrains.Load(),
	}
}
