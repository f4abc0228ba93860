package anception

import (
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
// carry whole batches of descriptors. A socket op is the forward core's
// sock arm (forward.go), so its deadline, degraded-mode EAGAIN and
// EHOSTDOWN-on-restart are every redirected call's; the supervisor's
// SocketDrainer hook sits between the ring and binder drains in the
// post-restart order.

// DefaultNetBatch is the per-completion cap on batched accepted
// connections / readiness events.
const DefaultNetBatch = 16

// NetPathStats counts network fast-path activity, surfaced via
// LayerStats.Net.
type NetPathStats struct {
	// Submitted/Completed/Failed is the socket-op accounting identity:
	// every forwarded socket op is submitted exactly once and ends as
	// either a failure of the forward core (degraded-mode rejection,
	// enrollment, transport loss, deadline, EHOSTDOWN drain, an
	// undecodable or rejected reply) or a completion (everything else,
	// guest errnos like EAGAIN on an empty queue or a firewall veto
	// included), on either channel.
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

// isFDList reports the calls whose reply bytes are a descriptor list:
// batched accept4 and epoll_wait.
func isFDList(nr abi.SyscallNr) bool {
	return nr == abi.SysAccept4 || nr == abi.SysEpollWait
}

// netBatchLimit clamps a caller's accept/epoll batch request to the
// per-completion cap.
func netBatchLimit(want int) int {
	if want <= 0 || want > DefaultNetBatch {
		return DefaultNetBatch
	}
	return want
}

// handleAccept4 forwards a batched accept: the guest drains up to
// Args.Size pending connections in one ring completion and the reply's
// fd list is re-installed as host remote descriptors.
func (l *Layer) handleAccept4(t *kernel.Task, args *kernel.Args) kernel.Result {
	st := l.currentState()
	fwd := *args
	fwd.FD = lookupFD(t, args.FD).GuestFD
	fwd.Size = netBatchLimit(args.Size)
	res := l.forward(st, t, armSock, &fwd)
	if !res.Ok() {
		return res
	}
	// The landed list (checkReply held it to the batch) is in the
	// caller's buffer or the layer's own copy: adopt each accepted guest
	// descriptor and write its host descriptor over it. A forged one
	// fails the whole batch, and the batch's adopted descriptors go.
	list := res.Data
	n := len(list) / 4
	for i := range n {
		d, ares := l.adoptFD(t, -1, kernel.FDEntry{Kind: kernel.FDRemote, GuestFD: abi.FDAt(list, i), Path: "sock:accepted"}, nil)
		if !ares.Ok() {
			for j := range i {
				t.CloseFD(abi.FDAt(list, j))
			}
			return ares
		}
		abi.PutFD(list, i, d.key.fd)
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
	fwd.FD = lookupFD(t, args.FD).GuestFD
	fwd.Size = netBatchLimit(args.Size)
	res := l.forward(st, t, armSock, &fwd)
	if !res.Ok() || len(res.Data) == 0 {
		return res
	}
	// Reverse-translate the landed list (checkReply held it to the batch;
	// it is in the caller's buffer or the layer's own copy) in place, in
	// one scan of the descriptor table.
	hostFDs := t.HostFDsOf(res.Data)
	n := len(hostFDs) / 4
	l.counters.sockBatches.Add(1)
	l.counters.sockBatchedFDs.Add(int64(n))
	return kernel.Result{Ret: int64(n), Data: hostFDs}
}

// handleEpollCtl translates both descriptors (the epoll instance and the
// watched socket) to their guest numbers before forwarding.
func (l *Layer) handleEpollCtl(t *kernel.Task, args *kernel.Args) kernel.Result {
	target, ok := t.FD(args.FD2)
	if !ok || target.Kind != kernel.FDRemote {
		return kernel.Result{Ret: -1, Err: abi.EBADF}
	}
	fwd := *args
	fwd.FD = lookupFD(t, args.FD).GuestFD
	fwd.FD2 = target.GuestFD
	return l.forward(l.currentState(), t, armSock, &fwd)
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
