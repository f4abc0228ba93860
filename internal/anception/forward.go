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

// The forward core (DESIGN.md §10): every redirected call takes the one
// path of paper §IV through forwardFrame — gate, enroll, encode, round
// trip, deadline, landing — whichever frame kind carries it. An arm names
// the frame kind, and with it what differs: the encoder (encodeFrame),
// the guest handler (callFrame.handlers) and how the reply lands.
type fwdArm uint8

const (
	armArgs   fwdArm = iota // one call, a TLV args frame
	armBatch                // a cache flush's calls, one batch frame
	armSock                 // a socket op, a compact sockop frame on the ring
	armGrant                // a bulk call whose buffers move by grant reference
	armChain                // one wire segment of a fused chain (ring only)
	armBinder               // a binder call: a transaction or a session open
	armCount
)

// binderIoctl names a binder call in traces and errors.
var binderIoctl = kernel.Args{Nr: abi.SysIoctl}

// errBreakerOpen is the core's gate refusing a call: the circuit breaker
// is open, and the call never reached the container.
var errBreakerOpen = fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)

// forwardFrame runs one call through the core: it takes the
// circuit-breaker gate, enrolls the caller's proxy, encodes arm's frame
// into f and charges its marshaling, runs the round trip, holds it to the
// call's deadline and lands the reply (land). It returns the landed
// results, one per call the frame carried, or the app-visible error: a
// gated call fails with errBreakerOpen (EAGAIN), a hung or lossy
// transport surfaces as ETIMEDOUT at the deadline instead of blocking
// the app forever, a dead container as EHOSTDOWN, a reply that does not
// decode or land as an error of its own. args is the call traces and
// errors name (a batch's or a chain's first). A binder call arrives
// encoded; instead of marshaling it is charged its host share
// (f.hostCost) at the gate and, once in time, what the round trip left
// of its fitted figure (f.fitted). The guest runs the frame drained (the
// ring's poller paid the proxy dispatch) exactly when the transport is
// the ring.
func (l *Layer) forwardFrame(st *layerState, t *kernel.Task, f *callFrame, arm fwdArm, args *kernel.Args) ([]kernel.Result, error) {
	_, async := st.transport.(marshal.AsyncTransport)
	if arm == armArgs && async {
		l.policy.ringChosen.Add(1)
	}
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return nil, errBreakerOpen
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return nil, fmt.Errorf("enroll proxy: %w", err)
	}
	f.st, f.proxy, f.drained = st, p, async
	if arm == armBinder {
		l.clock.Charge(t.Lane, f.hostCost)
	} else {
		if arm == armSock && !async {
			arm = armArgs // the synchronous channel carries socket ops as args frames
		}
		l.encodeFrame(t, f, arm, args, async)
		if arm == armGrant {
			// Revoked (one batched TLB shootdown) once the call is done,
			// success or not.
			defer l.grants.table.RevokeBatch(t.Lane, f.refs)
		}
		l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)
	}

	span := l.clock.StartSpan(t.Lane)
	resp, err := st.transport.RoundTrip(t.Lane, f.req, f.handlers[arm])
	hung := errors.Is(err, marshal.ErrHang)
	if err != nil && !hung {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return nil, fmt.Errorf("data channel: %w", err)
	}
	// A hung round trip is abandoned at the deadline; an injected (or
	// modeled) delay can push a completed one past it.
	elapsed := span.Elapsed()
	if hung || elapsed > l.deadline {
		if elapsed < l.deadline {
			l.clock.Charge(t.Lane, l.deadline-elapsed)
		}
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "%s pid=%d past %v deadline", args.Nr, t.PID, l.deadline)
		}
		return nil, fmt.Errorf("call exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)
	}
	if elapsed < f.fitted {
		l.clock.Charge(t.Lane, f.fitted-elapsed)
	}
	return f.land(arm, args, resp)
}

// encodeFrame counts and traces a call entering the container on arm and
// encodes its frame into f.req.
func (l *Layer) encodeFrame(t *kernel.Task, f *callFrame, arm fwdArm, args *kernel.Args, async bool) {
	via := ""
	if async {
		via = " (ring)"
	}
	switch arm {
	case armBatch:
		l.counters.redirected.Add(int64(len(f.batch)))
		if l.trace != nil {
			l.trace.Record(sim.EvRedirect, "redirect batch of %d calls pid=%d -> proxy %d%s", len(f.batch), t.PID, f.proxy.PID, via)
		}
		f.req = marshal.AppendArgsBatch(f.req[:0], f.batch)
	case armChain:
		c := f.chain
		l.counters.redirected.Add(int64(c.n))
		if l.trace != nil {
			l.trace.Record(sim.EvRedirect, "redirect fused chain of %d links pid=%d -> proxy %d%s", c.n, t.PID, f.proxy.PID, via)
		}
		for i := range c.n {
			c.wireArgs[i] = outputSized(&c.args[i])
		}
		f.req = marshal.AppendChain(f.req[:0], c.wire[:c.n])
	case armGrant:
		l.encodeGrant(t, f, args)
	case armSock:
		l.counters.redirected.Add(1)
		l.counters.sockRing.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvRedirect, "redirect %s pid=%d -> proxy %d (sock ring)", args.Nr, t.PID, f.proxy.PID)
		}
		enc := outputSized(args)
		f.req = marshal.AppendSockOp(f.req[:0], &enc)
	default:
		l.counters.redirected.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvRedirect, "redirect %s pid=%d -> proxy %d%s", args.Nr, t.PID, f.proxy.PID, via)
		}
		enc := outputSized(args)
		f.req = marshal.AppendArgs(f.req[:0], &enc)
	}
}

// outputSized is a call as it travels: a read-like call's buffer is an
// output pointer, so only its size goes to the guest and the data comes
// back in the reply. An accept4's or epoll_wait's buffer is output
// storage for its descriptor list and does not travel either; its Size
// is the batch it asks for.
func outputSized(args *kernel.Args) kernel.Args {
	enc := *args
	switch {
	case isReadLike(args.Nr) && enc.Buf != nil:
		enc.Size = len(enc.Buf)
		enc.Buf = nil
	case isFDList(args.Nr):
		enc.Buf = nil
	}
	return enc
}

// forward moves one call to the container on arm (args, sock or grant)
// and executes it in the proxy's context. A socket op keeps the network
// fast path's Submitted = Completed + Failed identity: Failed counts
// exactly the ops the core failed, whose reply included, on either
// channel (DESIGN.md §14); a guest-executed errno is a completion.
func (l *Layer) forward(st *layerState, t *kernel.Task, arm fwdArm, args *kernel.Args) kernel.Result {
	if arm == armSock {
		l.counters.sockSubmitted.Add(1)
	}
	f := l.getFrame()
	defer l.putFrame(f)
	results, err := l.forwardFrame(st, t, f, arm, args)
	if arm == armSock {
		if err != nil {
			l.counters.sockFailed.Add(1)
		} else {
			l.counters.sockCompleted.Add(1)
		}
	}
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	return results[0]
}

// forwardBatch moves several calls to the guest in one round trip (the
// redirection cache's coalesced flush): the payload is a batch frame,
// the proxy is dispatched once, and each call pays only its own
// guest-side trap entry. Results come back positionally, in dst's
// storage.
func (l *Layer) forwardBatch(st *layerState, t *kernel.Task, calls []*kernel.Args, dst []kernel.Result) ([]kernel.Result, error) {
	f := l.getFrame()
	defer l.putFrame(f)
	f.batch = calls
	results, err := l.forwardFrame(st, t, f, armBatch, calls[0])
	if err != nil {
		return nil, err
	}
	return append(dst[:0], results...), nil
}
