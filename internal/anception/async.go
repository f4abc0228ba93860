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

// forwardRing is forwardOn over an asynchronous ring transport: the call
// is submitted into an SQ slot (overlapping freely with submissions from
// other goroutines), the submitter blocks only on its own slot's
// completion, and deadline/degraded/host-down semantics match the
// synchronous path slot-for-slot. Ordering: the guest poller executes
// slots in submission order.
func (l *Layer) forwardRing(st *layerState, ring marshal.AsyncTransport, t *kernel.Task, args *kernel.Args) kernel.Result {
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return kernel.Result{Ret: -1, Err: fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)}
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("enroll proxy: %w", err)}
	}
	l.counters.redirected.Add(1)
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect %s pid=%d -> proxy %d (ring)", args.Nr, t.PID, p.PID)
	}

	f := l.getFrame()
	defer l.putFrame(f)
	f.encodeArgs(args)
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	f.st, f.proxy, f.drained = st, p, true
	span := l.clock.StartSpan(t.Lane)
	pending, serr := ring.Submit(t.Lane, f.req, f.exec)
	if serr != nil {
		return l.transportFailure(t, args, span, serr)
	}
	respBytes, werr := pending.Wait()
	if werr != nil {
		return l.transportFailure(t, args, span, werr)
	}
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		if l.trace != nil {
			l.trace.Record(sim.EvTimeout, "%s pid=%d completed past %v deadline", args.Nr, t.PID, l.deadline)
		}
		return kernel.Result{Ret: -1, Err: fmt.Errorf("call exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)}
	}
	return decodeReply(respBytes, args)
}

// forwardBatchRing moves a coalesced batch through one ring slot.
func (l *Layer) forwardBatchRing(st *layerState, ring marshal.AsyncTransport, t *kernel.Task, calls []*kernel.Args, dst []kernel.Result) ([]kernel.Result, error) {
	if !l.enterGuestCall(st) {
		l.counters.failedFast.Add(1)
		return nil, fmt.Errorf("container circuit breaker open: %w", abi.EAGAIN)
	}
	defer l.exitGuestCall()
	p, err := st.proxies.Ensure(t)
	if err != nil {
		if errors.Is(err, abi.EHOSTDOWN) {
			l.counters.hostDown.Add(1)
		}
		return nil, fmt.Errorf("enroll proxy: %w", err)
	}
	l.counters.redirected.Add(int64(len(calls)))
	if l.trace != nil {
		l.trace.Record(sim.EvRedirect, "redirect batch of %d calls pid=%d -> proxy %d (ring)", len(calls), t.PID, p.PID)
	}
	f := l.getFrame()
	defer l.putFrame(f)
	f.req = marshal.AppendArgsBatch(f.req[:0], calls)
	l.clock.Charge(t.Lane, time.Duration(len(f.req))*l.model.MarshalPerByte)

	span := l.clock.StartSpan(t.Lane)
	f.st, f.proxy, f.drained = st, p, true
	pending, serr := ring.Submit(t.Lane, f.req, f.execBatchFn)
	if serr != nil {
		fail := l.transportFailure(t, calls[0], span, serr)
		return nil, fail.Err
	}
	respBytes, werr := pending.Wait()
	if werr != nil {
		fail := l.transportFailure(t, calls[0], span, werr)
		return nil, fail.Err
	}
	if span.Elapsed() > l.deadline {
		l.counters.timedOut.Add(1)
		return nil, fmt.Errorf("batch exceeded %v deadline: %w", l.deadline, abi.ETIMEDOUT)
	}
	return decodeBatchReply(respBytes, calls, dst)
}
