package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/marshal"
	"anception/internal/sim"
)

// Pool is the guest half of the asynchronous ring: one SQ poller that
// pops slots in submission order and executes each to completion before
// the next, the paper's single in-kernel proxy wait (§III) serving a
// multi-slot queue. Order is therefore global submission order, which
// subsumes per-descriptor FIFO. No guest handler blocks (they charge sim
// time and return), so one poller never stalls behind another slot.
// Credential/cwd/umask mirroring is untouched: every slot's handler
// executes in the proxy the Manager enrolled for its host task; the
// poller only schedules.
//
// Cost model: the poller charges one ProxyDispatch when a slot arrives
// after it has sat idle past RingPollIdle of sim time; slots arriving
// inside that window ride the live poller for free — the guest half of
// doorbell coalescing, mirroring the armed-doorbell window the host half
// uses (one WorldSwitch per doorbell instead of per call). Drained calls
// pay only their guest trap entry, via Manager.ExecuteDrained.
type Pool struct {
	ring  *marshal.RingChannel
	clock *sim.Clock
	model sim.LatencyModel
	wg    sync.WaitGroup

	// wakeups counts cold starts after a RingPollIdle gap (ProxyDispatch
	// charges); drained counts slots served by a still-hot poller.
	wakeups atomic.Int64
	drained atomic.Int64
}

// PoolStats snapshots the pool's scheduling counters.
type PoolStats struct {
	// Wakeups is how many times the poller restarted cold (one
	// ProxyDispatch each); Drained is how many slots rode the poller
	// still inside its RingPollIdle window. Wakeups+Drained equals the
	// slots the pool served.
	Wakeups int
	Drained int
}

// NewPool builds the SQ poller over a ring channel.
func NewPool(ring *marshal.RingChannel, clock *sim.Clock, model sim.LatencyModel) *Pool {
	return &Pool{ring: ring, clock: clock, model: model}
}

// Start launches the poller.
func (p *Pool) Start() {
	p.wg.Add(1)
	go p.poll()
}

// Wait blocks until the poller exits (after the ring is closed and its
// queue drained).
func (p *Pool) Wait() { p.wg.Wait() }

// Stats snapshots the scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Wakeups: int(p.wakeups.Load()),
		Drained: int(p.drained.Load()),
	}
}

// poll drains the SQ. The dispatch charge follows the poller's sim-time
// activity window, not goroutine scheduling: a slot arriving while the
// poller is still hot (within RingPollIdle of its last serve) rides the
// existing dispatch, exactly as ringDoorbell treats an armed poller on
// the host side. Charging per receive instead would make the modeled
// cost depend on wall-clock races between submitters and the poller.
func (p *Pool) poll() {
	defer p.wg.Done()
	// Start beyond the poll window so the first slot pays its dispatch.
	lastActive := -marshal.RingPollIdle - 1
	for {
		s, ok := p.ring.NextSubmission()
		if !ok {
			return
		}
		if now := p.clock.Now(); now-lastActive > marshal.RingPollIdle {
			p.clock.Charge(s.Lane(), p.model.ProxyDispatch)
			p.wakeups.Add(1)
		} else {
			p.drained.Add(1)
		}
		if at, served := p.serve(s); served {
			lastActive = at
		}
	}
}

// serve executes one slot: fail fast on stale generation or a dead guest
// (the slot still completes — restarts must not leak submissions), else
// run the handler and post the reply. For a served slot it returns the
// sim time of the post, stamped before the waiter wakes: reading the
// clock after the wake would race the waiter's next call.
func (p *Pool) serve(s *marshal.Pending) (time.Duration, bool) {
	if p.ring.FailFastIfUnservable(s) {
		return 0, false
	}
	return p.ring.Complete(s, s.Handler()(s.Payload())), true
}
