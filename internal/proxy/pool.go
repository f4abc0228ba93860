package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/marshal"
	"anception/internal/sim"
)

// DefaultPoolWorkers is the per-app proxy worker count when the caller
// passes 0.
const DefaultPoolWorkers = 4

// Pool is the guest half of the asynchronous ring: N proxy workers
// draining the submission queue concurrently, the multi-slot replacement
// for the one-call-at-a-time Execute path. A single dispatcher pops the
// SQ in submission order and shards slots to workers by key, so entries
// sharing a key (the layer keys by file descriptor) retain FIFO order
// while different descriptors overlap freely. Credential/cwd/umask
// mirroring is untouched: every slot's handler executes in the proxy the
// Manager enrolled for its host task, the workers only schedule.
//
// Cost model: a worker charges one ProxyDispatch when a slot arrives
// after its poller has sat idle past RingPollIdle of sim time; slots
// arriving inside that window ride the live poller for free — the guest
// half of doorbell coalescing, mirroring the armed-doorbell window the
// host half uses (one WorldSwitch per doorbell instead of per call).
// Drained calls pay only their guest trap entry, via
// Manager.ExecuteDrained.
type Pool struct {
	ring    *marshal.RingChannel
	clock   *sim.Clock
	model   sim.LatencyModel
	workers int
	queues  []chan *marshal.Pending
	wg      sync.WaitGroup

	// wakeups counts cold starts after a RingPollIdle gap (ProxyDispatch
	// charges); drained counts slots served by a still-hot poller.
	wakeups atomic.Int64
	drained atomic.Int64
}

// PoolStats snapshots the pool's scheduling counters.
type PoolStats struct {
	Workers int
	// Wakeups is how many times a worker restarted a cold poller (one
	// ProxyDispatch each); Drained is how many slots rode a poller still
	// inside its RingPollIdle window. Wakeups+Drained equals the slots
	// the pool served.
	Wakeups int
	Drained int
}

// NewPool builds a worker pool over a ring channel. workers <= 0 uses
// DefaultPoolWorkers.
func NewPool(ring *marshal.RingChannel, workers int, clock *sim.Clock, model sim.LatencyModel) *Pool {
	if workers <= 0 {
		workers = DefaultPoolWorkers
	}
	p := &Pool{
		ring:    ring,
		clock:   clock,
		model:   model,
		workers: workers,
		queues:  make([]chan *marshal.Pending, workers),
	}
	for i := range p.queues {
		// Each shard can hold the whole ring, so the dispatcher never
		// blocks behind one slow key.
		p.queues[i] = make(chan *marshal.Pending, ring.Depth())
	}
	return p
}

// Start launches the dispatcher and workers.
func (p *Pool) Start() {
	p.wg.Add(1 + p.workers)
	for _, q := range p.queues {
		go p.worker(q)
	}
	go p.dispatch()
}

// Wait blocks until the dispatcher and all workers exit (after the ring
// is closed and its queue drained).
func (p *Pool) Wait() { p.wg.Wait() }

// Stats snapshots the scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers: p.workers,
		Wakeups: int(p.wakeups.Load()),
		Drained: int(p.drained.Load()),
	}
}

// dispatch pops the SQ in submission order and shards by key; the single
// popper plus per-worker FIFO queues give the per-key ordering guarantee.
func (p *Pool) dispatch() {
	defer func() {
		for _, q := range p.queues {
			close(q)
		}
		p.wg.Done()
	}()
	for {
		s, ok := p.ring.NextSubmission()
		if !ok {
			return
		}
		p.queues[shard(s.Key(), p.workers)] <- s
	}
}

// worker drains one shard. The dispatch charge follows the poller's
// sim-time activity window, not goroutine scheduling: a slot arriving
// while the poller is still hot (within RingPollIdle of its last serve)
// rides the existing dispatch, exactly as ringDoorbell treats an armed
// poller on the host side. Charging per channel-receive instead would
// make the modeled cost depend on wall-clock races between submitters
// and workers.
func (p *Pool) worker(q chan *marshal.Pending) {
	defer p.wg.Done()
	// Start beyond the poll window so the first slot pays its dispatch.
	lastActive := -marshal.RingPollIdle - 1
	for {
		s, ok := <-q
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

// shard maps a FIFO key to a worker queue.
func shard(key int64, workers int) int {
	if key < 0 {
		key = -key
	}
	return int(key % int64(workers))
}

// KeyForString derives a stable FIFO key from a name (FNV-1a). The binder
// bridge keys ring submissions by service name so transactions to one
// service retain submission order while different services overlap, the
// same way file I/O keys by descriptor.
func KeyForString(name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Fold to a non-negative int64 so shard()'s negation can't overflow
	// on MinInt64.
	return int64(h &^ (1 << 63))
}
