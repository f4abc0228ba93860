package marshal

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/sim"
)

// AsyncTransport is the multi-slot face of the data channel: callers
// Submit many requests, each bound to one ring slot, and Wait on the
// returned Pending while other goroutines keep submitting. One injected
// interrupt (the doorbell) wakes the guest-side SQ poller, which then
// stays awake — serving every further submission without an interrupt —
// until it has posted RingReapBatch completions (one reap hypercall per
// batch) or the ring sits idle past RingPollIdle of sim time. Under load
// the per-call world-switch cost of the synchronous Transport therefore
// amortizes to 2/RingReapBatch switches per call. RoundTrip (from the
// embedded Transport) degrades to Submit+Wait, so every synchronous
// caller — Ping, the fault injector, single-threaded apps — works
// unchanged.
type AsyncTransport interface {
	Transport
	// Submit claims a free SQ slot, copies the payload into the slot's
	// channel frames, and rings the doorbell if it is not already armed.
	// It blocks while all slots are in flight (backpressure). Slots
	// execute in submission order. Every charge the slot incurs, on
	// either side, goes to lane.
	Submit(lane *sim.Lane, payload []byte, handler GuestHandler) (*Pending, error)
	// Rearm re-keys the ring to a new CVM boot generation: slots still
	// in flight against the old container complete with EHOSTDOWN
	// instead of executing against the new one, so supervisor restarts
	// never leak (or replay) in-flight submissions.
	Rearm(generation int)
	// RingStats snapshots the ring counters.
	RingStats() RingStats
}

// RingStats counts ring activity. Doorbells versus Submitted is the
// coalescing ratio: doorbells-per-op < 1 means one interrupt carried
// more than one submission.
type RingStats struct {
	// Depth is the configured number of SQ/CQ slots.
	Depth int
	// Submitted counts slots handed to Submit.
	Submitted int
	// Completed counts slots that ran in the guest and posted a reply.
	Completed int
	// Failed counts slots completed without running (stale generation
	// after a re-arm, or guest dead at execution time).
	Failed int
	// Doorbells counts injected interrupts; Coalesced counts
	// submissions that rode an already-armed doorbell.
	Doorbells int
	Coalesced int
	// Reaps counts completion-side hypercalls (one per drained batch).
	Reaps int
	// Rearms counts boot-generation re-keys.
	Rearms int
	// MaxInFlight is the high-water mark of concurrently open slots.
	MaxInFlight int
}

// Pending slot states.
const (
	slotFree int32 = iota
	slotQueued
	slotDone
)

// Pending is one in-flight ring submission. Exactly one completer moves
// it queued->done (a CAS guards the transition), the per-slot channel
// hands the result to the single waiter, and the waiter recycles the
// slot into the free list.
type Pending struct {
	ring    *RingChannel
	idx     int
	state   atomic.Int32
	gen     int
	lane    *sim.Lane
	payload []byte
	handler GuestHandler
	// inline marks a grant-call or binder-call frame that fit the slot's
	// fixed descriptor area; its reply rides the CQ entry the same way.
	inline bool
	resp   []byte
	err    error
	done   chan struct{}
}

// Lane returns the timeline of the task that submitted the slot; the
// guest-side work done for the slot is charged to it.
func (p *Pending) Lane() *sim.Lane { return p.lane }

// Payload returns the submitted request bytes.
func (p *Pending) Payload() []byte { return p.payload }

// Handler returns the guest-side executor for this slot.
func (p *Pending) Handler() GuestHandler { return p.handler }

// Wait blocks until the slot completes, returns its result, and recycles
// the slot. It must be called exactly once per successful Submit. The
// slot only references the reply, which stays in the submitter's frame,
// so recycling the slot first never frees a reply the caller still has
// to decode.
func (p *Pending) Wait() ([]byte, error) {
	<-p.done
	resp, err := p.resp, p.err
	p.payload, p.handler, p.resp, p.err = nil, nil, nil, nil
	p.lane, p.inline = nil, false
	p.state.Store(slotFree)
	p.ring.free <- p
	return resp, err
}

// RingChannel is the asynchronous ring transport: fixed-size submission
// and completion rings living in the same remapped guest channel frames
// the PageChannel uses, drained guest-side by one SQ poller
// (internal/proxy.Pool). Submission copies the payload into the slot's
// frames and arms a coalesced doorbell; completion posts the reply back
// through the frames and reaps with one hypercall when the ring drains.
type RingChannel struct {
	cvm       *hypervisor.CVM
	clock     *sim.Clock
	model     sim.LatencyModel
	trace     *sim.Trace
	chunkSize int
	depth     int
	liveness  func() bool

	slots []*Pending
	// free is the slot free list; Submit blocks here when every slot is
	// in flight (ring-full backpressure).
	free chan *Pending
	// sq is the submission queue the guest-side poller drains in order.
	sq   chan *Pending
	quit chan struct{}

	gen      atomic.Int64
	inflight atomic.Int64
	maxInFly atomic.Int64

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	// bellMu guards the doorbell arm/reap handshake and its counters.
	// Arm/disarm decisions are made purely in sim time (submission gaps
	// and completion counts), never from real-time scheduling, so the
	// coalescing ratio is a property of the model, not of the machine.
	bellMu     sync.Mutex
	armed      bool
	sinceArm   int           // completions posted since the poller woke
	lastActive time.Duration // sim time of the last submit/completion
	reapBatch  int
	doorbells  int
	coalesced  int
	reaps      int
	rearms     int

	closeOnce sync.Once
	closed    atomic.Bool
}

var _ Transport = (*RingChannel)(nil)
var _ AsyncTransport = (*RingChannel)(nil)
var _ LivenessSetter = (*RingChannel)(nil)

// DefaultRingDepth is the SQ/CQ slot count when the caller passes 0.
const DefaultRingDepth = 64

// RingReapBatch is how many completions the guest SQ poller posts before
// it reaps the CQ with one hypercall and re-arms the doorbell (interrupt
// coalescing with a count threshold, as in NAPI or io_uring SQPOLL).
// Rings shallower than this reap at their depth instead.
const RingReapBatch = 8

// RingPollIdle is how long (sim time) the guest poller keeps polling an
// empty SQ after its last activity before going back to sleep; a
// submission landing inside the window needs no doorbell.
const RingPollIdle = time.Millisecond

// RingInlineBytes is the fixed descriptor area of one SQ/CQ entry (like
// an io_uring SQE). A grant-call frame that fits is published as part of
// the slot write itself — RingSlotOverhead on submit, RingCompletionPost
// on completion — instead of traversing the chunked channel: the whole
// point of a scatter-gather descriptor is that it is small enough not to
// pay per-chunk costs.
const RingInlineBytes = 160

// NewRingChannel builds the async ring over a launched CVM's channel
// frames. depth <= 0 uses DefaultRingDepth; chunkSize <= 0 uses the
// 4096-byte default.
func NewRingChannel(cvm *hypervisor.CVM, clock *sim.Clock, model sim.LatencyModel, trace *sim.Trace, depth, chunkSize int) *RingChannel {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	r := &RingChannel{
		cvm:       cvm,
		clock:     clock,
		model:     model,
		trace:     trace,
		chunkSize: chunkSize,
		depth:     depth,
		slots:     make([]*Pending, depth),
		free:      make(chan *Pending, depth),
		sq:        make(chan *Pending, depth),
		quit:      make(chan struct{}),
	}
	r.reapBatch = RingReapBatch
	if depth < r.reapBatch {
		r.reapBatch = depth
	}
	r.gen.Store(int64(cvm.Generation()))
	for i := 0; i < depth; i++ {
		s := &Pending{ring: r, idx: i, done: make(chan struct{}, 1)}
		r.slots[i] = s
		r.free <- s
	}
	return r
}

// Name implements Transport.
func (r *RingChannel) Name() string { return "async-ring" }

// SetReapBatch overrides how many completions the guest poller posts
// before reaping the CQ with one hypercall. Descriptor-only traffic
// (zero-copy grant calls) tolerates a far lazier reap cadence than
// payload-bearing slots, so bulk configurations raise this toward the
// ring depth. n <= 0 restores the default; values above the depth clamp
// to it. Call before the ring is shared across goroutines.
func (r *RingChannel) SetReapBatch(n int) {
	if n <= 0 {
		n = RingReapBatch
	}
	if n > r.depth {
		n = r.depth
	}
	r.bellMu.Lock()
	r.reapBatch = n
	r.bellMu.Unlock()
}

// SetLiveness implements LivenessSetter. Wired once at layer
// construction, before the ring is shared across goroutines.
func (r *RingChannel) SetLiveness(probe func() bool) { r.liveness = probe }

// chargeChunks models moving n bytes through fixed-size channel chunks.
func (r *RingChannel) chargeChunks(lane *sim.Lane, n int, perByte time.Duration) {
	if n == 0 {
		r.clock.Charge(lane, r.model.ChunkOverhead)
		return
	}
	chunks := (n + r.chunkSize - 1) / r.chunkSize
	r.clock.Charge(lane, time.Duration(chunks)*r.model.ChunkOverhead+time.Duration(n)*perByte)
}

// Submit implements AsyncTransport.
func (r *RingChannel) Submit(lane *sim.Lane, payload []byte, handler GuestHandler) (*Pending, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("async ring closed: %w", abi.ENXIO)
	}
	// Liveness first, like the synchronous channel: a dead container is
	// reported as EHOSTDOWN without consuming a slot.
	if r.liveness != nil && !r.liveness() {
		return nil, errGuestDown("async ring")
	}
	var s *Pending
	select {
	case s = <-r.free:
	default:
		// Ring full: block until a waiter recycles a slot (backpressure).
		select {
		case s = <-r.free:
		case <-r.quit:
			return nil, fmt.Errorf("async ring closed: %w", abi.ENXIO)
		}
	}
	s.payload, s.handler, s.lane = payload, handler, lane
	s.gen = int(r.gen.Load())
	s.inline = (IsGrantCall(payload) || IsBinderCall(payload) || IsSockOp(payload) || IsChainCall(payload)) && len(payload) <= RingInlineBytes
	s.state.Store(slotQueued)
	r.submitted.Add(1)

	// The request bytes really traverse the slot's guest-visible frames,
	// charged per chunk like the synchronous channel — but with the slot
	// bookkeeping (RingSlotOverhead) in place of a per-call WorldSwitch.
	// A grant-call descriptor or binder-call frame small enough for the
	// slot's fixed SQE area is covered by the slot write itself and
	// skips the chunk charge.
	if !s.inline {
		r.chargeChunks(lane, len(payload), r.model.CopyToGuestPerByte)
	}
	r.clock.Charge(lane, r.model.RingSlotOverhead)
	if err := r.copySlotFrames(s.idx, payload); err != nil {
		// Slot never reached the SQ; recycle it directly.
		s.payload, s.handler, s.lane = nil, nil, nil
		s.state.Store(slotFree)
		r.submitted.Add(-1)
		r.free <- s
		return nil, err
	}

	n := r.inflight.Add(1)
	for {
		max := r.maxInFly.Load()
		if n <= max || r.maxInFly.CompareAndSwap(max, n) {
			break
		}
	}
	// The doorbell decision reads the clock before the slot becomes
	// visible to the guest poller: were it queued first, the poller could
	// complete (and reap) it before the decision, and whether this
	// submission rang a new doorbell would depend on goroutine
	// scheduling.
	r.ringDoorbell(lane)
	r.sq <- s // never blocks: cap(sq) == depth == total slots
	return s, nil
}

// ringDoorbell injects the guest interrupt unless the SQ poller is still
// awake: an armed doorbell covers every submission until the poller reaps
// a completion batch or idles past RingPollIdle of sim time. The
// interrupt is charged to the submitting task's lane.
func (r *RingChannel) ringDoorbell(lane *sim.Lane) {
	now := r.clock.Now()
	r.bellMu.Lock()
	if r.armed && now-r.lastActive > RingPollIdle {
		// The poller slept on the idle timeout; it must be woken again.
		r.armed = false
	}
	r.lastActive = now
	if r.armed {
		r.coalesced++
		r.bellMu.Unlock()
		return
	}
	r.armed = true
	r.sinceArm = 0
	r.doorbells++
	r.bellMu.Unlock()
	if r.trace != nil {
		r.trace.Record(sim.EvRing, "doorbell: SQ poller woken, interrupt injected")
	}
	r.cvm.InjectInterrupt(lane)
}

// RoundTrip implements Transport as a one-slot submit-and-wait, so the
// ring can stand in anywhere the synchronous channel does.
func (r *RingChannel) RoundTrip(lane *sim.Lane, payload []byte, handler GuestHandler) ([]byte, error) {
	p, err := r.Submit(lane, payload, handler)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// NextSubmission hands the oldest queued slot to the guest-side poller; ok
// is false once the ring is closed and the SQ drained.
func (r *RingChannel) NextSubmission() (*Pending, bool) {
	select {
	case s := <-r.sq:
		return s, true
	case <-r.quit:
		// Drain what was already queued so no waiter is stranded.
		select {
		case s := <-r.sq:
			return s, true
		default:
			return nil, false
		}
	}
}

// FailFastIfUnservable completes a popped slot with EHOSTDOWN — without
// running its handler — when its boot generation is stale (submitted
// against a container that has since been restarted) or the guest is
// dead. The poller calls it before executing each slot; completing through
// the normal path (rather than dropping the slot) is what guarantees a
// restart never leaks an in-flight submission.
func (r *RingChannel) FailFastIfUnservable(s *Pending) bool {
	if s.gen < int(r.gen.Load()) {
		r.completeWith(s, nil, fmt.Errorf("async ring: slot from boot generation %d dropped at re-arm: %w", s.gen, abi.EHOSTDOWN))
		return true
	}
	if r.liveness != nil && !r.liveness() {
		r.completeWith(s, nil, errGuestDown("async ring"))
		return true
	}
	return false
}

// Complete posts one guest-side reply into the slot's CQ entry and
// returns the sim time of the post, read before the waiter is woken, so
// a poller can stamp its activity without racing the waiter's next call.
func (r *RingChannel) Complete(s *Pending, resp []byte) time.Duration {
	return r.completeWith(s, resp, nil)
}

// completeWith finishes the slot's bookkeeping (reply post, reap) before
// it wakes the waiter: the waiter's next submission must never overtake
// the reap decision for this one.
func (r *RingChannel) completeWith(s *Pending, resp []byte, err error) time.Duration {
	// Exactly-once: the CAS winner owns the result fields and the signal.
	if !s.state.CompareAndSwap(slotQueued, slotDone) {
		return r.clock.Now()
	}
	if err == nil {
		// The reply traverses the slot frames back to the host; a reply
		// that fits an inline slot's CQ descriptor area rides the
		// completion post itself.
		if !s.inline || len(resp) > RingInlineBytes {
			r.chargeChunks(s.lane, len(resp), r.model.CopyFromGuestPerByte)
		}
		r.clock.Charge(s.lane, r.model.RingCompletionPost)
		_ = r.copySlotFrames(s.idx, resp)
		r.completed.Add(1)
	} else {
		r.failed.Add(1)
	}
	s.resp, s.err = resp, err
	at := r.reapIfDrained(s.lane)
	s.done <- struct{}{}
	return at
}

// reapIfDrained issues the completion-side hypercall once the poller has
// posted a full batch of completions and the ring is empty: one reap
// covers everything since the doorbell armed. Until the batch threshold
// is met the poller stays awake (no hypercall, doorbell still armed), so
// a sequential caller amortizes the world switches exactly like a
// concurrent burst does. The reap is charged to the lane of the slot
// that drained the ring. It returns the sim time after the reap.
func (r *RingChannel) reapIfDrained(lane *sim.Lane) time.Duration {
	n := r.inflight.Add(-1)
	now := r.clock.Now()
	r.bellMu.Lock()
	r.sinceArm++
	r.lastActive = now
	if !r.armed || r.sinceArm < r.reapBatch || n != 0 || r.inflight.Load() != 0 {
		r.bellMu.Unlock()
		return now
	}
	r.armed = false
	r.reaps++
	r.bellMu.Unlock()
	if r.trace != nil {
		r.trace.Record(sim.EvRing, "reap: completion batch posted, hypercall")
	}
	r.cvm.Hypercall(lane)
	return r.clock.Now()
}

// Rearm implements AsyncTransport: see the interface comment.
func (r *RingChannel) Rearm(generation int) {
	r.gen.Store(int64(generation))
	r.bellMu.Lock()
	r.rearms++
	r.bellMu.Unlock()
	if r.trace != nil {
		r.trace.Record(sim.EvRing, "re-arm: ring keyed to boot generation %d; stale in-flight slots will fail fast", generation)
	}
}

// Quiesce blocks until no slot is in flight. Callers must gate new
// submissions first (the layer holds EAGAIN-fast-fail degraded mode while
// quiescing); with the gate up, the guest poller drains the SQ and every
// in-flight slot — including detached oneway waiters, which recycle their
// slot on completion — reaches Wait. Used by the live-upgrade drill to
// drain the ring gracefully instead of failing slots EHOSTDOWN.
func (r *RingChannel) Quiesce() {
	for r.inflight.Load() > 0 {
		runtime.Gosched()
	}
}

// Close shuts the submission side down; the poller drains what is
// queued and exits. Idempotent.
func (r *RingChannel) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.quit)
	})
}

// RingStats implements AsyncTransport.
func (r *RingChannel) RingStats() RingStats {
	r.bellMu.Lock()
	doorbells, coalesced, reaps, rearms := r.doorbells, r.coalesced, r.reaps, r.rearms
	r.bellMu.Unlock()
	return RingStats{
		Depth:       r.depth,
		Submitted:   int(r.submitted.Load()),
		Completed:   int(r.completed.Load()),
		Failed:      int(r.failed.Load()),
		Doorbells:   doorbells,
		Coalesced:   coalesced,
		Reaps:       reaps,
		Rearms:      rearms,
		MaxInFlight: int(r.maxInFly.Load()),
	}
}

// copySlotFrames writes data through the slot's share of the remapped
// channel frames (slot idx anchors the frame round-robin), so submitted
// and completed bytes genuinely exist in guest-visible memory.
func (r *RingChannel) copySlotFrames(idx int, data []byte) error {
	pages := r.cvm.ChannelPagesRO()
	if len(pages) == 0 {
		return abi.ENXIO
	}
	slot := idx % len(pages)
	if len(data) == 0 {
		return nil
	}
	for off := 0; off < len(data); off += abi.PageSize {
		end := off + abi.PageSize
		if end > len(data) {
			end = len(data)
		}
		if err := r.cvm.WriteChannelFrame(pages[slot], data[off:end]); err != nil {
			return err
		}
		slot = (slot + 1) % len(pages)
	}
	return nil
}
