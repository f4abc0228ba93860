package marshal

import (
	"fmt"
	"sync"
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
// embedded Transport) is Submit+Wait, so every synchronous caller — the
// layer's forward core, Ping, the fault injector — drives the ring
// through the one call it uses on the synchronous channel.
type AsyncTransport interface {
	Transport
	// Submit claims a free SQ slot, copies the payload into the slot's
	// channel frames, and rings the doorbell if it is not already armed.
	// It blocks while all slots are in flight (backpressure). Slots
	// execute in submission order. Every charge the slot incurs, on
	// either side, goes to lane.
	Submit(lane *sim.Lane, payload []byte, handler GuestHandler) (*Pending, error)
	// Rearm re-keys the ring to a new CVM boot generation: slots still
	// queued against the old container complete with EHOSTDOWN instead
	// of executing against the new one, so supervisor restarts never
	// leak (or replay) in-flight submissions.
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
	// Failed counts slots completed without running (queued at a re-arm,
	// or guest dead at execution time).
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
	// Wakeups counts slots the SQ poller served cold, after a
	// RingPollIdle gap (one ProxyDispatch each); Drained counts slots it
	// served still inside that window. Together they are the slots
	// served.
	Wakeups int
	Drained int
}

// Pending is one ring submission. Its fields are guarded by the ring's
// mutex: whoever serves the slot completes it under that mutex, which
// makes completion exactly-once, and the submitter's Wait recycles it.
type Pending struct {
	ring    *RingChannel
	idx     int
	lane    *sim.Lane
	payload []byte
	handler GuestHandler
	// inline marks a grant-call or binder-call frame that fit the slot's
	// fixed descriptor area; its reply rides the CQ entry the same way.
	inline bool
	done   bool
	resp   []byte
	err    error
}

// Wait serves the SQ, oldest slot first, until p is complete, then
// returns p's result and recycles the slot (flat combining: the waiting
// submitter is the guest SQ poller for as long as it waits). A slot that
// another waiter already served is found complete on entry. It must be
// called exactly once per successful Submit. The slot only references
// the reply, which stays in the submitter's frame, so recycling the slot
// first never frees a reply the caller still has to decode.
func (p *Pending) Wait() ([]byte, error) {
	r := p.ring
	r.mu.Lock()
	for !p.done {
		// p is queued until served, so the SQ is not empty.
		r.serveLocked(r.sq.pop())
	}
	resp, err := p.resp, p.err
	*p = Pending{ring: r, idx: p.idx}
	r.free.push(p)
	r.mu.Unlock()
	r.slotFreed.Signal()
	return resp, err
}

// slotQueue is a fixed-capacity FIFO of slots: the SQ and the free list.
// Taking free slots in order keeps a sequential caller cycling through
// the slots (and their channel frames) round-robin.
type slotQueue struct {
	buf     []*Pending
	head, n int
}

func (q *slotQueue) push(s *Pending) {
	q.buf[(q.head+q.n)%len(q.buf)] = s
	q.n++
}

func (q *slotQueue) pop() *Pending {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return s
}

// RingChannel is the asynchronous ring transport: fixed-size submission
// and completion rings living in the same remapped guest channel frames
// the PageChannel uses. The guest SQ poller is not a goroutine: each
// submitter that waits serves queued slots in order under the ring's
// mutex until its own is done. Submission copies the payload into the
// slot's frames and arms a coalesced doorbell; completion posts the
// reply back through the frames and reaps with one hypercall when the
// ring drains.
type RingChannel struct {
	cvm       *hypervisor.CVM
	clock     *sim.Clock
	model     sim.LatencyModel
	trace     *sim.Trace
	chunkSize int
	depth     int
	liveness  func() bool

	// mu guards every field below and serializes serving, so one slot
	// runs at a time in submission order. Arm/disarm and dispatch
	// decisions are made purely in sim time (submission gaps and
	// completion counts), never from real-time scheduling, so the
	// coalescing ratio is a property of the model, not of the machine.
	mu sync.Mutex
	// free is the slot free list; Submit waits on slotFreed while every
	// slot is in flight (ring-full backpressure).
	free      slotQueue
	slotFreed sync.Cond
	// sq is the submission queue, served in order.
	sq     slotQueue
	gen    int
	closed bool

	inflight  int
	maxInFly  int
	submitted int
	completed int
	failed    int

	armed      bool
	sinceArm   int           // completions posted since the poller woke
	lastActive time.Duration // sim time of the last submit/completion
	// polled is the sim time of the poller's last served slot: a slot
	// served more than RingPollIdle later pays a ProxyDispatch.
	polled    time.Duration
	reapBatch int
	doorbells int
	coalesced int
	reaps     int
	rearms    int
	wakeups   int
	drained   int
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
		free:      slotQueue{buf: make([]*Pending, depth)},
		sq:        slotQueue{buf: make([]*Pending, depth)},
		gen:       cvm.Generation(),
		// Start beyond the poll window so the first slot pays its dispatch.
		polled:    -RingPollIdle - 1,
		reapBatch: min(RingReapBatch, depth),
	}
	r.slotFreed.L = &r.mu
	for i := 0; i < depth; i++ {
		r.free.push(&Pending{ring: r, idx: i})
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
// to it.
func (r *RingChannel) SetReapBatch(n int) {
	if n <= 0 {
		n = RingReapBatch
	}
	r.mu.Lock()
	r.reapBatch = min(n, r.depth)
	r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("async ring closed: %w", abi.ENXIO)
	}
	// Liveness first, like the synchronous channel: a dead container is
	// reported as EHOSTDOWN without consuming a slot.
	if r.liveness != nil && !r.liveness() {
		return nil, errGuestDown("async ring")
	}
	// Ring full: wait until a waiter recycles a slot (backpressure).
	for r.free.n == 0 && !r.closed {
		r.slotFreed.Wait()
	}
	if r.closed {
		return nil, fmt.Errorf("async ring closed: %w", abi.ENXIO)
	}
	s := r.free.pop()
	inline := (IsGrantCall(payload) || IsBinderCall(payload) || IsSockOp(payload) || IsChainCall(payload)) && len(payload) <= RingInlineBytes

	// The request bytes really traverse the slot's guest-visible frames,
	// charged per chunk like the synchronous channel — but with the slot
	// bookkeeping (RingSlotOverhead) in place of a per-call WorldSwitch.
	// A grant-call descriptor or binder-call frame small enough for the
	// slot's fixed SQE area is covered by the slot write itself and
	// skips the chunk charge.
	if !inline {
		r.chargeChunks(lane, len(payload), r.model.CopyToGuestPerByte)
	}
	r.clock.Charge(lane, r.model.RingSlotOverhead)
	if err := r.copySlotFrames(s.idx, payload); err != nil {
		// The slot never reached the SQ; it goes straight back.
		r.free.push(s)
		r.slotFreed.Signal()
		return nil, err
	}
	s.lane, s.payload, s.handler, s.inline = lane, payload, handler, inline
	r.submitted++
	r.inflight++
	r.maxInFly = max(r.maxInFly, r.inflight)
	// The doorbell is decided (and charged) in the critical section that
	// queues the slot, so no waiter can serve the slot — and reap —
	// before this submission knows whether it rang a new doorbell.
	r.ringDoorbellLocked(lane)
	r.sq.push(s)
	return s, nil
}

// ringDoorbellLocked injects the guest interrupt unless the SQ poller is
// still awake: an armed doorbell covers every submission until the
// poller reaps a completion batch or idles past RingPollIdle of sim time.
// The interrupt is charged to the submitting task's lane.
func (r *RingChannel) ringDoorbellLocked(lane *sim.Lane) {
	now := r.clock.Now()
	if r.armed && now-r.lastActive > RingPollIdle {
		// The poller slept on the idle timeout; it must be woken again.
		r.armed = false
	}
	r.lastActive = now
	if r.armed {
		r.coalesced++
		return
	}
	r.armed = true
	r.sinceArm = 0
	r.doorbells++
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

// serveLocked is one step of the guest SQ poller, run by whichever waiter
// holds the mutex: it pays the proxy dispatch when the poller wakes cold
// (its last served slot is more than RingPollIdle of sim time ago; a
// slot inside that window rides the live poller, the guest half of
// doorbell coalescing), then either fails s fast or runs its handler and
// posts the reply. Every handler runs under the mutex, so none may block
// or submit to the ring.
func (r *RingChannel) serveLocked(s *Pending) {
	if now := r.clock.Now(); now-r.polled > RingPollIdle {
		r.clock.Charge(s.lane, r.model.ProxyDispatch)
		r.wakeups++
	} else {
		r.drained++
	}
	if r.liveness != nil && !r.liveness() {
		// Completing the slot, rather than dropping it, is what
		// guarantees a dead guest never leaks a submission.
		r.completeLocked(s, nil, errGuestDown("async ring"))
		return
	}
	r.polled = r.completeLocked(s, s.handler(s.payload), nil)
}

// completeLocked posts the slot's reply (or failure) into its CQ entry,
// finishes the reap decision, and marks it done. It returns the sim
// time after the post and any reap.
func (r *RingChannel) completeLocked(s *Pending, resp []byte, err error) time.Duration {
	if err == nil {
		// The reply traverses the slot frames back to the host; a reply
		// that fits an inline slot's CQ descriptor area rides the
		// completion post itself.
		if !s.inline || len(resp) > RingInlineBytes {
			r.chargeChunks(s.lane, len(resp), r.model.CopyFromGuestPerByte)
		}
		r.clock.Charge(s.lane, r.model.RingCompletionPost)
		_ = r.copySlotFrames(s.idx, resp)
		r.completed++
	} else {
		r.failed++
	}
	s.resp, s.err, s.done = resp, err, true
	return r.reapIfDrainedLocked(s.lane)
}

// reapIfDrainedLocked issues the completion-side hypercall once the
// poller has posted a full batch of completions and the ring is empty:
// one reap covers everything since the doorbell armed. Until the batch
// threshold is met the poller stays awake (no hypercall, doorbell still
// armed), so a sequential caller amortizes the world switches exactly
// like a concurrent burst does. The reap is charged to the lane of the
// slot that drained the ring. It returns the sim time after the reap.
func (r *RingChannel) reapIfDrainedLocked(lane *sim.Lane) time.Duration {
	r.inflight--
	now := r.clock.Now()
	r.sinceArm++
	r.lastActive = now
	if !r.armed || r.sinceArm < r.reapBatch || r.inflight != 0 {
		return now
	}
	r.armed = false
	r.reaps++
	if r.trace != nil {
		r.trace.Record(sim.EvRing, "reap: completion batch posted, hypercall")
	}
	r.cvm.Hypercall(lane)
	return r.clock.Now()
}

// Rearm implements AsyncTransport: see the interface comment. Slots are
// queued under the mutex Rearm holds, so every slot queued before a
// re-arm to a newer generation fails here and every later one carries
// the new generation.
func (r *RingChannel) Rearm(generation int) {
	r.mu.Lock()
	for generation > r.gen && r.sq.n > 0 {
		r.completeLocked(r.sq.pop(), nil, fmt.Errorf("async ring: slot from boot generation %d dropped at re-arm: %w", r.gen, abi.EHOSTDOWN))
	}
	r.gen = generation
	r.rearms++
	r.mu.Unlock()
	if r.trace != nil {
		r.trace.Record(sim.EvRing, "re-arm: ring keyed to boot generation %d; stale queued slots failed", generation)
	}
}

// Close shuts the submission side down: later and ring-full Submits fail
// ENXIO, while slots already queued are still served by their waiters.
// Idempotent.
func (r *RingChannel) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.slotFreed.Broadcast()
}

// RingStats implements AsyncTransport.
func (r *RingChannel) RingStats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{
		Depth:       r.depth,
		Submitted:   r.submitted,
		Completed:   r.completed,
		Failed:      r.failed,
		Doorbells:   r.doorbells,
		Coalesced:   r.coalesced,
		Reaps:       r.reaps,
		Rearms:      r.rearms,
		MaxInFlight: r.maxInFly,
		Wakeups:     r.wakeups,
		Drained:     r.drained,
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
