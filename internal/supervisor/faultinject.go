// Package supervisor implements the CVM's crash-only recovery machinery:
// a deterministic fault-injection harness for the data channel, and a
// watchdog that detects container panics and hangs via heartbeat probes,
// restarts the CVM with exponential backoff, and trips a circuit breaker
// into degraded fail-fast mode when restarts stop helping.
//
// The package deliberately depends only on abi, marshal, and sim so it can
// wrap any platform; *anception.Device satisfies Target structurally.
package supervisor

import (
	"fmt"
	"sync"
	"time"

	"anception/internal/marshal"
	"anception/internal/sim"
)

// FaultKind names one way a data-channel round-trip can go wrong.
type FaultKind int

// Fault kinds the injector can apply.
const (
	FaultNone FaultKind = iota
	// FaultDrop loses one request: the round-trip never completes.
	FaultDrop
	// FaultDelay completes the round-trip but charges extra sim time,
	// typically enough to blow the call's deadline.
	FaultDelay
	// FaultCorrupt flips bytes in the response.
	FaultCorrupt
	// FaultTruncate returns only a prefix of the response.
	FaultTruncate
	// FaultHang wedges the channel: this and every later round-trip hangs
	// until Unwedge (a CVM relaunch rebuilds the channel).
	FaultHang
	// FaultSnapshotCorrupt rots the hypervisor's latest checkpoint image
	// (via the hook installed with SetSnapshotCorrupter) and then lets the
	// round-trip proceed untouched. Recovery drills use it to prove the
	// restore path detects the bad checksum and falls back to a cold
	// restart instead of resuming a corrupted guest.
	FaultSnapshotCorrupt
)

// String names the fault for traces and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultHang:
		return "hang"
	case FaultSnapshotCorrupt:
		return "snapshot-corrupt"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// DefaultInjectedDelay is the extra latency a FaultDelay charges. It is
// deliberately larger than the layer's default call deadline so a delayed
// call is a timed-out call.
const DefaultInjectedDelay = 150 * time.Millisecond

// InjectorStats counts what the injector did.
type InjectorStats struct {
	RoundTrips int
	Injected   map[FaultKind]int
}

// Injector is a marshal.Transport decorator that deterministically
// injects faults into round-trips. Faults come from two sources, checked
// in order: an explicit one-shot queue (InjectNext) for scripted drills,
// and per-kind probabilities driven by the deterministic RNG for chaos
// runs. A wedged channel overrides both.
type Injector struct {
	inner marshal.Transport
	rng   *sim.RNG
	clock *sim.Clock
	trace *sim.Trace

	mu        sync.Mutex
	queue     []FaultKind
	probs     map[FaultKind]float64
	delay     time.Duration
	wedged    bool
	corrupter func()
	stats     InjectorStats
}

var _ marshal.Transport = (*Injector)(nil)
var _ marshal.LivenessSetter = (*Injector)(nil)

// NewInjector wraps a transport. The RNG drives probability-mode faults
// and corruption positions; pass a fixed seed for reproducible drills.
func NewInjector(inner marshal.Transport, rng *sim.RNG, clock *sim.Clock, trace *sim.Trace) *Injector {
	return &Injector{
		inner: inner,
		rng:   rng,
		clock: clock,
		trace: trace,
		probs: make(map[FaultKind]float64),
		delay: DefaultInjectedDelay,
	}
}

// Name implements marshal.Transport.
func (i *Injector) Name() string { return "fault:" + i.inner.Name() }

// SetLiveness implements marshal.LivenessSetter by delegating to the
// wrapped transport, so liveness wiring survives injector insertion.
func (i *Injector) SetLiveness(probe func() bool) {
	if ls, ok := i.inner.(marshal.LivenessSetter); ok {
		ls.SetLiveness(probe)
	}
}

// Inner returns the wrapped transport.
func (i *Injector) Inner() marshal.Transport { return i.inner }

// InjectNext queues one-shot faults, consumed in order by subsequent
// round-trips. Scripted drills use this for exact, reproducible bursts.
func (i *Injector) InjectNext(kinds ...FaultKind) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.queue = append(i.queue, kinds...)
}

// SetProbability makes each round-trip suffer the fault with probability
// p (0 clears). Queue entries still take precedence.
func (i *Injector) SetProbability(kind FaultKind, p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if p <= 0 {
		delete(i.probs, kind)
		return
	}
	i.probs[kind] = p
}

// SetSnapshotCorrupter installs the hook FaultSnapshotCorrupt fires —
// typically the snapshotter's Corrupt method, which flips a byte in the
// latest checkpoint image so its checksum no longer verifies.
func (i *Injector) SetSnapshotCorrupter(fn func()) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.corrupter = fn
}

// SetDelay overrides the FaultDelay latency.
func (i *Injector) SetDelay(d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.delay = d
}

// Wedge hangs the channel until Unwedge.
func (i *Injector) Wedge() {
	i.mu.Lock()
	i.wedged = true
	i.mu.Unlock()
	if i.trace != nil {
		i.trace.Record(sim.EvFault, "injected: data channel wedged")
	}
}

// Unwedge clears a wedged channel. The supervisor calls this after a
// successful CVM relaunch, modeling the channel rebuild that comes with
// the fresh guest.
func (i *Injector) Unwedge() {
	i.mu.Lock()
	was := i.wedged
	i.wedged = false
	i.mu.Unlock()
	if was && i.trace != nil {
		i.trace.Record(sim.EvFault, "data channel unwedged (rebuilt)")
	}
}

// Wedged reports whether the channel is currently wedged.
func (i *Injector) Wedged() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.wedged
}

// Stats returns a copy of the injection counters.
func (i *Injector) Stats() InjectorStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := InjectorStats{RoundTrips: i.stats.RoundTrips, Injected: make(map[FaultKind]int, len(i.stats.Injected))}
	for k, v := range i.stats.Injected {
		out.Injected[k] = v
	}
	return out
}

// pick decides the fault for one round-trip and does the bookkeeping.
func (i *Injector) pick() (FaultKind, time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.RoundTrips++
	kind := FaultNone
	switch {
	case i.wedged:
		kind = FaultHang
	case len(i.queue) > 0:
		kind = i.queue[0]
		i.queue = i.queue[1:]
	default:
		// Deterministic probability mode: one RNG draw per candidate kind,
		// in a fixed order, so runs with the same seed replay exactly.
		for _, k := range []FaultKind{FaultDrop, FaultDelay, FaultCorrupt, FaultTruncate, FaultHang, FaultSnapshotCorrupt} {
			if p, ok := i.probs[k]; ok && i.rng.Float64() < p {
				kind = k
				break
			}
		}
	}
	if kind == FaultHang {
		i.wedged = true
	}
	if kind != FaultNone {
		if i.stats.Injected == nil {
			i.stats.Injected = make(map[FaultKind]int)
		}
		i.stats.Injected[kind]++
	}
	return kind, i.delay
}

// RoundTrip implements marshal.Transport: apply at most one fault, then
// (for survivable kinds) delegate to the wrapped transport. An injected
// delay is charged to the caller's lane, like the transport's own costs.
func (i *Injector) RoundTrip(lane *sim.Lane, payload []byte, handler marshal.GuestHandler) ([]byte, error) {
	kind, delay := i.pick()
	switch kind {
	case FaultDrop:
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: request dropped")
		}
		return nil, fmt.Errorf("injected drop: %w", marshal.ErrHang)
	case FaultHang:
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: round-trip hung (channel wedged)")
		}
		return nil, fmt.Errorf("injected hang: %w", marshal.ErrHang)
	case FaultDelay:
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: %v delay", delay)
		}
		i.clock.Charge(lane, delay)
		return i.inner.RoundTrip(lane, payload, handler)
	case FaultCorrupt:
		resp, err := i.inner.RoundTrip(lane, payload, handler)
		if err != nil || len(resp) == 0 {
			return resp, err
		}
		out := append([]byte(nil), resp...)
		// Flip a handful of RNG-chosen bytes so decoding (or the
		// heartbeat's echo check) sees garbage.
		i.mu.Lock()
		for n := 0; n < 4; n++ {
			out[i.rng.Intn(len(out))] ^= byte(0x80 | i.rng.Intn(0x7f))
		}
		i.mu.Unlock()
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: response corrupted (%d bytes)", len(out))
		}
		return out, nil
	case FaultTruncate:
		resp, err := i.inner.RoundTrip(lane, payload, handler)
		if err != nil || len(resp) == 0 {
			return resp, err
		}
		cut := len(resp) / 2
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: response truncated %d -> %d bytes", len(resp), cut)
		}
		return append([]byte(nil), resp[:cut]...), nil
	case FaultSnapshotCorrupt:
		i.mu.Lock()
		fn := i.corrupter
		i.mu.Unlock()
		if fn != nil {
			fn()
		}
		if i.trace != nil {
			i.trace.Record(sim.EvFault, "injected: latest checkpoint image corrupted")
		}
		return i.inner.RoundTrip(lane, payload, handler)
	default:
		return i.inner.RoundTrip(lane, payload, handler)
	}
}
