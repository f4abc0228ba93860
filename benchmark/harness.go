package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"anception/internal/anception"
	"anception/internal/sim"
)

// class is the op class a call's samples and span are filed under.
type class int

const (
	clsMeta class = iota
	clsPageRead
	clsPageWrite
	clsBulk
	clsChain
	clsSock
	clsBinder
	// clsSession is a whole net-open session, due time to completion. It
	// is a parent span, not a Proc call.
	clsSession
	numClasses
)

var classNames = [numClasses]string{"meta", "page_read", "page_write", "bulk", "chain", "sock", "binder", "session"}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailOK reports whether n samples leave at least minTail samples beyond
// the nearest-rank p-quantile.
func tailOK(n int64, p float64) bool {
	return n-rank(n, p) >= minTail
}

// rank is the 1-based nearest-rank position of the p-quantile among n
// samples.
func rank(n int64, p float64) int64 {
	r := int64(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// subBits sets the histogram resolution: values below 2^subBits are kept
// exactly, larger ones in 2^subBits buckets per power of two (under 0.4%
// relative error). Fixed-size buckets keep recording allocation-free, so
// the harness adds nothing to host_alloc_bytes_per_call as runs lengthen.
const subBits = 8

// hist is a log-linear histogram of non-negative durations in ns.
type hist struct {
	counts []int64
	n      int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 - subBits
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketValue is the midpoint of bucket b.
func bucketValue(b int) int64 {
	if b < 1<<subBits {
		return int64(b)
	}
	e := b>>subBits - 1
	low := int64(b&(1<<subBits-1)+1<<subBits) << e
	return low + (int64(1)<<e-1)/2
}

func (h *hist) add(v int64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		if c == 0 {
			continue
		}
		if b >= len(h.counts) {
			h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
		}
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-quantile, or 0 for an empty
// histogram.
func (h *hist) quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	want, seen := rank(h.n, p), int64(0)
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			return bucketValue(b)
		}
	}
	return bucketValue(len(h.counts) - 1)
}

// span is one timed Proc call (or net-open session) of a traced run.
// Host times are ns since the phase began; sim times are ns on the
// clock of the shard the call ran on.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Class     string `json:"class"`
	Shard     int    `json:"shard"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	OK        bool   `json:"ok"`
}

// maxSpans caps the spans one recorder keeps per phase.
const maxSpans = 1 << 14

// recorder times every Proc call one driving goroutine makes against one
// shard's clock. It is not safe for concurrent use.
type recorder struct {
	id    int
	shard int
	clock *sim.Clock

	// window keeps per-call samples: only the fixed sim window of a
	// phase is sampled, so sim metrics do not depend on host speed.
	window bool
	// timed also times each call on the host and keeps spans.
	timed bool
	epoch time.Time

	calls, failed int64
	sim, host     [numClasses]hist
	spans         []span
	nextID        int64
}

func newRecorder(id, shard int, clock *sim.Clock) *recorder {
	return &recorder{id: id, shard: shard, clock: clock}
}

func (r *recorder) reset(timed bool, epoch time.Time) {
	*r = recorder{id: r.id, shard: r.shard, clock: r.clock, timed: timed, epoch: epoch, window: true}
	if timed {
		r.spans = make([]span, 0, maxSpans)
	}
}

// newID returns a span id unique across the phase's recorders.
func (r *recorder) newID() int64 {
	r.nextID++
	return int64(r.id)<<40 | r.nextID
}

// mark is the start of one call.
type mark struct {
	sim  time.Duration
	host time.Time
}

func (r *recorder) begin() mark {
	m := mark{sim: r.clock.Now()}
	if r.timed {
		m.host = time.Now()
	}
	return m
}

// end files one completed Proc call and returns its sim duration. A
// non-nil err counts the call as failed.
func (r *recorder) end(m mark, c class, parent int64, err error) time.Duration {
	var hostEnd time.Time
	if r.timed {
		hostEnd = time.Now()
	}
	simEnd := r.clock.Now()
	d := simEnd - m.sim
	r.calls++
	if err != nil {
		r.failed++
	}
	if r.window {
		r.file(c, parent, m, hostEnd, simEnd, err == nil)
	}
	return d
}

// verify counts a call that returned success but produced wrong output.
func (r *recorder) verify(ok bool) {
	if !ok {
		r.failed++
	}
}

// sessionDone files a net-open session from its due time to now.
func (r *recorder) sessionDone(id int64, due time.Duration, hostStart time.Time, ok bool) {
	if !r.window {
		return
	}
	var hostEnd time.Time
	if r.timed {
		hostEnd = time.Now()
	}
	r.fileID(id, clsSession, 0, mark{sim: due, host: hostStart}, hostEnd, r.clock.Now(), ok)
}

func (r *recorder) file(c class, parent int64, m mark, hostEnd time.Time, simEnd time.Duration, ok bool) {
	var id int64
	if r.timed {
		id = r.newID()
	}
	r.fileID(id, c, parent, m, hostEnd, simEnd, ok)
}

func (r *recorder) fileID(id int64, c class, parent int64, m mark, hostEnd time.Time, simEnd time.Duration, ok bool) {
	r.sim[c].add(int64(simEnd - m.sim))
	if !r.timed {
		return
	}
	r.host[c].add(int64(hostEnd.Sub(m.host)))
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{
			ID: id, Parent: parent, Class: classNames[c], Shard: r.shard,
			HostStart: int64(m.host.Sub(r.epoch)), HostEnd: int64(hostEnd.Sub(r.epoch)),
			SimStart: int64(m.sim), SimEnd: int64(simEnd), OK: ok,
		})
	}
}

// rig is one set-up workload instance: the devices it drives, one
// recorder per driving goroutine and shard, and its fixed-work segment.
type rig struct {
	devs []*anception.Device
	recs []*recorder
	// segment runs ops units of the workload's fixed work: iterations,
	// ops or sessions. Failed calls are counted, not returned.
	segment func(ops int)
	// check verifies workload-specific invariants after a phase; nil
	// when there are none.
	check func() error
	// loadMetrics runs open-loop rate runs of the given length and
	// returns their session metrics; nil for closed-loop workloads.
	loadMetrics func(sessions int64) map[string]float64
	close       func()

	// Harness-side counters, cumulative since set-up.
	idle      time.Duration   // sim time advanced while nothing was due
	sessions  int64           // net-open sessions completed
	accepts   int64           // AcceptBatch calls that returned connections
	accepted  int64           // connections those calls carried
	shardHost []time.Duration // host time spent driving each shard
}

func (r *rig) totals() (calls, failed int64) {
	for _, rec := range r.recs {
		calls += rec.calls
		failed += rec.failed
	}
	return calls, failed
}

// phaseOut is what one measured phase produced.
type phaseOut struct {
	segRates          []float64 // Proc calls per host second, per segment
	calls, failed     int64
	hostSeconds       float64
	allocBytesPerCall float64
	allocsPerCall     float64
	heapPeak          uint64 // largest HeapInuse at a segment boundary
	heapLive          uint64 // HeapAlloc after a GC at the end
	gcFrac            float64

	// Over the fixed sim window only.
	windowCalls int64
	simElapsed  []time.Duration // per device, idle time excluded
	shardHost   []time.Duration // host time driving each shard
	delta       counters        // counter deltas
	sim, host   [numClasses]hist
	spans       []span

	total counters // counters at phase end
}

// simCalls merges the per-call sim samples of every Proc-call class.
func (o *phaseOut) simCalls() *hist {
	var h hist
	for c := class(0); c < clsSession; c++ {
		h.merge(&o.sim[c])
	}
	return &h
}

// simBusy is the sim time the window took: the slowest shard's elapsed
// time, which is the device's own for single-device workloads.
func (o *phaseOut) simBusy() time.Duration {
	var m time.Duration
	for _, e := range o.simElapsed {
		m = max(m, e)
	}
	return m
}

func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runPhase runs segments of segOps until the first windowSegs have run
// and, after that, until seconds of host time have passed and at least
// minSegs segments have run. Only the window is sampled for sim metrics;
// windowSegs 0 samples nothing.
func runPhase(r *rig, segOps, windowSegs int, seconds float64, timed bool) *phaseOut {
	const minSegs = 10
	epoch := time.Now()
	for _, rec := range r.recs {
		rec.reset(timed && windowSegs > 0, epoch)
	}
	out := &phaseOut{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0, peak := ms.TotalAlloc, ms.Mallocs, ms.HeapInuse
	gc0, cpu0 := cpuSeconds()
	c0 := collect(r)
	clocks0 := clockNow(r)
	idle0 := r.idle
	shardHost0 := append([]time.Duration(nil), r.shardHost...)
	start := time.Now()
	for seg := 1; ; seg++ {
		calls0, _ := r.totals()
		t := time.Now()
		r.segment(segOps)
		el := time.Since(t).Seconds()
		calls1, _ := r.totals()
		out.segRates = append(out.segRates, float64(calls1-calls0)/el)
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
		if seg == windowSegs {
			out.delta = collect(r).sub(c0)
			out.windowCalls = calls1
			idle := r.idle - idle0
			for i, now := range clockNow(r) {
				out.simElapsed = append(out.simElapsed, now-clocks0[i]-idle)
			}
			for i, h := range r.shardHost {
				out.shardHost = append(out.shardHost, h-shardHost0[i])
			}
			for _, rec := range r.recs {
				rec.window = false
			}
		}
		done := seg >= windowSegs && time.Since(start).Seconds() >= seconds
		if done && (seconds <= 0 || seg >= minSegs) {
			break
		}
	}
	out.hostSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	gc1, cpu1 := cpuSeconds()
	out.calls, out.failed = r.totals()
	calls := float64(max(out.calls, 1))
	out.allocBytesPerCall = float64(ms.TotalAlloc-alloc0) / calls
	out.allocsPerCall = float64(ms.Mallocs-mallocs0) / calls
	out.heapPeak = peak
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heapLive = ms.HeapAlloc
	if cpu1 > cpu0 {
		out.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	for _, rec := range r.recs {
		for c := range numClasses {
			out.sim[c].merge(&rec.sim[c])
			out.host[c].merge(&rec.host[c])
		}
		out.spans = append(out.spans, rec.spans...)
	}
	sort.Slice(out.spans, func(i, j int) bool { return out.spans[i].HostStart < out.spans[j].HostStart })
	out.total = collect(r)
	return out
}

func clockNow(r *rig) []time.Duration {
	out := make([]time.Duration, len(r.devs))
	for i, d := range r.devs {
		out[i] = d.Clock.Now()
	}
	return out
}

// counters holds cumulative counters read from the program's public
// stats getters, summed over the rig's devices, plus the harness's own.
type counters map[string]float64

// sub returns the counter deltas since o. The ring's high-water mark is
// a gauge and keeps its end value.
func (c counters) sub(o counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - o[k]
	}
	out["ring.max_inflight"] = c["ring.max_inflight"]
	return out
}

// traceKinds are the sim.Trace event kinds the harness counts.
var traceKinds = []sim.EventKind{
	sim.EvSyscall, sim.EvRedirect, sim.EvWorldSwitch, sim.EvBinder, sim.EvExploit,
	sim.EvSecurity, sim.EvLifecycle, sim.EvFault, sim.EvTimeout, sim.EvWatchdog,
	sim.EvCache, sim.EvRing, sim.EvGrant, sim.EvBinderSession, sim.EvSnapshot,
}

func collect(r *rig) counters {
	c := counters{}
	add := func(k string, v float64) { c[k] += v }
	for _, d := range r.devs {
		for _, n := range d.Host.SyscallCounts() {
			add("kernel.host_syscalls", float64(n))
		}
		total, _ := d.Host.Binder().Stats()
		add("binder.txns", float64(total))
		if d.Guest != nil {
			for _, n := range d.Guest.SyscallCounts() {
				add("kernel.guest_syscalls", float64(n))
			}
			total, _ := d.Guest.Binder().Stats()
			add("binder.txns", float64(total))
			add("net.dgram_drops", float64(d.Guest.Net().DgramDrops()))
		} else {
			add("net.dgram_drops", float64(d.Host.Net().DgramDrops()))
		}
		if d.CVM != nil {
			in, out := d.CVM.WorldSwitches()
			add("hv.world_switches", float64(in+out))
		}
		if d.Trace != nil {
			for _, k := range traceKinds {
				add("trace."+k.String(), float64(d.Trace.Count(k)))
			}
		}
		if d.Layer == nil {
			continue
		}
		s := d.Layer.Stats()
		add("layer.redirected", float64(s.Redirected))
		add("layer.host_executed", float64(s.HostExecuted))
		add("layer.binder_bridged", float64(s.BinderBridged))
		add("cache.hits", float64(s.Cache.Hits))
		add("cache.misses", float64(s.Cache.Misses))
		add("cache.flushes", float64(s.Cache.Flushes))
		add("ring.submitted", float64(s.Ring.Submitted))
		add("ring.completed", float64(s.Ring.Completed))
		add("ring.failed", float64(s.Ring.Failed))
		add("ring.doorbells", float64(s.Ring.Doorbells))
		add("ring.reaps", float64(s.Ring.Reaps))
		c["ring.max_inflight"] = max(c["ring.max_inflight"], float64(s.Ring.MaxInFlight))
		add("grant.maps", float64(s.Grants.Table.Maps))
		add("grant.revokes", float64(s.Grants.Table.Revokes))
		add("grant.bytes", float64(s.Grants.Table.BytesGranted))
		add("net.submitted", float64(s.Net.Submitted))
		add("net.completed", float64(s.Net.Completed))
		add("net.failed", float64(s.Net.Failed))
		add("net.ring_ops", float64(s.Net.RingOps))
		add("fusion.chains", float64(s.Fusion.Chains))
		add("fusion.submitted", float64(s.Fusion.Submitted))
		add("fusion.completed", float64(s.Fusion.Completed))
		add("fusion.failed", float64(s.Fusion.Failed))
		add("fusion.spec_served", float64(s.Fusion.SpecServed))
		add("fusion.mispredicts", float64(s.Fusion.Mispredicts))
		add("binder.session_txns", float64(s.Binder.SessionTxns))
		add("binder.reply_hits", float64(s.Binder.ReplyHits))
		add("binder.submitted", float64(s.Binder.Submitted))
		add("binder.completed", float64(s.Binder.Completed))
		add("binder.failed", float64(s.Binder.Failed))
		add("policy.ring", float64(s.Policy.RingChosen))
		add("policy.sync", float64(s.Policy.SyncChosen))
		add("policy.grant", float64(s.Policy.GrantChosen))
		add("policy.copy", float64(s.Policy.CopyChosen))
		add("policy.explorations", float64(s.Policy.Explorations))
	}
	c["harness.sessions"] = float64(r.sessions)
	c["harness.accepts"] = float64(r.accepts)
	c["harness.accepted"] = float64(r.accepted)
	return c
}
