package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"anception/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; the tests hold the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the largest allowed worsening of the median, as a share
	// of the parent's median (end-to-end metrics only).
	bound float64
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_alloc_bytes_per_call", "B", "lower", 0.03},
	{"host_allocs_per_call", "1/call", "lower", 0.03},
	{"host_heap_live_mb", "MB", "lower", 0.10},
	{"sim_calls_per_s", "calls/sim_s", "higher", 0.05},
	{"sim_call_us_p50", "sim_us", "lower", 0.05},
	{"sim_call_us_p999", "sim_us", "lower", 0.20},
}

// traceEventKinds are the sim.Trace kinds reported per call.
var traceEventKinds = []string{"redirect", "worldswitch", "ring", "grant", "cache", "bindersession"}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	add("host_calls_per_s", "calls/s", "higher")
	add("host_heap_peak_mb", "MB", "lower")
	for _, c := range classNames {
		add("anception.host_ns_p50."+c, "ns", "lower")
	}
	for _, c := range classNames {
		add("anception.sim_us_p50."+c, "sim_us", "lower")
	}
	add("anception.redirected_per_call", "1/call", "lower")
	add("anception.host_executed_per_call", "1/call", "higher")
	add("anception.cache.hit_ratio", "ratio", "higher")
	add("anception.cache.flushes_per_kcall", "1/kcall", "lower")
	add("anception.policy.ring_share", "ratio", "higher")
	add("anception.policy.grant_share", "ratio", "higher")
	add("anception.policy.explorations_per_kcall", "1/kcall", "lower")
	add("anception.fusion.chains_per_kcall", "1/kcall", "higher")
	add("anception.fusion.mispredict_ratio", "ratio", "lower")
	add("anception.binder.session_txn_share", "ratio", "higher")
	add("anception.binder.reply_hit_ratio", "ratio", "higher")
	add("anception.net.accept_batch", "conns/call", "higher")
	add("anception.net.ring_ops_per_session", "1/session", "higher")
	add("anception.fleet.shard_sim_imbalance", "ratio", "lower")
	add("anception.fleet.host_shard_max_frac", "ratio", "lower")
	add("marshal.ring.doorbells_per_call", "1/call", "lower")
	add("marshal.ring.slots_per_doorbell", "1/doorbell", "higher")
	add("marshal.ring.reaps_per_kcall", "1/kcall", "lower")
	add("marshal.ring.max_inflight", "count", "higher")
	add("hypervisor.world_switches_per_call", "1/call", "lower")
	add("hypervisor.grant.maps_per_kcall", "1/kcall", "lower")
	add("hypervisor.grant.bytes_per_map", "B", "higher")
	add("kernel.host_syscalls_per_call", "1/call", "lower")
	add("kernel.guest_syscalls_per_call", "1/call", "lower")
	add("kernel.native_host_ns_per_call", "ns", "lower")
	add("binder.txns_per_kcall", "1/kcall", "lower")
	add("netstack.dgram_drops", "count", "lower")
	add("sim.trace.events_per_call", "1/call", "lower")
	for _, k := range traceEventKinds {
		add("sim.trace."+k+"_per_call", "1/call", "lower")
	}
	add("sim.trace.host_overhead_frac", "ratio", "lower")
	for _, k := range []string{"world_switch", "grant", "other"} {
		add("sim.attributed."+k+"_ns_per_call", "sim_ns", "lower")
	}
	for _, k := range []string{"boot", "install_launch", "warm"} {
		add("setup."+k+"_s", "s", "lower")
	}
	add("go.gc_cpu_frac", "ratio", "lower")
	for _, p := range []string{"p50", "p999"} {
		for _, r := range netRates {
			add("sim_session_us_"+p+"."+r.name, "sim_us", "lower")
		}
	}
	add("sessions_per_sim_s_at_slo", "sessions/sim_s", "higher")
	return defs
}()

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method). It needs two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func medianSetup(ts []setupTimes) (total float64, parts setupTimes) {
	var tot, boot, inst, warm []float64
	for _, t := range ts {
		tot = append(tot, t.total())
		boot = append(boot, t.boot)
		inst = append(inst, t.installLaunch)
		warm = append(warm, t.warm)
	}
	return median(tot), setupTimes{boot: median(boot), installLaunch: median(inst), warm: median(warm)}
}

// endToEndMetrics derives the untraced run's metrics.
func endToEndMetrics(setupS float64, o *phaseOut) map[string]float64 {
	h := o.simCalls()
	return map[string]float64{
		"setup_s":                   setupS,
		"host_alloc_bytes_per_call": o.allocBytesPerCall,
		"host_allocs_per_call":      o.allocsPerCall,
		"host_heap_live_mb":         float64(o.heapLive) / 1e6,
		"sim_calls_per_s":           ratio(float64(o.windowCalls), o.simBusy().Seconds()),
		"sim_call_us_p50":           float64(h.quantile(0.5)) / 1e3,
		"sim_call_us_p999":          float64(h.quantile(0.999)) / 1e3,
	}
}

// sameSim checks that two windows over the same fixed work made the same
// calls and took the same sim time on every shard, within a relative
// tolerance; with tol 0 their per-call p50 and p99.9 must match too.
func sameSim(a, b *phaseOut, tol float64) error {
	ha, hb := a.simCalls(), b.simCalls()
	ok := a.windowCalls == b.windowCalls && len(a.simElapsed) == len(b.simElapsed)
	for i := 0; ok && i < len(a.simElapsed); i++ {
		ok = math.Abs(float64(a.simElapsed[i]-b.simElapsed[i])) <= tol*float64(a.simElapsed[i])
	}
	if ok && tol == 0 {
		ok = ha.quantile(0.5) == hb.quantile(0.5) && ha.quantile(0.999) == hb.quantile(0.999)
	}
	if !ok {
		return fmt.Errorf("sim numbers differ beyond %g: calls %d vs %d, sim time %v vs %v, p50 %d vs %d ns, p99.9 %d vs %d ns",
			tol, a.windowCalls, b.windowCalls, a.simElapsed, b.simElapsed,
			ha.quantile(0.5), hb.quantile(0.5), ha.quantile(0.999), hb.quantile(0.999))
	}
	return nil
}

// perLayerMetrics derives the traced run's metrics from the untraced
// slice a, the traced slice b and the native slice c, all over the same
// fixed work, and from host, full segments run for --seconds.
func perLayerMetrics(a, b, c, host *phaseOut, setup setupTimes, load map[string]float64, model sim.LatencyModel) map[string]float64 {
	m := map[string]float64{
		"host_calls_per_s":  median(host.segRates),
		"host_heap_peak_mb": float64(host.heapPeak) / 1e6,
		"go.gc_cpu_frac":    host.gcFrac,
	}
	d := a.delta
	calls := float64(a.windowCalls)
	kcalls := calls / 1000
	for i, name := range classNames {
		m["anception.host_ns_p50."+name] = float64(a.host[i].quantile(0.5))
		m["anception.sim_us_p50."+name] = float64(a.sim[i].quantile(0.5)) / 1e3
	}
	m["anception.redirected_per_call"] = ratio(d["layer.redirected"], calls)
	m["anception.host_executed_per_call"] = ratio(d["layer.host_executed"], calls)
	m["anception.cache.hit_ratio"] = ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"])
	m["anception.cache.flushes_per_kcall"] = ratio(d["cache.flushes"], kcalls)
	m["anception.policy.ring_share"] = ratio(d["policy.ring"], d["policy.ring"]+d["policy.sync"])
	m["anception.policy.grant_share"] = ratio(d["policy.grant"], d["policy.grant"]+d["policy.copy"])
	m["anception.policy.explorations_per_kcall"] = ratio(d["policy.explorations"], kcalls)
	m["anception.fusion.chains_per_kcall"] = ratio(d["fusion.chains"], kcalls)
	m["anception.fusion.mispredict_ratio"] = ratio(d["fusion.mispredicts"], d["fusion.mispredicts"]+d["fusion.spec_served"])
	m["anception.binder.session_txn_share"] = ratio(d["binder.session_txns"], d["layer.binder_bridged"])
	m["anception.binder.reply_hit_ratio"] = ratio(d["binder.reply_hits"], d["layer.binder_bridged"])
	m["anception.net.accept_batch"] = ratio(d["harness.accepted"], d["harness.accepts"])
	m["anception.net.ring_ops_per_session"] = ratio(d["net.ring_ops"], d["harness.sessions"])

	var maxSim, sumSim time.Duration
	for _, e := range a.simElapsed {
		maxSim = max(maxSim, e)
		sumSim += e
	}
	m["anception.fleet.shard_sim_imbalance"] = ratio(float64(maxSim)*float64(len(a.simElapsed)), float64(sumSim))
	m["anception.fleet.host_shard_max_frac"] = 1
	if len(a.shardHost) > 0 {
		var maxHost, sumHost time.Duration
		for _, h := range a.shardHost {
			maxHost = max(maxHost, h)
			sumHost += h
		}
		m["anception.fleet.host_shard_max_frac"] = ratio(float64(maxHost), float64(sumHost))
	}

	m["marshal.ring.doorbells_per_call"] = ratio(d["ring.doorbells"], calls)
	m["marshal.ring.slots_per_doorbell"] = ratio(d["ring.submitted"], d["ring.doorbells"])
	m["marshal.ring.reaps_per_kcall"] = ratio(d["ring.reaps"], kcalls)
	m["marshal.ring.max_inflight"] = d["ring.max_inflight"]
	m["hypervisor.world_switches_per_call"] = ratio(d["hv.world_switches"], calls)
	m["hypervisor.grant.maps_per_kcall"] = ratio(d["grant.maps"], kcalls)
	m["hypervisor.grant.bytes_per_map"] = ratio(d["grant.bytes"], d["grant.maps"])
	m["kernel.host_syscalls_per_call"] = ratio(d["kernel.host_syscalls"], calls)
	m["kernel.guest_syscalls_per_call"] = ratio(d["kernel.guest_syscalls"], calls)
	m["kernel.native_host_ns_per_call"] = ratio(1e9, median(c.segRates))
	m["binder.txns_per_kcall"] = ratio(d["binder.txns"], kcalls)
	m["netstack.dgram_drops"] = d["net.dgram_drops"]

	bCalls := float64(b.windowCalls)
	var events float64
	for k, v := range b.delta {
		if strings.HasPrefix(k, "trace.") {
			events += v
		}
	}
	m["sim.trace.events_per_call"] = ratio(events, bCalls)
	for _, k := range traceEventKinds {
		m["sim.trace."+k+"_per_call"] = ratio(b.delta["trace."+k], bCalls)
	}
	m["sim.trace.host_overhead_frac"] = 1 - ratio(median(b.segRates), median(a.segRates))

	ws := d["hv.world_switches"] * float64(model.WorldSwitch)
	grant := d["grant.maps"]*float64(model.GrantMapCost) + d["grant.revokes"]*float64(model.GrantUnmapTLBShootdown)
	m["sim.attributed.world_switch_ns_per_call"] = ratio(ws, calls)
	m["sim.attributed.grant_ns_per_call"] = ratio(grant, calls)
	m["sim.attributed.other_ns_per_call"] = ratio(float64(sumSim)-ws-grant, calls)

	m["setup.boot_s"] = setup.boot
	m["setup.install_launch_s"] = setup.installLaunch
	m["setup.warm_s"] = setup.warm
	for k, v := range load {
		m[k] = v
	}
	return m
}
