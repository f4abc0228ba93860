package workloads

import (
	"testing"
	"time"

	"anception/internal/anception"
)

// TestNetServerWorkload runs the open-loop echo-server traffic workload
// small on each transport and checks its invariants: ordered
// percentiles, formed accept batches, and the ring beating the
// synchronous channel (the full floors are enforced by evaluate -exp
// network in CI).
func TestNetServerWorkload(t *testing.T) {
	cfg := NetServerConfig{Sessions: 1500}
	ring, err := RunNetServer(anception.ModeAnception, anception.Options{
		RingDepth:      64,
		GrantThreshold: 16384,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := RunNetServer(anception.ModeAnception, anception.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	native, err := RunNetServer(anception.ModeNative, anception.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, st := range []NetServerStats{ring, sync, native} {
		if st.Sessions != cfg.Sessions || st.OpsPerSimSec <= 0 {
			t.Fatalf("%s: degenerate run: %+v", st.Mode, st)
		}
		if st.P50 <= 0 || st.P50 > st.P99 || st.P99 > st.P999 || st.P999 > st.Max {
			t.Fatalf("%s: percentiles out of order: %+v", st.Mode, st)
		}
		if st.AvgAcceptBatch < 2 {
			t.Fatalf("%s: accept batching never formed: avg %.2f", st.Mode, st.AvgAcceptBatch)
		}
		if st.DgramDrops != 0 {
			t.Fatalf("%s: stream workload counted dgram drops: %d", st.Mode, st.DgramDrops)
		}
	}
	if ring.OpsPerSimSec < 2*sync.OpsPerSimSec {
		t.Fatalf("ring sockets %.0f ops/sim-s, sync %.0f: want >= 2x",
			ring.OpsPerSimSec, sync.OpsPerSimSec)
	}
	if native.OpsPerSimSec <= ring.OpsPerSimSec {
		t.Fatalf("native %.0f ops/sim-s should exceed redirected ring %.0f",
			native.OpsPerSimSec, ring.OpsPerSimSec)
	}
}

// TestNetServerDeterminism extends the reproducibility promise to the
// traffic workload: identical runs produce identical percentiles.
func TestNetServerDeterminism(t *testing.T) {
	cfg := NetServerConfig{Sessions: 600}
	opts := anception.Options{RingDepth: 32}
	a, err := RunNetServer(anception.ModeAnception, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNetServer(anception.ModeAnception, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.P50 != b.P50 || a.P99 != b.P99 || a.P999 != b.P999 || a.OpsPerSimSec != b.OpsPerSimSec {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

// TestNetServerMixedSizes runs the request-size-mix variant: the tier
// assignment is deterministic (60% 256 B, 30% 4 KiB, 10% 64 KiB by
// session index), every echo comes back full length (drain checks it),
// and bulk tiers make the mixed run cost more sim time per session than
// the uniform 256 B run on the same transport.
func TestNetServerMixedSizes(t *testing.T) {
	counts := [3]int{}
	for i := 0; i < 1000; i++ {
		counts[mixedTierFor(i)]++
	}
	if counts != [3]int{600, 300, 100} {
		t.Fatalf("tier mix over 1000 sessions = %v, want [600 300 100]", counts)
	}

	opts := anception.Options{RingDepth: 64, GrantThreshold: 16384}
	mixed, err := RunNetServer(anception.ModeAnception, opts, NetServerConfig{Sessions: 1000, MixedSizes: true})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := RunNetServer(anception.ModeAnception, opts, NetServerConfig{Sessions: 1000, ReqBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []NetServerStats{mixed, uniform} {
		if st.Sessions != 1000 || st.OpsPerSimSec <= 0 {
			t.Fatalf("degenerate run: %+v", st)
		}
		if st.P50 <= 0 || st.P50 > st.P99 || st.P99 > st.P999 || st.P999 > st.Max {
			t.Fatalf("percentiles out of order: %+v", st)
		}
	}
	if mixed.OpsPerSimSec >= uniform.OpsPerSimSec {
		t.Fatalf("mixed sizes %.0f ops/sim-s should cost more than uniform 256 B %.0f",
			mixed.OpsPerSimSec, uniform.OpsPerSimSec)
	}

	// The mix is part of the reproducibility promise too.
	again, err := RunNetServer(anception.ModeAnception, opts, NetServerConfig{Sessions: 1000, MixedSizes: true})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.P50 != again.P50 || mixed.P99 != again.P99 || mixed.OpsPerSimSec != again.OpsPerSimSec {
		t.Fatalf("mixed run not deterministic: %+v vs %+v", mixed, again)
	}
}

// TestNetServerMultiApp runs several independent server apps sharing
// the one sockop ring, with the modeled client population scaled to a
// million: sessions spread across apps round-robin, per-app percentiles
// are reported and consistent with the aggregate, and a single-app run
// through the generalized rig stays byte-identical to the historical
// single-server workload.
func TestNetServerMultiApp(t *testing.T) {
	opts := anception.Options{RingDepth: 64, GrantThreshold: 16384}
	multi, err := RunNetServer(anception.ModeAnception, opts, NetServerConfig{
		Sessions: 2000, Clients: 1_000_000, ServerApps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if multi.ServerApps != 4 || len(multi.PerApp) != 4 {
		t.Fatalf("per-app stats missing: %+v", multi)
	}
	total := 0
	for a, per := range multi.PerApp {
		if per.Sessions == 0 {
			t.Fatalf("app %d served no sessions", a)
		}
		total += per.Sessions
		if per.P50 <= 0 || per.P50 > per.P99 || per.P99 > per.P999 {
			t.Fatalf("app %d percentiles out of order: %+v", a, per)
		}
		// Aggregate percentiles bracket every app's p50.
		if per.P50 > multi.Max {
			t.Fatalf("app %d p50 %v above aggregate max %v", a, per.P50, multi.Max)
		}
	}
	if total != multi.Sessions {
		t.Fatalf("per-app sessions sum %d != %d total", total, multi.Sessions)
	}
	if multi.PerApp[0].Package != "com.netserver.echo" || multi.PerApp[1].Package != "com.netserver.echo1" {
		t.Fatalf("unexpected app naming: %+v", multi.PerApp)
	}
	// The modeled population sets the reported think time: a million
	// clients at the measured arrival rate.
	if want := time.Duration(1_000_000) * multi.Interarrival; multi.ThinkTime != want {
		t.Fatalf("think time %v, want %v", multi.ThinkTime, want)
	}

	// Round-robin across apps is even when sessions divide evenly.
	for a := 1; a < len(multi.PerApp); a++ {
		if multi.PerApp[a].Sessions != multi.PerApp[0].Sessions {
			t.Fatalf("uneven app spread: %+v", multi.PerApp)
		}
	}

	// ServerApps=1 through the generalized rig is byte-identical to the
	// historical single-server run: same ports, same package, same sim
	// timeline.
	cfg := NetServerConfig{Sessions: 600}
	one, err := RunNetServer(anception.ModeAnception, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunNetServer(anception.ModeAnception, opts, NetServerConfig{Sessions: 600, ServerApps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.P50 != explicit.P50 || one.P99 != explicit.P99 || one.Elapsed != explicit.Elapsed ||
		one.OpsPerSimSec != explicit.OpsPerSimSec {
		t.Fatalf("ServerApps=1 changed the workload:\n  default=%+v\n  explicit=%+v", one, explicit)
	}
	if len(one.PerApp) != 1 || one.PerApp[0].Sessions != 600 {
		t.Fatalf("single-app per-app stats: %+v", one.PerApp)
	}
}
