// Package bench is the benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation, plus the design-choice
// ablations DESIGN.md calls out (A1-A5).
//
// Wall-clock numbers measure the simulator; the figures the paper reports
// are *simulated* durations, emitted as custom metrics:
//
//	sim-us/op      simulated microseconds per operation
//	sim-ms/run     simulated milliseconds per workload run
//	relative       Anception score normalized to native (Figure 6)
//
// Run with:  go test -bench=. -benchmem
package bench

import (
	"fmt"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/exploits"
	"anception/internal/marshal"
	"anception/internal/netstack"
	"anception/internal/workloads"
)

// newBenchDevice boots a quiet platform for measurement.
func newBenchDevice(b *testing.B, mode anception.Mode, opts anception.Options) *anception.Device {
	b.Helper()
	opts.Mode = mode
	opts.DisableTrace = true
	d, err := anception.NewDevice(opts)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func launchBenchApp(b *testing.B, d *anception.Device, pkg string) *anception.Proc {
	b.Helper()
	app, err := d.InstallApp(android.AppSpec{Package: pkg})
	if err != nil {
		b.Fatal(err)
	}
	p, err := d.Launch(app)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// simPerOp reports the simulated latency metric.
func simPerOp(b *testing.B, d *anception.Device, start time.Duration) {
	b.Helper()
	elapsed := d.Clock.Now() - start
	b.ReportMetric(float64(elapsed)/float64(b.N)/1e3, "sim-us/op")
}

// --- Table I: ASIM microbenchmark latency -------------------------------

func benchNullCall(b *testing.B, mode anception.Mode) {
	d := newBenchDevice(b, mode, anception.Options{})
	p := launchBenchApp(b, d, "com.bench.null")
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Getpid()
	}
	simPerOp(b, d, start)
}

func BenchmarkTableI_NullCall_Native(b *testing.B)    { benchNullCall(b, anception.ModeNative) }
func BenchmarkTableI_NullCall_Anception(b *testing.B) { benchNullCall(b, anception.ModeAnception) }

func benchWrite4K(b *testing.B, mode anception.Mode, opts anception.Options) {
	d := newBenchDevice(b, mode, opts)
	p := launchBenchApp(b, d, "com.bench.write")
	fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, abi.PageSize)
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pwrite(fd, page, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
}

func BenchmarkTableI_Write4K_Native(b *testing.B) {
	benchWrite4K(b, anception.ModeNative, anception.Options{})
}

// The shipped Anception configuration runs with the redirection cache on:
// repeated same-page writes coalesce in the host-side buffer and flush in
// amortized round-trips (DESIGN.md §9).
func BenchmarkTableI_Write4K_Anception(b *testing.B) {
	benchWrite4K(b, anception.ModeAnception, anception.Options{RedirCache: true})
}

// The paper's Table I row: every write pays the full redirected round-trip.
func BenchmarkTableI_Write4K_AnceptionUncached(b *testing.B) {
	benchWrite4K(b, anception.ModeAnception, anception.Options{})
}

func benchRead4K(b *testing.B, mode anception.Mode, opts anception.Options) {
	d := newBenchDevice(b, mode, opts)
	p := launchBenchApp(b, d, "com.bench.read")
	fd, err := p.Open("bench.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Pwrite(fd, make([]byte, abi.PageSize), 0); err != nil {
		b.Fatal(err)
	}
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pread(fd, abi.PageSize, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
}

func BenchmarkTableI_Read4K_Native(b *testing.B) {
	benchRead4K(b, anception.ModeNative, anception.Options{})
}

// The shipped Anception configuration: the warm read is served from the
// host-side page cache without touching the data channel.
func BenchmarkTableI_Read4K_Anception(b *testing.B) {
	benchRead4K(b, anception.ModeAnception, anception.Options{RedirCache: true})
}

// The paper's Table I row: every read pays the full redirected round-trip.
func BenchmarkTableI_Read4K_AnceptionUncached(b *testing.B) {
	benchRead4K(b, anception.ModeAnception, anception.Options{})
}

// BenchmarkPing measures the supervisor heartbeat; the -benchmem allocation
// count is pinned to zero in TestPingZeroAllocs.
func BenchmarkPing(b *testing.B) {
	d := newBenchDevice(b, anception.ModeAnception, anception.Options{})
	if err := d.Layer.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Layer.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBinder(b *testing.B, mode anception.Mode, payload int) {
	d := newBenchDevice(b, mode, anception.Options{})
	p := launchBenchApp(b, d, "com.bench.binder")
	bfd, err := p.OpenBinder()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, payload)
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, buf); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
}

func BenchmarkTableI_Binder128_Native(b *testing.B)    { benchBinder(b, anception.ModeNative, 128) }
func BenchmarkTableI_Binder128_Anception(b *testing.B) { benchBinder(b, anception.ModeAnception, 128) }
func BenchmarkTableI_Binder256_Native(b *testing.B)    { benchBinder(b, anception.ModeNative, 256) }
func BenchmarkTableI_Binder256_Anception(b *testing.B) { benchBinder(b, anception.ModeAnception, 256) }

// --- Binder bridge fast path (DESIGN.md §12) ------------------------------

// benchBinderOpts measures steady-state bridged binder transactions under
// one fast-path configuration: one warm-up call pays proxy enrollment and
// any one-time session setup, then every measured call is steady state.
func benchBinderOpts(b *testing.B, opts anception.Options) {
	d := newBenchDevice(b, anception.ModeAnception, opts)
	defer d.Close()
	p := launchBenchApp(b, d, "com.bench.binderfast")
	fd, err := p.OpenBinder()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
		b.Fatal(err)
	}
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
	st := d.BinderStats()
	if st.Submitted > 0 {
		b.ReportMetric(float64(st.ReplyHits)/float64(st.Submitted+st.ReplyHits), "reply-hits/op")
	}
}

// The synchronous baseline: the paper's uncached +19 ms bridge.
func BenchmarkBinder_Sync(b *testing.B) {
	benchBinderOpts(b, anception.Options{CallDeadline: time.Hour})
}

// Persistent sessions: pinned guest handle, BinderSessionPerTxn per call.
func BenchmarkBinder_Session(b *testing.B) {
	benchBinderOpts(b, anception.Options{BinderSessions: true, CallDeadline: time.Hour})
}

// Sessions over the async ring: coalesced doorbells take the world-switch
// pair off the fixed cost.
func BenchmarkBinder_SessionRing(b *testing.B) {
	benchBinderOpts(b, anception.Options{
		BinderSessions: true,
		RingDepth:      marshal.DefaultRingDepth,
		RingReapBatch:  marshal.DefaultRingDepth,
		CallDeadline:   time.Hour,
	})
}

// Idempotent reply cache on top: repeated read-only transactions are
// served host-side without a CVM transaction at all.
func BenchmarkBinder_ReplyCache(b *testing.B) {
	benchBinderOpts(b, anception.Options{
		BinderSessions: true, BinderReplyCache: true, CallDeadline: time.Hour,
	})
}

// TestBinderSessionFloor pins the headline number of the binder fast path:
// a sessioned transaction must carry at least 5x less fixed latency
// (overhead over the native transaction) than the synchronous 18.7 ms-
// penalty bridge. Simulated time is deterministic — a model regression
// guard, not a flaky timing test.
func TestBinderSessionFloor(t *testing.T) {
	const iters = 50
	measure := func(mode anception.Mode, opts anception.Options) float64 {
		opts.Mode = mode
		opts.DisableTrace = true
		d, err := anception.NewDevice(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		app, err := d.InstallApp(android.AppSpec{Package: "com.bench.binderfloor"})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Launch(app)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := p.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 128)
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			t.Fatal(err)
		}
		start := d.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
				t.Fatal(err)
			}
		}
		return float64(d.Clock.Now()-start) / iters
	}
	native := measure(anception.ModeNative, anception.Options{})
	syncUs := measure(anception.ModeAnception, anception.Options{CallDeadline: time.Hour})
	sessUs := measure(anception.ModeAnception, anception.Options{BinderSessions: true, CallDeadline: time.Hour})
	syncOver, sessOver := syncUs-native, sessUs-native
	if speedup := syncOver / sessOver; speedup < 5 {
		t.Fatalf("session fixed latency only %.2fx below the sync bridge (floor: 5x; sync %.0f, session %.0f sim-ns over native)",
			speedup, syncOver, sessOver)
	}
}

// --- Async redirection ring (DESIGN.md §10) -------------------------------

// benchRingWrite4K is benchWrite4K on a ring device, with the SQ poller
// shut down when the benchmark ends.
func benchRingWrite4K(b *testing.B, opts anception.Options) {
	d := newBenchDevice(b, anception.ModeAnception, opts)
	defer d.Close()
	p := launchBenchApp(b, d, "com.bench.ring")
	fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, abi.PageSize)
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pwrite(fd, page, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
	st := d.Layer.Stats().Ring
	if st.Submitted > 0 {
		b.ReportMetric(float64(st.Doorbells)/float64(st.Submitted), "doorbells/op")
	}
}

// The synchronous baseline for the ring comparison is
// BenchmarkTableI_Write4K_AnceptionUncached: same op, page channel.
func BenchmarkRing_Write4K(b *testing.B) {
	benchRingWrite4K(b, anception.Options{
		RingDepth: marshal.DefaultRingDepth,
	})
}

// BenchmarkRing_Ping measures the heartbeat through the async ring; the
// allocation count is pinned to zero in TestRingPingZeroAllocs.
func BenchmarkRing_Ping(b *testing.B) {
	d := newBenchDevice(b, anception.ModeAnception, anception.Options{RingDepth: 8})
	defer d.Close()
	if err := d.Layer.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Layer.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Zero-copy grants (DESIGN.md §11) -------------------------------------

// grantRingOpts is the shipped bulk configuration: grants over the async
// ring and a lazy reap cadence (descriptor-only
// slots tolerate it). The hour deadline is the usual fault-detector
// setting for shared-clock measurement.
func grantRingOpts() anception.Options {
	return anception.Options{
		GrantThreshold: 4096,
		RingDepth:      marshal.DefaultRingDepth,
		RingReapBatch:  marshal.DefaultRingDepth,
		CallDeadline:   time.Hour,
	}
}

// benchBulkRead64K measures uncached 64 KiB preads into a reused buffer
// (reuse is what a real grant path pins for).
func benchBulkRead64K(b *testing.B, opts anception.Options) {
	d := newBenchDevice(b, anception.ModeAnception, opts)
	defer d.Close()
	p := launchBenchApp(b, d, "com.bench.grant")
	fd, err := p.Open("bench.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	if _, err := p.Pwrite(fd, buf, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := p.PreadInto(fd, buf, 0); err != nil { // warm the path
		b.Fatal(err)
	}
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PreadInto(fd, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
	if g := d.GrantStats(); g.Calls > 0 {
		b.ReportMetric(float64(g.Bytes)/float64(g.Calls), "granted-B/op")
	}
}

// The copy-path baseline for the grant comparison: same op, chunked
// channel.
func BenchmarkGrant_Read64K_Copy(b *testing.B) {
	benchBulkRead64K(b, anception.Options{CallDeadline: time.Hour})
}

// Grants on the synchronous channel: the payload moves by reference, the
// call still pays both world switches.
func BenchmarkGrant_Read64K(b *testing.B) {
	benchBulkRead64K(b, anception.Options{GrantThreshold: 4096, CallDeadline: time.Hour})
}

// Grants over the async ring: descriptor-only slots ride the inline SQE
// area and the doorbell/dispatch amortization does the rest.
func BenchmarkGrant_Ring_Read64K(b *testing.B) {
	benchBulkRead64K(b, grantRingOpts())
}

// BenchmarkGrant_Writev64K: a 16-segment vectored write granted as one
// batch — one map charge and one shootdown for the whole iovec.
func BenchmarkGrant_Writev64K(b *testing.B) {
	d := newBenchDevice(b, anception.ModeAnception, anception.Options{
		GrantThreshold: 4096, CallDeadline: time.Hour,
	})
	defer d.Close()
	p := launchBenchApp(b, d, "com.bench.grantv")
	fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	iov := make([][]byte, 16)
	for i := range iov {
		iov[i] = make([]byte, 4<<10)
	}
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pwritev(fd, iov, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
	if g := d.GrantStats(); g.Calls > 0 {
		b.ReportMetric(float64(g.Table.Entries)/float64(g.Calls), "grant-entries/op")
	}
}

// TestGrantReadFloor pins the headline number of the zero-copy path: 64
// KiB uncached reads over grants+ring must be at least 5x faster than the
// copy path. Simulated time is deterministic, so this is a model
// regression guard, not a flaky timing test.
func TestGrantReadFloor(t *testing.T) {
	const iters = 100
	measure := func(opts anception.Options) float64 {
		opts.Mode = anception.ModeAnception
		opts.DisableTrace = true
		d, err := anception.NewDevice(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		app, err := d.InstallApp(android.AppSpec{Package: "com.bench.floor"})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Launch(app)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := p.Open("bench.dat", abi.ORdWr|abi.OCreat, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		if _, err := p.Pwrite(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.PreadInto(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		start := d.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := p.PreadInto(fd, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return float64(d.Clock.Now()-start) / iters
	}
	copyUs := measure(anception.Options{CallDeadline: time.Hour})
	grantUs := measure(grantRingOpts())
	if speedup := copyUs / grantUs; speedup < 5 {
		t.Fatalf("grant+ring 64K read speedup %.2fx below the 5x floor (copy %.1f, grant %.1f sim-ns/op)",
			speedup, copyUs, grantUs)
	}
}

// --- Figure 6: AnTuTu macrobenchmarks ------------------------------------

func benchWorkload(b *testing.B, mode anception.Mode, w workloads.Workload) {
	var totalSim time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := workloads.MeasureOn(mode, w)
		if err != nil {
			b.Fatal(err)
		}
		totalSim += m.Simulated
	}
	b.ReportMetric(float64(totalSim)/float64(b.N)/1e6, "sim-ms/run")
}

func BenchmarkFigure6_DatabaseIO_Native(b *testing.B) {
	benchWorkload(b, anception.ModeNative, workloads.AnTuTuDatabaseIO())
}
func BenchmarkFigure6_DatabaseIO_Anception(b *testing.B) {
	benchWorkload(b, anception.ModeAnception, workloads.AnTuTuDatabaseIO())
}
func BenchmarkFigure6_2DGraphics_Native(b *testing.B) {
	benchWorkload(b, anception.ModeNative, workloads.AnTuTu2D())
}
func BenchmarkFigure6_2DGraphics_Anception(b *testing.B) {
	benchWorkload(b, anception.ModeAnception, workloads.AnTuTu2D())
}
func BenchmarkFigure6_3DGraphics_Native(b *testing.B) {
	benchWorkload(b, anception.ModeNative, workloads.AnTuTu3D())
}
func BenchmarkFigure6_3DGraphics_Anception(b *testing.B) {
	benchWorkload(b, anception.ModeAnception, workloads.AnTuTu3D())
}

// BenchmarkFigure6_RelativeScores reports the normalized bars of the
// figure directly.
func BenchmarkFigure6_RelativeScores(b *testing.B) {
	suites := []workloads.Workload{
		workloads.AnTuTuDatabaseIO(), workloads.AnTuTu2D(), workloads.AnTuTu3D(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range suites {
			c, err := workloads.Compare(w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(c.RelativeScore(), w.Name+"-relative")
		}
	}
}

// --- Figure 7: SunSpider --------------------------------------------------

func benchSunSpider(b *testing.B, mode anception.Mode, suite string) {
	w, ok := workloads.SunSpiderWorkload(suite)
	if !ok {
		b.Fatalf("suite %q", suite)
	}
	benchWorkload(b, mode, w)
}

func BenchmarkFigure7_3D_Native(b *testing.B)    { benchSunSpider(b, anception.ModeNative, "3d") }
func BenchmarkFigure7_3D_Anception(b *testing.B) { benchSunSpider(b, anception.ModeAnception, "3d") }
func BenchmarkFigure7_Access_Native(b *testing.B) {
	benchSunSpider(b, anception.ModeNative, "access")
}
func BenchmarkFigure7_Access_Anception(b *testing.B) {
	benchSunSpider(b, anception.ModeAnception, "access")
}
func BenchmarkFigure7_Bitops_Native(b *testing.B) {
	benchSunSpider(b, anception.ModeNative, "bitops")
}
func BenchmarkFigure7_Bitops_Anception(b *testing.B) {
	benchSunSpider(b, anception.ModeAnception, "bitops")
}
func BenchmarkFigure7_Ctrlflow_Native(b *testing.B) {
	benchSunSpider(b, anception.ModeNative, "ctrlflow")
}
func BenchmarkFigure7_Ctrlflow_Anception(b *testing.B) {
	benchSunSpider(b, anception.ModeAnception, "ctrlflow")
}
func BenchmarkFigure7_Math_Native(b *testing.B) { benchSunSpider(b, anception.ModeNative, "math") }
func BenchmarkFigure7_Math_Anception(b *testing.B) {
	benchSunSpider(b, anception.ModeAnception, "math")
}
func BenchmarkFigure7_String_Native(b *testing.B) {
	benchSunSpider(b, anception.ModeNative, "string")
}
func BenchmarkFigure7_String_Anception(b *testing.B) {
	benchSunSpider(b, anception.ModeAnception, "string")
}

// --- Section VI-B: the SQLite row benchmark ------------------------------

func BenchmarkSQLite10KRows_Native(b *testing.B) {
	benchWorkload(b, anception.ModeNative, workloads.SQLiteRowBench())
}
func BenchmarkSQLite10KRows_Anception(b *testing.B) {
	benchWorkload(b, anception.ModeAnception, workloads.SQLiteRowBench())
}

// --- Section VI-C: memory overhead ----------------------------------------

func BenchmarkMemoryOverhead(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := newBenchDevice(b, anception.ModeAnception, anception.Options{})
		for j := 0; j < 23; j++ {
			launchBenchApp(b, d, fmt.Sprintf("com.active%02d", j))
		}
		m := d.CVMMemory()
		b.ReportMetric(float64(m.ActiveKB), "active-KB")
		b.ReportMetric(float64(m.AvailableKB), "available-KB")
		b.ReportMetric(float64(m.FreeKB), "free-KB")
	}
}

// --- Section V-B: the vulnerability study as a regression bench ----------

func BenchmarkVulnerabilityStudy(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := exploits.RunStudy(anception.Options{Mode: anception.ModeAnception})
		if err != nil {
			b.Fatal(err)
		}
		s := exploits.Summarize(results)
		b.ReportMetric(float64(s.Failed), "failed")
		b.ReportMetric(float64(s.CVMRoot), "cvm-root")
		b.ReportMetric(float64(s.HostRoot), "host-root")
	}
}

// --- Ablations A1-A5 -------------------------------------------------------

// A1: keep filesystem calls on the host — the 4 KiB write drops back to
// native latency at the cost of ~1.2M privileged kernel lines.
func BenchmarkAblationA1_HostFSWrite(b *testing.B) {
	d := newBenchDevice(b, anception.ModeAnception, anception.Options{KeepFSOnHost: true})
	p := launchBenchApp(b, d, "com.bench.a1")
	fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, abi.PageSize)
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pwrite(fd, page, 0); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
}

// A2: chunk-size sweep on a 64 KiB redirected write.
func BenchmarkAblationA2_ChunkSize(b *testing.B) {
	for _, chunk := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("%dB", chunk), func(b *testing.B) {
			d := newBenchDevice(b, anception.ModeAnception, anception.Options{ChunkSize: chunk})
			p := launchBenchApp(b, d, "com.bench.a2")
			fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 64<<10)
			start := d.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Pwrite(fd, buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			simPerOp(b, d, start)
		})
	}
}

// A3: the naive 4-context-switch proxy dispatch vs the in-kernel wait.
func BenchmarkAblationA3_NaiveDispatch(b *testing.B) {
	for _, naive := range []bool{false, true} {
		name := "optimized"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			d := newBenchDevice(b, anception.ModeAnception, anception.Options{NaiveDispatch: naive})
			p := launchBenchApp(b, d, "com.bench.a3")
			fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
			if err != nil {
				b.Fatal(err)
			}
			page := make([]byte, abi.PageSize)
			start := d.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Pwrite(fd, page, 0); err != nil {
					b.Fatal(err)
				}
			}
			simPerOp(b, d, start)
		})
	}
}

// A4: headless vs full Android stack in the CVM (memory pressure).
func BenchmarkAblationA4_HeadlessMemory(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "headless"
		if full {
			name = "full-stack"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := newBenchDevice(b, anception.ModeAnception, anception.Options{FullCVMStack: full})
				m := d.CVMMemory()
				b.ReportMetric(float64(m.ActiveKB), "active-KB")
			}
		})
	}
}

// A5: the discarded socket/virtio transport vs remapped guest pages.
func BenchmarkAblationA5_Transport(b *testing.B) {
	for _, socket := range []bool{false, true} {
		name := "remapped-pages"
		if socket {
			name = "socket"
		}
		b.Run(name, func(b *testing.B) {
			d := newBenchDevice(b, anception.ModeAnception, anception.Options{SocketTransport: socket})
			p := launchBenchApp(b, d, "com.bench.a5")
			fd, err := p.Open("bench.dat", abi.OWrOnly|abi.OCreat, 0o600)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 16*abi.PageSize)
			start := d.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Pwrite(fd, buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			simPerOp(b, d, start)
		})
	}
}

// --- Section VI-A: the ioctl profile -------------------------------------

func BenchmarkIoctlProfile(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := workloads.RunProfile(anception.ModeAnception)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.AvgIoctlFrac, "ioctl-frac")
		b.ReportMetric(stats.UIIoctlFrac, "ui-ioctl-frac")
	}
}

// --- Real-application session and launch latency ---------------------------

func BenchmarkAppSession_Native(b *testing.B) {
	benchWorkload(b, anception.ModeNative, workloads.InteractiveSession())
}
func BenchmarkAppSession_Anception(b *testing.B) {
	benchWorkload(b, anception.ModeAnception, workloads.InteractiveSession())
}

func benchLaunch(b *testing.B, mode anception.Mode) {
	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := workloads.MeasureLaunch(mode)
		if err != nil {
			b.Fatal(err)
		}
		total += st.Latency
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "sim-ms/launch")
}

func BenchmarkAppLaunch_Native(b *testing.B)    { benchLaunch(b, anception.ModeNative) }
func BenchmarkAppLaunch_Anception(b *testing.B) { benchLaunch(b, anception.ModeAnception) }

// How many enrolled apps fit in the paper's 64 MB container — the
// provisioning question behind that choice.
func BenchmarkCVMSizeProxyCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := newBenchDevice(b, anception.ModeAnception, anception.Options{})
		launched := 0
		for j := 0; j < 1000; j++ {
			app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.cap%04d", j)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Launch(app); err != nil {
				break // guest region exhausted: capacity reached
			}
			launched++
		}
		b.ReportMetric(float64(launched), "apps")
		b.ReportMetric(float64(d.CVMMemory().ActiveKB), "active-KB")
	}
}

// --- Network fast path (DESIGN.md §14) ------------------------------------

// benchSockEcho measures one redirected echo round trip — send the
// payload, recv the reply — against a registered simulated remote.
func benchSockEcho(b *testing.B, opts anception.Options, size, respLen int) {
	d := newBenchDevice(b, anception.ModeAnception, opts)
	defer d.Close()
	d.RegisterRemote("echo.bench:80", func(req []byte) []byte {
		if len(req) > 128 {
			return []byte("ok")
		}
		return req
	})
	p := launchBenchApp(b, d, "com.bench.sock")
	fd, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Connect(fd, "echo.bench:80"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	if _, err := p.Send(fd, payload); err != nil { // warm the path
		b.Fatal(err)
	}
	if _, err := p.Recv(fd, respLen); err != nil {
		b.Fatal(err)
	}
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Send(fd, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Recv(fd, respLen); err != nil {
			b.Fatal(err)
		}
	}
	simPerOp(b, d, start)
	if st := d.NetStats(); st.Submitted > 0 {
		b.ReportMetric(float64(st.RingOps)/float64(st.Submitted), "ring-frac")
	}
}

// The synchronous sockop baseline: generic TLV forwards, two world
// switches per op. evaluate -exp network pins this row uncached.
func BenchmarkSocket_SyncEcho(b *testing.B) {
	benchSockEcho(b, anception.Options{CallDeadline: time.Hour}, 128, 128)
}

// Sockets over the async ring: compact sockop frames in inline slots.
func BenchmarkSocket_RingEcho(b *testing.B) {
	benchSockEcho(b, anception.Options{
		RingDepth:     marshal.DefaultRingDepth,
		RingReapBatch: marshal.DefaultRingDepth,
		CallDeadline:  time.Hour,
	}, 128, 128)
}

// A 64 KiB send moving by grant reference over the ring; the reply is a
// short ack so the outbound leg dominates.
func BenchmarkSocket_GrantSend64K(b *testing.B) {
	benchSockEcho(b, grantRingOpts(), 64<<10, 2)
}

// BenchmarkSocket_AcceptBatch measures the batched accept4 path: each op
// is one wave of DefaultNetBatch loopback connects drained by a single
// epoll_wait plus batched accept4 calls, echoed and closed.
func BenchmarkSocket_AcceptBatch(b *testing.B) {
	d := newBenchDevice(b, anception.ModeAnception, anception.Options{
		RingDepth: marshal.DefaultRingDepth, CallDeadline: time.Hour,
	})
	defer d.Close()
	srv := launchBenchApp(b, d, "com.bench.srv")
	cli := launchBenchApp(b, d, "com.bench.cli")
	lfd, err := srv.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Bind(lfd, "bench.cvm:9000"); err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen(lfd, 0); err != nil {
		b.Fatal(err)
	}
	epfd, err := srv.EpollCreate()
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.EpollCtl(epfd, 1, lfd); err != nil {
		b.Fatal(err)
	}
	msg := []byte("ping")
	start := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fds := make([]int, 0, anception.DefaultNetBatch)
		for j := 0; j < anception.DefaultNetBatch; j++ {
			fd, err := cli.Socket(netstack.AFInet, netstack.SockStream, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := cli.Connect(fd, "bench.cvm:9000"); err != nil {
				b.Fatal(err)
			}
			if _, err := cli.Send(fd, msg); err != nil {
				b.Fatal(err)
			}
			fds = append(fds, fd)
		}
		ready, err := srv.EpollWait(epfd, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rfd := range ready {
			conns, err := srv.AcceptBatch(rfd, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfd := range conns {
				req, err := srv.Recv(cfd, len(msg))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := srv.Send(cfd, req); err != nil {
					b.Fatal(err)
				}
				if err := srv.Close(cfd); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, fd := range fds {
			if _, err := cli.Recv(fd, len(msg)); err != nil {
				b.Fatal(err)
			}
			if err := cli.Close(fd); err != nil {
				b.Fatal(err)
			}
		}
	}
	simPerOp(b, d, start)
	if st := d.NetStats(); st.Batches > 0 {
		b.ReportMetric(float64(st.BatchedFDs)/float64(st.Batches), "fds/batch")
	}
}

// --- CVM fleet (DESIGN.md §16) ---

// benchFleetMix runs the mixed page/bulk/socket/binder fleet workload
// at a given shard count. Fleet elapsed is the slowest shard's clock,
// so the ops/sim-s metric scales with the shard count (the scaling
// floor itself is enforced by evaluate -exp fleet in CI).
func benchFleetMix(b *testing.B, size int) {
	var last workloads.FleetMixStats
	for i := 0; i < b.N; i++ {
		st, err := workloads.RunFleetMix(workloads.FleetMixConfig{
			FleetSize: size, Apps: 8, OpsPerApp: 16, WarmupOps: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(last.OpsPerSimSec, "ops/sim-s")
	b.ReportMetric(float64(last.Elapsed)/float64(time.Millisecond), "sim-ms/run")
}

func BenchmarkFleetMix_1CVM(b *testing.B) { benchFleetMix(b, 1) }
func BenchmarkFleetMix_4CVM(b *testing.B) { benchFleetMix(b, 4) }

// BenchmarkFleetMigration measures one app migration between two warm
// shards: flush, gate, per-CVM epoch drain, data-directory copy,
// re-enroll, relaunch. Cost is summed across both shard clocks.
func BenchmarkFleetMigration(b *testing.B) {
	f, err := anception.NewFleet(anception.Options{
		FleetSize: 2, RedirCache: true, RingDepth: 64,
		GrantThreshold: 16 << 10, DisableTrace: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	app, err := f.InstallApp(android.AppSpec{Package: "com.bench.mover"})
	if err != nil {
		b.Fatal(err)
	}
	p := app.Proc()
	fd, err := p.Open("state.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Pwrite(fd, make([]byte, abi.PageSize), 0); err != nil {
		b.Fatal(err)
	}
	start := f.Shard(0).Dev.Clock.Now() + f.Shard(1).Dev.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Migrate(app, (app.Shard()+1)%2); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := f.Shard(0).Dev.Clock.Now() + f.Shard(1).Dev.Clock.Now() - start
	b.ReportMetric(float64(elapsed)/float64(b.N)/1e3, "sim-us/op")
}
