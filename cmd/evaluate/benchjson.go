package main

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/anception"
)

// benchJSONFile is the machine-readable report that bench-json,
// concurrency, zerocopy, binder, autotune and fusion fold their sections
// into; CI archives it so their rows are tracked per commit.
const benchJSONFile = "BENCH_redirection.json"

// benchRow is one Table-I-style measurement in simulated microseconds.
type benchRow struct {
	Name       string  `json:"name"`
	SimUsPerOp float64 `json:"sim_us_per_op"`
}

// tableIReport is bench-json's section of BENCH_redirection.json: the
// Table I read/write rows and the redirection cache's speedups over them.
// Its fields sit at the top level of the document.
type tableIReport struct {
	Iterations int        `json:"iterations"`
	Rows       []benchRow `json:"rows"`
	// ReadSpeedup / WriteSpeedup compare the cached Anception
	// configuration against the uncached paper row.
	ReadSpeedup  float64 `json:"read_speedup"`
	WriteSpeedup float64 `json:"write_speedup"`
	// Cache holds the cached device's counters after both loops.
	Cache        anception.CacheStats `json:"cache"`
	CacheHitRate float64              `json:"cache_hit_rate"`
}

// benchReport is the BENCH_redirection.json document. Each section is
// written by one experiment, through foldBenchReport.
type benchReport struct {
	tableIReport
	// Concurrency holds the sync-vs-ring multi-threaded throughput rows
	// (-exp concurrency), so the async-ring win is tracked per commit
	// alongside the cache speedups.
	Concurrency []concRow `json:"concurrency"`
	// Zerocopy holds the copy/grant/grant+ring transfer-size sweep
	// (-exp zerocopy).
	Zerocopy []zcRow `json:"zerocopy,omitempty"`
	// Binder holds the sync/session/pipelined/cached bridge sweep
	// (-exp binder).
	Binder []binderRow `json:"binder,omitempty"`
	// Autotune holds the AutoTune-profile macro-workload sweep
	// (-exp autotune).
	Autotune []autotuneRow `json:"autotune,omitempty"`
	// Fusion holds the fused-vs-unfused dependent-chain pair
	// (-exp fusion).
	Fusion []fusionRow `json:"fusion,omitempty"`
}

// set replaces the section of r that section's type names and leaves
// every other section as it was.
func (r *benchReport) set(section any) {
	switch s := section.(type) {
	case tableIReport:
		r.tableIReport = s
	case []concRow:
		r.Concurrency = s
	case []zcRow:
		r.Zerocopy = s
	case []binderRow:
		r.Binder = s
	case []autotuneRow:
		r.Autotune = s
	case []fusionRow:
		r.Fusion = s
	default:
		panic(fmt.Sprintf("BENCH_redirection.json has no %T section", section))
	}
}

// foldBenchReport folds one experiment's section into
// BENCH_redirection.json: it loads the document, replaces that section
// alone, checks the pinned Table I rows the result holds and writes it
// back, so the experiments merge into one document instead of clobbering
// each other's sections. A missing or stale document starts empty.
func foldBenchReport(section any) error {
	report, _ := loadReport[benchReport](benchJSONFile)
	report.set(section)
	if err := checkPinned(report.Rows...); err != nil {
		return err
	}
	return writeBenchReport(&report)
}

func writeBenchReport(report *benchReport) error {
	return writeReport(benchJSONFile, report)
}

// networkJSONFile is where -exp network writes the redirected-network
// fast-path report. It is a separate document from BENCH_redirection.json
// but shares the iterations header and the benchRow shape, so the same
// tooling parses both.
const networkJSONFile = "BENCH_network.json"

// netWorkloadRow is one transport's open-loop traffic-workload result:
// latency percentiles and throughput under the modeled ~100k-client
// population (workloads.RunNetServer).
type netWorkloadRow struct {
	Transport      string  `json:"transport"`
	Sessions       int     `json:"sessions"`
	Clients        int     `json:"clients"`
	ServerApps     int     `json:"server_apps,omitempty"`
	Lanes          int     `json:"lanes"`
	P50SimUs       float64 `json:"p50_sim_us"`
	P99SimUs       float64 `json:"p99_sim_us"`
	P999SimUs      float64 `json:"p999_sim_us"`
	MaxSimUs       float64 `json:"max_sim_us"`
	OpsPerSimSec   float64 `json:"ops_per_sim_s"`
	ThinkTimeMs    float64 `json:"think_time_ms"`
	AvgAcceptBatch float64 `json:"avg_accept_batch"`
	// PerApp breaks the percentiles down by server app when the row ran
	// more than one server sharing the sockop ring.
	PerApp []netAppRow `json:"per_app,omitempty"`
}

// netAppRow is one server app's slice of a multi-app workload row.
type netAppRow struct {
	Package  string  `json:"package"`
	Sessions int     `json:"sessions"`
	P50SimUs float64 `json:"p50_sim_us"`
	P99SimUs float64 `json:"p99_sim_us"`
}

// networkReport is the -exp network output document.
type networkReport struct {
	Iterations int        `json:"iterations"`
	Rows       []benchRow `json:"rows"`
	// EchoSpeedup compares per-op 128 B echo cost on the sync channel
	// against the pipelined sockop ring; WorkloadSpeedup is the same
	// comparison under the open-loop traffic workload's ops/sim-s.
	EchoSpeedup     float64 `json:"echo_speedup"`
	WorkloadSpeedup float64 `json:"workload_speedup"`
	// GrantSendSpeedup compares the redirection overhead (per-op cost
	// above the native wire+syscall baseline) of the chunk-copied
	// synchronous 64 KiB send against the grant-backed one riding the
	// pipelined ring.
	GrantSendSpeedup float64          `json:"grant_send_speedup"`
	Workload         []netWorkloadRow `json:"workload"`
}

func writeNetworkReport(report *networkReport) error {
	return writeReport(networkJSONFile, report)
}

// benchIters is the iteration count of each Table I loop.
const benchIters = 2000

// benchSetup opens bench.dat on t's app and warms it with one page write
// and one page read, so a cached configuration measures its steady state,
// matching the benchmark harness.
func benchSetup(t *appTask) error {
	if err := openFile(t, "bench.dat", make([]byte, abi.PageSize)); err != nil {
		return err
	}
	return preadPage(t)
}

func preadPage(t *appTask) error {
	_, err := t.p.Pread(t.fd, abi.PageSize, 0)
	return err
}

// tableIRows times benchIters page reads, then as many page writes, on
// the app task of d that benchSetup prepared, and names the two rows
// after config.
func tableIRows(d *anception.Device, t appTask, config string) ([]benchRow, error) {
	tasks := []appTask{t}
	read, err := timeOps(d, tasks, benchIters, preadPage)
	if err != nil {
		return nil, err
	}
	write, err := timeOps(d, tasks, benchIters, pwriteOp)
	if err != nil {
		return nil, err
	}
	return []benchRow{
		{Name: "read4k-" + config, SimUsPerOp: read.usPerOp()},
		{Name: "write4k-" + config, SimUsPerOp: write.usPerOp()},
	}, nil
}

// benchJSON measures the Table I read/write rows across native, uncached
// Anception, and cached Anception, and folds them into
// BENCH_redirection.json.
func benchJSON() error {
	fmt.Println("== bench-json: redirection-cache Table I rows ==")

	type config struct {
		name  string
		mode  anception.Mode
		cache bool
	}
	configs := []config{
		{"native", anception.ModeNative, false},
		{"anception-uncached", anception.ModeAnception, false},
		{"anception-cached", anception.ModeAnception, true},
	}

	perOp := make(map[string][]benchRow) // config name -> read, write rows
	report := tableIReport{Iterations: benchIters}
	for _, cfg := range configs {
		d, tasks, err := launchApps(anception.Options{Mode: cfg.mode, RedirCache: cfg.cache, DisableTrace: true},
			1, benchPkg, benchSetup)
		if err != nil {
			return err
		}
		rows, err := tableIRows(d, tasks[0], cfg.name)
		if cfg.cache {
			report.Cache = d.Layer.Stats().Cache
		}
		d.Close()
		if err != nil {
			return err
		}
		perOp[cfg.name] = rows
		report.Rows = append(report.Rows, rows...)
		fmt.Printf("  %-20s read=%8.2f sim-us  write=%8.2f sim-us\n", cfg.name, rows[0].SimUsPerOp, rows[1].SimUsPerOp)
	}

	uncached, cached := perOp["anception-uncached"], perOp["anception-cached"]
	report.ReadSpeedup = uncached[0].SimUsPerOp / cached[0].SimUsPerOp
	report.WriteSpeedup = uncached[1].SimUsPerOp / cached[1].SimUsPerOp
	if lookups := report.Cache.Hits + report.Cache.Misses; lookups > 0 {
		report.CacheHitRate = float64(report.Cache.Hits) / float64(lookups)
	}
	fmt.Printf("  speedup: read %.1fx, write %.1fx, hit rate %.4f\n",
		report.ReadSpeedup, report.WriteSpeedup, report.CacheHitRate)

	if report.ReadSpeedup < 5 {
		return fmt.Errorf("cached read speedup %.2fx below the 5x acceptance floor", report.ReadSpeedup)
	}
	if report.WriteSpeedup <= 1 {
		return fmt.Errorf("cached write shows no round-trip reduction (%.2fx)", report.WriteSpeedup)
	}
	if err := foldBenchReport(report); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", benchJSONFile)
	return nil
}
