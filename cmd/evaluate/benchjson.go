package main

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/anception"
)

// benchJSONFile is where -exp bench-json writes its machine-readable
// report; CI archives it so the redirection-cache speedups are tracked
// per commit.
const benchJSONFile = "BENCH_redirection.json"

// benchRow is one Table-I-style measurement in simulated microseconds.
type benchRow struct {
	Name       string  `json:"name"`
	SimUsPerOp float64 `json:"sim_us_per_op"`
}

// benchReport is the bench-json output document.
type benchReport struct {
	Iterations int        `json:"iterations"`
	Rows       []benchRow `json:"rows"`
	// ReadSpeedup / WriteSpeedup compare the cached Anception
	// configuration against the uncached paper row.
	ReadSpeedup  float64 `json:"read_speedup"`
	WriteSpeedup float64 `json:"write_speedup"`
	// Cache holds the cached device's counters after both loops.
	Cache        anception.CacheStats `json:"cache"`
	CacheHitRate float64              `json:"cache_hit_rate"`
	// Concurrency holds the sync-vs-ring multi-threaded throughput rows
	// (-exp concurrency), so the async-ring win is tracked per commit
	// alongside the cache speedups.
	Concurrency []concRow `json:"concurrency"`
	// Zerocopy holds the copy/grant/grant+ring transfer-size sweep
	// (-exp zerocopy). bench-json preserves it on rewrite, and the
	// zerocopy experiment preserves every other section, so the two
	// experiments merge into one document.
	Zerocopy []zcRow `json:"zerocopy,omitempty"`
	// Binder holds the sync/session/pipelined/cached bridge sweep
	// (-exp binder), merged the same way.
	Binder []binderRow `json:"binder,omitempty"`
	// Autotune holds the AutoTune-profile macro-workload sweep
	// (-exp autotune), merged the same way.
	Autotune []autotuneRow `json:"autotune,omitempty"`
	// Fusion holds the fused-vs-unfused dependent-chain pair
	// (-exp fusion), merged the same way.
	Fusion []fusionRow `json:"fusion,omitempty"`
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

// benchDevice boots a quiet platform and a benchmark app for bench-json.
func benchDevice(mode anception.Mode, cache bool) (*anception.Device, *anception.Proc, error) {
	d, err := anception.NewDevice(anception.Options{Mode: mode, RedirCache: cache, DisableTrace: true})
	if err != nil {
		return nil, nil, err
	}
	p, err := launchBench(d)
	if err != nil {
		return nil, nil, err
	}
	return d, p, nil
}

// benchJSON measures the Table I read/write rows across native, uncached
// Anception, and cached Anception, and writes BENCH_redirection.json.
func benchJSON() error {
	const iters = 2000
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

	perOp := make(map[string]map[string]float64) // op -> config name -> sim-us
	report := benchReport{Iterations: iters}
	for _, cfg := range configs {
		d, p, err := benchDevice(cfg.mode, cfg.cache)
		if err != nil {
			return err
		}
		fd, err := p.Open("bench.dat", abi.ORdWr|abi.OCreat, 0o600)
		if err != nil {
			return err
		}
		page := make([]byte, abi.PageSize)
		if _, err := p.Pwrite(fd, page, 0); err != nil {
			return err
		}
		// One warm-up read so the cached configuration measures its steady
		// state, matching the benchmark harness.
		if _, err := p.Pread(fd, abi.PageSize, 0); err != nil {
			return err
		}

		start := d.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := p.Pread(fd, abi.PageSize, 0); err != nil {
				return err
			}
		}
		readUs := float64(d.Clock.Now()-start) / iters / 1e3

		start = d.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := p.Pwrite(fd, page, 0); err != nil {
				return err
			}
		}
		writeUs := float64(d.Clock.Now()-start) / iters / 1e3

		perOp[cfg.name] = map[string]float64{"read": readUs, "write": writeUs}
		report.Rows = append(report.Rows,
			benchRow{Name: "read4k-" + cfg.name, SimUsPerOp: readUs},
			benchRow{Name: "write4k-" + cfg.name, SimUsPerOp: writeUs},
		)
		if cfg.cache {
			report.Cache = d.Layer.Stats().Cache
		}
		fmt.Printf("  %-20s read=%8.2f sim-us  write=%8.2f sim-us\n", cfg.name, readUs, writeUs)
	}

	report.ReadSpeedup = perOp["anception-uncached"]["read"] / perOp["anception-cached"]["read"]
	report.WriteSpeedup = perOp["anception-uncached"]["write"] / perOp["anception-cached"]["write"]
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

	concRows, err := concurrencyRows()
	if err != nil {
		return err
	}
	report.Concurrency = concRows
	for _, r := range report.Concurrency {
		fmt.Printf("  %2d threads: sync=%8.0f ring=%8.0f ops/sim-s (%.2fx, %.3f doorbells/op)\n",
			r.Threads, r.SyncOpsPerSec, r.RingOpsPerSec, r.RingSpeedup, r.DoorbellsPerOp)
	}
	if err := concurrencyFloors(report.Concurrency); err != nil {
		return err
	}

	if prev, ok := loadBenchReport(); ok {
		report.Zerocopy = prev.Zerocopy
		report.Binder = prev.Binder
		report.Autotune = prev.Autotune
		report.Fusion = prev.Fusion
	}
	if err := writeBenchReport(&report); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", benchJSONFile)
	return nil
}
