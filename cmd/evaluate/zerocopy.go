package main

import (
	"fmt"
	"math"
	"time"

	"anception/internal/anception"
)

// The zerocopy experiment sweeps bulk-transfer sizes across the three
// data paths — chunked copy, zero-copy grants on the synchronous
// channel, and grants over the async ring — and records the copy-vs-flip
// crossover in BENCH_redirection.json. The copy baseline is kept honest
// by also sweeping the channel chunk size (ablation A2) at the floor's
// 64 KiB size: the grant path must beat the *best* chunked
// configuration, not just the default.

// zcRow is one transfer-size × data-path measurement.
type zcRow struct {
	Name       string  `json:"name"`
	Bytes      int     `json:"bytes"`
	SimUsPerOp float64 `json:"sim_us_per_op"`
}

var zcSizes = []struct {
	label string
	bytes int
}{
	{"4k", 4 << 10},
	{"16k", 16 << 10},
	{"64k", 64 << 10},
	{"256k", 256 << 10},
	{"1m", 1 << 20},
}

const (
	zcIters = 120
	// zcGrantThreshold makes every swept size grant-eligible, so the
	// measured 4 KiB grant row exposes where the copy path still wins.
	zcGrantThreshold = 4 << 10
	// zcFloorLabel is the transfer size carrying the acceptance floor.
	zcFloorLabel = "64k"
	// zcRingThreads pipelines the ring configuration: concurrent
	// submitters keep the SQ full so doorbells, reaps, and proxy
	// wakeups amortize across the batch.
	zcRingThreads = 8
)

// zcConfig is one data-path configuration of the sweep.
type zcConfig struct {
	name    string
	opts    anception.Options
	threads int
}

func zcConfigs() []zcConfig {
	hour := time.Hour // fault detector, not a throughput knob (see concurrency.go)
	return []zcConfig{
		{
			name:    "copy",
			opts:    anception.Options{Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: hour},
			threads: 1,
		},
		{
			name: "grant",
			opts: anception.Options{
				Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: hour,
				GrantThreshold: zcGrantThreshold,
			},
			threads: 1,
		},
		{
			// Pipelined submitters keep the SQ poller's queue deep, so
			// one ProxyDispatch charge drains many slots.
			name: "grant-ring",
			opts: anception.Options{
				Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: hour,
				GrantThreshold: zcGrantThreshold,
				RingDepth:      64, RingReapBatch: 64,
			},
			threads: zcRingThreads,
		},
	}
}

// zcChunkSweep are the extra copy-path chunk sizes measured at the floor
// size (A2): the honest baseline is the fastest of these and the default.
var zcChunkSweep = []int{16 << 10, 64 << 10}

// zcMeasure boots one configuration and measures uncached redirected
// preads and pwrites of size bytes, aggregated across cfg.threads
// pipelined submitters on the shared sim clock.
func zcMeasure(size int, cfg zcConfig) (readUs, writeUs float64, err error) {
	pread := func(t *appTask) error {
		_, err := t.p.PreadInto(t.fd, t.buf, 0)
		return err
	}
	d, tasks, err := launchApps(cfg.opts, cfg.threads, "com.zc%02d", func(t *appTask) error {
		if err := openFile(t, "zc.dat", make([]byte, size)); err != nil {
			return err
		}
		return pread(t) // warm the path
	})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	read, err := timeOps(d, tasks, zcIters, pread)
	if err != nil {
		return 0, 0, err
	}
	write, err := timeOps(d, tasks, zcIters, pwriteOp)
	if err != nil {
		return 0, 0, err
	}
	return read.usPerOp(), write.usPerOp(), nil
}

// zerocopyRows measures the full sweep.
func zerocopyRows() ([]zcRow, error) {
	var rows []zcRow
	for _, size := range zcSizes {
		for _, cfg := range zcConfigs() {
			readUs, writeUs, err := zcMeasure(size.bytes, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", cfg.name, size.label, err)
			}
			rows = append(rows,
				zcRow{Name: fmt.Sprintf("read%s-%s", size.label, cfg.name), Bytes: size.bytes, SimUsPerOp: readUs},
				zcRow{Name: fmt.Sprintf("write%s-%s", size.label, cfg.name), Bytes: size.bytes, SimUsPerOp: writeUs},
			)
			fmt.Printf("  %-6s %-12s read=%9.2f sim-us  write=%9.2f sim-us\n",
				size.label, cfg.name, readUs, writeUs)
		}
	}
	// A2 chunk sweep at the floor size: the copy baseline must be honest.
	hour := time.Hour
	for _, chunk := range zcChunkSweep {
		cfg := zcConfig{
			name: fmt.Sprintf("copy-chunk%dk", chunk>>10),
			opts: anception.Options{
				Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: hour,
				ChunkSize: chunk,
			},
			threads: 1,
		}
		readUs, writeUs, err := zcMeasure(64<<10, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		rows = append(rows,
			zcRow{Name: fmt.Sprintf("read%s-%s", zcFloorLabel, cfg.name), Bytes: 64 << 10, SimUsPerOp: readUs},
			zcRow{Name: fmt.Sprintf("write%s-%s", zcFloorLabel, cfg.name), Bytes: 64 << 10, SimUsPerOp: writeUs},
		)
		fmt.Printf("  %-6s %-12s read=%9.2f sim-us  write=%9.2f sim-us\n",
			zcFloorLabel, cfg.name, readUs, writeUs)
	}
	return rows, nil
}

func zcFind(rows []zcRow, name string) (float64, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r.SimUsPerOp, true
		}
	}
	return 0, false
}

// zerocopyFloors enforces the acceptance criteria: the sweep must show a
// measured crossover (copy wins at 4 KiB, grants win by 16 KiB), and
// grant+ring 64 KiB uncached reads must be at least 5× faster than the
// best copy-path configuration at the same size.
func zerocopyFloors(rows []zcRow) error {
	copy4k, ok1 := zcFind(rows, "read4k-copy")
	grant4k, ok2 := zcFind(rows, "read4k-grant")
	grant16k, ok3 := zcFind(rows, "read16k-grant")
	copy16k, ok4 := zcFind(rows, "read16k-copy")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("crossover rows missing from sweep")
	}
	if copy4k > grant4k {
		return fmt.Errorf("no crossover: copy already loses at 4k (%.2f vs %.2f sim-us) — the map+shootdown charge is not biting", copy4k, grant4k)
	}
	if grant16k >= copy16k {
		return fmt.Errorf("no crossover: grant still loses at 16k (%.2f vs %.2f sim-us)", grant16k, copy16k)
	}
	fmt.Printf("  crossover: copy wins at 4k (%.2f vs %.2f), grant wins at 16k (%.2f vs %.2f)\n",
		copy4k, grant4k, grant16k, copy16k)

	// Honest copy baseline: the fastest chunked configuration measured.
	bestCopy := math.Inf(1)
	bestName := ""
	for _, r := range rows {
		if r.Bytes == 64<<10 && len(r.Name) >= 11 && r.Name[:11] == "read64k-cop" {
			if r.SimUsPerOp < bestCopy {
				bestCopy, bestName = r.SimUsPerOp, r.Name
			}
		}
	}
	grantRing, ok := zcFind(rows, "read64k-grant-ring")
	if !ok || math.IsInf(bestCopy, 1) {
		return fmt.Errorf("floor rows missing from sweep")
	}
	speedup := bestCopy / grantRing
	fmt.Printf("  floor: grant+ring 64k read %.2f sim-us vs best copy %.2f (%s) = %.2fx\n",
		grantRing, bestCopy, bestName, speedup)
	if speedup < 5 {
		return fmt.Errorf("grant+ring 64k read speedup %.2fx below the 5x acceptance floor", speedup)
	}
	return nil
}

// zerocopy is the -exp zerocopy experiment: the copy vs grant vs
// grant+ring transfer-size sweep, folded into BENCH_redirection.json.
func zerocopy() error {
	fmt.Println("== Zero-copy grants: copy vs grant vs grant+ring transfer sweep ==")
	rows, err := zerocopyRows()
	if err != nil {
		return err
	}
	if err := zerocopyFloors(rows); err != nil {
		return err
	}
	if err := foldBenchReport(rows); err != nil {
		return err
	}
	fmt.Printf("  folded %d zerocopy rows into %s\n", len(rows), benchJSONFile)
	return nil
}
