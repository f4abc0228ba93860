package main

import (
	"fmt"
	"time"

	"anception/internal/anception"
	"anception/internal/workloads"
)

// The autotune experiment validates the AutoTune fast profile (DESIGN.md
// §15): it replays the macro workloads — AnTuTu Database I/O, a
// SunSpider suite, and the SQLite row benchmark — across the hand-tuned
// single-knob configurations the earlier experiments shipped, then once
// more with Options.AutoTune and every knob unset, and asserts the
// auto-tuned device matches or beats the best hand-tuned configuration
// on every workload. The rows fold into BENCH_redirection.json so the
// floor is tracked per commit.

// autotuneRow is one workload's sweep outcome.
type autotuneRow struct {
	Workload string `json:"workload"`
	// Configs maps each hand-tuned configuration to its throughput in
	// ops per simulated second.
	Configs map[string]float64 `json:"configs"`
	// BestHand names the fastest hand-tuned configuration.
	BestHand    string  `json:"best_hand_tuned"`
	BestHandOps float64 `json:"best_hand_tuned_ops_per_sim_s"`
	// AutotunedOps is the fast profile's throughput on the same
	// workload; Speedup = AutotunedOps / BestHandOps (floor: >= 1.0).
	AutotunedOps float64 `json:"autotuned_ops_per_sim_s"`
	Speedup      float64 `json:"speedup"`
}

// autotuneConfig is one hand-tuned knob configuration of the sweep:
// exactly the shapes the zerocopy, concurrency, binder, and bench-json
// experiments hand-picked for their floors.
type autotuneConfig struct {
	name string
	opts anception.Options
}

func autotuneConfigs() []autotuneConfig {
	hour := time.Hour // fault detector, not a throughput knob (see concurrency.go)
	return []autotuneConfig{
		{"sync-uncached", anception.Options{CallDeadline: hour}},
		{"cached", anception.Options{RedirCache: true, CallDeadline: hour}},
		{"ring", anception.Options{
			RingDepth: 64, RingReapBatch: 64, CallDeadline: hour,
		}},
		{"grant-ring", anception.Options{
			GrantThreshold: 16 << 10,
			RingDepth:      64, RingReapBatch: 64, CallDeadline: hour,
		}},
		{"binder-fast", anception.Options{
			BinderSessions: true, BinderReplyCache: true, CallDeadline: hour,
		}},
	}
}

// autotuneWorkloads are the macro workloads the sweep replays.
func autotuneWorkloads() []workloads.Workload {
	sun, _ := workloads.SunSpiderWorkload("string")
	return []workloads.Workload{
		workloads.AnTuTuDatabaseIO(),
		sun,
		workloads.SQLiteRowBench(),
	}
}

// autotuneSweep measures one workload across every configuration.
func autotuneSweep(w workloads.Workload) (autotuneRow, error) {
	row := autotuneRow{Workload: w.Name, Configs: make(map[string]float64)}
	for _, cfg := range autotuneConfigs() {
		m, err := workloads.MeasureOnOpts(anception.ModeAnception, cfg.opts, w)
		if err != nil {
			return row, fmt.Errorf("%s on %s: %w", w.Name, cfg.name, err)
		}
		ops := m.OpsPerSecond()
		row.Configs[cfg.name] = ops
		if ops > row.BestHandOps {
			row.BestHand, row.BestHandOps = cfg.name, ops
		}
	}
	m, err := workloads.MeasureOnOpts(anception.ModeAnception,
		anception.Options{AutoTune: true, CallDeadline: time.Hour}, w)
	if err != nil {
		return row, fmt.Errorf("%s autotuned: %w", w.Name, err)
	}
	row.AutotunedOps = m.OpsPerSecond()
	if row.BestHandOps > 0 {
		row.Speedup = row.AutotunedOps / row.BestHandOps
	}
	return row, nil
}

// autotuneFloors enforces the acceptance criterion: on every workload
// the auto-tuned device matches or beats the best hand-tuned knob
// configuration. The epsilon only absorbs float division jitter — a
// genuine regression is orders of magnitude larger.
func autotuneFloors(rows []autotuneRow) error {
	for _, r := range rows {
		if r.Speedup < 1-1e-9 {
			return fmt.Errorf("%s: autotuned %.1f ops/sim-s below best hand-tuned %s at %.1f (%.4fx, floor 1.0x)",
				r.Workload, r.AutotunedOps, r.BestHand, r.BestHandOps, r.Speedup)
		}
	}
	return nil
}

// autotuneExp is the -exp autotune experiment.
func autotuneExp() error {
	fmt.Println("== Autotune: fast profile vs hand-tuned knob configs ==")
	var rows []autotuneRow
	for _, w := range autotuneWorkloads() {
		row, err := autotuneSweep(w)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s best hand-tuned %-13s %10.1f ops/sim-s, autotuned %10.1f (%.4fx)\n",
			row.Workload, row.BestHand, row.BestHandOps, row.AutotunedOps, row.Speedup)
		rows = append(rows, row)
	}
	if err := autotuneFloors(rows); err != nil {
		return err
	}
	if err := foldBenchReport(rows); err != nil {
		return err
	}
	fmt.Printf("  folded %d autotune rows into %s\n", len(rows), benchJSONFile)
	return nil
}
