package main

import (
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
)

// concRow is one thread-count measurement of the sync-vs-ring throughput
// experiment, in operations per simulated second.
type concRow struct {
	Threads        int     `json:"threads"`
	SyncOpsPerSec  float64 `json:"sync_ops_per_sim_sec"`
	RingOpsPerSec  float64 `json:"ring_ops_per_sim_sec"`
	RingSpeedup    float64 `json:"ring_speedup"`
	DoorbellsPerOp float64 `json:"doorbells_per_op"`
}

// concThreads are the measured thread counts; the 16-thread row carries
// the acceptance floors.
var concThreads = [...]int{1, 4, 16}

const (
	concOpsPerThread = 300
	concRingDepth    = 64
)

// measureConcurrency drives threads app tasks, each issuing
// concOpsPerThread redirected 4 KiB pwrites against its own app and file,
// and reports aggregate ops per simulated second. With ring=true the
// device runs the async ring transport; doorbellsPerOp is how many
// doorbell interrupts the burst cost per call (0 on the sync channel,
// where every call pays its two world switches instead).
func measureConcurrency(threads int, ring bool) (opsPerSimSec, doorbellsPerOp float64, err error) {
	// The per-call deadline is a fault detector, not a throughput knob: a
	// call's sim-elapsed time includes every other thread's charges on the
	// shared clock, so under saturation it would false-positive. Lift it
	// far out of the way on both transports.
	opts := anception.Options{
		Mode:         anception.ModeAnception,
		DisableTrace: true,
		CallDeadline: time.Hour,
	}
	if ring {
		opts.RingDepth = concRingDepth
	}
	page := make([]byte, abi.PageSize)
	d, tasks, err := launchApps(opts, threads, "com.conc%02d", func(t *appTask) error {
		return openFile(t, "conc.dat", page)
	})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()

	bellsBefore := d.Layer.Stats().Ring.Doorbells
	run, err := timeOps(d, tasks, concOpsPerThread, pwriteOp)
	if err != nil {
		return 0, 0, err
	}
	if ring {
		doorbellsPerOp = float64(d.Layer.Stats().Ring.Doorbells-bellsBefore) / float64(run.ops)
	}
	return run.opsPerSimSec(), doorbellsPerOp, nil
}

// concurrencyRows measures every thread count on both transports.
func concurrencyRows() ([]concRow, error) {
	rows := make([]concRow, 0, len(concThreads))
	for _, threads := range concThreads {
		syncOps, _, err := measureConcurrency(threads, false)
		if err != nil {
			return nil, fmt.Errorf("sync %d threads: %w", threads, err)
		}
		ringOps, bells, err := measureConcurrency(threads, true)
		if err != nil {
			return nil, fmt.Errorf("ring %d threads: %w", threads, err)
		}
		rows = append(rows, concRow{
			Threads:        threads,
			SyncOpsPerSec:  syncOps,
			RingOpsPerSec:  ringOps,
			RingSpeedup:    ringOps / syncOps,
			DoorbellsPerOp: bells,
		})
	}
	return rows, nil
}

// concurrencyFloors enforces the acceptance criteria on the 16-thread row:
// the ring must at least double synchronous throughput, and interrupt
// coalescing must hold doorbells per operation under one.
func concurrencyFloors(rows []concRow) error {
	for _, r := range rows {
		if r.Threads != 16 {
			continue
		}
		if r.RingSpeedup < 2 {
			return fmt.Errorf("ring speedup %.2fx at 16 threads below the 2x acceptance floor", r.RingSpeedup)
		}
		if r.DoorbellsPerOp >= 1 {
			return fmt.Errorf("doorbells per op %.3f at 16 threads: coalescing is not amortizing interrupts", r.DoorbellsPerOp)
		}
		return nil
	}
	return fmt.Errorf("no 16-thread row measured")
}

// concurrency is the -exp concurrency experiment: multi-threaded
// redirected-write throughput, synchronous page channel vs async ring,
// folded into BENCH_redirection.json.
func concurrency() error {
	fmt.Println("== Concurrency: sync channel vs async ring throughput ==")
	rows, err := concurrencyRows()
	if err != nil {
		return err
	}
	fmt.Printf("  %8s %18s %18s %9s %14s\n", "threads", "sync ops/sim-s", "ring ops/sim-s", "speedup", "doorbells/op")
	for _, r := range rows {
		fmt.Printf("  %8d %18.0f %18.0f %8.2fx %14.3f\n",
			r.Threads, r.SyncOpsPerSec, r.RingOpsPerSec, r.RingSpeedup, r.DoorbellsPerOp)
	}
	if err := concurrencyFloors(rows); err != nil {
		return err
	}
	return foldBenchReport(rows)
}
