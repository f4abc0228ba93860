package main

import (
	"fmt"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
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

// measureConcurrency drives threads goroutines, each issuing
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
	d, err := anception.NewDevice(opts)
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()

	type worker struct {
		proc *anception.Proc
		fd   int
	}
	workers := make([]worker, threads)
	page := make([]byte, abi.PageSize)
	for i := range workers {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.conc%02d", i)})
		if err != nil {
			return 0, 0, err
		}
		proc, err := d.Launch(app)
		if err != nil {
			return 0, 0, err
		}
		fd, err := proc.Open("conc.dat", abi.ORdWr|abi.OCreat, 0o600)
		if err != nil {
			return 0, 0, err
		}
		if _, err := proc.Pwrite(fd, page, 0); err != nil { // warm the path
			return 0, 0, err
		}
		workers[i] = worker{proc, fd}
	}

	bellsBefore := d.Layer.Stats().Ring.Doorbells
	start := d.Clock.Now()
	errCh := make(chan error, threads)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < concOpsPerThread; n++ {
				if _, err := w.proc.Pwrite(w.fd, page, 0); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, 0, err
	default:
	}
	elapsed := d.Clock.Now() - start

	ops := threads * concOpsPerThread
	opsPerSimSec = float64(ops) / elapsed.Seconds()
	if ring {
		doorbellsPerOp = float64(d.Layer.Stats().Ring.Doorbells-bellsBefore) / float64(ops)
	}
	return opsPerSimSec, doorbellsPerOp, nil
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
// redirected-write throughput, synchronous page channel vs async ring.
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
	return concurrencyFloors(rows)
}
