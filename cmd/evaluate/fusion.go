package main

import (
	"fmt"
	"time"

	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/workloads"
)

// The fusion experiment validates syscall fusion (DESIGN.md §17): the
// canonical dependent chain open→fstat→pread(4 KiB)→close runs once on
// a ring device with FusionEnable — one linked submission per chain —
// and once on the identical ring device without it, where the same
// workload degrades to four independent round trips. Floors: the fused
// arm costs at least 3x fewer simulated microseconds per logical call
// and rings at most 0.25 doorbells per fused call. The rows fold into
// BENCH_redirection.json so the win is tracked per commit.

// fusionRow is one arm's outcome.
type fusionRow struct {
	Config string `json:"config"`
	// SimUsPerOp is simulated microseconds per logical system call
	// (4 calls per chain iteration).
	SimUsPerOp float64 `json:"sim_us_per_op"`
	// DoorbellsPerCall is ring doorbell interrupts per logical call —
	// the fused arm's link-batching floor is <= 0.25 (one doorbell
	// covering at least the 4 links of one chain).
	DoorbellsPerCall float64 `json:"doorbells_per_call"`
	// Speedup on the fused row is unfused SimUsPerOp over fused.
	Speedup float64 `json:"speedup,omitempty"`
}

const fusionIters = 500

// fusionOpts is the shared ring configuration of both arms; only
// FusionEnable differs, so the measured gap is fusion itself.
func fusionOpts(fused bool) anception.Options {
	return anception.Options{
		Mode:      anception.ModeAnception,
		RingDepth: 64,
		// A small reap batch keeps completion latency low for the
		// blocking single-threaded chain loop; identical in both arms so
		// the measured gap is fusion itself.
		RingReapBatch: 4,
		FusionEnable:  fused,
		CallDeadline:  time.Hour, // fault detector, not a throughput knob
		DisableTrace:  true,
	}
}

// fusionArm measures one arm: sim-us per logical call and doorbells per
// logical call over the whole chain-scan run.
func fusionArm(fused bool) (fusionRow, error) {
	name := "unfused"
	if fused {
		name = "fused"
	}
	row := fusionRow{Config: name}

	d, err := anception.NewDevice(fusionOpts(fused))
	if err != nil {
		return row, err
	}
	defer d.Close()
	app, err := d.InstallApp(android.AppSpec{Package: "com.bench.fusion"})
	if err != nil {
		return row, err
	}
	p, err := d.Launch(app)
	if err != nil {
		return row, err
	}

	w := workloads.ChainScan(fusionIters)
	bellsBefore := d.Layer.Stats().Ring.Doorbells
	start := d.Clock.Now()
	ops, err := w.Run(p)
	if err != nil {
		return row, fmt.Errorf("%s arm: %w", name, err)
	}
	elapsed := d.Clock.Now() - start
	row.SimUsPerOp = float64(elapsed) / float64(ops) / 1e3
	row.DoorbellsPerCall = float64(d.Layer.Stats().Ring.Doorbells-bellsBefore) / float64(ops)

	if fused {
		fs := d.Layer.Stats().Fusion
		if fs.Chains == 0 {
			return row, fmt.Errorf("fused arm ran but fused no chains: %+v", fs)
		}
		if fs.Submitted != fs.Completed+fs.Failed {
			return row, fmt.Errorf("fused arm accounting identity broken: %+v", fs)
		}
	}
	return row, nil
}

// fusionFloors enforces the acceptance criteria on the measured pair.
func fusionFloors(rows []fusionRow) error {
	var fused, unfused *fusionRow
	for i := range rows {
		switch rows[i].Config {
		case "fused":
			fused = &rows[i]
		case "unfused":
			unfused = &rows[i]
		}
	}
	if fused == nil || unfused == nil {
		return fmt.Errorf("fusion rows incomplete: %+v", rows)
	}
	if fused.Speedup < 3 {
		return fmt.Errorf("fused chain %.2f sim-us/call vs unfused %.2f: %.2fx below the 3x floor",
			fused.SimUsPerOp, unfused.SimUsPerOp, fused.Speedup)
	}
	if fused.DoorbellsPerCall > 0.25 {
		return fmt.Errorf("fused arm rings %.3f doorbells per call, above the 0.25 floor",
			fused.DoorbellsPerCall)
	}
	return nil
}

// fusionExp is the -exp fusion experiment.
func fusionExp() error {
	fmt.Println("== Syscall fusion: linked chain vs independent ring round trips ==")
	unfused, err := fusionArm(false)
	if err != nil {
		return err
	}
	fused, err := fusionArm(true)
	if err != nil {
		return err
	}
	if fused.SimUsPerOp > 0 {
		fused.Speedup = unfused.SimUsPerOp / fused.SimUsPerOp
	}
	rows := []fusionRow{unfused, fused}
	for _, r := range rows {
		fmt.Printf("  %-8s %8.2f sim-us/call  %6.3f doorbells/call\n",
			r.Config, r.SimUsPerOp, r.DoorbellsPerCall)
	}
	fmt.Printf("  fused speedup %.2fx (floor 3x), doorbells/call %.3f (floor 0.25)\n",
		fused.Speedup, fused.DoorbellsPerCall)
	if err := fusionFloors(rows); err != nil {
		return err
	}

	if err := foldBenchReport(rows); err != nil {
		return err
	}
	fmt.Printf("  folded %d fusion rows into %s\n", len(rows), benchJSONFile)
	return nil
}
