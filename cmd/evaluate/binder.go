package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"anception/internal/anception"
	"anception/internal/android"
)

// The binder experiment sweeps the bridge's four configurations — the
// paper's synchronous +19 ms bridge, persistent sessions, sessions over
// the async ring, and sessions + the idempotent reply cache — at 1/4/16
// threads, and folds the rows into BENCH_redirection.json. The paper's
// Section VI-A numbers (12 ms native, 31.0 ms at +128 B on the uncached
// bridge) stay pinned as the baseline the fast path is measured against.

// binderRow is one configuration × thread-count measurement.
type binderRow struct {
	Name    string `json:"name"`
	Threads int    `json:"threads"`
	Bytes   int    `json:"bytes"`
	// SimUsPerTxn is the end-to-end per-transaction latency; OverheadUs
	// subtracts the single-threaded native transaction, isolating the
	// CVM bridging cost ("fixed latency") each configuration pays.
	SimUsPerTxn float64 `json:"sim_us_per_txn"`
	OverheadUs  float64 `json:"overhead_us"`
}

const (
	binderIters   = 40
	binderPayload = 128
)

var binderThreadCounts = []int{1, 4, 16}

// binderConfig is one bridge configuration of the sweep.
type binderConfig struct {
	name string
	opts anception.Options
}

func binderConfigs() []binderConfig {
	hour := time.Hour // fault detector, not a throughput knob (see concurrency.go)
	base := anception.Options{Mode: anception.ModeAnception, DisableTrace: true, CallDeadline: hour}
	session := base
	session.BinderSessions = true
	pipelined := session
	pipelined.RingDepth = 64
	pipelined.RingReapBatch = 64
	cached := pipelined
	cached.BinderReplyCache = true
	return []binderConfig{
		{"sync", base},
		{"session", session},
		{"pipelined", pipelined},
		{"cached", cached},
	}
}

// binderMeasure boots one configuration and measures threads concurrent
// apps each issuing binderIters read-only 128-byte transactions to the
// CVM-resident location service, after one warm-up transaction per app
// (which pays proxy enrollment and, with sessions on, the one-time
// session setup — steady state is what the sweep compares).
func binderMeasure(opts anception.Options, threads int) (float64, error) {
	d, err := anception.NewDevice(opts)
	if err != nil {
		return 0, err
	}
	defer d.Close()

	type worker struct {
		proc *anception.Proc
		fd   int
	}
	payload := make([]byte, binderPayload)
	workers := make([]worker, threads)
	for i := range workers {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.binder%02d", i)})
		if err != nil {
			return 0, err
		}
		proc, err := d.Launch(app)
		if err != nil {
			return 0, err
		}
		fd, err := proc.OpenBinder()
		if err != nil {
			return 0, err
		}
		if _, err := proc.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			return 0, err
		}
		workers[i] = worker{proc, fd}
	}

	start := d.Clock.Now()
	errCh := make(chan error, threads)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < binderIters; n++ {
				if _, err := w.proc.BinderCall(w.fd, "location", android.CodeGetLocation, payload); err != nil {
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
		return 0, err
	default:
	}
	txns := threads * binderIters
	return float64(d.Clock.Now()-start) / float64(txns) / 1e3, nil
}

// binderSingleShot measures one cold transaction of the given payload
// size on a fresh device — the Table I / Section VI-A rows.
func binderSingleShot(mode anception.Mode, bytes int) (float64, error) {
	d, err := anception.NewDevice(anception.Options{Mode: mode, DisableTrace: true})
	if err != nil {
		return 0, err
	}
	p, err := launchBench(d)
	if err != nil {
		return 0, err
	}
	fd, err := p.OpenBinder()
	if err != nil {
		return 0, err
	}
	start := d.Clock.Now()
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, make([]byte, bytes)); err != nil {
		return 0, err
	}
	return float64(d.Clock.Now()-start) / 1e3, nil
}

// binderPinnedRows are the paper-anchored single-shot rows the sweep must
// reproduce byte-for-byte (simulated microseconds): the 12 ms native
// transaction and the uncached bridge's 31.0 -> 31.3 ms at +128 B
// (Section VI-A's +19 ms penalty). Every fast-path knob is opt-in, so
// these never move.
var binderPinnedRows = map[string]float64{
	// entry 0.76 + BinderTransaction 11990 + 142 encoded bytes * 0.02
	"binder128-native": 11993.60,
	// native + CVMPenalty 18700 + 142 * 2.34 (and +270 B encoded at 256)
	"binder128-sync": 31023.04,
	"binder256-sync": 31322.56,
}

// binderRows measures the pinned single-shot rows plus the full sweep.
func binderRows() ([]binderRow, float64, error) {
	var rows []binderRow

	native128, err := binderSingleShot(anception.ModeNative, binderPayload)
	if err != nil {
		return nil, 0, err
	}
	sync128, err := binderSingleShot(anception.ModeAnception, binderPayload)
	if err != nil {
		return nil, 0, err
	}
	sync256, err := binderSingleShot(anception.ModeAnception, 2*binderPayload)
	if err != nil {
		return nil, 0, err
	}
	rows = append(rows,
		binderRow{Name: "binder128-native", Threads: 1, Bytes: binderPayload, SimUsPerTxn: native128},
		binderRow{Name: "binder128-sync", Threads: 1, Bytes: binderPayload, SimUsPerTxn: sync128, OverheadUs: sync128 - native128},
		binderRow{Name: "binder256-sync", Threads: 1, Bytes: 2 * binderPayload, SimUsPerTxn: sync256},
	)
	fmt.Printf("  single-shot: native=%8.2f  sync(+128B)=%8.2f  sync(+256B)=%8.2f sim-us\n",
		native128, sync128, sync256)
	for _, r := range rows {
		want := binderPinnedRows[r.Name]
		if math.Abs(r.SimUsPerTxn-want) > 0.01 {
			return nil, 0, fmt.Errorf("pinned row %s measured %.3f sim-us (want %.3f): the fast path leaked into the uncached bridge", r.Name, r.SimUsPerTxn, want)
		}
	}

	for _, cfg := range binderConfigs() {
		for _, threads := range binderThreadCounts {
			perTxn, err := binderMeasure(cfg.opts, threads)
			if err != nil {
				return nil, 0, fmt.Errorf("%s t=%d: %w", cfg.name, threads, err)
			}
			rows = append(rows, binderRow{
				Name:        fmt.Sprintf("binder128-%s-t%d", cfg.name, threads),
				Threads:     threads,
				Bytes:       binderPayload,
				SimUsPerTxn: perTxn,
				OverheadUs:  perTxn - native128,
			})
			fmt.Printf("  %-10s t=%-2d per-txn=%9.2f sim-us  overhead=%9.2f sim-us\n",
				cfg.name, threads, perTxn, perTxn-native128)
		}
	}
	return rows, native128, nil
}

func binderFind(rows []binderRow, name string) (binderRow, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return binderRow{}, false
}

// binderFloors enforces the acceptance criterion: sessioned and pipelined
// transactions must carry at least 5x less fixed latency (overhead over
// the native transaction) than the synchronous 18.7 ms-penalty bridge.
func binderFloors(rows []binderRow) error {
	syncRow, ok1 := binderFind(rows, "binder128-sync-t16")
	sessRow, ok2 := binderFind(rows, "binder128-session-t16")
	pipeRow, ok3 := binderFind(rows, "binder128-pipelined-t16")
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("floor rows missing from sweep")
	}
	sessRatio := syncRow.OverheadUs / sessRow.OverheadUs
	pipeRatio := syncRow.OverheadUs / pipeRow.OverheadUs
	fmt.Printf("  floor: sync overhead %.0f sim-us vs session %.0f (%.1fx) vs pipelined %.0f (%.1fx)\n",
		syncRow.OverheadUs, sessRow.OverheadUs, sessRatio, pipeRow.OverheadUs, pipeRatio)
	if sessRatio < 5 {
		return fmt.Errorf("session fixed latency only %.2fx below the sync bridge (floor: 5x)", sessRatio)
	}
	if pipeRatio < 5 {
		return fmt.Errorf("pipelined fixed latency only %.2fx below the sync bridge (floor: 5x)", pipeRatio)
	}
	if pipeRatio < sessRatio {
		return fmt.Errorf("pipelining lost to plain sessions (%.2fx vs %.2fx): doorbell coalescing is not biting", pipeRatio, sessRatio)
	}
	return nil
}

// binderExp is the -exp binder experiment: the sync vs session vs
// pipelined vs cached sweep, folded into BENCH_redirection.json.
func binderExp() error {
	fmt.Println("== Binder bridge fast path: sync vs session vs pipelined vs cached ==")
	rows, _, err := binderRows()
	if err != nil {
		return err
	}
	if err := binderFloors(rows); err != nil {
		return err
	}
	report, ok := loadBenchReport()
	if ok {
		if err := zcCheckPinned(&report); err != nil {
			return err
		}
	}
	report.Binder = rows
	if err := writeBenchReport(&report); err != nil {
		return err
	}
	fmt.Printf("  folded %d binder rows into %s\n", len(rows), benchJSONFile)
	return nil
}
