package main

import (
	"fmt"
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

// binderCall sends one read-only transaction of t.buf to the
// CVM-resident location service.
func binderCall(t *appTask) error {
	_, err := t.p.BinderCall(t.fd, "location", android.CodeGetLocation, t.buf)
	return err
}

// binderMeasure boots opts and measures threads concurrent apps each
// issuing iters transactions of bytes. With warm set, each app first
// sends one untimed transaction, which pays proxy enrollment and, with
// sessions on, the one-time session setup — steady state is what the
// sweep compares; without it, the timed transaction is a cold one, as in
// the single-shot Table I / Section VI-A rows.
func binderMeasure(opts anception.Options, threads int, pkg string, iters, bytes int, warm bool) (float64, error) {
	run, err := drive(opts, threads, pkg, iters, func(t *appTask) error {
		fd, err := t.p.OpenBinder()
		if err != nil {
			return err
		}
		t.fd, t.buf = fd, make([]byte, bytes)
		if warm {
			return binderCall(t)
		}
		return nil
	}, binderCall)
	return run.usPerOp(), err
}

// binderRows measures the pinned single-shot rows plus the full sweep.
func binderRows() ([]binderRow, float64, error) {
	singleShot := func(mode anception.Mode, bytes int) (float64, error) {
		return binderMeasure(anception.Options{Mode: mode, DisableTrace: true}, 1, benchPkg, 1, bytes, false)
	}
	native128, err := singleShot(anception.ModeNative, binderPayload)
	if err != nil {
		return nil, 0, err
	}
	sync128, err := singleShot(anception.ModeAnception, binderPayload)
	if err != nil {
		return nil, 0, err
	}
	sync256, err := singleShot(anception.ModeAnception, 2*binderPayload)
	if err != nil {
		return nil, 0, err
	}
	rows := []binderRow{
		{Name: "binder128-native", Threads: 1, Bytes: binderPayload, SimUsPerTxn: native128},
		{Name: "binder128-sync", Threads: 1, Bytes: binderPayload, SimUsPerTxn: sync128, OverheadUs: sync128 - native128},
		{Name: "binder256-sync", Threads: 1, Bytes: 2 * binderPayload, SimUsPerTxn: sync256},
	}
	fmt.Printf("  single-shot: native=%8.2f  sync(+128B)=%8.2f  sync(+256B)=%8.2f sim-us\n",
		native128, sync128, sync256)
	for _, r := range rows {
		if err := checkPinned(benchRow{Name: r.Name, SimUsPerOp: r.SimUsPerTxn}); err != nil {
			return nil, 0, fmt.Errorf("%w: the fast path leaked into the uncached bridge", err)
		}
	}

	for _, cfg := range binderConfigs() {
		for _, threads := range binderThreadCounts {
			perTxn, err := binderMeasure(cfg.opts, threads, "com.binder%02d", binderIters, binderPayload, true)
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
	if err := foldBenchReport(rows); err != nil {
		return err
	}
	fmt.Printf("  folded %d binder rows into %s\n", len(rows), benchJSONFile)
	return nil
}
