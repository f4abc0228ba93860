package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Shared JSON report plumbing: every experiment that persists a report
// document (BENCH_redirection.json, BENCH_network.json, BENCH_fleet.json)
// loads and writes it through these two helpers, so merge semantics —
// read the existing document, replace only your section, write the whole
// thing back — are implemented once.

// reportSchemaVersion stamps every written document. CI parses the
// BENCH_*.json files for floors; bump this whenever a section's shape
// changes so a stale document is rejected loudly instead of parsed into
// zero values that silently pass or fail the floors.
const reportSchemaVersion = 2

// loadReport reads a JSON report document into a zero value of T,
// reporting ok=false when the file is missing or unparsable (callers
// then start from an empty document). A parsable document with a
// missing or mismatched schema_version is schema drift: it is reported
// on stderr — loudly, so CI logs show why the old sections vanished —
// and discarded.
func loadReport[T any](path string) (T, bool) {
	var report T
	blob, err := os.ReadFile(path)
	if err != nil {
		return report, false
	}
	var ver struct {
		V *int `json:"schema_version"`
	}
	if err := json.Unmarshal(blob, &ver); err != nil {
		return report, false
	}
	if ver.V == nil || *ver.V != reportSchemaVersion {
		got := "absent"
		if ver.V != nil {
			got = fmt.Sprint(*ver.V)
		}
		fmt.Fprintf(os.Stderr, "evaluate: %s: schema_version %s, want %d — discarding the stale document; rerun every experiment that folds into it\n",
			path, got, reportSchemaVersion)
		return report, false
	}
	if json.Unmarshal(blob, &report) != nil {
		var zero T
		return zero, false
	}
	return report, true
}

// writeReport writes a report document as indented JSON with a trailing
// newline — the exact shape CI archives and diffs — stamping the current
// schema_version. Keys are sorted, so regenerated documents diff stably.
func writeReport[T any](path string, report *T) error {
	blob, err := json.Marshal(report)
	if err != nil {
		return err
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		return err
	}
	doc["schema_version"] = reportSchemaVersion
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// pinnedRows are the rows every experiment that measures or folds them
// must leave untouched (simulated microseconds). Every fast-path knob is
// opt-in, so the paths these rows take never move.
var pinnedRows = map[string]float64{
	// Table I's uncached 4 KiB read and write (bench-json, and the 1-CVM
	// fleet shard).
	"read4k-anception-uncached":  304.908,
	"write4k-anception-uncached": 384.26,
	// Section VI-A's binder rows: the 12 ms native transaction
	// (entry 0.76 + BinderTransaction 11990 + 142 encoded bytes * 0.02)
	// and the uncached bridge's 31.0 -> 31.3 ms at +128 B (native +
	// CVMPenalty 18700 + 142 * 2.34, and +270 B encoded at 256).
	"binder128-native": 11993.60,
	"binder128-sync":   31023.04,
	"binder256-sync":   31322.56,
	// The network experiment's synchronous uncached baseline.
	"echo128-sync-uncached": 566.576,
	"connect-sync-uncached": 38842.460,
	"send64k-sync-uncached": 2362.954,
}

// checkPinned fails on the first pinned row that moved.
func checkPinned(rows ...benchRow) error {
	for _, row := range rows {
		if want, pinned := pinnedRows[row.Name]; pinned && math.Abs(row.SimUsPerOp-want) > 0.01 {
			return fmt.Errorf("pinned row %s moved: %.3f sim-us (want %.3f)", row.Name, row.SimUsPerOp, want)
		}
	}
	return nil
}
