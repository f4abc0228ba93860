package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReportRoundTrip pins the shared report helpers' merge contract:
// load what you wrote byte-for-byte equal after a round trip, absent and
// corrupt files report ok=false (so experiments start from an empty
// document), and a section-merge via load-modify-write preserves the
// sections it did not touch.
func TestReportRoundTrip(t *testing.T) {
	type doc struct {
		Iterations int      `json:"iterations"`
		Rows       []string `json:"rows,omitempty"`
		Extra      []string `json:"extra,omitempty"`
	}
	path := filepath.Join(t.TempDir(), "report.json")

	if _, ok := loadReport[doc](path); ok {
		t.Fatal("missing file must load ok=false")
	}

	want := doc{Iterations: 3, Rows: []string{"a", "b"}}
	if err := writeReport(path, &want); err != nil {
		t.Fatal(err)
	}
	got, ok := loadReport[doc](path)
	if !ok {
		t.Fatal("round trip load failed")
	}
	if got.Iterations != want.Iterations || len(got.Rows) != 2 || got.Rows[1] != "b" {
		t.Fatalf("round trip mangled the document: %+v", got)
	}

	// Section merge: touch Extra, leave Rows alone.
	got.Extra = []string{"merged"}
	if err := writeReport(path, &got); err != nil {
		t.Fatal(err)
	}
	merged, ok := loadReport[doc](path)
	if !ok || len(merged.Rows) != 2 || len(merged.Extra) != 1 {
		t.Fatalf("merge clobbered a section: %+v (ok=%v)", merged, ok)
	}

	// The written file ends in exactly one newline (the shape CI diffs)
	// and carries the current schema_version stamp.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 2 || blob[len(blob)-1] != '\n' || blob[len(blob)-2] == '\n' {
		t.Fatalf("report file must end in exactly one newline: %q", blob[len(blob)-4:])
	}
	stamp := fmt.Sprintf("\"schema_version\": %d", reportSchemaVersion)
	if !strings.Contains(string(blob), stamp) {
		t.Fatalf("written report lacks %s:\n%s", stamp, blob)
	}

	// Schema drift — wrong or missing version on an otherwise valid
	// document — must be rejected so floors never parse zero values.
	for _, drifted := range []string{
		`{"iterations": 3, "schema_version": 1}`,
		`{"iterations": 3}`,
	} {
		if err := os.WriteFile(path, []byte(drifted+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := loadReport[doc](path); ok {
			t.Fatalf("drifted document loaded ok=true: %s", drifted)
		}
	}
	if err := writeReport(path, &want); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadReport[doc](path); ok {
		t.Fatal("corrupt file must load ok=false")
	}
}

// TestFleetFloorsSiblingDrift: the fleet floors accept the measured
// blast-radius drill (siblings' per-op cost 8.89% off) and reject a drill
// whose siblings drift past maxSiblingDriftPct.
func TestFleetFloorsSiblingDrift(t *testing.T) {
	report := fleetReport{
		LinearEfficiency8: 1,
		BlastRadius:       fleetBlastRow{DegradedApps: 8, SiblingDriftPct: 8.89, Recovered: true},
		Migration:         fleetMigrationRow{DataOK: true, ServeAfter: true},
		PinnedOK:          true,
	}
	if err := fleetFloors(&report); err != nil {
		t.Fatalf("the measured drill fails the floors: %v", err)
	}
	report.BlastRadius.SiblingDriftPct = maxSiblingDriftPct + 0.5
	if err := fleetFloors(&report); err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("a %.1f%% sibling drift passed the floors (err %v)", report.BlastRadius.SiblingDriftPct, err)
	}
}

// TestBenchFoldKeepsOtherSections: each experiment's fold into
// BENCH_redirection.json, applied to a document that holds every
// section, replaces its own section and keeps every other one.
func TestBenchFoldKeepsOtherSections(t *testing.T) {
	full := func() benchReport {
		return benchReport{
			tableIReport: tableIReport{Iterations: 1, Rows: []benchRow{{Name: "r", SimUsPerOp: 1}}, ReadSpeedup: 2, CacheHitRate: 0.5},
			Concurrency:  []concRow{{Threads: 1}},
			Zerocopy:     []zcRow{{Name: "z"}},
			Binder:       []binderRow{{Name: "b"}},
			Autotune:     []autotuneRow{{Workload: "a"}},
			Fusion:       []fusionRow{{Config: "f"}},
		}
	}
	sections := []struct {
		owner string
		fresh any
		get   func(*benchReport) any
	}{
		{"bench-json", tableIReport{Iterations: 7}, func(r *benchReport) any { return r.tableIReport }},
		{"concurrency", []concRow{{Threads: 7}}, func(r *benchReport) any { return r.Concurrency }},
		{"zerocopy", []zcRow{{Name: "z7"}}, func(r *benchReport) any { return r.Zerocopy }},
		{"binder", []binderRow{{Name: "b7"}}, func(r *benchReport) any { return r.Binder }},
		{"autotune", []autotuneRow{{Workload: "a7"}}, func(r *benchReport) any { return r.Autotune }},
		{"fusion", []fusionRow{{Config: "f7"}}, func(r *benchReport) any { return r.Fusion }},
	}
	if n := reflect.TypeOf(benchReport{}).NumField(); n != len(sections) {
		t.Fatalf("benchReport has %d sections, the test covers %d", n, len(sections))
	}
	before := full()
	for _, s := range sections {
		doc := full()
		doc.set(s.fresh)
		for _, other := range sections {
			want := other.get(&before)
			if other.owner == s.owner {
				want = s.fresh
			}
			if got := other.get(&doc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s's fold left the %s section %+v, want %+v", s.owner, other.owner, got, want)
			}
		}
	}
}
