package main

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"anception/internal/anception"
)

// TestDriveStopsOnFirstError: an op that fails on one app stops every
// app task and its error is the run's, with one app task (inline) and
// with several (concurrent). The other tasks' ops would never finish on
// their own, so a run that does not stop hangs the test.
func TestDriveStopsOnFirstError(t *testing.T) {
	errBoom := errors.New("boom")
	for _, threads := range []int{1, 4} {
		next := 0
		setup := func(a *appTask) error {
			a.fd = next // the app's index
			next++
			return nil
		}
		var ops atomic.Int64
		op := func(a *appTask) error {
			if a.fd == threads-1 && ops.Add(1) > 2 {
				return errBoom
			}
			return nil
		}
		opts := anception.Options{Mode: anception.ModeAnception, DisableTrace: true}
		_, err := drive(opts, threads, "com.drive%02d", math.MaxInt, setup, op)
		if !errors.Is(err, errBoom) {
			t.Fatalf("%d app tasks: run returned %v, want the failing op's error", threads, err)
		}
	}
}

// TestDriveOneThreadRepeats: a one-app run is a deterministic sim, so
// running it again gives the same sim-us per op exactly — on the ring,
// and in the Table I loop, which also lands on its pinned rows.
func TestDriveOneThreadRepeats(t *testing.T) {
	first, _, err := measureConcurrency(1, true)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := measureConcurrency(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("one-thread ring run: %v ops/sim-s, then %v", first, again)
	}

	tableI := func() []benchRow {
		d, tasks, err := launchApps(anception.Options{Mode: anception.ModeAnception, DisableTrace: true}, 1, benchPkg, benchSetup)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rows, err := tableIRows(d, tasks[0], "anception-uncached")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows, rerun := tableI(), tableI()
	for i := range rows {
		if rows[i] != rerun[i] {
			t.Fatalf("Table I row %s: %v sim-us, then %v", rows[i].Name, rows[i].SimUsPerOp, rerun[i].SimUsPerOp)
		}
	}
	if err := checkPinned(rows...); err != nil {
		t.Fatal(err)
	}
}
