package anception

import (
	"fmt"
	"runtime"
	"testing"

	"anception/internal/android"
)

// Host heap budgets. The physical frame table builds a chunk only once
// one of its frames differs from the rest and holds page contents only
// for written frames (DESIGN.md §3), so a device's live heap follows the
// frames its kernels touch, not the 1 GiB it models nor the CVM's 64 MB
// reservation; these gates keep it that way.
//
// The budgets sit about 30% above the highest live heap measured on a
// 2-core machine with `go test -count=3 -run HeapBudget -v
// ./internal/anception` and with the whole package run, each with and
// without -race (the race detector's shadow memory is not Go heap): a
// default device holds 0.31 to 0.35 MB, a 16-shard fleet with 32 apps
// 5.76 to 5.81 MB.

// liveHeapDelta reports how much live Go heap build adds once the
// collector has run before and after it. The value build returns is kept
// alive until the second measurement.
func liveHeapDelta(t *testing.T, build func() any) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
}

// heapBudget fails the test if a set-up holds more live heap than its
// budget.
func heapBudget(t *testing.T, what string, mb, budget float64) {
	t.Helper()
	t.Logf("%s: %.2f MB live heap", what, mb)
	if mb > budget {
		t.Errorf("%s holds %.2f MB of live heap, budget %.2f MB", what, mb, budget)
	}
}

// TestFleetHeapBudget: a 16-shard AutoTune fleet with 32 apps installed
// and launched fits in 7.5 MB of live heap.
func TestFleetHeapBudget(t *testing.T) {
	mb := liveHeapDelta(t, func() any {
		f, err := NewFleet(Options{Mode: ModeAnception, FleetSize: 16, AutoTune: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		for i := 0; i < 32; i++ {
			if _, err := f.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.heap.fleet%02d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		return f
	})
	heapBudget(t, "16-shard fleet, 32 apps", mb, 7.5)
}

// TestDeviceHeapBudget: one default device fits in 0.45 MB of live heap.
func TestDeviceHeapBudget(t *testing.T) {
	mb := liveHeapDelta(t, func() any {
		d, err := NewDevice(Options{Mode: ModeAnception})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	})
	heapBudget(t, "default device", mb, 0.45)
}
