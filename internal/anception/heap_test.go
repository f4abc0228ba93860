package anception

import (
	"fmt"
	"runtime"
	"testing"

	"anception/internal/android"
)

// Host heap budgets. The physical frame table is built lazily (DESIGN.md
// §3), so a device's live heap follows the memory its kernels touch, not
// the 1 GiB it models; these gates keep it that way.

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
	t.Logf("%s: %.1f MB live heap", what, mb)
	if mb > budget {
		t.Errorf("%s holds %.1f MB of live heap, budget %.0f MB", what, mb, budget)
	}
}

// TestFleetHeapBudget: a 16-shard AutoTune fleet with 32 apps installed
// and launched fits in 48 MB of live heap.
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
	heapBudget(t, "16-shard fleet, 32 apps", mb, 48)
}

// TestDeviceHeapBudget: one default device fits in 4 MB of live heap.
func TestDeviceHeapBudget(t *testing.T) {
	mb := liveHeapDelta(t, func() any {
		d, err := NewDevice(Options{Mode: ModeAnception})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	})
	heapBudget(t, "default device", mb, 4)
}
