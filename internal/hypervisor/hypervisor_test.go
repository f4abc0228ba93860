package hypervisor

import (
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
)

func launchTestCVM(t *testing.T, phys *kernel.Physical) *CVM {
	t.Helper()
	clock := sim.NewClock()
	c, err := Launch(phys, Config{
		Clock:              clock,
		Model:              sim.DefaultLatencyModel(),
		Trace:              sim.NewTrace(clock),
		MemoryBytes:        64 << 20, // the paper's 64 MB assignment
		KernelReserveBytes: 15 << 20,
		ChannelPages:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLaunchReserves64MB(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30) // 1 GB device
	c := launchTestCVM(t, phys)
	if got := c.Region().Frames(); got != (64<<20)/abi.PageSize {
		t.Fatalf("region frames = %d", got)
	}
	if !c.ChannelRemapped() || len(c.ChannelPages()) != 16 {
		t.Fatal("channel pages not set up")
	}
}

func TestLaunchRejectsZeroMemory(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	_, err := Launch(phys, Config{Clock: sim.NewClock(), Model: sim.DefaultLatencyModel(), MemoryBytes: 0})
	if !errors.Is(err, abi.EINVAL) {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestLaunchFailsWhenMemoryTooSmall(t *testing.T) {
	phys := kernel.NewPhysical(8 << 20) // 8 MB device cannot host a 64 MB CVM
	_, err := Launch(phys, Config{Clock: sim.NewClock(), Model: sim.DefaultLatencyModel(), MemoryBytes: 64 << 20})
	if !errors.Is(err, abi.ENOMEM) {
		t.Fatalf("err = %v, want ENOMEM", err)
	}
}

func TestWorldSwitchAccounting(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	c, err := Launch(phys, Config{Clock: clock, Model: model, MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	c.InjectInterrupt(nil)
	c.Hypercall(nil)
	if got := clock.Now() - before; got != 2*model.WorldSwitch {
		t.Fatalf("two switches cost %v, want %v", got, 2*model.WorldSwitch)
	}
	in, out := c.WorldSwitches()
	if in != 1 || out != 1 {
		t.Fatalf("switches = (%d, %d)", in, out)
	}
}

func TestChannelPagesInsideGuestRegion(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	c := launchTestCVM(t, phys)
	for _, f := range c.ChannelPages() {
		if !c.Region().Contains(f) {
			t.Fatalf("channel frame %d outside guest region", f)
		}
	}
}

func TestGuestAllocatorConfined(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	c := launchTestCVM(t, phys)
	alloc := c.GuestAllocator()
	f, err := alloc.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Region().Contains(f) {
		t.Fatalf("guest frame %d outside region", f)
	}
	// The guest accessor cannot read a host frame.
	hostAlloc := phys.NewAllocator("host", kernel.Region{})
	hf, err := hostAlloc.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.ReadFrame(c.Region(), hf, 0, make([]byte, 1)); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest read of host frame: %v, want EPERM", err)
	}
}

func TestMemoryStatsShape(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	c := launchTestCVM(t, phys)
	// Simulate ~25 MB of proxy/service pages, the paper's active set.
	activePages := (25460 * 1024) / abi.PageSize
	stats := c.Memory(activePages)
	if stats.TotalKB != 65536 {
		t.Fatalf("total = %d KB, want 65536", stats.TotalKB)
	}
	// Paper: 49,228 KB available; our reserve model must land close
	// (within 4 MB).
	if stats.AvailableKB < 45000 || stats.AvailableKB > 53000 {
		t.Fatalf("available = %d KB, want ~49228", stats.AvailableKB)
	}
	// Paper: ~51%% of assigned memory remains free under load.
	freeFrac := float64(stats.FreeKB) / float64(stats.AvailableKB)
	if freeFrac < 0.40 || freeFrac > 0.60 {
		t.Fatalf("free fraction = %.2f, want ~0.5", freeFrac)
	}
}

func TestLaunchChargesRemapCost(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	if _, err := Launch(phys, Config{Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now(), 8*model.PageRemap; got != want {
		t.Fatalf("remap setup cost %v, want %v", got, want)
	}
}

func TestRelaunchRebuildsChannelAndWipesFrames(t *testing.T) {
	phys := kernel.NewPhysical(1 << 30)
	c := launchTestCVM(t, phys)

	// Dirty a guest frame and write through the channel.
	alloc := c.GuestAllocator()
	f, err := alloc.Alloc(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteFrame(c.Region(), f, 0, []byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	oldPages := c.ChannelPages()

	if err := c.Relaunch(); err != nil {
		t.Fatal(err)
	}
	// Channel rebuilt with the same page count, inside the region.
	newPages := c.ChannelPages()
	if len(newPages) != len(oldPages) {
		t.Fatalf("channel pages = %d, want %d", len(newPages), len(oldPages))
	}
	for _, p := range newPages {
		if !c.Region().Contains(p) {
			t.Fatalf("channel page %d outside region", p)
		}
	}
	if !c.ChannelRemapped() {
		t.Fatal("channel not remapped")
	}
	// The dirtied frame is wiped and back in the guest-kernel pool.
	if phys.Owner(f).Kind != kernel.FrameGuestKernel {
		t.Fatalf("frame owner after relaunch = %+v", phys.Owner(f))
	}
	buf := make([]byte, 9)
	if err := phys.ReadFrame(c.Region(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("frame contents survived relaunch: %q", buf)
		}
	}
	// World-switch counters persist across restarts (cumulative).
	c.InjectInterrupt(nil)
	in, _ := c.WorldSwitches()
	if in != 1 {
		t.Fatalf("switches in = %d", in)
	}
}
