// Package hypervisor implements the lguest-style virtualization substrate
// (Section IV): a deprivileged container VM with a fixed physical-memory
// assignment, a hypercall/interrupt signaling pair, and remapping of guest
// kernel pages into host kernel space for the data channel.
//
// The CVM cannot map or touch memory outside its assigned region — that is
// enforced by the kernel.Physical region checks, and this package is where
// the region is carved out and handed to the guest kernel's allocator.
package hypervisor

import (
	"fmt"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
)

// CVM is the container virtual machine: the deprivileged guest the
// Anception layer delegates system calls to.
type CVM struct {
	phys   *kernel.Physical
	region kernel.Region
	clock  *sim.Clock
	model  sim.LatencyModel
	trace  *sim.Trace
	label  string

	mu       sync.Mutex
	nChannel int
	// kernelReserve is the number of frames the guest kernel itself
	// occupies (text, data, page tables); they are unavailable to guest
	// processes and matter for the Section VI-C memory accounting.
	kernelReserve int
	switchesIn    int // host -> guest (interrupt injection)
	switchesOut   int // guest -> host (hypercall)
	channelPages  []kernel.FrameID
	remapped      bool
	// generation counts boots of this container: 1 after Launch, +1 per
	// successful Relaunch or snapshot restore. Recovery tooling reports it
	// as the restart count.
	generation int
}

// Config sizes the container.
type Config struct {
	Clock *sim.Clock
	Model sim.LatencyModel
	Trace *sim.Trace
	// MemoryBytes is the CVM's physical assignment (64 MB in the paper).
	MemoryBytes int64
	// KernelReserveBytes approximates the guest kernel's own footprint.
	KernelReserveBytes int64
	// ChannelPages is the size of the shared data channel in pages.
	ChannelPages int
	// Label names the container in traces and fleet bookkeeping
	// (e.g. "shard-3"); empty means the lone-CVM default "cvm".
	Label string
}

// Launch reserves the guest's memory region and sets up the communication
// channel, mirroring what the lguest launcher does.
func Launch(phys *kernel.Physical, cfg Config) (*CVM, error) {
	frames := int(cfg.MemoryBytes / abi.PageSize)
	if frames <= 0 {
		return nil, fmt.Errorf("launch cvm: zero memory assignment: %w", abi.EINVAL)
	}
	region, err := phys.ReserveRegion(frames)
	if err != nil {
		return nil, fmt.Errorf("launch cvm: %w", err)
	}
	label := cfg.Label
	if label == "" {
		label = "cvm"
	}
	c := &CVM{
		phys:          phys,
		region:        region,
		clock:         cfg.Clock,
		model:         cfg.Model,
		trace:         cfg.Trace,
		label:         label,
		nChannel:      cfg.ChannelPages,
		kernelReserve: int(cfg.KernelReserveBytes / abi.PageSize),
		generation:    1,
	}
	if cfg.ChannelPages > 0 {
		// The channel lives in guest kernel pages remapped into host
		// kernel space with kmap (Figure 4). Remapping is a one-time
		// setup cost per page.
		alloc := phys.NewAllocator("cvm-channel", region)
		for i := 0; i < cfg.ChannelPages; i++ {
			f, err := alloc.Alloc(-1)
			if err != nil {
				return nil, fmt.Errorf("launch cvm: channel page %d: %w", i, err)
			}
			c.channelPages = append(c.channelPages, f)
		}
		c.clock.Advance(time.Duration(cfg.ChannelPages) * cfg.Model.PageRemap)
		c.remapped = true
	}
	if c.trace != nil {
		c.trace.Record(sim.EvLifecycle, "cvm launched: %d frames (%d KB), %d channel pages",
			region.Frames(), region.Frames()*abi.PageSize/1024, len(c.channelPages))
	}
	return c, nil
}

// Relaunch reboots the container: every frame in its region is wiped and
// returned to the guest kernel, and the data channel is rebuilt. The
// caller boots a fresh guest kernel on top. Used after a container crash
// ("such attacks are likely to be noticed quickly", Section II — a
// crashed CVM is simply restarted).
//
// Relaunch commits atomically: the replacement channel is allocated in
// full before the channel pages, remap flag, and generation bump are
// installed together. A mid-relaunch channel-page allocation failure
// therefore leaves the generation unchanged and the channel consistently
// torn down (the wipe killed it), never a generation-bumped container
// with remapped=false — the watchdog's retry relaunches from a blank but
// consistent container.
func (c *CVM) Relaunch() error {
	c.phys.ResetRegion(c.region)
	c.mu.Lock()
	n := c.nChannel
	c.channelPages = nil
	c.remapped = false
	c.mu.Unlock()
	var pages []kernel.FrameID
	if n > 0 {
		alloc := c.phys.NewAllocator("cvm-channel", c.region)
		pages = make([]kernel.FrameID, 0, n)
		for i := 0; i < n; i++ {
			f, err := alloc.Alloc(-1)
			if err != nil {
				return fmt.Errorf("relaunch cvm: channel page %d: %w", i, err)
			}
			pages = append(pages, f)
		}
		c.clock.Advance(time.Duration(n) * c.model.PageRemap)
	}
	c.mu.Lock()
	c.channelPages = pages
	c.remapped = n > 0
	c.generation++
	c.mu.Unlock()
	if c.trace != nil {
		c.trace.Record(sim.EvLifecycle, "cvm relaunched: %d frames wiped", c.region.Frames())
	}
	return nil
}

// Region returns the guest's physical confinement region.
func (c *CVM) Region() kernel.Region { return c.region }

// GuestAllocator returns a frame allocator confined to the guest region,
// for the guest kernel to hand to its processes.
func (c *CVM) GuestAllocator() *kernel.Allocator {
	return c.phys.NewAllocator("cvm", c.region)
}

// ChannelPages returns the shared channel's frames (remapped into host
// kernel space).
func (c *CVM) ChannelPages() []kernel.FrameID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]kernel.FrameID, len(c.channelPages))
	copy(out, c.channelPages)
	return out
}

// ChannelPagesRO returns the channel frame slice without copying. The
// slice is replaced wholesale by Relaunch and never mutated in place, so a
// reader holding a stale slice sees a consistent (old-generation) channel,
// never a torn one. Hot paths (the heartbeat, the redirection fast path)
// use this to stay allocation-free; callers must not modify the slice.
func (c *CVM) ChannelPagesRO() []kernel.FrameID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.channelPages
}

// ChannelRemapped reports whether the kmap setup completed.
func (c *CVM) ChannelRemapped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remapped
}

// WriteChannelFrame stores data into a channel frame. The host side may do
// this despite the frame being guest-owned because the frame was remapped
// into host kernel space at launch (the kmap of Figure 4); the region
// check is therefore performed against the guest region, which by
// construction contains every channel frame.
func (c *CVM) WriteChannelFrame(f kernel.FrameID, data []byte) error {
	if !c.region.Contains(f) {
		return fmt.Errorf("channel frame %d outside guest region: %w", f, abi.EINVAL)
	}
	return c.phys.WriteFrame(c.region, f, 0, data)
}

// ReadChannelFrame copies a channel frame's head into buf.
func (c *CVM) ReadChannelFrame(f kernel.FrameID, buf []byte) error {
	if !c.region.Contains(f) {
		return fmt.Errorf("channel frame %d outside guest region: %w", f, abi.EINVAL)
	}
	return c.phys.ReadFrame(c.region, f, 0, buf)
}

// InjectInterrupt signals the guest from the host (host -> guest world
// switch). The returned function must be called to model the matching
// guest-side handling epilogue; in practice callers just sequence their
// guest work after this call. The switch is charged to lane l, the task
// whose call it carries (nil for device-level work).
func (c *CVM) InjectInterrupt(l *sim.Lane) {
	c.clock.Charge(l, c.model.WorldSwitch)
	c.mu.Lock()
	c.switchesIn++
	c.mu.Unlock()
	if c.trace != nil {
		c.trace.Record(sim.EvWorldSwitch, "host->guest (interrupt injection)")
	}
}

// Hypercall signals the host from the guest (guest -> host world switch),
// charged to lane l like InjectInterrupt.
func (c *CVM) Hypercall(l *sim.Lane) {
	c.clock.Charge(l, c.model.WorldSwitch)
	c.mu.Lock()
	c.switchesOut++
	c.mu.Unlock()
	if c.trace != nil {
		c.trace.Record(sim.EvWorldSwitch, "guest->host (hypercall)")
	}
}

// Label names the container: "cvm" for the lone-CVM configuration,
// "shard-N" under a fleet.
func (c *CVM) Label() string { return c.label }

// Generation reports how many times this container has booted: 1 after
// Launch, incremented by each Relaunch.
func (c *CVM) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// WorldSwitches reports the (in, out) switch counts since launch.
func (c *CVM) WorldSwitches() (in, out int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.switchesIn, c.switchesOut
}

// MemoryStats summarizes the container's memory for the Section VI-C
// experiment.
type MemoryStats struct {
	TotalKB     int // physical assignment
	AvailableKB int // total minus guest kernel reserve and channel
	ActiveKB    int // in use by guest processes
	FreeKB      int // available minus active
}

// Memory computes the container's memory statistics given the guest
// kernel's resident process pages.
func (c *CVM) Memory(guestProcessPages int) MemoryStats {
	c.mu.Lock()
	reserve := c.kernelReserve + len(c.channelPages)
	c.mu.Unlock()
	total := c.region.Frames() * abi.PageSize / 1024
	avail := (c.region.Frames() - reserve) * abi.PageSize / 1024
	active := guestProcessPages * abi.PageSize / 1024
	return MemoryStats{
		TotalKB:     total,
		AvailableKB: avail,
		ActiveKB:    active,
		FreeKB:      avail - active,
	}
}
