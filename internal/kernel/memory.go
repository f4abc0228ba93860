package kernel

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"anception/internal/abi"
)

// FrameID identifies one physical page frame.
type FrameID int

// FrameOwnerKind classifies who owns a physical frame.
type FrameOwnerKind int

// Frame owner kinds.
const (
	FrameFree FrameOwnerKind = iota + 1
	FrameHostKernel
	FrameGuestKernel
	FrameProcess
)

// FrameOwner records the owner of a frame: the kind plus, for process
// frames, the owning kernel name and PID.
type FrameOwner struct {
	Kind   FrameOwnerKind
	Kernel string
	PID    int
}

// Physical models the device's physical memory as an array of 4 KiB
// frames. The frame table is built lazily in chunks of chunkFrames
// frames: a chunk none of whose frames has changed owner or been written
// is nil and stands for free frames at version 0 with no contents, so a
// 1 GiB device costs only the chunks its kernels touch (a CVM's 64 MB
// region is 32 of them). A built chunk holds a compact 24-byte entry per
// frame whose owning kernel is an id into a name table interned here, and
// frame contents are allocated on first write.
//
// The FrameID order is part of the contract. Host allocations take the
// most recently freed frame first, then free frames in ascending order
// from frame 0; reserving a region restarts that order from frame 0.
// Guest allocations take the lowest unowned frame of their region; each
// chunk keeps a low-water mark below which it has no unowned guest frame,
// so the search resumes where the last one stopped and a boot costs time
// linear in the frames it maps.
//
// The memory-isolation invariant of Anception's principle 3 is enforced
// here: an allocator bound to the guest region can never hand out, read, or
// write a frame outside that region.
type Physical struct {
	mu      sync.Mutex
	nframes int
	chunks  []*frameChunk // nil: every frame free, version 0, no contents
	nfree   int           // frames owned by nobody

	// Host allocation order: freed frames are reused last-in first-out,
	// then cursor hands out the free frames at or above it, ascending.
	freed  []FrameID
	cursor FrameID

	// names interns the owning kernels' names; id 0 is "".
	names   []string
	nameIDs map[string]uint16
}

// chunkFrames is the number of frames one chunk of the table covers.
const chunkFrames = 512

type frameChunk struct {
	frames    [chunkFrames]frame
	free      int // frames owned by nobody
	guestFree int // frames in the unowned guest state
	// guestLow is a low-water mark: no frame below this index is in the
	// unowned guest state. A new chunk has none, so it starts at
	// chunkFrames; setOwnerLocked lowers it and unownedGuestLocked raises
	// it to the frame it finds.
	guestLow int
}

type frame struct {
	data *[abi.PageSize]byte // nil until first write
	// version counts mutations of this frame (content writes, ownership
	// changes, resets). The hypervisor's snapshot engine captures the
	// version vector of a region at checkpoint time and, at restore,
	// rewrites only the frames whose version moved since — frame-level
	// dirty tracking without shadow copies.
	version uint64
	owner   ownerID
}

// ownerID is a FrameOwner with the kernel name replaced by its id in
// Physical.names.
type ownerID struct {
	pid    int32
	kernel uint16
	kind   uint8 // FrameOwnerKind
}

var (
	freeOwner = ownerID{kind: uint8(FrameFree)}
	// unownedGuest is the post-reset state of a reserved guest frame: the
	// guest kernel holds it but has not handed it out.
	unownedGuest = ownerID{kind: uint8(FrameGuestKernel)}
)

// NewPhysical creates physical memory with the given total size in bytes
// (rounded down to whole frames).
func NewPhysical(bytes int64) *Physical {
	n := int(bytes / abi.PageSize)
	return &Physical{
		nframes: n,
		chunks:  make([]*frameChunk, (n+chunkFrames-1)/chunkFrames),
		nfree:   n,
		names:   []string{""},
		nameIDs: map[string]uint16{"": 0},
	}
}

// TotalFrames reports the frame count.
func (p *Physical) TotalFrames() int { return p.nframes }

// FreeFrames reports how many frames are unallocated.
func (p *Physical) FreeFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nfree
}

// peekLocked returns frame f, or nil while its chunk is unbuilt.
func (p *Physical) peekLocked(f FrameID) *frame {
	if c := p.chunks[f/chunkFrames]; c != nil {
		return &c.frames[f%chunkFrames]
	}
	return nil
}

// touchLocked returns frame f and its chunk, building the chunk first if
// it does not exist yet.
func (p *Physical) touchLocked(f FrameID) (*frameChunk, *frame) {
	ci := int(f / chunkFrames)
	c := p.chunks[ci]
	if c == nil {
		c = &frameChunk{free: min(chunkFrames, p.nframes-ci*chunkFrames), guestLow: chunkFrames}
		for i := range c.frames {
			c.frames[i].owner = freeOwner
		}
		p.chunks[ci] = c
	}
	return c, &c.frames[f%chunkFrames]
}

// setOwnerLocked changes frame f's owner, building its chunk if need be,
// keeps the free counts and the chunk's guest mark in step, and returns
// the frame.
func (p *Physical) setOwnerLocked(f FrameID, o ownerID) *frame {
	c, fr := p.touchLocked(f)
	p.tallyLocked(c, fr.owner, -1)
	fr.owner = o
	p.tallyLocked(c, o, 1)
	if i := int(f % chunkFrames); o == unownedGuest && i < c.guestLow {
		c.guestLow = i
	}
	return fr
}

func (p *Physical) tallyLocked(c *frameChunk, o ownerID, d int) {
	switch o {
	case freeOwner:
		c.free += d
		p.nfree += d
	case unownedGuest:
		c.guestFree += d
	}
}

func (p *Physical) internLocked(name string) uint16 {
	if id, ok := p.nameIDs[name]; ok {
		return id
	}
	if len(p.names) > math.MaxUint16 {
		panic("kernel: more than 65536 distinct kernel names")
	}
	id := uint16(len(p.names))
	p.names = append(p.names, name)
	p.nameIDs[name] = id
	return id
}

func (p *Physical) ownerIDLocked(o FrameOwner) ownerID {
	return ownerID{pid: int32(o.PID), kernel: p.internLocked(o.Kernel), kind: uint8(o.Kind)}
}

// versionLocked returns frame f's version counter.
func (p *Physical) versionLocked(f FrameID) uint64 {
	if fr := p.peekLocked(f); fr != nil {
		return fr.version
	}
	return 0
}

func (p *Physical) ownerLocked(f FrameID) FrameOwner {
	fr := p.peekLocked(f)
	if fr == nil {
		return FrameOwner{Kind: FrameFree}
	}
	return FrameOwner{Kind: FrameOwnerKind(fr.owner.kind), Kernel: p.names[fr.owner.kernel], PID: int(fr.owner.pid)}
}

// Region is a contiguous frame range an allocator is confined to.
// A zero End means "the whole of memory".
type Region struct {
	Start FrameID
	End   FrameID // exclusive
}

// Contains reports whether f falls inside the region.
func (r Region) Contains(f FrameID) bool {
	if r.End == 0 {
		return f >= r.Start
	}
	return f >= r.Start && f < r.End
}

// Frames reports the region size in frames.
func (r Region) Frames() int { return int(r.End - r.Start) }

// end clamps the region's end to the frame count.
func (p *Physical) end(r Region) FrameID { return min(r.End, FrameID(p.nframes)) }

// ReserveRegion carves out the lowest contiguous run of n free frames for
// a guest and marks them guest-kernel-owned. It returns the region. This
// models the fixed memory assignment the lguest launcher gives the CVM
// (64 MB in the paper's configuration).
func (p *Physical) ReserveRegion(n int) (Region, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Reservation happens once per CVM boot, so a linear scan is fine; an
	// unbuilt chunk is a whole run of free frames.
	start, run := FrameID(-1), 0
	for f := FrameID(0); n > 0 && int(f) < p.nframes; f++ {
		c := p.chunks[f/chunkFrames]
		if c == nil {
			last := min((f/chunkFrames+1)*chunkFrames, FrameID(p.nframes)) - 1
			if run+int(last-f)+1 >= n {
				start = f - FrameID(run)
				break
			}
			run += int(last-f) + 1
			f = last
			continue
		}
		if c.frames[f%chunkFrames].owner.kind != uint8(FrameFree) {
			run = 0
			continue
		}
		if run++; run == n {
			start = f - FrameID(n) + 1
			break
		}
	}
	if start < 0 {
		return Region{}, fmt.Errorf("reserve %d frames: %w", n, abi.ENOMEM)
	}
	r := Region{Start: start, End: start + FrameID(n)}
	for f := r.Start; f < r.End; {
		// An unbuilt chunk wholly inside the region is built directly in
		// the state the frame-by-frame path leaves it in; a chunk the
		// region shares with its neighbours goes frame by frame.
		if ci := f / chunkFrames; f%chunkFrames == 0 && f+chunkFrames <= r.End && p.chunks[ci] == nil {
			p.chunks[ci] = newUnownedGuestChunk()
			p.nfree -= chunkFrames
			f += chunkFrames
			continue
		}
		p.setOwnerLocked(f, unownedGuest).version++
		f++
	}
	p.freed, p.cursor = p.freed[:0], 0
	return r, nil
}

// newUnownedGuestChunk builds a chunk of frames that were free at version
// 0 and have just been reserved: unowned guest frames at version 1, the
// low-water mark at the first.
func newUnownedGuestChunk() *frameChunk {
	c := &frameChunk{guestFree: chunkFrames}
	for i := range c.frames {
		c.frames[i] = frame{owner: unownedGuest, version: 1}
	}
	return c
}

// ResetRegion returns every frame in a reserved guest region to the
// guest-kernel-owned state and clears contents — the physical effect of
// rebooting the container VM.
func (p *Physical) ResetRegion(r Region) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := r.Start; f < p.end(r); f++ {
		fr := p.setOwnerLocked(f, unownedGuest)
		fr.data = nil
		fr.version++
	}
}

// ReclaimRegion returns every frame in a reserved guest region to the
// unowned guest-kernel state — except the frames in keep (the live
// channel mapping) — while leaving frame contents intact. This is the
// physical effect of a guest kernel resuming over a restored memory
// image: the rebooted kernel re-owns its allocations from scratch, so
// the previous boot's frames must rejoin the pool or repeated restores
// exhaust the region. Only frames whose owner actually changes are
// version-bumped.
func (p *Physical) ReclaimRegion(r Region, keep []FrameID) {
	kept := make(map[FrameID]struct{}, len(keep))
	for _, f := range keep {
		kept[f] = struct{}{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := r.Start; f < p.end(r); f++ {
		if _, ok := kept[f]; ok {
			continue
		}
		if fr := p.peekLocked(f); fr != nil && fr.owner == unownedGuest {
			continue
		}
		p.setOwnerLocked(f, unownedGuest).version++
	}
}

// FrameVersions returns the current version counter of every frame in a
// region, indexed by region offset. The hypervisor's snapshot engine uses
// the vector as its dirty-tracking baseline.
func (p *Physical) FrameVersions(r Region) []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint64, 0, r.Frames())
	for f := r.Start; f < p.end(r); f++ {
		out = append(out, p.versionLocked(f))
	}
	return out
}

// CaptureRegion copies out the owner, content, and version of every frame
// in a region, indexed by region offset — the raw material of a CVM
// checkpoint. Contents are deep-copied (nil stays nil: a never-written
// frame), so later mutations cannot bleed into the capture.
func (p *Physical) CaptureRegion(r Region) (owners []FrameOwner, datas [][]byte, versions []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := r.Frames()
	owners = make([]FrameOwner, 0, n)
	datas = make([][]byte, 0, n)
	versions = make([]uint64, 0, n)
	for f := r.Start; f < p.end(r); f++ {
		var data []byte
		if fr := p.peekLocked(f); fr != nil && fr.data != nil {
			data = append([]byte(nil), fr.data[:]...)
		}
		owners = append(owners, p.ownerLocked(f))
		datas = append(datas, data)
		versions = append(versions, p.versionLocked(f))
	}
	return owners, datas, versions
}

// RestoreRegion rewrites a region back to a captured state, copy-on-write
// style: only frames whose version counter moved since the capture (the
// baseVersions vector) are touched; frames provably unchanged since the
// checkpoint keep their memory untouched and their version intact. It
// returns the number of frames rewritten, which is what the restore's sim
// cost scales with.
func (p *Physical) RestoreRegion(r Region, owners []FrameOwner, datas [][]byte, baseVersions []uint64) (int, error) {
	n := r.Frames()
	if len(owners) != n || len(datas) != n || len(baseVersions) != n {
		return 0, fmt.Errorf("restore region: capture covers %d/%d/%d frames, region has %d: %w",
			len(owners), len(datas), len(baseVersions), n, abi.EINVAL)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	restored := 0
	for f := r.Start; f < p.end(r); f++ {
		i := f - r.Start
		if p.versionLocked(f) == baseVersions[i] {
			continue // provably unchanged since the checkpoint
		}
		fr := p.setOwnerLocked(f, p.ownerIDLocked(owners[i]))
		fr.data = nil
		if len(datas[i]) > 0 {
			fr.data = new([abi.PageSize]byte)
			copy(fr.data[:], datas[i])
		}
		fr.version++
		restored++
	}
	return restored, nil
}

// Allocator hands out frames confined to a region on behalf of one kernel.
type Allocator struct {
	phys     *Physical
	region   Region
	kernel   string
	kernelID uint16
}

// NewAllocator returns an allocator for the given kernel confined to
// region. The host allocator uses the zero Region (all memory); a guest
// allocator must use its reserved region.
func (p *Physical) NewAllocator(kernelName string, region Region) *Allocator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Allocator{phys: p, region: region, kernel: kernelName, kernelID: p.internLocked(kernelName)}
}

// Region returns the allocator's confinement region.
func (a *Allocator) Region() Region { return a.region }

// KernelName returns the owning kernel's label.
func (a *Allocator) KernelName() string { return a.kernel }

// Alloc assigns one frame to the given process (or the kernel itself when
// pid < 0). Guest allocators take the lowest unowned frame of their
// reserved region; host allocators take the most recently freed frame,
// else the next free frame in ascending order.
func (a *Allocator) Alloc(pid int) (FrameID, error) {
	p := a.phys
	p.mu.Lock()
	defer p.mu.Unlock()
	return a.allocLocked(a.owner(pid))
}

// AllocN assigns n frames to pid under one hold of the frame-table lock,
// in the order n Alloc calls would return them. If the allocator runs
// out part way, the frames already taken are freed, in that order, and
// the error is returned: a mapping gets all its frames or none.
func (a *Allocator) AllocN(pid, n int) ([]FrameID, error) {
	if n <= 0 {
		return nil, nil
	}
	p := a.phys
	p.mu.Lock()
	defer p.mu.Unlock()
	owner := a.owner(pid)
	frames := make([]FrameID, n)
	for i := range frames {
		f, err := a.allocLocked(owner)
		if err != nil {
			for _, g := range frames[:i] {
				a.freeLocked(g)
			}
			return nil, err
		}
		frames[i] = f
	}
	return frames, nil
}

// owner is the owner Alloc records for pid.
func (a *Allocator) owner(pid int) ownerID {
	if pid >= 0 {
		return ownerID{kind: uint8(FrameProcess), kernel: a.kernelID, pid: int32(pid)}
	}
	if a.region.End != 0 {
		// Tag with the allocator's kernel name so the frame no longer
		// matches the unowned state — a kernel allocation must consume a
		// distinct frame, not re-return the first one.
		return ownerID{kind: uint8(FrameGuestKernel), kernel: a.kernelID}
	}
	return ownerID{kind: uint8(FrameHostKernel)}
}

func (a *Allocator) allocLocked(owner ownerID) (FrameID, error) {
	p := a.phys
	var f FrameID
	var ok bool
	if a.region.End != 0 {
		if f, ok = p.unownedGuestLocked(a.region); !ok {
			return 0, fmt.Errorf("guest region exhausted: %w", abi.ENOMEM)
		}
	} else if f, ok = p.nextFreeLocked(); !ok {
		return 0, fmt.Errorf("physical memory exhausted: %w", abi.ENOMEM)
	}
	p.setOwnerLocked(f, owner).version++
	return f, nil
}

// unownedGuestLocked finds the lowest frame of r in the unowned guest
// state — exactly the post-reset state, so frames already assigned to a
// process or claimed by a kernel allocation (channel pages) are never
// handed out twice. Chunks with no unowned guest frame are skipped whole,
// and a chunk is searched from its guest mark, which then moves up to the
// frame found. Only a search that starts at the mark may move it: one
// that starts higher, in a chunk shared with a region below, has not
// looked at the frames in between.
func (p *Physical) unownedGuestLocked(r Region) (FrameID, bool) {
	end := p.end(r)
	for f := r.Start; f < end; {
		base := f / chunkFrames * chunkFrames
		next := min(base+chunkFrames, end)
		if c := p.chunks[f/chunkFrames]; c != nil && c.guestFree > 0 {
			low := base + FrameID(c.guestLow)
			for g := max(f, low); g < next; g++ {
				if c.frames[g-base].owner == unownedGuest {
					if f <= low {
						c.guestLow = int(g - base)
					}
					return g, true
				}
			}
		}
		f = next
	}
	return 0, false
}

// nextFreeLocked pops the most recently freed frame that is still free,
// else advances the cursor to the next free frame. Chunks with no free
// frame are skipped whole.
func (p *Physical) nextFreeLocked() (FrameID, bool) {
	for len(p.freed) > 0 {
		f := p.freed[len(p.freed)-1]
		p.freed = p.freed[:len(p.freed)-1]
		if fr := p.peekLocked(f); fr == nil || fr.owner.kind == uint8(FrameFree) {
			return f, true
		}
	}
	for int(p.cursor) < p.nframes {
		f := p.cursor
		c := p.chunks[f/chunkFrames]
		if c != nil && c.free == 0 {
			p.cursor = (f/chunkFrames + 1) * chunkFrames
			continue
		}
		p.cursor++
		if c == nil || c.frames[f%chunkFrames].owner.kind == uint8(FrameFree) {
			return f, true
		}
	}
	return 0, false
}

// Free releases a frame back to the allocator's pool.
func (a *Allocator) Free(f FrameID) error {
	p := a.phys
	p.mu.Lock()
	defer p.mu.Unlock()
	if f < 0 || int(f) >= p.nframes {
		return abi.EINVAL
	}
	if !a.region.Contains(f) && a.region.End != 0 {
		return fmt.Errorf("free frame %d outside guest region: %w", f, abi.EPERM)
	}
	a.freeLocked(f)
	return nil
}

// freeLocked releases frame f, which the caller has checked lies within
// memory and the allocator's region.
func (a *Allocator) freeLocked(f FrameID) {
	p := a.phys
	o := unownedGuest
	if a.region.End == 0 {
		o = freeOwner
		// A second free of a free frame must not list it twice.
		if fr := p.peekLocked(f); fr != nil && fr.owner.kind != uint8(FrameFree) {
			p.freed = append(p.freed, f)
		}
	}
	fr := p.setOwnerLocked(f, o)
	fr.data = nil
	fr.version++
}

// Owner reports a frame's owner.
func (p *Physical) Owner(f FrameID) FrameOwner {
	if f < 0 || int(f) >= p.nframes {
		return FrameOwner{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ownerLocked(f)
}

// WriteFrame stores data into a frame at the given page offset. The
// accessor's region is checked: a guest-confined accessor touching a frame
// outside its region is an isolation violation and is rejected.
func (p *Physical) WriteFrame(accessor Region, f FrameID, off int, data []byte) error {
	if accessor.End != 0 && !accessor.Contains(f) {
		return fmt.Errorf("write to frame %d outside accessor region: %w", f, abi.EPERM)
	}
	if f < 0 || int(f) >= p.nframes || off < 0 || off+len(data) > abi.PageSize {
		return abi.EINVAL
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, fr := p.touchLocked(f)
	if fr.data == nil {
		fr.data = new([abi.PageSize]byte)
	}
	copy(fr.data[off:], data)
	fr.version++
	return nil
}

// ReadFrame copies out of a frame, under the same region confinement.
func (p *Physical) ReadFrame(accessor Region, f FrameID, off int, buf []byte) error {
	if accessor.End != 0 && !accessor.Contains(f) {
		return fmt.Errorf("read of frame %d outside accessor region: %w", f, abi.EPERM)
	}
	if f < 0 || int(f) >= p.nframes || off < 0 || off+len(buf) > abi.PageSize {
		return abi.EINVAL
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr := p.peekLocked(f); fr != nil && fr.data != nil {
		copy(buf, fr.data[off:])
	} else {
		clear(buf)
	}
	return nil
}

// VMAKind classifies virtual memory areas.
type VMAKind int

// VMA kinds.
const (
	VMACode VMAKind = iota + 1
	VMAHeap
	VMAStack
	VMAAnon
	VMAFile
	VMADevice
)

// String names the kind as /proc/pid/maps would.
func (k VMAKind) String() string {
	switch k {
	case VMACode:
		return "code"
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMAAnon:
		return "anon"
	case VMAFile:
		return "file"
	case VMADevice:
		return "device"
	default:
		return "?"
	}
}

// Prot bits for mappings.
const (
	ProtRead  = 1
	ProtWrite = 2
	ProtExec  = 4
)

// VMA is one virtual memory area: a contiguous run of pages backed by
// physical frames.
type VMA struct {
	Start  uint64 // virtual address, page aligned
	Pages  int
	Prot   int
	Kind   VMAKind
	Tag    string // human-readable ("libc.so", "shellcode", ...)
	Frames []FrameID
	// DeviceMemory marks mappings of devices that expose kernel memory
	// (the kernelchopper channel).
	DeviceMemory bool
	// Shared marks System V shared-segment mappings whose frames outlive
	// the mapping.
	Shared bool
}

// End returns the first address past the VMA.
func (v *VMA) End() uint64 { return v.Start + uint64(v.Pages)*abi.PageSize }

// Conventional layout addresses of the simulated 32-bit address space.
const (
	AddrCodeBase  uint64 = 0x0000_8000
	AddrHeapBase  uint64 = 0x0100_0000
	AddrMmapBase  uint64 = 0x4000_0000
	AddrStackTop  uint64 = 0xBF00_0000
	AddrStackSize        = 8 // pages
)

// AddressSpace is one task's virtual memory: an ordered set of VMAs plus a
// heap break. All frame contents live in Physical, so cross-kernel
// isolation follows from frame ownership.
type AddressSpace struct {
	mu    sync.Mutex
	alloc *Allocator
	pid   int
	vmas  []*VMA
	brk   uint64 // current heap end
	// MmapMinAddr mirrors the kernel's mmap_min_addr sysctl; 0 permits
	// null-page mappings (the pre-hardening default CVE-2009-2692 needs).
	MmapMinAddr uint64

	nextMmap uint64
}

// NewAddressSpace creates an empty address space whose pages will be
// allocated by alloc on behalf of pid.
func NewAddressSpace(alloc *Allocator, pid int) *AddressSpace {
	return &AddressSpace{
		alloc:    alloc,
		pid:      pid,
		brk:      AddrHeapBase,
		nextMmap: AddrMmapBase,
	}
}

// PID returns the owning process ID.
func (as *AddressSpace) PID() int { return as.pid }

func (as *AddressSpace) findVMALocked(addr uint64) *VMA {
	for _, v := range as.vmas {
		if addr >= v.Start && addr < v.End() {
			return v
		}
	}
	return nil
}

// overlapLocked reports whether [start, start+pages) intersects a VMA.
func (as *AddressSpace) overlapLocked(start uint64, pages int) bool {
	end := start + uint64(pages)*abi.PageSize
	for _, v := range as.vmas {
		if start < v.End() && v.Start < end {
			return true
		}
	}
	return false
}

// MapAnon creates an anonymous mapping of n pages at a kernel-chosen
// address and returns its base.
func (as *AddressSpace) MapAnon(n int, prot int, kind VMAKind, tag string) (uint64, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	base := as.nextMmap
	for as.overlapLocked(base, n) {
		base += uint64(n) * abi.PageSize
	}
	v, err := as.buildVMALocked(base, n, prot, kind, tag)
	if err != nil {
		return 0, err
	}
	as.nextMmap = v.End()
	return v.Start, nil
}

// MapFixed creates a mapping at an exact address (MAP_FIXED). Mapping
// below MmapMinAddr fails with EPERM, which is the hardening knob that
// decides whether null-page exploits are even expressible.
func (as *AddressSpace) MapFixed(addr uint64, n int, prot int, kind VMAKind, tag string) error {
	if addr%abi.PageSize != 0 {
		return abi.EINVAL
	}
	if addr < as.MmapMinAddr {
		return fmt.Errorf("map at %#x below mmap_min_addr: %w", addr, abi.EPERM)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.overlapLocked(addr, n) {
		return abi.EEXIST
	}
	_, err := as.buildVMALocked(addr, n, prot, kind, tag)
	return err
}

func (as *AddressSpace) buildVMALocked(start uint64, n int, prot int, kind VMAKind, tag string) (*VMA, error) {
	frames, err := as.alloc.AllocN(as.pid, n)
	if err != nil {
		return nil, err
	}
	v := &VMA{Start: start, Pages: n, Prot: prot, Kind: kind, Tag: tag, Frames: frames}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return v, nil
}

// MapShared maps pre-existing frames (a System V shared segment) into
// this address space at a kernel-chosen base. The frames are owned by the
// segment: Release and UnmapShared leave them allocated.
func (as *AddressSpace) MapShared(frames []FrameID, prot int, tag string) (uint64, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	base := as.nextMmap
	for as.overlapLocked(base, len(frames)) {
		base += uint64(len(frames)) * abi.PageSize
	}
	v := &VMA{Start: base, Pages: len(frames), Prot: prot, Kind: VMAAnon, Tag: tag, Shared: true}
	v.Frames = append(v.Frames, frames...)
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	as.nextMmap = v.End()
	return base, nil
}

// UnmapShared removes a shared mapping without freeing its frames.
func (as *AddressSpace) UnmapShared(addr uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, v := range as.vmas {
		if v.Start == addr && v.Shared {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			return nil
		}
	}
	return abi.EINVAL
}

// MapDevice records a device-backed mapping. exposesKernel marks mappings
// that leak kernel memory (e.g. an unprotected framebuffer node).
func (as *AddressSpace) MapDevice(n int, prot int, tag string, exposesKernel bool) (uint64, error) {
	base, err := as.MapAnon(n, prot, VMADevice, tag)
	if err != nil {
		return 0, err
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if v := as.findVMALocked(base); v != nil {
		v.DeviceMemory = exposesKernel
	}
	return base, nil
}

// Unmap removes the mapping starting exactly at addr.
func (as *AddressSpace) Unmap(addr uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, v := range as.vmas {
		if v.Start == addr {
			for _, f := range v.Frames {
				_ = as.alloc.Free(f)
			}
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			return nil
		}
	}
	return abi.EINVAL
}

// Brk grows (or shrinks) the heap to end and returns the new break.
// Passing 0 queries the current break.
func (as *AddressSpace) Brk(end uint64) (uint64, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if end == 0 {
		return as.brk, nil
	}
	if end < AddrHeapBase {
		return as.brk, abi.EINVAL
	}
	curPages := int((as.brk - AddrHeapBase + abi.PageSize - 1) / abi.PageSize)
	newPages := int((end - AddrHeapBase + abi.PageSize - 1) / abi.PageSize)
	heap := as.heapVMALocked()
	switch {
	case newPages > curPages:
		if heap == nil {
			v, err := as.buildVMALocked(AddrHeapBase, newPages, ProtRead|ProtWrite, VMAHeap, "heap")
			if err != nil {
				return as.brk, err
			}
			heap = v
		} else {
			frames, err := as.alloc.AllocN(as.pid, newPages-curPages)
			if err != nil {
				return as.brk, err
			}
			heap.Frames = append(heap.Frames, frames...)
			heap.Pages += len(frames)
		}
	case newPages < curPages && heap != nil:
		for i := curPages - 1; i >= newPages; i-- {
			_ = as.alloc.Free(heap.Frames[i])
		}
		heap.Frames = heap.Frames[:newPages]
		heap.Pages = newPages
	}
	as.brk = end
	return as.brk, nil
}

func (as *AddressSpace) heapVMALocked() *VMA {
	for _, v := range as.vmas {
		if v.Kind == VMAHeap {
			return v
		}
	}
	return nil
}

// translate returns the frame and in-page offset backing addr, or nil.
func (as *AddressSpace) translate(addr uint64) (FrameID, int, *VMA) {
	v := as.findVMALocked(addr)
	if v == nil {
		return 0, 0, nil
	}
	pageIdx := int((addr - v.Start) / abi.PageSize)
	off := int((addr - v.Start) % abi.PageSize)
	return v.Frames[pageIdx], off, v
}

// WriteBytes stores data at the virtual address, page by page. accessor is
// the physical region of whoever performs the access (the owning kernel's
// region); crossing it fails, which is exactly the isolation property
// tests assert.
func (as *AddressSpace) WriteBytes(accessor Region, addr uint64, data []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for len(data) > 0 {
		f, off, v := as.translate(addr)
		if v == nil {
			return abi.EFAULT
		}
		n := abi.PageSize - off
		if n > len(data) {
			n = len(data)
		}
		if err := as.alloc.phys.WriteFrame(accessor, f, off, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadBytes copies n bytes from the virtual address under the accessor's
// region confinement.
func (as *AddressSpace) ReadBytes(accessor Region, addr uint64, n int) ([]byte, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]byte, n)
	for pos := 0; pos < n; {
		f, off, v := as.translate(addr)
		if v == nil {
			return nil, abi.EFAULT
		}
		c := min(abi.PageSize-off, n-pos)
		if err := as.alloc.phys.ReadFrame(accessor, f, off, out[pos:pos+c]); err != nil {
			return nil, err
		}
		pos += c
		addr += uint64(c)
	}
	return out, nil
}

// HasExecutableMappingAt reports whether addr falls in an executable VMA;
// the null-dereference exploit check uses it with addr 0.
func (as *AddressSpace) HasExecutableMappingAt(addr uint64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	_, _, v := as.translate(addr)
	return v != nil && v.Prot&ProtExec != 0
}

// VMAAt returns a copy of the VMA containing addr, or nil.
func (as *AddressSpace) VMAAt(addr uint64) *VMA {
	as.mu.Lock()
	defer as.mu.Unlock()
	v := as.findVMALocked(addr)
	if v == nil {
		return nil
	}
	cp := *v
	return &cp
}

// VMAs returns a snapshot of the mappings.
func (as *AddressSpace) VMAs() []VMA {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]VMA, len(as.vmas))
	for i, v := range as.vmas {
		out[i] = *v
	}
	return out
}

// ResidentPages counts pages currently mapped.
func (as *AddressSpace) ResidentPages() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := 0
	for _, v := range as.vmas {
		n += v.Pages
	}
	return n
}

// Clone duplicates the address space for fork: same layout, fresh frames,
// contents copied (an eager model of copy-on-write).
func (as *AddressSpace) Clone(alloc *Allocator, pid int, accessor Region) (*AddressSpace, error) {
	as.mu.Lock()
	vmas := make([]*VMA, len(as.vmas))
	copy(vmas, as.vmas)
	brk := as.brk
	minAddr := as.MmapMinAddr
	as.mu.Unlock()

	child := NewAddressSpace(alloc, pid)
	child.MmapMinAddr = minAddr
	child.brk = brk
	buf := make([]byte, abi.PageSize)
	for _, v := range vmas {
		child.mu.Lock()
		nv, err := child.buildVMALocked(v.Start, v.Pages, v.Prot, v.Kind, v.Tag)
		child.mu.Unlock()
		if err != nil {
			return nil, err
		}
		nv.DeviceMemory = v.DeviceMemory
		for i, f := range v.Frames {
			if err := as.alloc.phys.ReadFrame(accessor, f, 0, buf); err != nil {
				return nil, err
			}
			if err := as.alloc.phys.WriteFrame(accessor, nv.Frames[i], 0, buf); err != nil {
				return nil, err
			}
		}
	}
	return child, nil
}

// Release frees every frame of the address space (process exit). Frames
// of shared segments are owned by the segment and survive.
func (as *AddressSpace) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, v := range as.vmas {
		if v.Shared {
			continue
		}
		for _, f := range v.Frames {
			_ = as.alloc.Free(f)
		}
	}
	as.vmas = nil
}
