package kernel

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"anception/internal/abi"
)

// FrameID identifies one physical page frame. It is 32 bits wide: a
// 1 GiB device has 262,144 frames, and every mapping's frame list holds
// one FrameID per page.
type FrameID int32

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
// frames, kept in chunks of chunkFrames frames so that its heap follows
// the frames that differ from their chunk's default. An unbuilt chunk is
// a small record whose frames all share one owner and one version and
// have no contents. Every chunk starts unbuilt as free frames at version
// 0, ReserveRegion and ResetRegion take a chunk they cover whole from one
// uniform state to the next without building it (a CVM's 64 MB region is
// 32 chunks), and ReclaimRegion finds nothing to change in an unbuilt
// unowned chunk. The first change to a single frame builds its chunk: one
// array of owners, whose kernel is an id into a name table interned here,
// and one of versions, 16 B per frame. Frame contents hang off a
// per-chunk array of page pointers, allocated when a frame of the chunk
// is first written.
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
	chunks  []frameChunk
	nfree   int // frames owned by nobody

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

// frameChunk is one chunk's record. While table is nil the chunk is
// unbuilt: each of its frames has owner and version, and no contents.
type frameChunk struct {
	table *chunkTable // nil while unbuilt
	pages *chunkPages // nil until a frame of the chunk is first written

	owner   ownerID // every frame's owner while unbuilt
	version uint64  // every frame's version while unbuilt

	free      int16 // frames owned by nobody
	guestFree int16 // frames in the unowned guest state
	// guestLow is a low-water mark: no frame below this index is in the
	// unowned guest state. A chunk with none may have it at chunkFrames;
	// setOwnerLocked lowers it, unownChunkLocked puts it at 0 and
	// unownedGuestLocked raises it to the frame it finds.
	guestLow int16
}

// chunkTable is a built chunk's per-frame state: 8 KiB, one allocation
// size class exactly, which is why the chunk's counters live in its
// frameChunk record instead.
type chunkTable struct {
	owners [chunkFrames]ownerID
	// versions count mutations of each frame (content writes, ownership
	// changes, resets). The hypervisor's snapshot engine captures the
	// version vector of a region at checkpoint time and, at restore,
	// rewrites only the frames whose version moved since — frame-level
	// dirty tracking without shadow copies. They are 64-bit because that
	// test is equality, which a wrapped counter would fool.
	versions [chunkFrames]uint64
}

// chunkPages holds a chunk's frame contents, nil until first write.
type chunkPages [chunkFrames]*[abi.PageSize]byte

func (c *frameChunk) ownerAt(i int) ownerID {
	if c.table == nil {
		return c.owner
	}
	return c.table.owners[i]
}

func (c *frameChunk) versionAt(i int) uint64 {
	if c.table == nil {
		return c.version
	}
	return c.table.versions[i]
}

func (c *frameChunk) page(i int) *[abi.PageSize]byte {
	if c.pages == nil {
		return nil
	}
	return c.pages[i]
}

// setPage replaces frame i's contents, allocating the chunk's page array
// on its first page.
func (c *frameChunk) setPage(i int, pg *[abi.PageSize]byte) {
	if c.pages == nil {
		if pg == nil {
			return
		}
		c.pages = new(chunkPages)
	}
	c.pages[i] = pg
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

// maxFrames bounds the frames of one Physical: 2^30, 4 TiB, which leaves
// room for the FrameID arithmetic that steps a chunk past the last frame
// to stay below 2^31.
const maxFrames = 1 << 30

// NewPhysical creates physical memory with the given total size in bytes
// (rounded down to whole frames). It panics past maxFrames frames.
func NewPhysical(bytes int64) *Physical {
	if bytes/abi.PageSize > maxFrames {
		panic("kernel: physical memory of more than 2^30 frames")
	}
	n := int(bytes / abi.PageSize)
	p := &Physical{
		nframes: n,
		chunks:  make([]frameChunk, (n+chunkFrames-1)/chunkFrames),
		nfree:   n,
		names:   []string{""},
		nameIDs: map[string]uint16{"": 0},
	}
	for ci := range p.chunks {
		p.chunks[ci] = frameChunk{owner: freeOwner, free: int16(p.chunkLen(ci)), guestLow: chunkFrames}
	}
	return p
}

// TotalFrames reports the frame count.
func (p *Physical) TotalFrames() int { return p.nframes }

// FreeFrames reports how many frames are unallocated.
func (p *Physical) FreeFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nfree
}

// chunkLen is the number of frames chunk ci covers: chunkFrames, or fewer
// for the last chunk of a memory that ends mid-chunk.
func (p *Physical) chunkLen(ci int) int { return min(chunkFrames, p.nframes-ci*chunkFrames) }

// chunkLocked returns frame f's chunk and f's index in it.
func (p *Physical) chunkLocked(f FrameID) (*frameChunk, int) {
	return &p.chunks[f/chunkFrames], int(f % chunkFrames)
}

// spanLocked returns frame f's chunk, the number of frames from f to the
// end of that chunk or to end, whichever comes first, and whether that
// run is the whole chunk.
func (p *Physical) spanLocked(f, end FrameID) (*frameChunk, FrameID, bool) {
	ci := int(f / chunkFrames)
	base := FrameID(ci * chunkFrames)
	n := min(base+chunkFrames, end) - f
	return &p.chunks[ci], n, f == base && int(n) == p.chunkLen(ci)
}

// buildLocked builds frame f's chunk if it is unbuilt, every frame taking
// the chunk's one owner and version, and returns the chunk and f's index
// in it.
func (p *Physical) buildLocked(f FrameID) (*frameChunk, int) {
	c, i := p.chunkLocked(f)
	if c.table == nil {
		t := new(chunkTable)
		for j := range t.owners {
			t.owners[j], t.versions[j] = c.owner, c.version
		}
		c.table = t
	}
	return c, i
}

// setOwnerLocked gives frame f owner o and bumps its version, building
// its chunk if need be, keeps the free counts and the chunk's guest mark
// in step, and returns the chunk and f's index in it.
func (p *Physical) setOwnerLocked(f FrameID, o ownerID) (*frameChunk, int) {
	c, i := p.buildLocked(f)
	p.tallyLocked(c, c.table.owners[i], -1)
	c.table.owners[i] = o
	c.table.versions[i]++
	p.tallyLocked(c, o, 1)
	if o == unownedGuest && i < int(c.guestLow) {
		c.guestLow = int16(i)
	}
	return c, i
}

// unownChunkLocked does to every frame of the unbuilt chunk c, n frames
// long, what setOwnerLocked(f, unownedGuest) does to one, and leaves it
// unbuilt: its one owner becomes unownedGuest and its one version moves
// up by one.
func (p *Physical) unownChunkLocked(c *frameChunk, n int) {
	p.tallyLocked(c, c.owner, -n)
	c.owner = unownedGuest
	c.version++
	p.tallyLocked(c, unownedGuest, n)
	c.guestLow = 0
}

func (p *Physical) tallyLocked(c *frameChunk, o ownerID, d int) {
	switch o {
	case freeOwner:
		c.free += int16(d)
		p.nfree += d
	case unownedGuest:
		c.guestFree += int16(d)
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
	c, i := p.chunkLocked(f)
	return c.versionAt(i)
}

func (p *Physical) ownerLocked(f FrameID) FrameOwner {
	c, i := p.chunkLocked(f)
	o := c.ownerAt(i)
	return FrameOwner{Kind: FrameOwnerKind(o.kind), Kernel: p.names[o.kernel], PID: int(o.pid)}
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
	// unbuilt chunk is a whole run of free frames or none.
	start, run := FrameID(-1), 0
	for f, end := FrameID(0), FrameID(p.nframes); n > 0 && start < 0 && f < end; {
		c, m, _ := p.spanLocked(f, end)
		switch {
		case c.table == nil && c.owner.kind != uint8(FrameFree):
			run = 0
		case c.table == nil && run+int(m) >= n:
			start = f - FrameID(run)
		case c.table == nil:
			run += int(m)
		default:
			for g := f; g < f+m; g++ {
				if c.ownerAt(int(g%chunkFrames)).kind != uint8(FrameFree) {
					run = 0
				} else if run++; run == n {
					start = g - FrameID(n) + 1
					break
				}
			}
		}
		f += m
	}
	if start < 0 {
		return Region{}, fmt.Errorf("reserve %d frames: %w", n, abi.ENOMEM)
	}
	r := Region{Start: start, End: start + FrameID(n)}
	p.unownLocked(r, false)
	p.freed, p.cursor = p.freed[:0], 0
	return r, nil
}

// unownLocked puts every frame of r in the unowned guest state with a
// version bump, and clears its contents if clear is set. A chunk r covers
// whole that is unbuilt stays unbuilt.
func (p *Physical) unownLocked(r Region, clear bool) {
	for f, end := r.Start, p.end(r); f < end; {
		c, n, whole := p.spanLocked(f, end)
		if whole && c.table == nil {
			p.unownChunkLocked(c, int(n))
		} else {
			for g := f; g < f+n; g++ {
				if c, i := p.setOwnerLocked(g, unownedGuest); clear {
					c.setPage(i, nil)
				}
			}
		}
		f += n
	}
}

// ResetRegion returns every frame in a reserved guest region to the
// guest-kernel-owned state and clears contents — the physical effect of
// rebooting the container VM.
func (p *Physical) ResetRegion(r Region) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unownLocked(r, true)
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
		if c, i := p.chunkLocked(f); c.ownerAt(i) == unownedGuest {
			continue
		}
		p.setOwnerLocked(f, unownedGuest)
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
		if c, i := p.chunkLocked(f); c.page(i) != nil {
			data = append([]byte(nil), c.page(i)[:]...)
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
		c, j := p.setOwnerLocked(f, p.ownerIDLocked(owners[i]))
		var pg *[abi.PageSize]byte
		if len(datas[i]) > 0 {
			pg = new([abi.PageSize]byte)
			copy(pg[:], datas[i])
		}
		c.setPage(j, pg)
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
	p.setOwnerLocked(f, owner)
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
	for ci := int(r.Start / chunkFrames); ci*chunkFrames < int(end); ci++ {
		c := &p.chunks[ci]
		if c.guestFree == 0 {
			continue
		}
		// An unbuilt chunk with an unowned guest frame has only those.
		base := FrameID(ci * chunkFrames)
		low := base + FrameID(c.guestLow)
		g, next := max(r.Start, low), min(base+chunkFrames, end)
		for ; c.table != nil && g < next && c.table.owners[g-base] != unownedGuest; g++ {
		}
		if g < next {
			if r.Start <= low {
				c.guestLow = int16(g - base)
			}
			return g, true
		}
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
		if c, i := p.chunkLocked(f); c.ownerAt(i).kind == uint8(FrameFree) {
			return f, true
		}
	}
	for int(p.cursor) < p.nframes {
		f := p.cursor
		c, i := p.chunkLocked(f)
		if c.free == 0 {
			p.cursor = (f/chunkFrames + 1) * chunkFrames
			continue
		}
		p.cursor++
		if c.ownerAt(i).kind == uint8(FrameFree) {
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
		if c, i := p.chunkLocked(f); c.ownerAt(i).kind != uint8(FrameFree) {
			p.freed = append(p.freed, f)
		}
	}
	c, i := p.setOwnerLocked(f, o)
	c.setPage(i, nil)
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
	c, i := p.buildLocked(f)
	pg := c.page(i)
	if pg == nil {
		pg = new([abi.PageSize]byte)
		c.setPage(i, pg)
	}
	copy(pg[off:], data)
	c.table.versions[i]++
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
	if c, i := p.chunkLocked(f); c.page(i) != nil {
		copy(buf, c.page(i)[off:])
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
