package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"anception/internal/abi"
)

// TestVMAExtentsMatchReference drives address spaces on host memory and
// on a guest region through seeded streams of MapAnon, MapFixed, Brk grow
// and shrink, Unmap, MapShared/UnmapShared, WriteBytes, Clone and
// Release. Beside them runs a model that keeps one FrameID per page and
// takes and frees frames one at a time with Alloc and Free on a second
// memory, in the orders a per-page mapping would. After every step every
// page must translate to the model's frame, and the two memories must
// agree on every frame's owner, version and contents, on the free count
// and on the host's freed order. A VMAs snapshot taken before a Brk grow
// must not change with it, an Unmap of a shared mapping frees nothing, and
// a fork that runs out of frames leaves none taken.
func TestVMAExtentsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		vmaExtentsAgainstReference(t, seed)
	}
}

// refVMA is one mapping of the per-page model.
type refVMA struct {
	start  uint64
	frames []FrameID
	kind   VMAKind
	shared bool
}

func (v *refVMA) end() uint64 { return v.start + uint64(len(v.frames))*abi.PageSize }

// refSpace is an address space under test and its model.
type refSpace struct {
	as       *AddressSpace
	alloc    *Allocator // the model's allocator, on the reference memory
	accessor Region
	vmas     []*refVMA // sorted by start, as the address space keeps them
	brk      uint64
}

// refSegment is a shared segment and the model's frames of it.
type refSegment struct {
	seg    *ShmSegment
	frames []FrameID
}

func vmaExtentsAgainstReference(t *testing.T, seed int64) {
	t.Helper()
	const nframes = 8 * chunkFrames
	rng := rand.New(rand.NewSource(seed))
	phys, ref := NewPhysical(nframes*abi.PageSize), NewPhysical(nframes*abi.PageSize)
	fail := func(step int, format string, a ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, a...))
	}

	// Each memory gets 37 host frames, then a guest region that starts
	// mid-chunk and covers chunks 1 and 2 whole; chunks 4 to 7 stay whole
	// and free for the host.
	type allocators struct {
		host, guest *Allocator
		region      Region
	}
	setup := func(p *Physical) allocators {
		host := p.NewAllocator("host", Region{})
		for i := 0; i < 37; i++ {
			if _, err := host.Alloc(1); err != nil {
				t.Fatal(err)
			}
		}
		r, err := p.ReserveRegion(1700)
		if err != nil {
			t.Fatal(err)
		}
		return allocators{host: host, guest: p.NewAllocator("cvm", r), region: r}
	}
	real, model := setup(phys), setup(ref)
	pid := 10
	newSpace := func(guest bool) *refSpace {
		pid++
		if guest {
			return &refSpace{as: NewAddressSpace(real.guest, pid), alloc: model.guest, accessor: real.region, brk: AddrHeapBase}
		}
		return &refSpace{as: NewAddressSpace(real.host, pid), alloc: model.host, brk: AddrHeapBase}
	}
	isGuest := func(s *refSpace) bool { return s.accessor.End != 0 }
	spaces := []*refSpace{newSpace(false), newSpace(true)}
	segments := map[bool][]*refSegment{}

	// take gives the model n frames one Alloc at a time, or, if memory
	// runs out part way, none: it frees what it took, in that order.
	take := func(s *refSpace, n int) ([]FrameID, bool) {
		var out []FrameID
		for len(out) < n {
			f, err := s.alloc.Alloc(s.as.PID())
			if err != nil {
				release(t, s.alloc, out)
				return nil, false
			}
			out = append(out, f)
		}
		return out, true
	}
	insert := func(s *refSpace, v *refVMA) {
		i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].start >= v.start })
		s.vmas = slices.Insert(s.vmas, i, v)
	}
	remove := func(s *refSpace, v *refVMA) {
		s.vmas = slices.DeleteFunc(s.vmas, func(w *refVMA) bool { return w == v })
	}
	overlaps := func(s *refSpace, start uint64, n int) bool {
		end := start + uint64(n)*abi.PageSize
		return slices.ContainsFunc(s.vmas, func(v *refVMA) bool { return start < v.end() && v.start < end })
	}
	pick := func(s *refSpace, ok func(*refVMA) bool) *refVMA {
		var vs []*refVMA
		for _, v := range s.vmas {
			if ok(v) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return nil
		}
		return vs[rng.Intn(len(vs))]
	}
	// pages picks a mapping size: mostly a few pages, now and then more
	// than a chunk.
	pages := func() int {
		if rng.Intn(4) == 0 {
			return 300 + rng.Intn(900)
		}
		return 1 + rng.Intn(48)
	}
	// refCopy copies frame src to dst in the reference memory as Clone
	// must: the bytes of a written frame, and for a never-written one no
	// page, stale or new, and one version step.
	refCopy := func(accessor Region, dst, src FrameID) {
		ref.mu.Lock()
		c, i := ref.chunkLocked(src)
		written := c.page(i) != nil
		ref.mu.Unlock()
		if written {
			buf := make([]byte, abi.PageSize)
			if ref.ReadFrame(accessor, src, 0, buf) != nil || ref.WriteFrame(accessor, dst, 0, buf) != nil {
				t.Fatalf("reference copy of frame %d to %d failed", src, dst)
			}
			return
		}
		ref.mu.Lock()
		c, i = ref.buildLocked(dst)
		c.setPage(i, nil)
		c.table.versions[i]++
		ref.mu.Unlock()
	}
	// mapped checks that a mapping failed, with ENOMEM, exactly when the
	// model ran out of frames.
	mapped := func(step int, what string, ok bool, err error) bool {
		if ok != (err == nil) || !ok && !errors.Is(err, abi.ENOMEM) {
			fail(step, "%s: %v, model has frames: %v", what, err, ok)
		}
		return ok
	}

	mapAnon := func(step int, s *refSpace, n int) {
		frames, ok := take(s, n)
		base, err := s.as.MapAnon(n, ProtRead|ProtWrite, VMAAnon, "anon")
		if mapped(step, "MapAnon", ok, err) {
			insert(s, &refVMA{start: base, frames: frames, kind: VMAAnon})
		}
	}
	// brk moves s's break to end: the model takes the heap's new pages,
	// or frees the pages past the new break from the top one down.
	brk := func(step int, s *refSpace, end uint64) {
		np := int((end - AddrHeapBase + abi.PageSize - 1) / abi.PageSize)
		cur := int((s.brk - AddrHeapBase + abi.PageSize - 1) / abi.PageSize)
		heap := pick(s, func(v *refVMA) bool { return v.kind == VMAHeap })
		snap := s.as.VMAs()
		var before [][]FrameRun
		for _, v := range snap {
			before = append(before, slices.Clone(v.Runs()))
		}
		ok := true
		switch {
		case np > cur && heap == nil:
			var frames []FrameID
			if frames, ok = take(s, np); ok {
				insert(s, &refVMA{start: AddrHeapBase, frames: frames, kind: VMAHeap})
			}
		case np > cur:
			var frames []FrameID
			if frames, ok = take(s, np-cur); ok {
				heap.frames = append(heap.frames, frames...)
			}
		case np < cur && heap != nil:
			for i := cur - 1; i >= np; i-- {
				release(t, s.alloc, heap.frames[i:i+1])
			}
			heap.frames = heap.frames[:np]
		}
		if ok {
			s.brk = end
		}
		got, err := s.as.Brk(end)
		if ok != (err == nil) || got != s.brk {
			fail(step, "Brk(%#x) = %#x, %v; model %#x, frames %v", end, got, err, s.brk, ok)
		}
		for i, v := range snap {
			if !slices.Equal(v.Runs(), before[i]) {
				fail(step, "snapshot of VMA %#x changed from %v to %v with Brk", v.Start, before[i], v.Runs())
			}
		}
	}

	check := func(step int) {
		for _, s := range spaces {
			got := s.as.VMAs()
			if len(got) != len(s.vmas) {
				fail(step, "pid %d has %d VMAs, model %d", s.as.PID(), len(got), len(s.vmas))
			}
			for i, v := range got {
				w := s.vmas[i]
				if v.Start != w.start || v.Pages != len(w.frames) || v.Shared != w.shared || v.Kind != w.kind {
					fail(step, "pid %d VMA %d = %#x+%d shared %v, model %#x+%d shared %v",
						s.as.PID(), i, v.Start, v.Pages, v.Shared, w.start, len(w.frames), w.shared)
				}
				if fs := runFrames(v.Runs()); !slices.Equal(fs, w.frames) {
					fail(step, "pid %d VMA %#x frames %v, model %v", s.as.PID(), v.Start, fs, w.frames)
				}
				for k := 1; k < len(v.Runs()); k++ {
					if r := v.Runs()[k-1]; r.First+FrameID(r.N) == v.Runs()[k].First {
						fail(step, "pid %d VMA %#x holds runs %v: %v could grow instead", s.as.PID(), v.Start, v.Runs(), r)
					}
				}
				s.as.mu.Lock()
				for k, want := range w.frames {
					if f, _, tv := s.as.translate(w.start + uint64(k)*abi.PageSize + 7); tv == nil || f != want {
						s.as.mu.Unlock()
						fail(step, "pid %d page %#x translates to %d, model %d", s.as.PID(), w.start+uint64(k)*abi.PageSize, f, want)
					}
				}
				s.as.mu.Unlock()
			}
			if brk, _ := s.as.Brk(0); brk != s.brk {
				fail(step, "pid %d break %#x, model %#x", s.as.PID(), brk, s.brk)
			}
		}
		if got, want := phys.FreeFrames(), ref.FreeFrames(); got != want {
			fail(step, "%d free frames, model %d", got, want)
		}
		phys.mu.Lock()
		defer phys.mu.Unlock()
		ref.mu.Lock()
		defer ref.mu.Unlock()
		if !slices.Equal(phys.freed, ref.freed) {
			i := 0
			for i < min(len(phys.freed), len(ref.freed)) && phys.freed[i] == ref.freed[i] {
				i++
			}
			fail(step, "freed list of %d frames, model %d, first differs at entry %d: %v, model %v",
				len(phys.freed), len(ref.freed), i, phys.freed[i:min(i+8, len(phys.freed))], ref.freed[i:min(i+8, len(ref.freed))])
		}
		for f := FrameID(0); f < nframes; f++ {
			c, i := phys.chunkLocked(f)
			rc, ri := ref.chunkLocked(f)
			pg, rpg := c.page(i), rc.page(ri)
			if c.ownerAt(i) != rc.ownerAt(ri) || c.versionAt(i) != rc.versionAt(ri) ||
				(pg == nil) != (rpg == nil) || pg != nil && *pg != *rpg {
				fail(step, "frame %d: owner %+v version %d page %v, model %+v %d %v",
					f, c.ownerAt(i), c.versionAt(i), pg != nil, rc.ownerAt(ri), rc.versionAt(ri), rpg != nil)
			}
		}
	}

	check(-1)
	// First the host heap grows from frame 1737 over chunks 4 and 5 whole
	// and shrinks away, which frees them whole, from the top down. A
	// mapping then takes its frames back one by one from the freed list,
	// up to the end of chunk 4, and leaves no stale entry there.
	brk(-1, spaces[0], AddrHeapBase+1400*abi.PageSize)
	check(-1)
	brk(-1, spaces[0], AddrHeapBase)
	check(-1)
	mapAnon(-1, spaces[0], 5*chunkFrames-1737)
	check(-1)
	for step := 0; step < 300; step++ {
		s := spaces[rng.Intn(len(spaces))]
		switch op := rng.Intn(100); {
		case op < 22:
			mapAnon(step, s, pages())
		case op < 30:
			addr, n := 0x2000_0000+uint64(rng.Intn(2048))*abi.PageSize, pages()
			if overlaps(s, addr, n) {
				if err := s.as.MapFixed(addr, n, ProtRead, VMAAnon, "fixed"); !errors.Is(err, abi.EEXIST) {
					fail(step, "MapFixed over a mapping: %v, want EEXIST", err)
				}
				break
			}
			frames, ok := take(s, n)
			if mapped(step, "MapFixed", ok, s.as.MapFixed(addr, n, ProtRead, VMAAnon, "fixed")) {
				insert(s, &refVMA{start: addr, frames: frames, kind: VMAAnon})
			}
		case op < 50:
			np := rng.Intn(1400)
			end := AddrHeapBase + uint64(np)*abi.PageSize - uint64(rng.Intn(2))*100
			if np == 0 {
				end = AddrHeapBase
			}
			brk(step, s, end)
		case op < 60:
			// munmap of a shared mapping leaves the segment's frames alone.
			if v := pick(s, func(v *refVMA) bool { return true }); v != nil {
				if !v.shared {
					release(t, s.alloc, v.frames)
				}
				remove(s, v)
				if err := s.as.Unmap(v.start); err != nil {
					fail(step, "Unmap(%#x): %v", v.start, err)
				}
			}
		case op < 66:
			segs := segments[isGuest(s)]
			if len(segs) < 3 {
				n := 1 + pages()/2
				frames, ok := take(s, n)
				runs, err := s.as.alloc.AllocN(s.as.PID(), n)
				if !mapped(step, "segment", ok, err) {
					break
				}
				segments[isGuest(s)] = append(segs, &refSegment{seg: &ShmSegment{Pages: n, runs: runs}, frames: frames})
				break
			}
			seg := segs[rng.Intn(len(segs))]
			base, err := s.as.MapShared(seg.seg, ProtRead|ProtWrite, "shm")
			if err != nil {
				fail(step, "MapShared: %v", err)
			}
			insert(s, &refVMA{start: base, frames: seg.frames, kind: VMAAnon, shared: true})
		case op < 70:
			if v := pick(s, func(v *refVMA) bool { return v.shared }); v != nil {
				remove(s, v)
				if err := s.as.UnmapShared(v.start); err != nil {
					fail(step, "UnmapShared(%#x): %v", v.start, err)
				}
			}
		case op < 85:
			v := pick(s, func(v *refVMA) bool { return len(v.frames) > 0 })
			if v == nil {
				break
			}
			k, off := rng.Intn(len(v.frames)), rng.Intn(abi.PageSize-16)
			data := make([]byte, 16)
			rng.Read(data)
			if err := s.as.WriteBytes(s.accessor, v.start+uint64(k)*abi.PageSize+uint64(off), data); err != nil {
				fail(step, "WriteBytes: %v", err)
			}
			if err := ref.WriteFrame(s.accessor, v.frames[k], off, data); err != nil {
				t.Fatal(err)
			}
		case op < 93:
			// A fork that runs out of frames part way frees the child's
			// mappings in address order.
			if len(spaces) >= 6 {
				break
			}
			child := newSpace(isGuest(s))
			as, err := s.as.Clone(s.as.alloc, child.as.PID(), s.accessor)
			ok := true
			for _, v := range s.vmas {
				var frames []FrameID
				if frames, ok = take(child, len(v.frames)); !ok {
					break
				}
				for k, f := range v.frames {
					refCopy(s.accessor, frames[k], f)
				}
				child.vmas = append(child.vmas, &refVMA{start: v.start, frames: frames, kind: v.kind})
			}
			if !mapped(step, "Clone", ok, err) {
				for _, v := range child.vmas {
					release(t, child.alloc, v.frames)
				}
				break
			}
			child.as, child.brk = as, s.brk
			spaces = append(spaces, child)
		default:
			for _, v := range s.vmas {
				if !v.shared {
					release(t, s.alloc, v.frames)
				}
			}
			s.as.Release()
			spaces = slices.DeleteFunc(spaces, func(w *refSpace) bool { return w == s })
			if !slices.ContainsFunc(spaces, func(w *refSpace) bool { return isGuest(w) == isGuest(s) }) {
				spaces = append(spaces, newSpace(isGuest(s)))
			}
		}
		check(step)
	}
}

// release frees frames one Free at a time, in order.
func release(t *testing.T, a *Allocator, frames []FrameID) {
	t.Helper()
	for _, f := range frames {
		if err := a.Free(f); err != nil {
			t.Fatalf("free frame %d: %v", f, err)
		}
	}
}

// TestCloneGivesUntouchedFramesNoPage: forking a task with 64 pages it
// never wrote gives the child no page of contents, and the child reads
// the parent's bytes, zeros, even where its frames held stale contents,
// as a guest frame left over from a restored image does.
func TestCloneGivesUntouchedFramesNoPage(t *testing.T) {
	phys := NewPhysical(1 << 22)
	region, err := phys.ReserveRegion(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alloc    *Allocator
		accessor Region
	}{{phys.NewAllocator("host", Region{}), Region{}}, {phys.NewAllocator("cvm", region), region}} {
		parent := NewAddressSpace(tc.alloc, 1)
		base, err := parent.MapAnon(64, ProtRead|ProtWrite, VMAAnon, "untouched")
		if err != nil {
			t.Fatal(err)
		}
		// The guest child takes the region's next frames: give them stale
		// contents first.
		for f := region.Start + 64; tc.accessor == region && f < region.End; f++ {
			if err := phys.WriteFrame(region, f, 0, []byte("stale")); err != nil {
				t.Fatal(err)
			}
		}
		child, err := parent.Clone(tc.alloc, 2, tc.accessor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parent.ReadBytes(tc.accessor, base, 64*abi.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := child.ReadBytes(tc.accessor, base, 64*abi.PageSize)
		if err != nil || !bytes.Equal(got, want) || !bytes.Equal(got, make([]byte, 64*abi.PageSize)) {
			t.Fatalf("region %+v: child reads other bytes than the parent's zeros: %v", tc.accessor, err)
		}
		phys.mu.Lock()
		for _, f := range runFrames(child.VMAAt(base).Runs()) {
			if c, i := phys.chunkLocked(f); c.page(i) != nil {
				t.Errorf("region %+v: child frame %d holds a page", tc.accessor, f)
			}
		}
		phys.mu.Unlock()
	}
}
