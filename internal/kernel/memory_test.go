package kernel

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"anception/internal/abi"
)

func TestPhysicalAllocFree(t *testing.T) {
	phys := NewPhysical(1 << 20) // 256 frames
	if phys.TotalFrames() != 256 {
		t.Fatalf("frames = %d", phys.TotalFrames())
	}
	alloc := phys.NewAllocator("host", Region{})
	f, err := alloc.Alloc(42)
	if err != nil {
		t.Fatal(err)
	}
	owner := phys.Owner(f)
	if owner.Kind != FrameProcess || owner.PID != 42 || owner.Kernel != "host" {
		t.Fatalf("owner = %+v", owner)
	}
	if err := alloc.Free(f); err != nil {
		t.Fatal(err)
	}
	if phys.Owner(f).Kind != FrameFree {
		t.Fatal("frame not freed")
	}
}

func TestReserveRegionConfinesGuest(t *testing.T) {
	phys := NewPhysical(1 << 20)
	region, err := phys.ReserveRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	if region.Frames() != 64 {
		t.Fatalf("region = %+v", region)
	}
	guest := phys.NewAllocator("cvm", region)
	for i := 0; i < 64; i++ {
		if _, err := guest.Alloc(1); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := guest.Alloc(1); !errors.Is(err, abi.ENOMEM) {
		t.Fatalf("65th guest alloc: %v, want ENOMEM", err)
	}
}

func TestGuestCannotTouchHostFrames(t *testing.T) {
	phys := NewPhysical(1 << 20)
	region, err := phys.ReserveRegion(16)
	if err != nil {
		t.Fatal(err)
	}
	host := phys.NewAllocator("host", Region{})
	hostFrame, err := host.Alloc(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteFrame(Region{}, hostFrame, 0, []byte("host secret")); err != nil {
		t.Fatal(err)
	}

	// A guest-confined accessor must be rejected on host frames.
	if err := phys.ReadFrame(region, hostFrame, 0, make([]byte, 4)); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest read of host frame: %v, want EPERM", err)
	}
	if err := phys.WriteFrame(region, hostFrame, 0, []byte("own3d")); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest write of host frame: %v, want EPERM", err)
	}

	// The unconfined (host) accessor works.
	buf := make([]byte, 11)
	if err := phys.ReadFrame(Region{}, hostFrame, 0, buf); err != nil || string(buf) != "host secret" {
		t.Fatalf("host read: %q, %v", buf, err)
	}
}

// Property: for any interleaving of guest allocations, every frame the
// guest ever receives lies inside its reserved region.
func TestGuestAllocationConfinementProperty(t *testing.T) {
	phys := NewPhysical(4 << 20)
	region, err := phys.ReserveRegion(128)
	if err != nil {
		t.Fatal(err)
	}
	guest := phys.NewAllocator("cvm", region)
	var held []FrameID
	f := func(allocate bool) bool {
		if allocate || len(held) == 0 {
			fr, err := guest.Alloc(1)
			if err != nil {
				return true // exhaustion is fine
			}
			held = append(held, fr)
			return region.Contains(fr)
		}
		fr := held[len(held)-1]
		held = held[:len(held)-1]
		return guest.Free(fr) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceBrkGrowShrink(t *testing.T) {
	phys := NewPhysical(1 << 20)
	alloc := phys.NewAllocator("host", Region{})
	as := NewAddressSpace(alloc, 1)

	end, err := as.Brk(0)
	if err != nil || end != AddrHeapBase {
		t.Fatalf("initial brk = %#x, %v", end, err)
	}
	if _, err := as.Brk(AddrHeapBase + 3*abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentPages(); got != 3 {
		t.Fatalf("resident = %d, want 3", got)
	}
	if _, err := as.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentPages(); got != 1 {
		t.Fatalf("resident after shrink = %d, want 1", got)
	}
	if _, err := as.Brk(AddrHeapBase - 1); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("brk below base: %v, want EINVAL", err)
	}
}

func TestAddressSpaceReadWriteAcrossPages(t *testing.T) {
	phys := NewPhysical(1 << 20)
	alloc := phys.NewAllocator("host", Region{})
	as := NewAddressSpace(alloc, 1)
	if _, err := as.Brk(AddrHeapBase + 2*abi.PageSize); err != nil {
		t.Fatal(err)
	}
	// Write a run straddling the page boundary.
	payload := bytes.Repeat([]byte("AB"), 3000) // 6000 bytes > one page
	addr := AddrHeapBase + 1000
	if err := as.WriteBytes(Region{}, addr, payload); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadBytes(Region{}, addr, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("cross-page round trip failed: %v", err)
	}
}

func TestAddressSpaceFaultOnUnmapped(t *testing.T) {
	phys := NewPhysical(1 << 20)
	as := NewAddressSpace(phys.NewAllocator("host", Region{}), 1)
	if _, err := as.ReadBytes(Region{}, 0xDEAD0000, 8); !errors.Is(err, abi.EFAULT) {
		t.Fatalf("read unmapped: %v, want EFAULT", err)
	}
	if err := as.WriteBytes(Region{}, 0xDEAD0000, []byte("x")); !errors.Is(err, abi.EFAULT) {
		t.Fatalf("write unmapped: %v, want EFAULT", err)
	}
}

func TestMapFixedNullPageRespectsMinAddr(t *testing.T) {
	phys := NewPhysical(1 << 20)
	as := NewAddressSpace(phys.NewAllocator("host", Region{}), 1)
	as.MmapMinAddr = abi.PageSize // hardened kernel
	if err := as.MapFixed(0, 1, ProtRead|ProtExec, VMAAnon, "shellcode"); !errors.Is(err, abi.EPERM) {
		t.Fatalf("null map on hardened kernel: %v, want EPERM", err)
	}
	as.MmapMinAddr = 0 // pre-hardening kernel
	if err := as.MapFixed(0, 1, ProtRead|ProtExec, VMAAnon, "shellcode"); err != nil {
		t.Fatal(err)
	}
	if !as.HasExecutableMappingAt(0) {
		t.Fatal("null page mapping not visible")
	}
}

func TestMapFixedRejectsOverlapAndMisalignment(t *testing.T) {
	phys := NewPhysical(1 << 20)
	as := NewAddressSpace(phys.NewAllocator("host", Region{}), 1)
	if err := as.MapFixed(abi.PageSize+1, 1, ProtRead, VMAAnon, "x"); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("misaligned: %v, want EINVAL", err)
	}
	if err := as.MapFixed(0x10000, 2, ProtRead, VMAAnon, "a"); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x10000+abi.PageSize, 1, ProtRead, VMAAnon, "b"); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("overlap: %v, want EEXIST", err)
	}
}

func TestMapAnonPlacementAndUnmap(t *testing.T) {
	phys := NewPhysical(1 << 20)
	as := NewAddressSpace(phys.NewAllocator("host", Region{}), 1)
	a, err := as.MapAnon(2, ProtRead|ProtWrite, VMAAnon, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.MapAnon(1, ProtRead, VMAAnon, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b < a+2*abi.PageSize {
		t.Fatalf("mappings overlap: a=%#x b=%#x", a, b)
	}
	if err := as.Unmap(a); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(a); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("double unmap: %v, want EINVAL", err)
	}
}

func TestCloneCopiesButDoesNotShare(t *testing.T) {
	phys := NewPhysical(1 << 20)
	alloc := phys.NewAllocator("host", Region{})
	parent := NewAddressSpace(alloc, 1)
	if _, err := parent.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteBytes(Region{}, AddrHeapBase, []byte("original")); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Clone(alloc, 2, Region{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := child.ReadBytes(Region{}, AddrHeapBase, 8)
	if string(got) != "original" {
		t.Fatalf("clone contents = %q", got)
	}
	if err := child.WriteBytes(Region{}, AddrHeapBase, []byte("mutated!")); err != nil {
		t.Fatal(err)
	}
	back, _ := parent.ReadBytes(Region{}, AddrHeapBase, 8)
	if string(back) != "original" {
		t.Fatalf("parent saw child write: %q", back)
	}
	// Frames of parent and child must be disjoint.
	pf := map[FrameID]bool{}
	for _, v := range parent.VMAs() {
		for _, f := range v.Frames {
			pf[f] = true
		}
	}
	for _, v := range child.VMAs() {
		for _, f := range v.Frames {
			if pf[f] {
				t.Fatalf("frame %d shared between parent and child", f)
			}
		}
	}
}

func TestReleaseReturnsFrames(t *testing.T) {
	phys := NewPhysical(1 << 20)
	alloc := phys.NewAllocator("host", Region{})
	free0 := phys.FreeFrames()
	as := NewAddressSpace(alloc, 1)
	if _, err := as.MapAnon(10, ProtRead, VMAAnon, "x"); err != nil {
		t.Fatal(err)
	}
	if phys.FreeFrames() != free0-10 {
		t.Fatalf("free = %d, want %d", phys.FreeFrames(), free0-10)
	}
	as.Release()
	if phys.FreeFrames() != free0 {
		t.Fatalf("free after release = %d, want %d", phys.FreeFrames(), free0)
	}
}

func TestGuestAddressSpaceConfinedOnWrite(t *testing.T) {
	phys := NewPhysical(1 << 20)
	region, err := phys.ReserveRegion(32)
	if err != nil {
		t.Fatal(err)
	}
	guestAlloc := phys.NewAllocator("cvm", region)
	as := NewAddressSpace(guestAlloc, 5)
	if _, err := as.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	// Writes through the guest's own accessor region succeed (its frames
	// are inside the region by construction)...
	if err := as.WriteBytes(region, AddrHeapBase, []byte("guest data")); err != nil {
		t.Fatal(err)
	}
	// ...and the frames really are inside the region.
	for _, v := range as.VMAs() {
		for _, f := range v.Frames {
			if !region.Contains(f) {
				t.Fatalf("guest AS frame %d outside region", f)
			}
		}
	}
}

func TestVMAKindStrings(t *testing.T) {
	want := map[VMAKind]string{
		VMACode: "code", VMAHeap: "heap", VMAStack: "stack",
		VMAAnon: "anon", VMAFile: "file", VMADevice: "device",
		VMAKind(0): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// --- Allocator contract ---
//
// The tests below pin what the physical-frame table promises its callers,
// independent of how it stores frames: the exact FrameID each allocation
// returns, owners and version counters after every kind of region
// operation, the untouched-frame defaults, FreeFrames accounting, owner
// round trips through the kernel-name table, and safety under concurrent
// use. Every later change to the table must keep them green unchanged.

const frameTraceGolden = "testdata/frame_trace.golden"

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// frameTrace drives one Physical through a seeded stream of host and
// guest allocations and frees, frame writes, and the region operations
// the hypervisor uses (ReserveRegion, ResetRegion, ReclaimRegion,
// CaptureRegion/RestoreRegion), and returns a line-per-event log: every
// FrameID handed out, every region and restore count, and at the end the
// owner, version and a content digest of every frame that is not in the
// untouched state, with runs of identical frames folded into one line.
func frameTrace(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	// 4096 frames: regions are placed off any power-of-two boundary by
	// the host allocations made before them.
	phys := NewPhysical(4096 * abi.PageSize)
	var log []string
	logf := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }

	type pool struct {
		alloc    *Allocator
		accessor Region
		held     []FrameID
	}
	take := func(p *pool) FrameID {
		i := rng.Intn(len(p.held))
		f := p.held[i]
		p.held = append(p.held[:i], p.held[i+1:]...)
		return f
	}
	allocate := func(p *pool, pid int) {
		f, err := p.alloc.Alloc(pid)
		if err != nil {
			logf("%s alloc pid=%d: %v", p.alloc.KernelName(), pid, err)
			return
		}
		p.held = append(p.held, f)
		logf("%s alloc pid=%d -> %d", p.alloc.KernelName(), pid, f)
	}
	write := func(p *pool) {
		f := p.held[rng.Intn(len(p.held))]
		off := rng.Intn(abi.PageSize - 16)
		data := []byte(fmt.Sprintf("%016x", rng.Uint64()))
		logf("write %d@%d: %v", f, off, phys.WriteFrame(p.accessor, f, off, data))
	}

	host := &pool{alloc: phys.NewAllocator("host", Region{})}
	for i := 0; i < 37; i++ {
		allocate(host, rng.Intn(50))
	}
	regionA, err := phys.ReserveRegion(700)
	logf("reserve A -> [%d,%d) %v", regionA.Start, regionA.End, err)
	guestA := &pool{alloc: phys.NewAllocator("cvm-a", regionA), accessor: regionA}

	// step issues one random operation: negative PIDs ask for
	// kernel-owned frames.
	step := func(g *pool) {
		switch op := rng.Intn(10); {
		case op < 3:
			allocate(host, rng.Intn(50)-5)
		case op < 5 && len(host.held) > 0:
			f := take(host)
			logf("host free %d: %v", f, host.alloc.Free(f))
		case op < 7:
			allocate(g, rng.Intn(40)-4)
		case op < 8 && len(g.held) > 0:
			f := take(g)
			logf("%s free %d: %v", g.alloc.KernelName(), f, g.alloc.Free(f))
		case op < 9 && len(g.held) > 0:
			write(g)
		case len(host.held) > 0:
			write(host)
		}
	}

	for i := 0; i < 400; i++ {
		step(guestA)
	}
	// A guest free or write outside the region is refused and changes
	// nothing.
	logf("cvm-a free host frame %d: %v", host.held[0], guestA.alloc.Free(host.held[0]))
	logf("cvm-a write host frame %d: %v", host.held[0], phys.WriteFrame(regionA, host.held[0], 0, []byte("x")))

	// A checkpoint of A, more traffic, then a copy-on-write restore and
	// the reclaim a restored guest kernel performs.
	owners, datas, versions := phys.CaptureRegion(regionA)
	for i := 0; i < 150; i++ {
		step(guestA)
	}
	restored, err := phys.RestoreRegion(regionA, owners, datas, versions)
	logf("restore A -> %d %v", restored, err)
	guestA.held = guestA.held[:1]
	phys.ReclaimRegion(regionA, guestA.held)
	logf("reclaim A keep=%v", guestA.held)

	// A second region reserved mid-stream rebuilds the host free order.
	regionB, err := phys.ReserveRegion(900)
	logf("reserve B -> [%d,%d) %v", regionB.Start, regionB.End, err)
	guestB := &pool{alloc: phys.NewAllocator("cvm-b", regionB), accessor: regionB}
	for i := 0; i < 500; i++ {
		if rng.Intn(2) == 0 {
			step(guestA)
		} else {
			step(guestB)
		}
	}
	phys.ResetRegion(regionB)
	guestB.held = nil
	logf("reset B")
	for i := 0; i < 150; i++ {
		step(guestB)
	}
	logf("free frames %d of %d", phys.FreeFrames(), phys.TotalFrames())

	all := Region{Start: 0, End: FrameID(phys.TotalFrames())}
	owners, datas, versions = phys.CaptureRegion(all)
	describe := func(i int) string {
		o := owners[i]
		if o == (FrameOwner{Kind: FrameFree}) && versions[i] == 0 && datas[i] == nil {
			return ""
		}
		digest := "-"
		if datas[i] != nil {
			h := fnv.New64a()
			h.Write(datas[i])
			digest = fmt.Sprintf("%016x", h.Sum64())
		}
		return fmt.Sprintf("kind=%d kernel=%q pid=%d version=%d data=%s", o.Kind, o.Kernel, o.PID, versions[i], digest)
	}
	for i := 0; i < len(owners); {
		d, j := describe(i), i+1
		for j < len(owners) && describe(j) == d {
			j++
		}
		if d != "" {
			logf("frames [%d,%d): %s", i, j, d)
		}
		i = j
	}
	return log
}

// TestFrameAllocationGolden pins the FrameID sequence, owners and
// versions of a seeded allocation stream against a recorded trace.
// Regenerate with `go test ./internal/kernel -run FrameAllocationGolden
// -update` only for a deliberate change of the allocation order.
func TestFrameAllocationGolden(t *testing.T) {
	got := frameTrace(7)
	if *updateGolden {
		if err := os.WriteFile(frameTraceGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(frameTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("trace line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d lines, golden %d", len(got), len(want))
	}
}

// TestUntouchedFrameDefaults: a frame nothing has ever allocated or
// written is free, at version 0, and reads as zeros — on a full 1 GiB
// device, at both ends of memory.
func TestUntouchedFrameDefaults(t *testing.T) {
	phys := NewPhysical(1 << 30)
	last := FrameID(phys.TotalFrames() - 1)
	if _, err := phys.ReserveRegion(16384); err != nil {
		t.Fatal(err)
	}
	for _, f := range []FrameID{20000, last} {
		if o := phys.Owner(f); o != (FrameOwner{Kind: FrameFree}) {
			t.Fatalf("frame %d owner = %+v, want free", f, o)
		}
		buf := bytes.Repeat([]byte{0xFF}, 64)
		if err := phys.ReadFrame(Region{}, f, abi.PageSize-64, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, 64)) {
			t.Fatalf("frame %d reads %x, want zeros", f, buf)
		}
	}
	span := Region{Start: last - 1000, End: last + 1}
	for i, v := range phys.FrameVersions(span) {
		if v != 0 {
			t.Fatalf("frame %d version = %d, want 0", span.Start+FrameID(i), v)
		}
	}
	owners, datas, versions := phys.CaptureRegion(span)
	for i := range owners {
		if owners[i] != (FrameOwner{Kind: FrameFree}) || datas[i] != nil || versions[i] != 0 {
			t.Fatalf("capture of frame %d = %+v %v %d", span.Start+FrameID(i), owners[i], datas[i] != nil, versions[i])
		}
	}
	if got, want := phys.FreeFrames(), phys.TotalFrames()-16384; got != want {
		t.Fatalf("free = %d, want %d", got, want)
	}
	if o := phys.Owner(last + 1); o != (FrameOwner{}) {
		t.Fatalf("owner past the end = %+v, want zero", o)
	}
}

// TestFreeFramesAfterDoubleFree: freeing a frame twice neither inflates
// FreeFrames nor lets the frame be handed out twice.
func TestFreeFramesAfterDoubleFree(t *testing.T) {
	phys := NewPhysical(1 << 20)
	region, err := phys.ReserveRegion(16)
	if err != nil {
		t.Fatal(err)
	}
	total := phys.FreeFrames()
	host := phys.NewAllocator("host", Region{})
	f, err := host.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := host.Free(f); err != nil {
			t.Fatal(err)
		}
		if got := phys.FreeFrames(); got != total {
			t.Fatalf("free after host free #%d = %d, want %d", i+1, got, total)
		}
	}
	a, _ := host.Alloc(1)
	b, _ := host.Alloc(1)
	if a == b {
		t.Fatalf("double-freed frame %d handed out twice", a)
	}
	if got := phys.FreeFrames(); got != total-2 {
		t.Fatalf("free after two allocs = %d, want %d", got, total-2)
	}

	guest := phys.NewAllocator("cvm", region)
	g, err := guest.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := guest.Free(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := phys.FreeFrames(); got != total-2 {
		t.Fatalf("free after guest double free = %d, want %d", got, total-2)
	}
	seen := map[FrameID]bool{}
	for i := 0; i < 16; i++ {
		x, err := guest.Alloc(1)
		if err != nil {
			t.Fatalf("guest alloc %d: %v", i, err)
		}
		if seen[x] {
			t.Fatalf("guest frame %d handed out twice", x)
		}
		seen[x] = true
	}
}

// TestOwnersRoundTripManyKernelNames: owners keep their kernel name and
// PID for more distinct kernels than a byte can number, through Owner and
// through a capture/reset/restore cycle.
func TestOwnersRoundTripManyKernelNames(t *testing.T) {
	const kernels = 300
	phys := NewPhysical(4 << 20)
	region, err := phys.ReserveRegion(kernels)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]FrameID, kernels)
	for i := range frames {
		name := fmt.Sprintf("kernel-%03d", i)
		a := phys.NewAllocator(name, Region{})
		if i%2 == 1 {
			a = phys.NewAllocator(name, region)
		}
		if frames[i], err = a.Alloc(1000 + i); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		for i, f := range frames {
			want := FrameOwner{Kind: FrameProcess, Kernel: fmt.Sprintf("kernel-%03d", i), PID: 1000 + i}
			if got := phys.Owner(f); got != want {
				t.Fatalf("%s: frame %d owner = %+v, want %+v", when, f, got, want)
			}
		}
	}
	check("after alloc")
	owners, datas, versions := phys.CaptureRegion(region)
	phys.ResetRegion(region)
	if n, err := phys.RestoreRegion(region, owners, datas, versions); err != nil || n != kernels {
		t.Fatalf("restore = %d, %v; want %d frames", n, err, kernels)
	}
	check("after restore")
}

// TestPhysicalConcurrentAccess: host and guest allocators, frees and
// frame I/O from many goroutines at once (run it under -race). Each
// goroutine checks it reads back exactly what it wrote to the frames it
// holds, and every frame returns to the pool at the end.
func TestPhysicalConcurrentAccess(t *testing.T) {
	phys := NewPhysical(8 << 20)
	region, err := phys.ReserveRegion(1024)
	if err != nil {
		t.Fatal(err)
	}
	free0 := phys.FreeFrames()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accessor, a := Region{}, phys.NewAllocator(fmt.Sprintf("host-%d", w), Region{})
			if w%2 == 1 {
				accessor, a = region, phys.NewAllocator(fmt.Sprintf("cvm-%d", w), region)
			}
			var held []FrameID
			buf := make([]byte, 8)
			for i := 0; i < 300; i++ {
				f, err := a.Alloc(w)
				if err != nil {
					errs <- err
					return
				}
				held = append(held, f)
				want := []byte(fmt.Sprintf("%02d-%05d", w, i))[:8]
				if err := phys.WriteFrame(accessor, f, 100, want); err != nil {
					errs <- err
					return
				}
				if err := phys.ReadFrame(accessor, f, 100, buf); err != nil || !bytes.Equal(buf, want) {
					errs <- fmt.Errorf("worker %d frame %d reads %q, %v; want %q", w, f, buf, err, want)
					return
				}
				if o := phys.Owner(f); o.PID != w || o.Kind != FrameProcess {
					errs <- fmt.Errorf("worker %d frame %d owner %+v", w, f, o)
					return
				}
				if i%3 == 2 {
					for _, g := range held {
						if err := a.Free(g); err != nil {
							errs <- err
							return
						}
					}
					held = held[:0]
				}
			}
			for _, g := range held {
				_ = a.Free(g)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := phys.FreeFrames(); got != free0 {
		t.Fatalf("free after all workers = %d, want %d", got, free0)
	}
}

// TestFrameEntrySize: a built chunk spends 16 bytes per frame, its
// owners and versions, in one 8 KiB allocation that fills its size class
// exactly, and the record of an unbuilt chunk is 40 bytes.
func TestFrameEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(chunkTable{}); got != 16*chunkFrames {
		t.Fatalf("built chunk is %d bytes, want %d", got, 16*chunkFrames)
	}
	if got := unsafe.Sizeof(frameChunk{}); got > 40 {
		t.Fatalf("chunk record is %d bytes, want at most 40", got)
	}
}

// TestPhysicalSizeBound: a memory at the FrameID bound, or one whose last
// chunk would step FrameIDs past 2^31, is refused before any table is
// built.
func TestPhysicalSizeBound(t *testing.T) {
	if maxFrames+chunkFrames > math.MaxInt32 {
		t.Fatalf("maxFrames %d leaves no room for a chunk below 2^31", maxFrames)
	}
	for _, frames := range []int64{maxFrames + 1, math.MaxInt32 - chunkFrames + 1, math.MaxInt32, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPhysical with %d frames did not panic", frames)
				}
			}()
			NewPhysical(frames * abi.PageSize)
		}()
	}
}

// TestGuestAllocMatchesReference drives two guest regions through a seeded
// stream of Alloc, AllocN, Free, ResetRegion, ReclaimRegion,
// Capture/RestoreRegion and a second ReserveRegion, the second region
// sharing a chunk with the first. Every FrameID handed out must be what a
// naive scan for the lowest unowned frame of the region predicts, and
// after every step no unowned guest frame may sit below its chunk's guest
// mark.
func TestGuestAllocMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		guestAllocAgainstReference(t, seed)
	}
}

func guestAllocAgainstReference(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	phys := NewPhysical(4096 * abi.PageSize)
	host := phys.NewAllocator("host", Region{})
	var hostHeld []FrameID
	for i := 0; i < 37; i++ {
		f, err := host.Alloc(i)
		if err != nil {
			t.Fatal(err)
		}
		hostHeld = append(hostHeld, f)
	}
	unowned := FrameOwner{Kind: FrameGuestKernel}
	// want returns the n lowest unowned frames of r, ascending: what n
	// allocations in a row must return.
	want := func(r Region, n int) []FrameID {
		var out []FrameID
		for f := r.Start; f < r.End && len(out) < n; f++ {
			if phys.Owner(f) == unowned {
				out = append(out, f)
			}
		}
		return out
	}
	checkMarks := func(step int) {
		phys.mu.Lock()
		defer phys.mu.Unlock()
		for ci := range phys.chunks {
			c := &phys.chunks[ci]
			for i := 0; i < int(c.guestLow); i++ {
				if c.ownerAt(i) == unownedGuest {
					t.Fatalf("seed %d step %d: frame %d is unowned below chunk %d's mark %d",
						seed, step, ci*chunkFrames+i, ci, c.guestLow)
				}
			}
		}
	}

	type guest struct {
		alloc  *Allocator
		region Region
		held   []FrameID
		// A checkpoint to restore, once taken.
		owners   []FrameOwner
		datas    [][]byte
		versions []uint64
	}
	regionA, err := phys.ReserveRegion(700)
	if err != nil {
		t.Fatal(err)
	}
	guests := []*guest{{alloc: phys.NewAllocator("cvm-a", regionA), region: regionA}}
	for step := 0; step < 2000; step++ {
		if step == 600 {
			regionB, err := phys.ReserveRegion(500)
			if err != nil {
				t.Fatal(err)
			}
			if regionB.Start != regionA.End || regionB.Start%chunkFrames == 0 {
				t.Fatalf("region B = %+v, want it to start mid-chunk at A's end %d", regionB, regionA.End)
			}
			guests = append(guests, &guest{alloc: phys.NewAllocator("cvm-b", regionB), region: regionB})
		}
		if step == 1200 {
			// Region C starts mid-chunk at B's end and spans two whole
			// unbuilt chunks, which the reservation leaves unbuilt.
			free := phys.FreeFrames()
			regionC, err := phys.ReserveRegion(1400)
			if err != nil {
				t.Fatal(err)
			}
			if regionC.Start%chunkFrames == 0 || regionC.End-regionC.End%chunkFrames-(regionC.Start/chunkFrames+1)*chunkFrames < 2*chunkFrames {
				t.Fatalf("region C = %+v, want it to start mid-chunk and cover two whole chunks", regionC)
			}
			if got := phys.FreeFrames(); got != free-1400 {
				t.Fatalf("reserving 1400 frames left %d free, want %d", got, free-1400)
			}
			for i, v := range phys.FrameVersions(regionC) {
				if f := regionC.Start + FrameID(i); v != 1 || phys.Owner(f) != unowned {
					t.Fatalf("reserved frame %d: version %d owner %+v, want 1 and unowned", f, v, phys.Owner(f))
				}
			}
			guests = append(guests, &guest{alloc: phys.NewAllocator("cvm-c", regionC), region: regionC})
		}
		g := guests[rng.Intn(len(guests))]
		pid := rng.Intn(40) - 4
		switch op := rng.Intn(100); {
		case op < 35:
			exp := want(g.region, 1)
			f, err := g.alloc.Alloc(pid)
			if len(exp) == 0 {
				if !errors.Is(err, abi.ENOMEM) {
					t.Fatalf("seed %d step %d: alloc in a full region = %d, %v; want ENOMEM", seed, step, f, err)
				}
				break
			}
			if err != nil || f != exp[0] {
				t.Fatalf("seed %d step %d: alloc = %d, %v; want %d", seed, step, f, err, exp[0])
			}
			g.held = append(g.held, f)
		case op < 55:
			n := 1 + rng.Intn(64)
			exp := want(g.region, n)
			before, _, _ := phys.CaptureRegion(g.region)
			fs, err := g.alloc.AllocN(pid, n)
			if len(exp) < n {
				if !errors.Is(err, abi.ENOMEM) || fs != nil {
					t.Fatalf("seed %d step %d: AllocN(%d) with %d left = %v, %v; want ENOMEM", seed, step, n, len(exp), fs, err)
				}
				after, _, _ := phys.CaptureRegion(g.region)
				for i := range before {
					if after[i] != before[i] {
						t.Fatalf("seed %d step %d: failed AllocN left frame %d owned by %+v, was %+v",
							seed, step, g.region.Start+FrameID(i), after[i], before[i])
					}
				}
				break
			}
			if err != nil || len(fs) != n || cap(fs) != n {
				t.Fatalf("seed %d step %d: AllocN(%d) = len %d cap %d, %v", seed, step, n, len(fs), cap(fs), err)
			}
			for i := range fs {
				if fs[i] != exp[i] {
					t.Fatalf("seed %d step %d: AllocN(%d)[%d] = %d, want %d", seed, step, n, i, fs[i], exp[i])
				}
			}
			g.held = append(g.held, fs...)
		case op < 80 && len(g.held) > 0:
			i := rng.Intn(len(g.held))
			if err := g.alloc.Free(g.held[i]); err != nil {
				t.Fatal(err)
			}
			g.held = append(g.held[:i], g.held[i+1:]...)
		case op < 84 && len(hostHeld) > 0:
			i := rng.Intn(len(hostHeld))
			if err := host.Free(hostHeld[i]); err != nil {
				t.Fatal(err)
			}
			hostHeld = append(hostHeld[:i], hostHeld[i+1:]...)
		case op < 86:
			phys.ResetRegion(g.region)
			g.held = nil
		case op < 89:
			keep := g.held[:min(len(g.held), rng.Intn(3))]
			phys.ReclaimRegion(g.region, keep)
			g.held = append([]FrameID(nil), keep...)
		case op < 93:
			g.owners, g.datas, g.versions = phys.CaptureRegion(g.region)
		case op < 96 && g.owners != nil:
			if _, err := phys.RestoreRegion(g.region, g.owners, g.datas, g.versions); err != nil {
				t.Fatal(err)
			}
			// The restored image owns what it owned at the checkpoint;
			// drop the held list so frees stay within what this test
			// knows it holds.
			g.held = nil
		default:
			if len(g.held) > 0 {
				f := g.held[rng.Intn(len(g.held))]
				if err := phys.WriteFrame(g.region, f, 0, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkMarks(step)
	}
}

// TestFrameTableMatchesReference drives the whole frame table, next to a
// flat model that keeps one owner, version and page per frame, through a
// seeded stream of Alloc, AllocN, Free, WriteFrame, ReadFrame,
// ResetRegion, ReclaimRegion and CaptureRegion followed by RestoreRegion.
// It uses host memory and four guest regions that start mid-chunk, three
// of them spanning whole chunks. After every step each frame's Owner,
// version (FrameVersions) and ReadFrame bytes must equal the model's, as
// must every RestoreRegion count. A chunk inside a region whose frames
// have always shared one owner and version, with no contents, and that no
// restore has rewritten a frame of, must still be unbuilt, however many
// times its region was reserved, reset or reclaimed.
func TestFrameTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		frameTableAgainstReference(t, seed)
	}
}

// refFrame is one frame of the flat model.
type refFrame struct {
	owner   FrameOwner
	version uint64
	data    []byte // nil: never written since last cleared
}

func frameTableAgainstReference(t *testing.T, seed int64) {
	t.Helper()
	const nframes = 8 * chunkFrames
	rng := rand.New(rand.NewSource(seed))
	phys := NewPhysical(nframes * abi.PageSize)
	ref := make([]refFrame, nframes)
	for i := range ref {
		ref[i].owner = FrameOwner{Kind: FrameFree}
	}
	// split marks the chunks whose frames in the model have stopped
	// sharing one owner and version with no contents, or that a restore
	// rewrote a frame of: restore builds the chunks it writes to.
	split := make([]bool, nframes/chunkFrames)
	// written marks the chunks one of whose frames has had contents.
	written := make([]bool, nframes/chunkFrames)
	unowned := FrameOwner{Kind: FrameGuestKernel}
	fail := func(step int, format string, a ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, a...))
	}

	type pool struct {
		alloc  *Allocator
		region Region // zero for the host
		held   []FrameID
		// A checkpoint to restore, once taken.
		owners   []FrameOwner
		datas    [][]byte
		versions []uint64
	}
	host := &pool{alloc: phys.NewAllocator("host", Region{})}
	for i := 0; i < 37; i++ {
		f, err := host.alloc.Alloc(i)
		if err != nil {
			t.Fatal(err)
		}
		ref[f].owner = FrameOwner{Kind: FrameProcess, Kernel: "host", PID: i}
		ref[f].version++
		host.held = append(host.held, f)
	}
	reserve := func(name string, n int) *pool {
		r, err := phys.ReserveRegion(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Start%chunkFrames == 0 {
			t.Fatalf("region %s = %+v, want it to start mid-chunk", name, r)
		}
		for f := r.Start; f < r.End; f++ {
			ref[f].owner = unowned
			ref[f].version++
		}
		return &pool{alloc: phys.NewAllocator("cvm-"+name, r), region: r}
	}
	// A is small, B spans chunks 1 and 2 whole, D chunk 4 and E chunk 6.
	// D and E are never allocated from or written. D is only reset,
	// reclaimed and captured, so its whole chunk must stay unbuilt to the
	// end; E is restored too.
	guests := []*pool{reserve("a", 300), reserve("b", 1200)}
	regionD, regionE := reserve("d", 1100), reserve("e", 1000)

	ownerFor := func(p *pool, pid int) FrameOwner {
		switch {
		case pid >= 0:
			return FrameOwner{Kind: FrameProcess, Kernel: p.alloc.KernelName(), PID: pid}
		case p.region.End != 0:
			return FrameOwner{Kind: FrameGuestKernel, Kernel: p.alloc.KernelName()}
		default:
			return FrameOwner{Kind: FrameHostKernel}
		}
	}
	// available returns the model's n lowest frames p may hand out: the
	// unowned frames of a guest's region, the free frames for the host.
	// A guest must hand them out in that order.
	available := func(p *pool, n int) []FrameID {
		r, want := p.region, unowned
		if r.End == 0 {
			r, want = Region{Start: 0, End: nframes}, FrameOwner{Kind: FrameFree}
		}
		var out []FrameID
		for f := r.Start; f < r.End && len(out) < n; f++ {
			if ref[f].owner == want {
				out = append(out, f)
			}
		}
		return out
	}
	taken := func(step int, p *pool, f FrameID, o FrameOwner) {
		if p.region.End == 0 && ref[f].owner.Kind != FrameFree {
			fail(step, "host alloc returned frame %d owned by %+v", f, ref[f].owner)
		}
		ref[f].owner = o
		ref[f].version++
		p.held = append(p.held, f)
	}
	free := func(p *pool, i int) error {
		f := p.held[i]
		p.held = append(p.held[:i], p.held[i+1:]...)
		ref[f].owner = unowned
		if p.region.End == 0 {
			ref[f].owner = FrameOwner{Kind: FrameFree}
		}
		ref[f].version++
		ref[f].data = nil
		return p.alloc.Free(f)
	}
	capture := func(p *pool) {
		p.owners, p.datas, p.versions = phys.CaptureRegion(p.region)
	}
	restore := func(step int, p *pool) {
		want := 0
		for i := range p.owners {
			f := p.region.Start + FrameID(i)
			if ref[f].version == p.versions[i] {
				continue
			}
			ref[f] = refFrame{owner: p.owners[i], version: ref[f].version + 1}
			split[f/chunkFrames] = true
			if len(p.datas[i]) > 0 {
				ref[f].data = make([]byte, abi.PageSize)
				copy(ref[f].data, p.datas[i])
			}
			want++
		}
		got, err := phys.RestoreRegion(p.region, p.owners, p.datas, p.versions)
		if err != nil || got != want {
			fail(step, "restore of %+v = %d, %v; want %d frames", p.region, got, err, want)
		}
		p.held = nil
	}
	reset := func(p *pool) {
		for f := p.region.Start; f < p.region.End; f++ {
			ref[f] = refFrame{owner: unowned, version: ref[f].version + 1}
		}
		phys.ResetRegion(p.region)
		p.held = nil
	}
	reclaim := func(p *pool, keep []FrameID) {
		kept := map[FrameID]bool{}
		for _, f := range keep {
			kept[f] = true
		}
		for f := p.region.Start; f < p.region.End; f++ {
			if !kept[f] && ref[f].owner != unowned {
				ref[f].owner = unowned
				ref[f].version++
			}
		}
		phys.ReclaimRegion(p.region, keep)
		p.held = append([]FrameID(nil), keep...)
	}
	// inner lists the chunks that lie wholly inside a region.
	var inner []int
	for _, p := range append([]*pool{regionD, regionE}, guests...) {
		for ci := (p.region.Start + chunkFrames - 1) / chunkFrames; (ci+1)*chunkFrames <= p.region.End; ci++ {
			inner = append(inner, int(ci))
		}
	}
	if want := []int{4, 6, 1, 2}; fmt.Sprint(inner) != fmt.Sprint(want) {
		t.Fatalf("chunks inside the regions = %v, want %v", inner, want)
	}
	zeros := make([]byte, abi.PageSize)
	check := func(step int) {
		versions := phys.FrameVersions(Region{Start: 0, End: nframes})
		buf := make([]byte, 256)
		for i := range ref {
			f, want := FrameID(i), &ref[i]
			if versions[i] != want.version {
				fail(step, "frame %d version = %d, want %d", f, versions[i], want.version)
			}
			// Under the race detector a lock hold and every byte read
			// cost much, so Owner and ReadFrame visit one frame in eight
			// per step, a different eighth and a different 256 bytes of
			// it each time; the loop below covers the rest under one
			// hold.
			if (i+step)%8 != 0 {
				continue
			}
			if got := phys.Owner(f); got != want.owner {
				fail(step, "frame %d owner = %+v, want %+v", f, got, want.owner)
			}
			off := (step + 1) * 256 % abi.PageSize
			if err := phys.ReadFrame(Region{}, f, off, buf[:256]); err != nil {
				fail(step, "read frame %d: %v", f, err)
			}
			data := want.data
			if data == nil {
				data = zeros
			}
			if !bytes.Equal(buf[:256], data[off:off+256]) {
				fail(step, "frame %d reads other bytes than the model at %d", f, off)
			}
		}
		phys.mu.Lock()
		defer phys.mu.Unlock()
		for i := range ref {
			f, want := FrameID(i), &ref[i]
			if got := phys.ownerLocked(f); got != want.owner {
				fail(step, "frame %d owner = %+v, want %+v", f, got, want.owner)
			}
			c, j := phys.chunkLocked(f)
			pg := c.page(j)
			if (pg == nil) != (want.data == nil) || pg != nil && (i+step)%8 == 0 && !bytes.Equal(pg[:], want.data) {
				fail(step, "frame %d holds other contents than the model", f)
			}
		}
		for _, ci := range inner {
			first := &ref[ci*chunkFrames]
			for i := ci * chunkFrames; i < (ci+1)*chunkFrames && !split[ci]; i++ {
				if fr := &ref[i]; fr.owner != first.owner || fr.version != first.version || fr.data != nil {
					split[ci] = true
				}
			}
			if !split[ci] && phys.chunks[ci].table != nil {
				fail(step, "chunk %d is built, but its frames have never differed", ci)
			}
		}
		// A chunk holds a page array once one of its frames has had
		// contents, and not before.
		for ci := range phys.chunks {
			for i := ci * chunkFrames; i < (ci+1)*chunkFrames && !written[ci]; i++ {
				written[ci] = ref[i].data != nil
			}
			if got := phys.chunks[ci].pages != nil; got != written[ci] {
				fail(step, "chunk %d has a page array: %v, has had written frames: %v", ci, got, written[ci])
			}
		}
	}

	check(-1)
	for step := 0; step < 600; step++ {
		pid := rng.Intn(40) - 4
		p := guests[rng.Intn(len(guests))]
		if rng.Intn(4) == 0 {
			p = host
		}
		switch op := rng.Intn(100); {
		case op < 25:
			want := available(p, 1)
			f, err := p.alloc.Alloc(pid)
			if len(want) == 0 {
				if !errors.Is(err, abi.ENOMEM) {
					fail(step, "alloc with nothing left = %d, %v; want ENOMEM", f, err)
				}
				break
			}
			if err != nil || (p.region.End != 0 && f != want[0]) {
				fail(step, "alloc = %d, %v; want %v", f, err, want)
			}
			taken(step, p, f, ownerFor(p, pid))
		case op < 35:
			// Fewer frames than a chunk holds: no single step may take a
			// whole chunk and leave it uniform, though built.
			n := 1 + rng.Intn(96)
			want := available(p, n)
			fs, err := p.alloc.AllocN(pid, n)
			if len(want) < n {
				if !errors.Is(err, abi.ENOMEM) {
					fail(step, "AllocN(%d) with %d left = %v, %v; want ENOMEM", n, len(want), fs, err)
				}
				// Every frame left was taken and given back.
				for _, f := range want {
					ref[f].version += 2
					ref[f].data = nil
				}
				break
			}
			if err != nil || len(fs) != n {
				fail(step, "AllocN(%d) = %v, %v", n, fs, err)
			}
			for i, f := range fs {
				if p.region.End != 0 && f != want[i] {
					fail(step, "AllocN(%d)[%d] = %d, want %d", n, i, f, want[i])
				}
				taken(step, p, f, ownerFor(p, pid))
			}
		case op < 55 && len(p.held) > 0:
			if err := free(p, rng.Intn(len(p.held))); err != nil {
				fail(step, "free: %v", err)
			}
		case op < 70 && (len(p.held) > 0 || p != host):
			// A guest may write any frame of its region, which builds
			// whichever chunk that frame is in.
			var f FrameID
			if len(p.held) > 0 && (p == host || rng.Intn(2) == 0) {
				f = p.held[rng.Intn(len(p.held))]
			} else {
				f = p.region.Start + FrameID(rng.Intn(p.region.Frames()))
			}
			off := rng.Intn(abi.PageSize)
			data := make([]byte, 1+rng.Intn(min(64, abi.PageSize-off)))
			rng.Read(data)
			if err := phys.WriteFrame(p.region, f, off, data); err != nil {
				fail(step, "write frame %d: %v", f, err)
			}
			if ref[f].data == nil {
				ref[f].data = make([]byte, abi.PageSize)
			}
			copy(ref[f].data[off:], data)
			ref[f].version++
		case op < 75 && len(p.held) > 0:
			f := p.held[rng.Intn(len(p.held))]
			off := rng.Intn(abi.PageSize)
			buf := make([]byte, rng.Intn(abi.PageSize-off+1))
			if err := phys.ReadFrame(p.region, f, off, buf); err != nil {
				fail(step, "read frame %d: %v", f, err)
			}
			want := make([]byte, len(buf))
			if ref[f].data != nil {
				copy(want, ref[f].data[off:])
			}
			if !bytes.Equal(buf, want) {
				fail(step, "read of frame %d at %d+%d differs from the model", f, off, len(buf))
			}
		case p == host:
		case op < 78:
			reset(p)
		case op < 82:
			reclaim(p, p.held[:min(len(p.held), rng.Intn(3))])
		case op < 87:
			capture(p)
		case op < 92 && p.owners != nil:
			restore(step, p)
		default:
			// D and E reset, reclaim and are captured; E is restored,
			// now and then from a capture with one frame of its whole
			// chunk altered, as an image from elsewhere might be.
			d := regionD
			if rng.Intn(2) == 0 {
				d = regionE
			}
			switch k := rng.Intn(4); {
			case k == 0:
				reset(d)
			case k == 1:
				reclaim(d, nil)
			case k == 2 || d.owners == nil || d == regionD:
				capture(d)
				for i, o := range d.owners {
					f := d.region.Start + FrameID(i)
					if o != ref[f].owner || d.versions[i] != ref[f].version || !bytes.Equal(d.datas[i], ref[f].data) {
						fail(step, "capture of frame %d = %+v v%d, want %+v v%d", f, o, d.versions[i], ref[f].owner, ref[f].version)
					}
				}
			default:
				if d == regionE && rng.Intn(3) == 0 {
					i := int(6*chunkFrames-d.region.Start) + rng.Intn(chunkFrames)
					if rng.Intn(2) == 0 {
						d.owners[i] = FrameOwner{Kind: FrameProcess, Kernel: "elsewhere", PID: 7}
					} else {
						d.datas[i] = []byte("restored")
					}
				}
				restore(step, d)
			}
		}
		check(step)
	}
}

// BenchmarkGuestAlloc fills a CVM-sized guest region (16384 frames, 64 MB)
// one Alloc at a time; ns/frame is the cost of one guest allocation.
func BenchmarkGuestAlloc(b *testing.B) {
	const frames = 16384
	phys := NewPhysical(2 * frames * abi.PageSize)
	// A few host frames first, so the region starts off a chunk boundary
	// as a CVM's does.
	host := phys.NewAllocator("host", Region{})
	for i := 0; i < 37; i++ {
		if _, err := host.Alloc(0); err != nil {
			b.Fatal(err)
		}
	}
	region, err := phys.ReserveRegion(frames)
	if err != nil {
		b.Fatal(err)
	}
	guest := phys.NewAllocator("cvm", region)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		phys.ResetRegion(region)
		b.StartTimer()
		for j := 0; j < frames; j++ {
			if _, err := guest.Alloc(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}
