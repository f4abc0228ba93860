package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"anception/internal/abi"
)

// refFile is the flat reference the page store must agree with: the whole
// file as one []byte, and the dirty pages the single-slice store marked
// (every page from off/PageSize to (off+n)/PageSize inclusive, and from 0
// to size/PageSize on a truncate).
type refFile struct {
	data  []byte
	dirty map[int64]bool
}

func (r *refFile) markDirty(off, n int64) {
	for pg := off / abi.PageSize; pg <= (off+n)/abi.PageSize; pg++ {
		r.dirty[pg] = true
	}
}

// writeAt follows Linux where the single-slice store did not: a
// zero-length write does not extend the file.
func (r *refFile) writeAt(p []byte, off int64) {
	r.markDirty(off, int64(len(p)))
	if len(p) == 0 {
		return
	}
	if end := off + int64(len(p)); end > int64(len(r.data)) {
		r.data = append(r.data, make([]byte, end-int64(len(r.data)))...)
	}
	copy(r.data[off:], p)
}

func (r *refFile) truncate(size int64) {
	if size < int64(len(r.data)) {
		r.data = bytes.Clone(r.data[:size])
	} else {
		r.data = append(r.data, make([]byte, size-int64(len(r.data)))...)
	}
	r.markDirty(0, size)
}

// checkStore asserts the store's own invariants: no block past the size,
// none longer than a page, and the block holding the last byte no longer
// than the bytes below the size.
func checkStore(ino *Inode) error {
	d := &ino.data
	pages := (d.size + abi.PageSize - 1) / abi.PageSize
	if int64(len(d.blocks)) > pages {
		return fmt.Errorf("%d blocks for size %d", len(d.blocks), d.size)
	}
	for pg, b := range d.blocks {
		limit := min(abi.PageSize, d.size-int64(pg)*abi.PageSize)
		if int64(len(b)) > limit || cap(b) > abi.PageSize {
			return fmt.Errorf("block %d holds len %d cap %d, limit %d", pg, len(b), cap(b), limit)
		}
	}
	return nil
}

// interestingOffset picks offsets that exercise the store's edges: page
// boundaries, the inside of the (possibly short) last page, the end of
// file, and holes past it.
func interestingOffset(rng *rand.Rand, size int64) int64 {
	const span = 20 * abi.PageSize
	switch rng.Intn(4) {
	case 0:
		return max(0, int64(rng.Intn(21))*abi.PageSize+int64(rng.Intn(9))-4)
	case 1:
		return max(0, size+int64(rng.Intn(65))-32)
	case 2:
		return size + int64(rng.Intn(3*abi.PageSize))
	default:
		return int64(rng.Intn(span))
	}
}

func interestingLen(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(8)
	case 1:
		return rng.Intn(200)
	case 2:
		return abi.PageSize + rng.Intn(9) - 4
	default:
		return rng.Intn(3 * abi.PageSize)
	}
}

// TestPageStoreMatchesFlatReference runs seeded random operations through
// every entry point that touches file contents — pread/pwrite, cursor
// read/write, O_APPEND through a hard link, ftruncate, truncate by path,
// O_TRUNC and fsync — and after each one compares contents, size, store
// invariants and the dirty-page count with the flat reference. Finally
// CopyTree must replicate the contents into a store of its own.
func TestPageStoreMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := newTestFS(t)
			const name, link = "/data/f", "/data/link"
			rw, err := fs.Open(root, name, abi.ORdWr|abi.OCreat, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Link(root, name, link); err != nil {
				t.Fatal(err)
			}
			app, err := fs.Open(root, link, abi.OWrOnly|abi.OAppend, 0)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := fs.Open(root, link, abi.ORdWr, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refFile{dirty: map[int64]bool{}}
			fill := byte(0)
			payload := func(n int) []byte {
				fill++
				b := make([]byte, n)
				for i := range b {
					b[i] = fill + byte(i%251)
				}
				return b
			}
			readBack := func(f *File, n int, off int64) []byte {
				t.Helper()
				buf := bytes.Repeat([]byte{0xEE}, n)
				got, err := f.ReadAt(buf, off)
				if err != nil {
					t.Fatalf("ReadAt(%d, %d): %v", n, off, err)
				}
				return buf[:got]
			}
			for op := 0; op < 1500; op++ {
				size := int64(len(ref.data))
				var what string
				switch k := rng.Intn(9); k {
				case 0, 1:
					off, p := interestingOffset(rng, size), payload(interestingLen(rng))
					what = fmt.Sprintf("pwrite(%d, %d)", len(p), off)
					if n, err := rw.WriteAt(p, off); err != nil || n != len(p) {
						t.Fatalf("%s = %d, %v", what, n, err)
					}
					ref.writeAt(p, off)
				case 2:
					off, n := interestingOffset(rng, size), interestingLen(rng)
					what = fmt.Sprintf("pread(%d, %d)", n, off)
					want := []byte{}
					if off < size {
						want = ref.data[off:min(size, off+int64(n))]
					}
					if got := readBack(rw, n, off); !bytes.Equal(got, want) {
						t.Fatalf("%s returned %d bytes, want %d (contents differ)", what, len(got), len(want))
					}
				case 3:
					p := payload(interestingLen(rng))
					what = fmt.Sprintf("append(%d)", len(p))
					if n, err := app.Write(p); err != nil || n != len(p) {
						t.Fatalf("%s = %d, %v", what, n, err)
					}
					ref.writeAt(p, size)
					if app.Offset() != int64(len(ref.data)) {
						t.Fatalf("%s left the offset at %d, want %d", what, app.Offset(), len(ref.data))
					}
				case 4:
					off := interestingOffset(rng, size)
					if _, err := cur.Seek(off, abi.SeekSet); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(2) == 0 {
						p := payload(interestingLen(rng))
						what = fmt.Sprintf("seek(%d)+write(%d)", off, len(p))
						if n, err := cur.Write(p); err != nil || n != len(p) || cur.Offset() != off+int64(n) {
							t.Fatalf("%s = %d, %v, offset %d", what, n, err, cur.Offset())
						}
						ref.writeAt(p, off)
					} else {
						n := interestingLen(rng)
						what = fmt.Sprintf("seek(%d)+read(%d)", off, n)
						buf := make([]byte, n)
						got, err := cur.Read(buf)
						want := []byte{}
						if off < size {
							want = ref.data[off:min(size, off+int64(n))]
						}
						if err != nil || !bytes.Equal(buf[:got], want) || cur.Offset() != off+int64(got) {
							t.Fatalf("%s = %d, %v, offset %d; want %d bytes", what, got, err, cur.Offset(), len(want))
						}
					}
				case 5, 6:
					// Shrinks are biased to cut into the file, often past a
					// sparse tail, so the grow after them must read zeros.
					size := max(0, size-int64(rng.Intn(int(min(size, 6*abi.PageSize))+1)))
					if rng.Intn(3) == 0 {
						size = interestingOffset(rng, int64(len(ref.data)))
					}
					what = fmt.Sprintf("truncate(%d)", size)
					if rng.Intn(2) == 0 {
						err = rw.Truncate(size)
					} else {
						err = fs.Truncate(root, link, size)
					}
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					ref.truncate(size)
				case 7:
					what = "open(O_TRUNC)"
					if _, err := fs.Open(root, name, abi.OWrOnly|abi.OTrunc, 0); err != nil {
						t.Fatal(err)
					}
					ref.truncate(0)
				case 8:
					what = "fsync"
					if got := rw.Sync(); got != len(ref.dirty) {
						t.Fatalf("fsync flushed %d pages, the flat store flushed %d", got, len(ref.dirty))
					}
					clear(ref.dirty)
				}
				ino := rw.Inode()
				if st := rw.Stat(); st.Size != int64(len(ref.data)) {
					t.Fatalf("after op %d %s: size %d, want %d", op, what, st.Size, len(ref.data))
				}
				if got := ino.DirtyPages(); got != len(ref.dirty) {
					t.Fatalf("after op %d %s: %d dirty pages, the flat store has %d", op, what, got, len(ref.dirty))
				}
				if err := checkStore(ino); err != nil {
					t.Fatalf("after op %d %s: %v", op, what, err)
				}
				if got, err := fs.ReadFile(root, link); err != nil || !bytes.Equal(got, ref.data) {
					t.Fatalf("after op %d %s: contents differ from the flat reference (%d vs %d bytes, err %v)",
						op, what, len(got), len(ref.data), err)
				}
			}

			dst := newTestFS(t)
			if err := CopyTree(fs, "/data", dst, "/data"); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{name, link} {
				if got, err := dst.ReadFile(root, p); err != nil || !bytes.Equal(got, ref.data) {
					t.Fatalf("CopyTree %s: %d bytes, err %v; want the %d source bytes", p, len(got), err, len(ref.data))
				}
			}
			if err := dst.WriteFile(root, name, []byte("copy"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, _ := fs.ReadFile(root, name); !bytes.Equal(got, ref.data) {
				t.Fatal("a write to the copy changed the source")
			}
		})
	}
}

// TestPageStoreEdges pins the two edges a page store gets wrong first: a
// write inside an existing short last page, and a shrink past a sparse
// tail followed by a grow, which must read zeros rather than stale bytes.
func TestPageStoreEdges(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/edges", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refFile{dirty: map[int64]bool{}}
	step := func(what string, do func() error, model func()) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		model()
		got, _ := fs.ReadFile(root, "/data/edges")
		if !bytes.Equal(got, ref.data) {
			t.Fatalf("after %s: contents differ from the flat reference", what)
		}
		if err := checkStore(f.Inode()); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	write := func(p []byte, off int64) {
		step(fmt.Sprintf("pwrite(%d, %d)", len(p), off),
			func() error { _, err := f.WriteAt(p, off); return err },
			func() { ref.writeAt(p, off) })
	}
	truncate := func(size int64) {
		step(fmt.Sprintf("truncate(%d)", size),
			func() error { return f.Truncate(size) },
			func() { ref.truncate(size) })
	}
	write(bytes.Repeat([]byte{'a'}, 100), 0)
	write(bytes.Repeat([]byte{'b'}, 10), 50)  // inside the short page
	write(bytes.Repeat([]byte{'c'}, 40), 90)  // extends it in place
	write(bytes.Repeat([]byte{'d'}, 20), 300) // past its end, same page
	write(bytes.Repeat([]byte{'e'}, 5000), 5*abi.PageSize+7)
	truncate(5*abi.PageSize + 100) // cut the last block short
	truncate(2*abi.PageSize + 1)   // shrink past a sparse tail
	truncate(6 * abi.PageSize)     // grow: holes and zeros only
	truncate(200)                  // cut the first block to a stale tail
	truncate(abi.PageSize)         // grow: the stale bytes must not return
	write([]byte{'f'}, 250)        // extend the first block over the old tail
}

// TestStoreRejectsBadSizes: negative offsets and sizes are EINVAL, sizes
// past MaxFileSize are EFBIG, and a write crossing MaxFileSize stops
// there, as Linux does past s_maxbytes.
func TestStoreRejectsBadSizes(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/bounds", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		err  error
		want error
	}{
		{"ReadAt(-1)", second(f.ReadAt(make([]byte, 4), -1)), abi.EINVAL},
		{"WriteAt(-1)", second(f.WriteAt([]byte("x"), -1)), abi.EINVAL},
		{"Truncate(-1)", f.Truncate(-1), abi.EINVAL},
		{"FileSystem.Truncate(-1)", fs.Truncate(root, "/data/bounds", -1), abi.EINVAL},
		{"WriteAt(MaxFileSize)", second(f.WriteAt([]byte("x"), MaxFileSize)), abi.EFBIG},
		{"Truncate(MaxFileSize+1)", f.Truncate(MaxFileSize + 1), abi.EFBIG},
		{"FileSystem.Truncate(MaxFileSize+1)", fs.Truncate(root, "/data/bounds", MaxFileSize+1), abi.EFBIG},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, c.err, c.want)
		}
	}
	if got, _ := fs.ReadFile(root, "/data/bounds"); string(got) != "keep" {
		t.Fatalf("refused calls changed the file: %q", got)
	}
	if n, err := f.WriteAt([]byte("xyz"), MaxFileSize-2); n != 2 || err != nil {
		t.Fatalf("write crossing MaxFileSize = %d, %v; want a short write of 2", n, err)
	}
	if st := f.Stat(); st.Size != MaxFileSize {
		t.Fatalf("size %d after the short write, want MaxFileSize", st.Size)
	}
}

func second(_ int, err error) error { return err }

// allocatedBy reports the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSequentialGrowthAllocs: filling an 8 MiB file in 64 KiB pwrites, as
// each fast-mix set-up does per app, allocates about the file once. A
// store that reallocates and copies on growth allocates ~516 MiB here.
func TestSequentialGrowthAllocs(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/big", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64<<10)
	got := allocatedBy(func() {
		for off := int64(0); off < 8<<20; off += int64(len(chunk)) {
			if _, err := f.WriteAt(chunk, off); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got > 9<<20 {
		t.Fatalf("populating 8 MiB allocated %.1f MiB, want <= 9 MiB", float64(got)/(1<<20))
	}
}

// TestAppendGrowthAllocs: 20,000 100-byte O_APPEND writes grow each page
// geometrically, not the whole file on every write.
func TestAppendGrowthAllocs(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/log", abi.OWrOnly|abi.OCreat|abi.OAppend, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 100)
	got := allocatedBy(func() {
		for i := 0; i < 20000; i++ {
			if _, err := f.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got > 8<<20 {
		t.Fatalf("20,000 appends allocated %.1f MiB, want <= 8 MiB", float64(got)/(1<<20))
	}
	if st := f.Stat(); st.Size != 20000*100 {
		t.Fatalf("size %d, want %d", st.Size, 20000*100)
	}
}

// TestSmallFileFootprintAllocs: a 64-byte file holds no more than 128 B of
// page data. Kernels boot with dozens of small files, and the live-heap
// bounds of the benchmark depend on them not costing a page each.
func TestSmallFileFootprintAllocs(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/small", make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Lookup(root, "/data/small")
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, b := range ino.data.blocks {
		held += cap(b)
	}
	if held > 128 {
		t.Fatalf("a 64-byte file holds %d B of page data, want <= 128", held)
	}
}

// TestTruncateDirtyAllocs: a truncate marks every page below the new size
// dirty, and the dirty set holds runs, not pages, so growing an empty
// file to MaxFileSize and flushing it allocates almost nothing while the
// flush still counts every page. A set with one entry per page allocated
// tens of MiB here.
func TestTruncateDirtyAllocs(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/sparse", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var flushed int
	got := allocatedBy(func() {
		if err := f.Truncate(MaxFileSize); err != nil {
			t.Fatal(err)
		}
		flushed = f.Sync()
	})
	if got >= 1<<10 {
		t.Fatalf("truncate to %d and fsync allocated %d B, want < 1 KiB", int64(MaxFileSize), got)
	}
	if want := int(MaxFileSize/abi.PageSize) + 1; flushed != want {
		t.Fatalf("fsync flushed %d pages, want %d", flushed, want)
	}
}

// TestDirtyRunsMerge: marks that overlap or touch merge into one run,
// marks with a gap stay apart, and a flush keeps the run list's capacity.
func TestDirtyRunsMerge(t *testing.T) {
	ino := &Inode{}
	const pg = abi.PageSize
	ino.markDirtyRange(10*pg, 1)  // page 10
	ino.markDirtyRange(2*pg, 1)   // page 2
	ino.markDirtyRange(20*pg, pg) // pages 20-21
	ino.markDirtyRange(4*pg, 1)   // page 4
	ino.markDirtyRange(3*pg, 1)   // page 3 joins 2 and 4
	ino.markDirtyRange(11*pg, 0)  // page 11 touches 10
	ino.markDirtyRange(15*pg, 4*pg)
	want := []pageRange{{2, 4}, {10, 11}, {15, 21}}
	if !slices.Equal(ino.dirty, want) {
		t.Fatalf("dirty runs %v, want %v", ino.dirty, want)
	}
	if got := ino.DirtyPages(); got != 12 {
		t.Fatalf("DirtyPages = %d, want 12", got)
	}
	ino.markDirtyRange(0, 30*pg) // pages 0-30 swallow every run
	if want := []pageRange{{0, 30}}; !slices.Equal(ino.dirty, want) {
		t.Fatalf("dirty runs %v, want %v", ino.dirty, want)
	}
	c := cap(ino.dirty)
	if n := ino.ClearDirty(); n != 31 || len(ino.dirty) != 0 || cap(ino.dirty) != c {
		t.Fatalf("ClearDirty = %d, len %d cap %d; want 31, 0, %d", n, len(ino.dirty), cap(ino.dirty), c)
	}
}
