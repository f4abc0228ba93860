package anception

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"anception/internal/abi"
)

// Write-coalescing extents are recycled (DESIGN.md §9): a write inside or
// extending a buffered extent lands in place, and flushed or merged-away
// extent buffers go back to a bounded free list. These tests pin that the
// steady state allocates nothing and that a recycled buffer never shows
// another app's bytes.

// TestCoalescedOverwriteAllocs: a pwrite that overwrites a page already
// buffered lands in the extent's buffer and allocates nothing.
func TestCoalescedOverwriteAllocs(t *testing.T) {
	d, p, fd, page := pageIOApp(t, Options{RedirCache: true})
	before := d.Layer.Stats().Cache
	ops := 0
	op := func() {
		ops++
		if n, err := p.Pwrite(fd, page, 0); err != nil || n != len(page) {
			t.Fatalf("pwrite: n=%d err=%v", n, err)
		}
	}
	allocGate(t, "coalesced 4 KiB overwrite", steadyAllocs(op), 0)
	after := d.Layer.Stats().Cache
	if got := after.Hits - before.Hits; got != ops {
		t.Fatalf("%d of %d overwrites were buffered", got, ops)
	}
	// Only the first write after each deadline flush starts an extent.
	coalesced, flushes := after.CoalescedWrites-before.CoalescedWrites, after.Flushes-before.Flushes
	if coalesced == 0 || coalesced < ops-flushes {
		t.Fatalf("%d of %d overwrites coalesced across %d flushes", coalesced, ops, flushes)
	}
}

// TestCoalescingFlushAllocs: a read-ahead window of sequential page
// writes coalesces into one extent that grows in recycled buffers, and
// the threshold flush that writes it back allocates nothing either.
func TestCoalescingFlushAllocs(t *testing.T) {
	d, p, fd, page := pageIOApp(t, Options{RedirCache: true})
	const k = DefaultReadAheadPages
	op := func() {
		for i := 0; i < k; i++ {
			if n, err := p.Pwrite(fd, page, int64(i)*cachePageSize); err != nil || n != len(page) {
				t.Fatalf("pwrite %d: n=%d err=%v", i, n, err)
			}
		}
	}
	op()
	before := d.Layer.Stats().Cache
	allocGate(t, "k page writes and their flush", steadyAllocs(op), 0)
	after := d.Layer.Stats().Cache
	rounds := after.Flushes - before.Flushes
	if rounds == 0 || after.CoalescedWrites-before.CoalescedWrites != rounds*(k-1) {
		t.Fatalf("%d flushes and %d coalesced writes: each round must coalesce into one extent and flush once",
			rounds, after.CoalescedWrites-before.CoalescedWrites)
	}
}

// TestRecycledExtentShowsOnlyNewBytes: one app's large extent is flushed;
// another app then writes 100 B at offset 0 of a different file. Reads of
// that file return those 100 B and nothing past end of file, on every
// profile, though on the cached one the extent reuses the first app's
// buffer.
func TestRecycledExtentShowsOnlyNewBytes(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		a := installAndLaunch(t, d, "com.probe.a")
		b := installAndLaunch(t, d, "com.probe.b")
		fa := mustOpen(t, a, "secret.dat", abi.ORdWr|abi.OCreat)
		secret := bytes.Repeat([]byte("A-secret"), int(cachePageSize)/8)
		for i := 0; i < DefaultReadAheadPages; i++ {
			mustPwrite(t, a, fa, secret, int64(i)*cachePageSize)
		}
		if _, err := a.Fsync(fa); err != nil {
			t.Fatal(err)
		}
		if d.Layer != nil && d.Layer.cache != nil {
			c := d.Layer.cache
			c.mu.Lock()
			recycled := len(c.extFree)
			c.mu.Unlock()
			if recycled == 0 {
				t.Fatal("the flushed extent left no buffer to recycle")
			}
		}

		fb := mustOpen(t, b, "mine.dat", abi.ORdWr|abi.OCreat)
		mine := bytes.Repeat([]byte{'b'}, 100)
		mustPwrite(t, b, fb, mine, 0)
		var obs []string
		check := func(what string, got []byte) {
			if bytes.Contains(got, []byte("A-secret")) {
				t.Errorf("%s shows app A's bytes", what)
			}
			obs = append(obs, fmt.Sprintf("%s: %d bytes, own=%v", what, len(got), bytes.Equal(got, mine[:min(len(got), len(mine))])))
		}
		check("buffered read", mustPread(t, b, fb, 100, 0))
		check("page read", mustPread(t, b, fb, int(cachePageSize), 0))
		check("read at EOF", mustPread(t, b, fb, int(cachePageSize), 100))
		if err := b.Close(fb); err != nil {
			t.Fatal(err)
		}
		fb = mustOpen(t, b, "mine.dat", abi.ORdOnly)
		check("reopened read", mustPread(t, b, fb, int(cachePageSize), 0))
		return obs
	})
}

// TestAddDirtyMatchesReference drives the coalescing buffer with random
// writes and discards against a byte-level reference: extents stay
// sorted, disjoint and apart, the dirty byte count and the coalesced
// verdict match, and a recycled buffer never shows stale bytes.
func TestAddDirtyMatchesReference(t *testing.T) {
	const span = 24 << 10
	rng := rand.New(rand.NewSource(27))
	c := newRedirCache()
	fc := &fdCache{}
	want := make([]byte, span)
	dirty := make([]bool, span)
	stamp := byte(0)
	for step := 0; step < 4000; step++ {
		if rng.Intn(40) == 0 {
			c.discardDirtyLocked(fc)
			clear(dirty)
			continue
		}
		off := rng.Intn(span - 1)
		n := 1 + rng.Intn(min(span-off, []int{16, 300, 5000}[rng.Intn(3)]))
		stamp++
		data := bytes.Repeat([]byte{stamp}, n)

		touches := false
		for i := max(off-1, 0); i <= min(off+n, span-1); i++ {
			touches = touches || dirty[i]
		}
		if got := c.addDirtyLocked(fc, int64(off), data); got != touches {
			t.Fatalf("step %d: write [%d,%d) coalesced=%v, want %v", step, off, off+n, got, touches)
		}
		copy(want[off:], data)
		for i := off; i < off+n; i++ {
			dirty[i] = true
		}

		sum, prevEnd := 0, int64(-2)
		for _, ext := range fc.dirty {
			if ext.off <= prevEnd {
				t.Fatalf("step %d: extent at %d touches the one ending at %d", step, ext.off, prevEnd)
			}
			for i, b := range ext.data {
				if at := ext.off + int64(i); !dirty[at] || b != want[at] {
					t.Fatalf("step %d: byte %d = %d (dirty=%v), want %d", step, at, b, dirty[at], want[at])
				}
			}
			sum += len(ext.data)
			prevEnd = ext.end()
		}
		covered := 0
		for _, d := range dirty {
			if d {
				covered++
			}
		}
		if sum != covered || fc.dirtyBytes != sum {
			t.Fatalf("step %d: extents hold %d bytes, dirtyBytes %d, reference %d", step, sum, fc.dirtyBytes, covered)
		}
		if c.extFreeBytes > maxFreeExtentBytes {
			t.Fatalf("step %d: free list holds %d B, bound %d", step, c.extFreeBytes, maxFreeExtentBytes)
		}
	}
}
