package anception

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/vfs"
)

// bootCachedDevice boots an Anception device with the redirection cache on.
func bootCachedDevice(t *testing.T, mutate func(*Options)) (*Device, *Proc) {
	t.Helper()
	opts := Options{Mode: ModeAnception, RedirCache: true, Vulns: android.AllVulnerabilities()}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, installAndLaunch(t, d, "com.example.cache")
}

// rootCred reads the guest filesystem directly, bypassing the app.
var rootCred = vfs.Cred{UID: abi.UIDRoot}

func mustOpen(t *testing.T, p *Proc, path string, flags abi.OpenFlag) int {
	t.Helper()
	fd, err := p.Open(path, flags, 0o600)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return fd
}

func mustPwrite(t *testing.T, p *Proc, fd int, data []byte, off int64) {
	t.Helper()
	n, err := p.Pwrite(fd, data, off)
	if err != nil || n != len(data) {
		t.Fatalf("pwrite: n=%d err=%v", n, err)
	}
}

func mustPread(t *testing.T, p *Proc, fd, n int, off int64) []byte {
	t.Helper()
	got, err := p.Pread(fd, n, off)
	if err != nil {
		t.Fatalf("pread: %v", err)
	}
	return got
}

// TestCacheWriteThenRead: a buffered write is immediately visible to a read
// on the same descriptor, and neither call makes a container round-trip.
func TestCacheWriteThenRead(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "cached.dat", abi.ORdWr|abi.OCreat)

	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 256)
	before := d.Layer.Stats()
	mustPwrite(t, p, fd, payload, 100)
	got := mustPread(t, p, fd, len(payload), 100)
	after := d.Layer.Stats()

	if !bytes.Equal(got, payload) {
		t.Fatalf("read-after-write mismatch: got %d bytes", len(got))
	}
	if after.Redirected != before.Redirected {
		t.Fatalf("buffered write + cached read must not round-trip: redirected %d -> %d",
			before.Redirected, after.Redirected)
	}
	if after.Cache.Hits < before.Cache.Hits+2 {
		t.Fatalf("expected 2 cache hits (write buffer + read), got %+v", after.Cache)
	}
}

// TestCachePartialPageOverlap: overlapping unaligned writes spanning a page
// boundary coalesce and compose correctly, both from the dirty buffer and
// after the data round-trips through the guest.
func TestCachePartialPageOverlap(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "overlap.dat", abi.ORdWr|abi.OCreat)
	psz := cachePageSize

	before := d.Layer.Stats()
	mustPwrite(t, p, fd, []byte("XXXX"), psz-2) // spans pages 0 and 1
	mustPwrite(t, p, fd, []byte("YY"), psz-1)   // overlaps the middle
	mid := d.Layer.Stats()
	if mid.Cache.CoalescedWrites != before.Cache.CoalescedWrites+1 {
		t.Fatalf("overlapping write must coalesce: %+v", mid.Cache)
	}

	// Miss: the range reaches below the dirty extent, forcing a flush,
	// fstat, and fetch — then the composed view must show the merged data.
	got := mustPread(t, p, fd, 6, psz-4)
	want := []byte{0, 0, 'X', 'Y', 'Y', 'X'}
	if !bytes.Equal(got, want) {
		t.Fatalf("composed read = %q, want %q", got, want)
	}

	// Overlay a fresh dirty extent on now-resident pages: hit, no trip.
	mustPwrite(t, p, fd, []byte("ZZ"), psz-3)
	redirBefore := d.Layer.Stats().Redirected
	got = mustPread(t, p, fd, 6, psz-4)
	want = []byte{0, 'Z', 'Z', 'Y', 'Y', 'X'}
	if !bytes.Equal(got, want) {
		t.Fatalf("overlaid read = %q, want %q", got, want)
	}
	if d.Layer.Stats().Redirected != redirBefore {
		t.Fatal("overlaid read on resident pages must be served from host memory")
	}

	// After fsync the guest file must hold the final merged content.
	if _, err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	guest, err := d.Guest.FS().ReadFile(rootCred, p.Task.CWD+"/overlap.dat")
	if err != nil {
		t.Fatal(err)
	}
	wantFile := make([]byte, psz+2)
	copy(wantFile[psz-3:], []byte{'Z', 'Z', 'Y', 'Y', 'X'})
	if !bytes.Equal(guest, wantFile) {
		t.Fatalf("guest file after fsync: %d bytes, tail %q", len(guest), guest[psz-4:])
	}
}

// TestCacheFsyncDurability: buffered data is not in the guest filesystem
// until fsync, and is fully there afterwards.
func TestCacheFsyncDurability(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "durable.dat", abi.ORdWr|abi.OCreat)
	data := bytes.Repeat([]byte("durability"), 300) // 3000 bytes
	mustPwrite(t, p, fd, data, 0)

	guestPath := p.Task.CWD + "/durable.dat"
	beforeSync, err := d.Guest.FS().ReadFile(rootCred, guestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(beforeSync) != 0 {
		t.Fatalf("write must be buffered host-side before fsync; guest already has %d bytes", len(beforeSync))
	}

	flushesBefore := d.Layer.Stats().Cache.Flushes
	if _, err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if d.Layer.Stats().Cache.Flushes != flushesBefore+1 {
		t.Fatalf("fsync must flush exactly once: %+v", d.Layer.Stats().Cache)
	}
	afterSync, err := d.Guest.FS().ReadFile(rootCred, guestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterSync, data) {
		t.Fatalf("guest file after fsync has %d bytes, want %d", len(afterSync), len(data))
	}
}

// TestCacheCloseFlushes: close writes buffered data back; a fresh
// descriptor reads it from the guest.
func TestCacheCloseFlushes(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "closeflush.dat", abi.ORdWr|abi.OCreat)
	data := []byte("flushed at last close")
	mustPwrite(t, p, fd, data, 0)
	flushesBefore := d.Layer.Stats().Cache.Flushes
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if d.Layer.Stats().Cache.Flushes != flushesBefore+1 {
		t.Fatalf("close must flush buffered data: %+v", d.Layer.Stats().Cache)
	}
	fd2 := mustOpen(t, p, "closeflush.dat", abi.ORdOnly)
	if got := mustPread(t, p, fd2, len(data), 0); !bytes.Equal(got, data) {
		t.Fatalf("reopen read = %q, want %q", got, data)
	}
}

// TestCacheRestartInvalidation: a CVM restart wipes the cache; nothing
// cached against the old container boot is ever served against the new one.
func TestCacheRestartInvalidation(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "restart.dat", abi.ORdWr|abi.OCreat)
	gen1 := []byte("generation-one")
	mustPwrite(t, p, fd, gen1, 0)
	if _, err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	// Warm the page cache.
	if got := mustPread(t, p, fd, len(gen1), 0); !bytes.Equal(got, gen1) {
		t.Fatalf("warm read = %q", got)
	}

	invBefore := d.Layer.Stats().Cache.Invalidations
	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	if d.Layer.Stats().Cache.Invalidations <= invBefore {
		t.Fatal("restart must invalidate the redirection cache")
	}

	// The stale descriptor must NOT serve the cached page: the fresh guest
	// has no such fd, so the read must fail rather than return old bytes.
	if got, err := p.Pread(fd, len(gen1), 0); err == nil {
		t.Fatalf("stale-fd read after restart served %q; want an error", got)
	}

	// Mutate the (persistent) container file directly, then reopen: the
	// read must fetch the new content, proving no page survived the wipe.
	gen2 := []byte("generation-two")
	if err := d.Guest.FS().WriteFile(rootCred, p.Task.CWD+"/restart.dat", gen2, 0o600); err != nil {
		t.Fatal(err)
	}
	fd2 := mustOpen(t, p, "restart.dat", abi.ORdWr)
	if got := mustPread(t, p, fd2, len(gen2), 0); !bytes.Equal(got, gen2) {
		t.Fatalf("post-restart read = %q, want %q", got, gen2)
	}
}

// TestCacheDegradedBypass: degraded (circuit-breaker) mode fails fast with
// EAGAIN and never consults the cache, even when it is warm.
func TestCacheDegradedBypass(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "degraded.dat", abi.ORdWr|abi.OCreat)
	data := []byte("warm cache line")
	mustPwrite(t, p, fd, data, 0)
	if got := mustPread(t, p, fd, len(data), 0); !bytes.Equal(got, data) {
		t.Fatalf("warm read = %q", got)
	}

	before := d.Layer.Stats()
	d.Layer.SetDegraded(true)
	_, err := p.Pread(fd, len(data), 0)
	if !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("degraded read err = %v, want EAGAIN", err)
	}
	after := d.Layer.Stats()
	if after.FailedFast != before.FailedFast+1 {
		t.Fatalf("degraded read must fail fast: %+v", after)
	}
	if after.Cache.Hits != before.Cache.Hits || after.Cache.Misses != before.Cache.Misses {
		t.Fatalf("degraded mode must not consult the cache: %+v -> %+v", before.Cache, after.Cache)
	}

	d.Layer.SetDegraded(false)
	if got := mustPread(t, p, fd, len(data), 0); !bytes.Equal(got, data) {
		t.Fatalf("post-recovery read = %q", got)
	}
}

// TestCacheWriteCoalescing: k adjacent page writes merge into one extent
// and flush in a single write-back.
func TestCacheWriteCoalescing(t *testing.T) {
	d, p := bootCachedDevice(t, nil) // read-ahead window 8 pages > 4 written
	fd := mustOpen(t, p, "coalesce.dat", abi.ORdWr|abi.OCreat)

	const k = 4
	all := make([]byte, k*int(cachePageSize))
	before := d.Layer.Stats()
	for i := 0; i < k; i++ {
		page := bytes.Repeat([]byte{byte('a' + i)}, int(cachePageSize))
		copy(all[i*int(cachePageSize):], page)
		mustPwrite(t, p, fd, page, int64(i)*cachePageSize)
	}
	mid := d.Layer.Stats()
	if got := mid.Cache.CoalescedWrites - before.Cache.CoalescedWrites; got != k-1 {
		t.Fatalf("coalesced writes = %d, want %d", got, k-1)
	}
	if mid.Cache.Flushes != before.Cache.Flushes {
		t.Fatalf("%d pages under the %d-page window must stay buffered", k, DefaultReadAheadPages)
	}

	if _, err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	after := d.Layer.Stats()
	if after.Cache.Flushes != mid.Cache.Flushes+1 {
		t.Fatalf("fsync must write the merged extent in one flush: %+v", after.Cache)
	}
	guest, err := d.Guest.FS().ReadFile(rootCred, p.Task.CWD+"/coalesce.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(guest, all) {
		t.Fatalf("guest file = %d bytes, want %d", len(guest), len(all))
	}
}

// TestCacheThresholdFlushBatches: when the buffer reaches the read-ahead
// window it flushes on its own, and disjoint extents ride one batched
// round-trip (one pair of world switches for two writes).
func TestCacheThresholdFlushBatches(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	d.Layer.cache.cfg.readAhead = 2
	fd := mustOpen(t, p, "batch.dat", abi.ORdWr|abi.OCreat)
	pageA := bytes.Repeat([]byte{'A'}, int(cachePageSize))
	pageC := bytes.Repeat([]byte{'C'}, int(cachePageSize))

	before := d.Layer.Stats()
	switchesBefore, _ := d.CVM.WorldSwitches()
	mustPwrite(t, p, fd, pageA, 0)
	mustPwrite(t, p, fd, pageC, 2*cachePageSize) // disjoint: 2 extents, hits threshold
	after := d.Layer.Stats()
	switchesAfter, _ := d.CVM.WorldSwitches()

	if after.Cache.Flushes != before.Cache.Flushes+1 {
		t.Fatalf("threshold must trigger exactly one flush: %+v", after.Cache)
	}
	if got := switchesAfter - switchesBefore; got != 1 {
		t.Fatalf("two buffered writes flushed in %d round-trips, want 1 (batched)", got)
	}
	if after.Redirected != before.Redirected+2 {
		t.Fatalf("batch must account both calls: redirected %d -> %d", before.Redirected, after.Redirected)
	}

	guest, err := d.Guest.FS().ReadFile(rootCred, p.Task.CWD+"/batch.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*cachePageSize)
	copy(want, pageA)
	copy(want[2*cachePageSize:], pageC)
	if !bytes.Equal(guest, want) {
		t.Fatalf("guest file = %d bytes, want %d with hole page", len(guest), len(want))
	}
}

// TestCacheReadAhead: the first read of a cold file fetches the read-ahead
// window in one round-trip; the following sequential reads all hit.
func TestCacheReadAhead(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "ra.dat", abi.ORdWr|abi.OCreat)
	pages := DefaultReadAheadPages
	content := make([]byte, pages*int(cachePageSize))
	for i := range content {
		content[i] = byte(i / int(cachePageSize) * 31)
	}
	mustPwrite(t, p, fd, content, 0) // reaches the window: flushes immediately
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}

	fd2 := mustOpen(t, p, "ra.dat", abi.ORdOnly)
	before := d.Layer.Stats()
	for i := 0; i < pages; i++ {
		got := mustPread(t, p, fd2, int(cachePageSize), int64(i)*cachePageSize)
		want := content[i*int(cachePageSize) : (i+1)*int(cachePageSize)]
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content mismatch", i)
		}
	}
	after := d.Layer.Stats()
	if got := after.Cache.Misses - before.Cache.Misses; got != 1 {
		t.Fatalf("sequential scan missed %d times, want 1", got)
	}
	if got := after.Cache.Hits - before.Cache.Hits; got != pages-1 {
		t.Fatalf("sequential scan hit %d times, want %d", got, pages-1)
	}
	if got := after.Cache.ReadAheadPages - before.Cache.ReadAheadPages; got != pages-1 {
		t.Fatalf("read-ahead fetched %d extra pages, want %d", got, pages-1)
	}
}

// TestCacheLRUEviction: clean pages stay under the byte budget; the least
// recently used page is evicted and misses again.
func TestCacheLRUEviction(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	d.Layer.cache.cfg.readAhead = 1
	d.Layer.cache.cfg.budget = 2 * cachePageSize
	fd := mustOpen(t, p, "lru.dat", abi.ORdWr|abi.OCreat)
	content := make([]byte, 3*cachePageSize)
	for i := range content {
		content[i] = byte(i)
	}
	mustPwrite(t, p, fd, content, 0) // over the window: flushes immediately
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}

	fd2 := mustOpen(t, p, "lru.dat", abi.ORdOnly)
	before := d.Layer.Stats().Cache
	mustPread(t, p, fd2, int(cachePageSize), 0)                      // miss, cache {0}
	mustPread(t, p, fd2, int(cachePageSize), cachePageSize)          // miss, cache {0,1}
	mustPread(t, p, fd2, int(cachePageSize), 2*cachePageSize)        // miss, evicts 0
	mustPread(t, p, fd2, int(cachePageSize), 0)                      // miss again: was evicted
	got := mustPread(t, p, fd2, int(cachePageSize), 2*cachePageSize) // still resident: hit
	after := d.Layer.Stats().Cache

	if misses := after.Misses - before.Misses; misses != 4 {
		t.Fatalf("misses = %d, want 4 (budget eviction forces a refetch)", misses)
	}
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if !bytes.Equal(got, content[2*cachePageSize:]) {
		t.Fatal("evicting under budget corrupted a resident page")
	}
}

// TestCacheAttrCache: idempotent path calls are served from the attribute
// cache; writes and unlinks invalidate it.
func TestCacheAttrCache(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fd := mustOpen(t, p, "attr.dat", abi.ORdWr|abi.OCreat)
	mustPwrite(t, p, fd, bytes.Repeat([]byte{1}, 100), 0)
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}

	sz1, err := p.Stat("attr.dat")
	if err != nil || sz1 != 100 {
		t.Fatalf("stat: size=%d err=%v", sz1, err)
	}
	before := d.Layer.Stats()
	sz2, err := p.Stat("attr.dat")
	if err != nil || sz2 != 100 {
		t.Fatalf("second stat: size=%d err=%v", sz2, err)
	}
	after := d.Layer.Stats()
	if after.Redirected != before.Redirected {
		t.Fatal("repeated stat must be served from the attribute cache")
	}
	if after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("attribute hit not counted: %+v", after.Cache)
	}

	// A buffered write on the path makes the cached size stale: stat must
	// flush and report the new size, not serve the old entry.
	fd2 := mustOpen(t, p, "attr.dat", abi.ORdWr)
	mustPwrite(t, p, fd2, bytes.Repeat([]byte{2}, 250), 0)
	if sz, err := p.Stat("attr.dat"); err != nil || sz != 250 {
		t.Fatalf("stat after buffered write: size=%d err=%v, want 250", sz, err)
	}

	// Unlink purges: a later stat must see ENOENT, never the stale entry.
	if err := p.Close(fd2); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("attr.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("attr.dat"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("stat after unlink err = %v, want ENOENT", err)
	}
}

// TestCacheGetdentsInvalidatedByCreate: a cached directory listing is
// purged when a file is created in it.
func TestCacheGetdentsInvalidatedByCreate(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	if _, err := p.Getdents("."); err != nil {
		t.Fatal(err)
	}
	before := d.Layer.Stats()
	if _, err := p.Getdents("."); err != nil {
		t.Fatal(err)
	}
	if d.Layer.Stats().Redirected != before.Redirected {
		t.Fatal("repeated getdents must hit the attribute cache")
	}

	fd := mustOpen(t, p, "newfile.dat", abi.ORdWr|abi.OCreat)
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	names, err := p.Getdents(".")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(names), "newfile.dat") {
		t.Fatalf("listing after create is stale: %q", names)
	}
}

// TestSendfileHugeSizeBounded: a mixed-locality sendfile with a hostile
// 1 GiB size must not allocate a 1 GiB bounce buffer — it chunks, drains
// the real (small) source, and succeeds.
func TestSendfileHugeSizeBounded(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.example.sendfile")

	sysFD := mustOpen(t, p, "/system/lib/libc.so", abi.ORdOnly)
	if e, ok := p.Task.FD(sysFD); !ok || e.Kind == kernel.FDRemote {
		t.Fatal("system library must be a host-local descriptor")
	}
	want, err := d.Host.FS().ReadFile(rootCred, "/system/lib/libc.so")
	if err != nil {
		t.Fatal(err)
	}

	var received []byte
	d.RegisterRemote("sink:1", func(req []byte) []byte {
		received = append(received, req...)
		return nil
	})
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "sink:1"); err != nil {
		t.Fatal(err)
	}

	n, err := p.Sendfile(sock, sysFD, 1<<30)
	if err != nil {
		t.Fatalf("sendfile: %v", err)
	}
	if n != len(want) {
		t.Fatalf("sendfile moved %d bytes, want the whole %d-byte source", n, len(want))
	}
	if !bytes.Equal(received, want) {
		t.Fatal("sink received corrupted bytes")
	}

	if _, err := p.Sendfile(sock, sysFD, -1); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("negative size err = %v, want EINVAL", err)
	}
}

// TestPingZeroAllocs: the heartbeat is allocation-free in steady state so a
// tight supervisor loop puts no pressure on the host allocator.
func TestPingZeroAllocs(t *testing.T) {
	d, err := NewDevice(Options{Mode: ModeAnception, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Layer.Ping(); err != nil { // warm the channel frames
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Layer.Ping(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Ping allocates %.1f objects per call, want 0", allocs)
	}
}
