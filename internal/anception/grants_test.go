package anception

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// Tests for the zero-copy grant path (DESIGN.md §11): the size cutover,
// data correctness on flat and vectored calls, the sendfile bounce legs,
// cache coherence around live write grants, and revocation on restart.

// bootGrantDevice boots an Anception device with the grant path enabled
// at a 4 KiB cutover (the evaluate sweep's threshold).
func bootGrantDevice(t *testing.T, mutate func(*Options)) *Device {
	t.Helper()
	opts := Options{
		Mode:           ModeAnception,
		Vulns:          android.AllVulnerabilities(),
		GrantThreshold: 4096,
	}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// pattern fills a deterministic byte pattern so a stale or short
// round-trip is visible as a content mismatch, not just a count.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// TestGrantThresholdCutover: calls below GrantThreshold keep the copy
// path; calls at or above it ship grants, and the counters surface
// through both Device.GrantStats and LayerStats.Grants.
func TestGrantThresholdCutover(t *testing.T) {
	d := bootGrantDevice(t, nil)
	p := installAndLaunch(t, d, "com.grant.cutover")
	fd, err := p.Open("cut.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}

	small := pattern(4095, 1)
	if _, err := p.Pwrite(fd, small, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.GrantStats(); st.Calls != 0 {
		t.Fatalf("below-threshold write took the grant path: %+v", st)
	}

	big := pattern(4096, 2)
	if _, err := p.Pwrite(fd, big, 0); err != nil {
		t.Fatal(err)
	}
	st := d.GrantStats()
	if st.Calls != 1 || st.Bytes != 4096 {
		t.Fatalf("at-threshold write: %+v, want Calls=1 Bytes=4096", st)
	}

	// Read side: the guest fills the pinned caller buffer in place.
	buf := make([]byte, 4096)
	if n, err := p.PreadInto(fd, buf, 0); err != nil || n != 4096 {
		t.Fatalf("granted pread: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, big) {
		t.Fatal("granted pread returned wrong bytes")
	}
	st = d.GrantStats()
	if st.Calls != 2 || st.Bytes != 8192 {
		t.Fatalf("after granted read: %+v, want Calls=2 Bytes=8192", st)
	}
	// Every per-call grant was revoked when its call completed.
	if st.Table.Active != 0 || st.Table.Maps != 2 || st.Table.Entries != 2 {
		t.Fatalf("table after quiesce: %+v", st.Table)
	}
	// The same counters surface on the layer's aggregate snapshot.
	if ls := d.Layer.Stats().Grants; ls.Calls != st.Calls || ls.Bytes != st.Bytes {
		t.Fatalf("LayerStats.Grants = %+v, GrantStats = %+v", ls, st)
	}
}

// TestGrantVectoredRoundTrip: a gather write and scatter read above the
// threshold move by reference, one grant entry per iovec segment, and
// the payload survives byte-exact across unequal segment splits.
func TestGrantVectoredRoundTrip(t *testing.T) {
	d := bootGrantDevice(t, nil)
	p := installAndLaunch(t, d, "com.grant.vec")
	fd, err := p.Open("vec.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}

	segs := [][]byte{pattern(2048, 3), pattern(2048, 4), pattern(2048, 5)}
	if n, err := p.Pwritev(fd, segs, 0); err != nil || n != 6144 {
		t.Fatalf("granted pwritev: n=%d err=%v", n, err)
	}
	out := [][]byte{make([]byte, 5000), make([]byte, 1144)}
	if n, err := p.Preadv(fd, out, 0); err != nil || n != 6144 {
		t.Fatalf("granted preadv: n=%d err=%v", n, err)
	}
	want := bytes.Join(segs, nil)
	if got := append(append([]byte{}, out[0]...), out[1]...); !bytes.Equal(got, want) {
		t.Fatal("vectored round trip corrupted the payload")
	}

	st := d.GrantStats()
	if st.Calls != 2 || st.Bytes != 12288 {
		t.Fatalf("grant counters: %+v", st)
	}
	// 3 write segments + 2 read segments, each a table entry, but only
	// one map (and one shootdown) per call.
	if st.Table.Entries != 5 || st.Table.Maps != 2 || st.Table.Active != 0 {
		t.Fatalf("table: %+v, want Entries=5 Maps=2 Active=0", st.Table)
	}
}

// TestGrantSendfileBounceLegs: a mixed-locality sendfile's remote legs
// grant the bounce buffer instead of chunk-copying it. The threshold is
// set below the staged chunk so the cutover fires on the write leg
// (host-local /system source into a CVM socket).
func TestGrantSendfileBounceLegs(t *testing.T) {
	d := bootGrantDevice(t, func(o *Options) { o.GrantThreshold = 16 })
	p := installAndLaunch(t, d, "com.grant.sendfile")

	sysFD, err := p.Open("/system/lib/libc.so", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterRemote("sink:1", func(req []byte) []byte { return nil })
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "sink:1"); err != nil {
		t.Fatal(err)
	}

	n, err := p.Sendfile(sock, sysFD, 1<<20)
	if err != nil || n < 16 {
		t.Fatalf("mixed sendfile = %d, %v", n, err)
	}
	st := d.GrantStats()
	if st.Calls == 0 {
		t.Fatal("sendfile's remote write leg never took the grant path")
	}
	if st.Bytes != int64(n) {
		t.Fatalf("granted bytes = %d, sendfile moved %d", st.Bytes, n)
	}
	if st.Table.Active != 0 {
		t.Fatalf("grants leaked after sendfile: %+v", st.Table)
	}
}

// TestGrantCacheBypassesLiveWriteExtent: the redirection cache never
// serves a page overlapping an in-flight granted write. The extent
// registry is driven directly so the overlap window is deterministic
// rather than a goroutine race.
func TestGrantCacheBypassesLiveWriteExtent(t *testing.T) {
	d := bootGrantDevice(t, func(o *Options) { o.RedirCache = true })
	p := installAndLaunch(t, d, "com.grant.coherence")
	fd, err := p.Open("coh.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}

	want := pattern(8192, 7)
	if _, err := p.Pwrite(fd, want, 0); err != nil { // granted: guest authoritative
		t.Fatal(err)
	}
	// Warm the cache with a sub-threshold read.
	if got, err := p.Pread(fd, 512, 0); err != nil || !bytes.Equal(got, want[:512]) {
		t.Fatalf("warm read: %v", err)
	}
	if st := d.GrantStats(); st.CacheBypasses != 0 {
		t.Fatalf("bypasses before any live extent: %+v", st)
	}

	file := d.Layer.fileOf(lookupFD(p.Task, fd).key)
	id := d.Layer.grants.registerWrite(file, 256, 1024) // live extent [256,1280)

	// Overlapping cached read must route around the cache — and still
	// return correct bytes from the authoritative guest.
	if got, err := p.Pread(fd, 512, 0); err != nil || !bytes.Equal(got, want[:512]) {
		t.Fatalf("bypassed read: %v", err)
	}
	if st := d.GrantStats(); st.CacheBypasses != 1 {
		t.Fatalf("overlapping read did not bypass: %+v", st)
	}
	// A read clear of the extent is not penalized.
	if _, err := p.Pread(fd, 256, 4096); err != nil {
		t.Fatal(err)
	}
	if st := d.GrantStats(); st.CacheBypasses != 1 {
		t.Fatalf("non-overlapping read bypassed: %+v", st)
	}

	// A cursor write grants with an unknown offset and overlaps every
	// cached page of the descriptor.
	cursorID := d.Layer.grants.registerWrite(file, -1, 0)
	if _, err := p.Pread(fd, 256, 4096); err != nil {
		t.Fatal(err)
	}
	if st := d.GrantStats(); st.CacheBypasses != 2 {
		t.Fatalf("cursor-write extent not honored: %+v", st)
	}
	d.Layer.grants.unregister(cursorID)
	d.Layer.grants.unregister(id)

	// With the extents gone the cache serves again, bypass-free.
	if got, err := p.Pread(fd, 512, 0); err != nil || !bytes.Equal(got, want[:512]) {
		t.Fatalf("post-unregister read: %v", err)
	}
	if st := d.GrantStats(); st.CacheBypasses != 2 {
		t.Fatalf("bypass after extents cleared: %+v", st)
	}
}

// TestGrantCoherenceAcrossLinks: an in-flight granted write belongs to
// the file, not to the name its descriptor was opened under, so a cached
// read through a hard link of the file bypasses the cache too.
func TestGrantCoherenceAcrossLinks(t *testing.T) {
	d := bootGrantDevice(t, func(o *Options) { o.RedirCache = true })
	p := installAndLaunch(t, d, "com.grant.links")
	w := mustOpen(t, p, "orig.dat", abi.ORdWr|abi.OCreat)
	mustPwrite(t, p, w, pattern(8192, 3), 0)
	if res := p.Syscall(kernel.Args{Nr: abi.SysLink, Path: "orig.dat", Path2: "alias.dat"}); !res.Ok() {
		t.Fatalf("link: %v", res.Err)
	}
	r := mustOpen(t, p, "alias.dat", abi.ORdOnly)
	mustPread(t, p, r, 512, 0)

	id := d.Layer.grants.registerWrite(d.Layer.fileOf(lookupFD(p.Task, w).key), 0, 1024)
	defer d.Layer.grants.unregister(id)
	mustPread(t, p, r, 512, 0)
	if st := d.GrantStats(); st.CacheBypasses != 1 {
		t.Fatalf("a read through the link overlapping the live write: %d bypasses, want 1", st.CacheBypasses)
	}
}

// TestGrantWriteInvalidatesCachedPages: end-to-end freshness — after a
// granted write lands, a cached read of the same range returns the new
// bytes, never the pre-write pages.
func TestGrantWriteInvalidatesCachedPages(t *testing.T) {
	d := bootGrantDevice(t, func(o *Options) { o.RedirCache = true })
	p := installAndLaunch(t, d, "com.grant.fresh")
	fd, err := p.Open("fresh.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}

	old := pattern(8192, 11)
	if _, err := p.Pwrite(fd, old, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Pread(fd, 512, 0); err != nil || !bytes.Equal(got, old[:512]) {
		t.Fatalf("warm read: %v", err) // cache now holds the old pages
	}

	neu := pattern(8192, 99)
	if _, err := p.Pwrite(fd, neu, 0); err != nil { // granted write
		t.Fatal(err)
	}
	got, err := p.Pread(fd, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, old[:512]) {
		t.Fatal("cache served pre-write pages after a granted write")
	}
	if !bytes.Equal(got, neu[:512]) {
		t.Fatalf("read after granted write returned garbage")
	}
}

// TestGrantRestartRevokesAll: a CVM restart sweeps every outstanding
// grant; stale refs fail EHOSTDOWN via their boot-generation tag, and
// the path works again against the new guest.
func TestGrantRestartRevokesAll(t *testing.T) {
	d := bootGrantDevice(t, nil)
	p := installAndLaunch(t, d, "com.grant.restart")
	fd, err := p.Open("r.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pwrite(fd, pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}

	// A grant left outstanding across the restart (an in-flight call's
	// view of the world).
	refs := d.grants.GrantBatch(nil, [][]byte{make([]byte, abi.PageSize)}, true, nil)
	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.grants.Resolve(refs[0]); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("stale grant resolved with %v, want EHOSTDOWN", err)
	}
	st := d.GrantStats().Table
	if st.Active != 0 || st.RevokedByRestart < 1 || st.StaleRejected != 1 {
		t.Fatalf("table after restart: %+v", st)
	}

	// The grant path runs clean against the new boot generation.
	fd2, err := p.Open("r2.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(4096, 42)
	if _, err := p.Pwrite(fd2, want, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := p.PreadInto(fd2, buf, 0); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("post-restart granted round trip: %v", err)
	}
}

// TestGrantConcurrentRestartUnderLoad: goroutines hammer grant-path bulk
// I/O over the async ring while the CVM restarts repeatedly. Every
// failure must be a clean errno (EHOSTDOWN/ENXIO/EAGAIN — never a stale
// completion or a panic), the workers recover on the new guest, and
// afterwards no grant is left mapped. Run under -race in CI.
func TestGrantConcurrentRestartUnderLoad(t *testing.T) {
	d := bootRingDevice(t, func(o *Options) { o.GrantThreshold = 4096 })
	const workers = 4
	apps := make([]*Proc, workers)
	for i := range apps {
		apps[i] = installAndLaunch(t, d, fmt.Sprintf("com.grant.worker%d", i))
	}

	stop := make(chan struct{})
	badErr := make(chan error, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app *Proc) {
			defer wg.Done()
			report := func(err error) {
				var errno abi.Errno
				if err != nil && !errors.As(err, &errno) {
					select {
					case badErr <- fmt.Errorf("worker %d: non-errno error: %w", i, err):
					default:
					}
				}
			}
			payload := pattern(8192, byte(i))
			buf := make([]byte, 8192)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("g%d-%d.dat", i, n)
				fd, err := app.Open(name, abi.ORdWr|abi.OCreat, 0o600)
				if err != nil {
					report(err)
					continue
				}
				if _, err := app.Pwrite(fd, payload, 0); err != nil {
					report(err)
				} else if _, err := app.PreadInto(fd, buf, 0); err != nil {
					report(err)
				} else if !bytes.Equal(buf, payload) {
					// A granted read that "succeeded" but filled the
					// pinned pages from a dead guest would show up here.
					select {
					case badErr <- fmt.Errorf("worker %d: granted read returned stale bytes", i):
					default:
					}
				}
				report(app.Close(fd))
			}
		}(i, app)
	}

	for r := 0; r < 5; r++ {
		if err := d.RestartCVM(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-badErr:
		t.Fatal(err)
	default:
	}

	// Every worker recovers with a granted round trip on the final guest.
	for i, app := range apps {
		want := pattern(4096, byte(0x80+i))
		fd, err := app.Open("final.dat", abi.ORdWr|abi.OCreat, 0o600)
		if err != nil {
			t.Fatalf("worker %d post-restart open: %v", i, err)
		}
		if _, err := app.Pwrite(fd, want, 0); err != nil {
			t.Fatalf("worker %d post-restart granted write: %v", i, err)
		}
		buf := make([]byte, 4096)
		if _, err := app.PreadInto(fd, buf, 0); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("worker %d post-restart granted read: %v", i, err)
		}
		if err := app.Close(fd); err != nil {
			t.Fatalf("worker %d post-restart close: %v", i, err)
		}
	}

	st := d.Layer.Stats()
	if st.Restarts != 5 {
		t.Fatalf("Restarts = %d, want 5", st.Restarts)
	}
	if st.Grants.Calls == 0 {
		t.Fatal("load never exercised the grant path")
	}
	// With all submitters quiesced: no grant still mapped, and the ring
	// neither lost nor double-completed a slot.
	if st.Grants.Table.Active != 0 {
		t.Fatalf("grants leaked across restarts: %+v", st.Grants.Table)
	}
	if st.Ring.Submitted != st.Ring.Completed+st.Ring.Failed {
		t.Fatalf("ring accounting %+v after quiesce", st.Ring)
	}
}
