package anception

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// Write-coalescing extents are recycled (DESIGN.md §9): a write inside or
// extending a buffered extent lands in place, and flushed or merged-away
// extent buffers go back to a bounded free list. Dropped clean pages go
// back whole to the spare list, and call frames are reused call after call
// (DESIGN.md §10). These tests pin that the steady state allocates nothing
// and that a recycled buffer never shows earlier bytes.

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

// TestPageDropRefillAllocs: dropping a file's clean pages and caching them
// again, within the spare bound, moves whole page entries between the LRU
// and the spare list and allocates nothing.
func TestPageDropRefillAllocs(t *testing.T) {
	c := newRedirCache()
	f := c.fileLocked("/data/data/com.example/cycle.dat")
	src := bytes.Repeat([]byte{0x6B}, int(cachePageSize))
	pages := int(c.cfg.budget / spareBudgetShare / cachePageSize)
	op := func() {
		for i := 0; i < pages; i++ {
			c.storePageLocked(f, int64(i), src)
		}
		c.dropPagesLocked(f)
	}
	allocGate(t, "page drop/refill cycle", steadyAllocs(op), 0)
	if len(c.spare) != pages || c.lru.n != 0 || c.bytes != 0 {
		t.Fatalf("after a drop: %d spares (want %d), %d resident pages, %d resident bytes", len(c.spare), pages, c.lru.n, c.bytes)
	}
}

// TestRecycledPageShowsOnlyNewBytes: on the Fast profile, app A's cached
// pages are dropped into the spare list when it closes its file. App B's
// 100-byte file then reads back its 100 B, and the recycled page that
// caches it holds them with zeros to the end of the page.
func TestRecycledPageShowsOnlyNewBytes(t *testing.T) {
	d, err := NewDevice(Options{AutoTune: true, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	a := installAndLaunch(t, d, "com.probe.a")
	b := installAndLaunch(t, d, "com.probe.b")
	c := d.Layer.cache

	fa := mustOpen(t, a, "secret.dat", abi.ORdWr|abi.OCreat)
	secret := bytes.Repeat([]byte("A-secret"), 4*int(cachePageSize)/8)
	mustPwrite(t, a, fa, secret, 0)
	if _, err := a.Fsync(fa); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(secret); off += int(cachePageSize) {
		if got := mustPread(t, a, fa, int(cachePageSize), int64(off)); !bytes.Equal(got, secret[off:off+int(cachePageSize)]) {
			t.Fatalf("app A reads back other bytes at %d", off)
		}
	}
	if residentPages(d, a, fa) == 0 {
		t.Fatal("app A's read cached no page")
	}
	if err := a.Close(fa); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	spares := make(map[*cachedPage]bool)
	for _, cp := range c.spare {
		spares[cp] = true
	}
	c.mu.Unlock()
	if len(spares) == 0 {
		t.Fatal("closing app A's file left no spare page")
	}

	fb := mustOpen(t, b, "mine.dat", abi.ORdWr|abi.OCreat)
	mine := bytes.Repeat([]byte{'b'}, 100)
	mustPwrite(t, b, fb, mine, 0)
	if _, err := b.Fsync(fb); err != nil {
		t.Fatal(err)
	}
	if got := mustPread(t, b, fb, int(cachePageSize), 0); !bytes.Equal(got, mine) {
		t.Fatalf("app B reads %d bytes (%q...), want its own 100", len(got), got[:min(len(got), 16)])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := c.fds[lookupFD(b.Task, fb).key].file.pages[0]
	switch {
	case cp == nil:
		t.Fatal("app B's read cached no page")
	case !spares[cp]:
		t.Fatal("app B's page is not a recycled entry")
	case !bytes.Equal(cp.data[:100], mine) || !allBytes(cp.data[100:], 0):
		t.Fatalf("the recycled page holds %q then %q, want B's 100 B then zeros", cp.data[:8], cp.data[100:116])
	}
}

// TestRecycledFrameShowsOnlyNewBytes: every call reuses a call frame. A
// short read, readlink or echo after a long one returns only its own
// bytes and leaves the caller's buffer past them untouched, on Paper and
// Fast.
func TestRecycledFrameShowsOnlyNewBytes(t *testing.T) {
	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			d, p := admitApp(t, prof.opts)
			d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
			long := bytes.Repeat([]byte{'L'}, int(cachePageSize))
			seedGuestFile(t, p, "long.dat", long)
			seedGuestFile(t, p, "short.dat", []byte("short"))
			fl := mustOpen(t, p, "long.dat", abi.ORdOnly)
			fs := mustOpen(t, p, "short.dat", abi.ORdOnly)
			longTarget := strings.Repeat("t", 300)
			for target, link := range map[string]string{longTarget: "long.lnk", "s": "short.lnk"} {
				if res := p.Syscall(kernel.Args{Nr: abi.SysSymlink, Path: target, Path2: link}); !res.Ok() {
					t.Fatalf("symlink %s: %v", link, res.Err)
				}
			}
			sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Connect(sock, "echo:7"); err != nil {
				t.Fatal(err)
			}

			buf := make([]byte, cachePageSize)
			// short checks that buf holds want and then only the 0xEE
			// written before the call.
			short := func(what string, n int, err error, want string) {
				t.Helper()
				if err != nil || n != len(want) || string(buf[:n]) != want {
					t.Fatalf("%s: n=%d err=%v %q", what, n, err, buf[:min(n, 16)])
				}
				if !allBytes(buf[n:], 0xEE) {
					t.Fatalf("%s wrote past its %d bytes", what, n)
				}
			}
			for round := 0; round < 3; round++ {
				if n, err := p.PreadInto(fl, buf, 0); err != nil || !bytes.Equal(buf[:n], long) {
					t.Fatalf("long read: n=%d err=%v", n, err)
				}
				fillEE(buf)
				n, err := p.PreadInto(fs, buf, 0)
				short("short read", n, err, "short")

				if got, err := p.Readlink("long.lnk"); err != nil || got != longTarget {
					t.Fatalf("long readlink: %d bytes, %v", len(got), err)
				}
				if got, err := p.Readlink("short.lnk"); err != nil || got != "s" {
					t.Fatalf("short readlink: %q, %v", got, err)
				}

				if _, err := p.Send(sock, long[:1000]); err != nil {
					t.Fatal(err)
				}
				if n, err := p.RecvInto(sock, buf); err != nil || !bytes.Equal(buf[:n], long[:1000]) {
					t.Fatalf("long echo: n=%d err=%v", n, err)
				}
				if _, err := p.Send(sock, []byte("hi")); err != nil {
					t.Fatal(err)
				}
				fillEE(buf)
				n, err = p.RecvInto(sock, buf)
				short("short echo", n, err, "hi")
			}
		})
	}
}

func fillEE(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// allBytes reports whether every byte of b is v.
func allBytes(b []byte, v byte) bool {
	for _, x := range b {
		if x != v {
			return false
		}
	}
	return true
}

// TestRecycledStickyShowsOnlyNewBytes: a speculated recv lands in its
// descriptor's sticky buffer, which is reused. A shorter second reply
// shows none of the first, and a reply landing behind bytes the app has
// not read yet keeps them, in order.
func TestRecycledStickyShowsOnlyNewBytes(t *testing.T) {
	d, p := admitApp(t, Options{AutoTune: true})
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "echo:7"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	send := func(msg []byte) {
		t.Helper()
		if n, err := p.Send(sock, msg); err != nil || n != len(msg) {
			t.Fatalf("send: n=%d err=%v", n, err)
		}
	}
	// recv reads into buf[:size], which must then hold want and, past
	// it, only the 0xEE written before the call.
	recv := func(size int, want string) {
		t.Helper()
		fillEE(buf)
		n, err := p.RecvInto(sock, buf[:size])
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("recv: n=%d err=%v %q, want %q", n, err, buf[:n], want)
		}
		if !allBytes(buf[n:], 0xEE) {
			t.Fatalf("recv of %q wrote past its %d bytes", want, n)
		}
	}
	for i := 0; i < fuseConfidence+1; i++ { // the detector learns the pair
		send([]byte("warm"))
		recv(len(buf), "warm")
	}
	served := d.Layer.Stats().Fusion.SpecServed
	long, hi := strings.Repeat("L", 60), "hi"
	for round := 0; round < 3; round++ {
		send([]byte(long))
		recv(len(buf), long)
		send([]byte(hi))
		recv(len(buf), hi)

		// 40 bytes land; the app reads 16 and leaves 24. The next reply
		// lands behind those 24, and one recv returns both.
		b40, c8 := strings.Repeat("B", 40), strings.Repeat("C", 8)
		send([]byte(b40))
		recv(16, b40[:16])
		send([]byte(c8))
		recv(len(buf), b40[16:]+c8)
	}
	if got := d.Layer.Stats().Fusion.SpecServed - served; got != 12 {
		t.Fatalf("%d recvs served from speculation, want all 12", got)
	}
}

// TestRecycledGrantFrameShowsOnlyNewBytes: a granted call keeps its
// refs, descriptor entries and resolved views in the call frame. A
// shorter granted read or write after a longer one touches only its own
// buffers, on the synchronous channel and on Fast, and an idle frame
// pins no app buffer.
func TestRecycledGrantFrameShowsOnlyNewBytes(t *testing.T) {
	for _, c := range grantAllocConfigs {
		t.Run(c.name, func(t *testing.T) {
			d, p, fd, _ := pageIOApp(t, c.opts)
			content := make([]byte, 64<<10)
			for i := range content {
				content[i] = byte(i*31 + 7)
			}
			mustPwrite(t, p, fd, content, 0)
			before := d.Layer.GrantStats().Calls
			seg := func(n int) [][]byte {
				iov := make([][]byte, n)
				for i := range iov {
					iov[i] = make([]byte, 16<<10)
				}
				return iov
			}
			for round := 0; round < 3; round++ {
				long, short := seg(4), seg(2)
				if n, err := p.Preadv(fd, long, 0); err != nil || n != len(content) {
					t.Fatalf("4-segment preadv: n=%d err=%v", n, err)
				}
				for _, s := range long {
					fillEE(s)
				}
				if n, err := p.Preadv(fd, short, 0); err != nil || n != 32<<10 {
					t.Fatalf("2-segment preadv: n=%d err=%v", n, err)
				}
				if !bytes.Equal(append(short[0], short[1]...), content[:32<<10]) {
					t.Fatal("2-segment preadv read the wrong bytes")
				}
				for i, s := range long {
					if !allBytes(s, 0xEE) {
						t.Fatalf("the longer call's segment %d was written by the shorter one", i)
					}
				}

				buf := make([]byte, len(content))
				if n, err := p.PreadInto(fd, buf, 0); err != nil || n != len(buf) {
					t.Fatalf("64 KiB pread: n=%d err=%v", n, err)
				}
				fillEE(buf)
				if n, err := p.PreadInto(fd, buf[:20<<10], 0); err != nil || n != 20<<10 {
					t.Fatalf("20 KiB pread: n=%d err=%v", n, err)
				}
				if !bytes.Equal(buf[:20<<10], content[:20<<10]) || !allBytes(buf[20<<10:], 0xEE) {
					t.Fatal("20 KiB pread after a 64 KiB one: wrong bytes or written past its end")
				}

				// Write the long call's bytes, then a shorter call's: the
				// file holds the short bytes and then the long ones.
				mustPwrite(t, p, fd, content, 0)
				rewrite := bytes.Repeat([]byte{byte(round)}, 20<<10)
				mustPwrite(t, p, fd, rewrite, 0)
				if n, err := p.PreadInto(fd, buf, 0); err != nil || n != len(buf) {
					t.Fatalf("read back: n=%d err=%v", n, err)
				}
				if !bytes.Equal(buf[:20<<10], rewrite) || !bytes.Equal(buf[20<<10:], content[20<<10:]) {
					t.Fatal("file after a long then a short granted pwrite holds the wrong bytes")
				}
				mustPwrite(t, p, fd, content, 0)
			}
			if got := d.Layer.GrantStats().Calls - before; got != 3*8 {
				t.Fatalf("%d granted calls, want all 24", got)
			}
			for i, n := 0, len(d.Layer.frames); i < n; i++ {
				f := <-d.Layer.frames
				for _, v := range f.resolved[:cap(f.resolved)] {
					if v != nil {
						t.Fatal("an idle frame still holds a resolved view of an app buffer")
					}
				}
				d.Layer.frames <- f
			}
		})
	}
}

// binderBridges are the bridge's paths: the Paper profile's synchronous
// bridge, a session on the synchronous channel, a session over the ring,
// and the Fast profile (ring sessions behind the reply cache).
var binderBridges = []struct {
	name string
	opts Options
}{
	{"paper", Options{}},
	{"session", Options{BinderSessions: true}},
	{"ring", Options{BinderSessions: true, RingDepth: 8}},
	{"fast", Options{AutoTune: true}},
}

// TestRecycledBinderArgShowsOnlyNewBytes: an app's transaction is encoded
// into a buffer its Proc reuses and copied into a recycled call frame
// (DESIGN.md §12). After a 128-byte payload, a 4-byte one shows the
// service exactly its 4 bytes, also through the view's capacity, on a
// CVM service over every bridge and on a host UI service.
func TestRecycledBinderArgShowsOnlyNewBytes(t *testing.T) {
	for _, br := range binderBridges {
		t.Run(br.name, func(t *testing.T) {
			d, p, fd := bootBinderDevice(t, br.opts)
			var seen []byte
			probe := func(_ abi.Cred, _ uint32, data []byte) ([]byte, error) {
				seen = bytes.Clone(data[:cap(data)])
				return []byte("ok"), nil
			}
			if err := registerContainerService(d, "probe", probe); err != nil {
				t.Fatal(err)
			}
			if err := d.Host.Binder().Register("probe-ui", true, probe); err != nil {
				t.Fatal(err)
			}
			long := bytes.Repeat([]byte{'L'}, 128)
			short := []byte("shrt")
			for _, svc := range []string{"probe", "probe-ui"} {
				for round := 0; round < 3; round++ {
					for _, payload := range [][]byte{long, short} {
						seen = nil
						if _, err := p.BinderCall(fd, svc, 1, payload); err != nil {
							t.Fatalf("%s: %v", svc, err)
						}
						if !bytes.Equal(seen, payload) {
							t.Fatalf("%s round %d: service saw %d bytes %q, want %q", svc, round, len(seen), seen[:min(len(seen), 16)], payload[:min(len(payload), 16)])
						}
					}
				}
			}
		})
	}
}

// TestRecycledBinderReplyMatchesItsPayload: two apps, two goroutines
// each, call an echo service in the CVM, declared cacheable on the host,
// at once with varied
// payloads (some of one length and different bytes), through each Proc's
// encode buffer, the recycled frames and the reply cache. Every reply,
// cache hits included, is the payload it was keyed by.
func TestRecycledBinderReplyMatchesItsPayload(t *testing.T) {
	const echoCode = 1
	for _, br := range []struct {
		name string
		opts Options
	}{
		// Concurrent callers share one sim clock, so a slot's span counts
		// the other callers' charges too: the deadline is kept out of it.
		{"paper", Options{BinderReplyCache: true, CallDeadline: time.Hour}},
		{"fast", Options{AutoTune: true, CallDeadline: time.Hour}},
	} {
		t.Run(br.name, func(t *testing.T) {
			d, p1, fd1 := bootBinderDevice(t, br.opts)
			echo := func(_ abi.Cred, _ uint32, data []byte) ([]byte, error) { return bytes.Clone(data), nil }
			if err := registerContainerService(d, "echo", echo); err != nil {
				t.Fatal(err)
			}
			d.Layer.declareCacheable("echo", echoCode)
			p2 := installAndLaunch(t, d, "com.binder.other")
			fd2, err := p2.OpenBinder()
			if err != nil {
				t.Fatal(err)
			}
			payloads := [][]byte{nil, []byte("a"), []byte("b"), []byte("abcd"), []byte("abce"), bytes.Repeat([]byte{7}, 128), bytes.Repeat([]byte{8}, 128)}
			var wg sync.WaitGroup
			for caller := 0; caller < 4; caller++ {
				p, fd := p1, fd1
				if caller%2 == 1 {
					p, fd = p2, fd2
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(32 + caller)))
					for i := 0; i < 100; i++ {
						want := payloads[rng.Intn(len(payloads))]
						got, err := p.BinderCall(fd, "echo", echoCode, want)
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("caller %d call %d: echo of %q returned %q, %v", caller, i, want, got, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if hits := d.BinderStats().ReplyHits; hits < 300 {
				t.Fatalf("%d reply-cache hits in 400 calls", hits)
			}
		})
	}
}
