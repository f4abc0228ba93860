package anception

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
)

// Allocation gates for the copy-once data plane (DESIGN.md §10, frame
// ownership): redirected calls borrow reused frames, decode replies as
// views and land read data straight in the caller's buffer, so the steady
// state of each hot path allocates nothing per call: kernel.Invoke hands
// the interceptor its Args by value, so not even the syscall's arguments
// reach the heap. Raising a ceiling means a per-call buffer crept back in.

// allocGate fails the test if a path allocates more than its ceiling.
func allocGate(t *testing.T, path string, allocs, ceiling float64) {
	t.Helper()
	if allocs > ceiling {
		t.Errorf("%s: %.1f allocs/call, ceiling %.0f", path, allocs, ceiling)
	}
}

// steadyAllocs warms op up, then reports its average allocations.
func steadyAllocs(op func()) float64 {
	for i := 0; i < 50; i++ {
		op()
	}
	return testing.AllocsPerRun(200, op)
}

// pageIOApp boots a device with opts, launches one app and opens a file
// holding one 4 KiB page of pattern bytes.
func pageIOApp(t *testing.T, opts Options) (*Device, *Proc, int, []byte) {
	t.Helper()
	opts.Mode = ModeAnception
	opts.DisableTrace = true
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	p := installAndLaunch(t, d, "com.example.frames")
	fd := mustOpen(t, p, "frames.dat", abi.ORdWr|abi.OCreat)
	page := bytes.Repeat([]byte{0x5A, 0xA5, 0x3C}, int(cachePageSize)/3+1)[:cachePageSize]
	mustPwrite(t, p, fd, page, 0)
	return d, p, fd, page
}

// preadOp reads the page back into a reused buffer and checks it.
func preadOp(t *testing.T, p *Proc, fd int, want []byte) func() {
	buf := make([]byte, len(want))
	return func() {
		clear(buf)
		if n, err := p.PreadInto(fd, buf, 0); err != nil || n != len(want) || !bytes.Equal(buf, want) {
			t.Fatalf("pread: n=%d err=%v", n, err)
		}
	}
}

// TestSyncPageIOAllocs: the Table I path — 4 KiB pread and pwrite over
// the synchronous page channel, no cache.
func TestSyncPageIOAllocs(t *testing.T) {
	_, p, fd, page := pageIOApp(t, Options{})
	allocGate(t, "sync 4 KiB pread", steadyAllocs(preadOp(t, p, fd, page)), 0)
	pwrite := func() {
		if n, err := p.Pwrite(fd, page, 0); err != nil || n != len(page) {
			t.Fatalf("pwrite: n=%d err=%v", n, err)
		}
	}
	allocGate(t, "sync 4 KiB pwrite", steadyAllocs(pwrite), 0)
}

// TestRingPreadAllocs: a 4 KiB pread through the async ring.
func TestRingPreadAllocs(t *testing.T) {
	_, p, fd, page := pageIOApp(t, Options{RingDepth: 8})
	allocGate(t, "ring 4 KiB pread", steadyAllocs(preadOp(t, p, fd, page)), 0)
}

// TestCachedPreadHitAllocs: a redirection-cache hit composes the page
// straight into the caller's buffer.
func TestCachedPreadHitAllocs(t *testing.T) {
	d, p, fd, page := pageIOApp(t, Options{RedirCache: true})
	if _, err := p.Fsync(fd); err != nil { // write the buffered page back
		t.Fatal(err)
	}
	op := preadOp(t, p, fd, page)
	op() // learns the file size and fetches the clean page
	before := d.Layer.Stats().Cache
	allocGate(t, "cached 4 KiB pread hit", steadyAllocs(op), 0)
	if after := d.Layer.Stats().Cache; after.Misses != before.Misses {
		t.Fatalf("steady-state reads missed %d times, want all hits", after.Misses-before.Misses)
	}
}

// TestReadAheadMissAtFullCacheAllocatesNoPage: cycling reads over three
// pages through a two-page cache miss every time; each fetch lands in the
// reused fetch buffer and takes over the LRU victim's page in place, so
// no miss allocates a page.
func TestReadAheadMissAtFullCacheAllocatesNoPage(t *testing.T) {
	d, p, fd, _ := pageIOApp(t, Options{RedirCache: true})
	d.Layer.cache.cfg.readAhead = 1
	d.Layer.cache.cfg.budget = 2 * cachePageSize
	content := make([]byte, 3*cachePageSize)
	for i := range content {
		content[i] = byte(i * 13)
	}
	mustPwrite(t, p, fd, content, 0)
	buf := make([]byte, cachePageSize)
	i := 0
	op := func() {
		off := int64(i%3) * cachePageSize
		i++
		if n, err := p.PreadInto(fd, buf, off); err != nil || n != len(buf) || !bytes.Equal(buf, content[off:off+cachePageSize]) {
			t.Fatalf("pread at %d: n=%d err=%v", off, n, err)
		}
	}
	for w := 0; w < 30; w++ {
		op()
	}
	const calls = 300
	before := d.Layer.Stats().Cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for c := 0; c < calls; c++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	after := d.Layer.Stats().Cache
	if got := after.Misses - before.Misses; got != calls {
		t.Fatalf("%d of %d reads missed, want every read to miss at the full cache", got, calls)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= uint64(cachePageSize) {
		t.Fatalf("read-ahead miss allocates %d B/call: a page is being allocated", per)
	}
	allocGate(t, "read-ahead miss at full cache", steadyAllocs(op), 0)
}

// TestTamperedReplyIsWhatGetsDecoded: the result-tampering hook sees the
// reused reply frame. A hook returning a fresh slice has that slice
// decoded, one rewriting the frame in place has the rewrite decoded, and
// neither leaks into the next honest call.
func TestTamperedReplyIsWhatGetsDecoded(t *testing.T) {
	for _, ring := range []bool{false, true} {
		opts := Options{}
		if ring {
			opts = Options{RingDepth: 8}
		}
		d, p, fd, page := pageIOApp(t, opts)
		honest := preadOp(t, p, fd, page)
		honest()

		// A fresh slice: a well-formed reply with other data. The layer
		// decodes it but must never adopt it as a frame.
		evil := []byte("forged by the container")
		forged := marshal.AppendResult(nil, kernel.Result{Ret: int64(len(evil)), Data: evil})
		pristine := bytes.Clone(forged)
		d.Layer.SetResultTampering(func([]byte) []byte { return forged })
		buf := make([]byte, len(page))
		n, err := p.PreadInto(fd, buf, 0)
		if err != nil || n != len(evil) || !bytes.Equal(buf[:n], evil) {
			t.Fatalf("ring=%v fresh-slice tamper: n=%d err=%v buf=%q", ring, n, err, buf[:min(n, 32)])
		}

		// In place: the frame itself is rewritten to a foreign errno.
		d.Layer.SetResultTampering(func(resp []byte) []byte {
			return marshal.AppendResult(resp[:0], kernel.Result{Ret: -1, Err: abi.EACCES})
		})
		if _, err := p.PreadInto(fd, buf, 0); !errors.Is(err, abi.EACCES) {
			t.Fatalf("ring=%v in-place tamper: err = %v, want EACCES", ring, err)
		}

		d.Layer.SetResultTampering(nil)
		for i := 0; i < 10; i++ {
			honest()
		}
		if !bytes.Equal(forged, pristine) {
			t.Fatal("the layer wrote into the tamper hook's slice")
		}
	}
}

// echoPairOp boots a device with opts and connects a socket to an echo
// peer. The op is one send→recv round; ops counts the rounds run.
func echoPairOp(t *testing.T, opts Options) (d *Device, op func(), ops *int) {
	t.Helper()
	d, _, _, _ = pageIOApp(t, opts)
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	p := installAndLaunch(t, d, "com.example.echoframes")
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "echo:7"); err != nil {
		t.Fatal(err)
	}
	msg, buf := []byte("ping-pong"), make([]byte, 9)
	ops = new(int)
	op = func() {
		*ops++
		if _, err := p.Send(sock, msg); err != nil {
			t.Fatalf("send: %v", err)
		}
		if n, err := p.RecvInto(sock, buf); err != nil || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("recv: %q %v", buf[:n], err)
		}
	}
	return d, op, ops
}

// TestRingEchoPairAllocs: a send→recv pair as two sockop frames through
// the ring makes nothing: the request copy handed to the echo peer, which
// returns it as the reply, is a recycled receive buffer, and the receive
// queue reuses its slots.
func TestRingEchoPairAllocs(t *testing.T) {
	_, op, _ := echoPairOp(t, Options{RingDepth: 8, CallDeadline: time.Hour})
	allocGate(t, "ring echo pair", steadyAllocs(op), 0)
}

// TestRingBinderAllocs: a two-way and a oneway session transaction
// through the ring. The guest handler is bound once per frame and a
// oneway call is served before it returns, so neither builds a closure
// or starts a goroutine; what is left is the transaction's and the
// session frame's encodes and decodes, the service's reply and, for a
// two-way call, the reply's copy out of the frame.
func TestRingBinderAllocs(t *testing.T) {
	_, p, fd := bootBinderDevice(t, Options{BinderSessions: true, RingDepth: 8, CallDeadline: time.Hour, DisableTrace: true})
	allocGate(t, "ring binder two-way", steadyAllocs(func() {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, nil); err != nil {
			t.Fatal(err)
		}
	}), 2)
	allocGate(t, "ring binder oneway", steadyAllocs(func() {
		if err := p.BinderCallAsync(fd, "location", android.CodeGetLocation, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}), 1)
}

// TestPaperBinderBridgeAllocs: a binder call bridged to the CVM on the
// Paper profile's synchronous bridge. The app's transaction is encoded
// into the Proc's buffer, copied once into the call frame and decoded
// there as views, so the one allocation left is the service's reply,
// which goes to the app as it is.
func TestPaperBinderBridgeAllocs(t *testing.T) {
	_, p, fd := bootBinderDevice(t, Options{DisableTrace: true})
	payload := make([]byte, 128)
	allocGate(t, "paper binder bridge", steadyAllocs(func() {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			t.Fatal(err)
		}
	}), 1)
}

// TestBinderReplyHitAllocs: a reply-cache hit is keyed and served from
// the frame's copy; its one allocation is the reply's copy to the app.
func TestBinderReplyHitAllocs(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderReplyCache: true, DisableTrace: true})
	payload := make([]byte, 128)
	before := d.BinderStats().ReplyHits
	allocGate(t, "binder reply-cache hit", steadyAllocs(func() {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			t.Fatal(err)
		}
	}), 1)
	if hits := d.BinderStats().ReplyHits - before; hits < 200 {
		t.Fatalf("%d reply-cache hits: the calls were not served from the cache", hits)
	}
}

// TestProcBinderEncodeAllocs: Proc.BinderCall encodes into a buffer the
// Proc reuses. On a Native device whose service replies with bytes it
// owns, a whole binder call allocates nothing.
func TestProcBinderEncodeAllocs(t *testing.T) {
	d, err := NewDevice(Options{Mode: ModeNative, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	reply := []byte("static")
	if err := d.Host.Binder().Register("static", false, func(abi.Cred, uint32, []byte) ([]byte, error) {
		return reply, nil
	}); err != nil {
		t.Fatal(err)
	}
	p := installAndLaunch(t, d, "com.binder.encode")
	fd, err := p.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	allocGate(t, "proc binder encode", steadyAllocs(func() {
		if _, err := p.BinderCall(fd, "static", 1, payload); err != nil {
			t.Fatal(err)
		}
	}), 0)
}

// TestSpeculatedEchoPairAllocs: a send→recv pair the fusion detector
// speculates on an AutoTune device. The fused chain builds, encodes,
// decodes and executes its links in the call frame's chain scratch, its
// results land in storage the speculation owns and the recv bytes in the
// descriptor's recycled sticky buffer, so like the ring pair it makes
// nothing.
func TestSpeculatedEchoPairAllocs(t *testing.T) {
	d, op, ops := echoPairOp(t, Options{AutoTune: true, CallDeadline: time.Hour})
	for i := 0; i < fuseConfidence; i++ { // the detector learns the pair
		op()
	}
	before, warm := d.Layer.Stats().Fusion, *ops
	allocs := steadyAllocs(op)
	if chains := d.Layer.Stats().Fusion.Chains - before.Chains; chains != int64(*ops-warm) {
		t.Fatalf("%d fused chains over %d pairs: not every pair was speculated", chains, *ops-warm)
	}
	allocGate(t, "speculated echo pair", allocs, 0)
}

// TestExplicitChainAllocs: an explicit open→fstat→pread→close chain
// through Proc.Chain on the fused ring path. The open's path is joined,
// walked and decoded without a copy, both kernels hold the descriptor's
// entry by value, and the fstat's kind tag is a view of vfs's letter
// table on both sides; what is left is the returned result vector and
// the guest kernel's open file.
func TestExplicitChainAllocs(t *testing.T) {
	d, p, _, page := pageIOApp(t, Options{RingDepth: 64, FusionEnable: true, CallDeadline: time.Hour})
	buf := make([]byte, len(page))
	chain := openStatReadCloseChain("frames.dat", buf)
	ops := 0
	op := func() {
		ops++
		clear(buf)
		res := p.Chain(chain...)
		if !res[3].Ok() || !bytes.Equal(buf, page) {
			t.Fatalf("chain: %+v", res)
		}
	}
	before := d.Layer.Stats().Fusion
	allocs := steadyAllocs(op)
	if chains := d.Layer.Stats().Fusion.Chains - before.Chains; chains != int64(ops) {
		t.Fatalf("%d fused submissions for %d explicit chains", chains, ops)
	}
	allocGate(t, "explicit 4-link chain", allocs, 2)
}

// grantAllocConfigs are the grant path's transports: the synchronous
// channel, the ring, and the Fast profile (ring, cache and fusion on).
var grantAllocConfigs = []struct {
	name string
	opts Options
}{
	{"sync", Options{GrantThreshold: 16 << 10, CallDeadline: time.Hour}},
	{"ring", Options{GrantThreshold: 16 << 10, RingDepth: 8, CallDeadline: time.Hour}},
	{"fast", Options{AutoTune: true, CallDeadline: time.Hour}},
}

// grantAllocGate runs op as a steady-state gate and checks that every
// call it made took the grant path.
func grantAllocGate(t *testing.T, d *Device, path string, op func()) {
	t.Helper()
	before, ops := d.Layer.GrantStats().Calls, 0
	allocs := steadyAllocs(func() { ops++; op() })
	if got := d.Layer.GrantStats().Calls - before; got != ops {
		t.Fatalf("%s: %d granted calls over %d ops", path, got, ops)
	}
	allocGate(t, path, allocs, 0)
}

// TestGrantPwriteAllocs: a 64 KiB pwrite by reference. The frame owns
// the refs and the descriptor, the guest decodes into the frame's
// decoder and runs the frame's bound handler on views it keeps, and the
// table holds its entries by value.
func TestGrantPwriteAllocs(t *testing.T) {
	for _, c := range grantAllocConfigs {
		d, p, fd, _ := pageIOApp(t, c.opts)
		bulk := bytes.Repeat([]byte{0xC3, 0x3C}, 32<<10)
		grantAllocGate(t, d, c.name+" 64 KiB granted pwrite", func() {
			if n, err := p.Pwrite(fd, bulk, 0); err != nil || n != len(bulk) {
				t.Fatalf("pwrite: n=%d err=%v", n, err)
			}
		})
	}
}

// TestGrantPreadAllocs: a 64 KiB pread by reference lands in the pinned
// app buffer.
func TestGrantPreadAllocs(t *testing.T) {
	for _, c := range grantAllocConfigs {
		d, p, fd, _ := pageIOApp(t, c.opts)
		bulk := bytes.Repeat([]byte{0x96, 0x69}, 32<<10)
		mustPwrite(t, p, fd, bulk, 0)
		grantAllocGate(t, d, c.name+" 64 KiB granted pread", preadOp(t, p, fd, bulk))
	}
}

// TestEpollWaitAllocs: an epoll_wait over the ring that finds sockets
// ready. The guest appends the ready descriptors into the frame's
// scratch and the reply's list lands in the caller's buffer, where the
// host translates it in place, so a call with a buffer makes nothing;
// through Proc.EpollWait the one allocation is the app's []int.
func TestEpollWaitAllocs(t *testing.T) {
	d, _, _, _ := pageIOApp(t, Options{RingDepth: 8, CallDeadline: time.Hour})
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	p := installAndLaunch(t, d, "com.example.epollframes")
	epfd, err := p.EpollCreate()
	if err != nil {
		t.Fatal(err)
	}
	var socks []int
	for i := 0; i < 3; i++ {
		sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Connect(sock, "echo:7"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Send(sock, []byte("ready")); err != nil { // the echo stays queued
			t.Fatal(err)
		}
		if err := p.EpollCtl(epfd, kernel.EpollCtlAdd, sock); err != nil {
			t.Fatal(err)
		}
		socks = append(socks, sock)
	}
	buf := make([]byte, 4*DefaultNetBatch)
	wait := func() {
		res := p.Syscall(kernel.Args{Nr: abi.SysEpollWait, FD: epfd, Buf: buf})
		if !res.Ok() || res.Ret != int64(len(socks)) || &res.Data[0] != &buf[0] {
			t.Fatalf("epoll_wait: %+v", res)
		}
		for i, sock := range socks {
			if got := abi.FDAt(res.Data, i); got != sock {
				t.Fatalf("ready fd %d is %d, want %d", i, got, sock)
			}
		}
	}
	allocGate(t, "epoll_wait with 3 ready into a caller buffer", steadyAllocs(wait), 0)
	allocGate(t, "Proc.EpollWait with 3 ready", steadyAllocs(func() {
		if ready, err := p.EpollWait(epfd, 0); err != nil || !slices.Equal(ready, socks) {
			t.Fatalf("EpollWait: %v %v", ready, err)
		}
	}), 1)
}
