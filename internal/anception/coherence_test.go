package anception

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/vfs"
)

// Transparency tests for the file-keyed redirection cache (DESIGN.md §9):
// each scenario runs on stock Android (Native), the paper's data plane
// (Paper, no cache) and the Fast profile (cache, ring, grants), and what
// the apps see must agree. Cache-internal expectations (hits, misses,
// read-ahead) are checked on the Fast profile only.

// profiles are the three configurations an app must not tell apart.
var profiles = []struct {
	name string
	opts Options
}{
	{"native", Options{Mode: ModeNative}},
	{"paper", Options{}},
	{"fast", Options{AutoTune: true}},
}

// acrossProfiles runs scenario on every profile and fails unless each
// profile's observations equal Native's.
func acrossProfiles(t *testing.T, scenario func(t *testing.T, d *Device) []string) {
	t.Helper()
	var want []string
	for _, prof := range profiles {
		d, err := NewDevice(prof.opts)
		if err != nil {
			t.Fatal(err)
		}
		got := scenario(t, d)
		d.Close()
		if want == nil {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s sees %q, native sees %q", prof.name, got, want)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func fstatSize(p *Proc, fd int) int64 { return p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd}).Ret }

// residentPages counts the cached pages of the file behind a descriptor.
func residentPages(d *Device, p *Proc, fd int) int {
	c := d.Layer.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fds[lookupFD(p.Task, fd).key].file.pages)
}

// TestAttrCacheIsPerUID: an attribute another app's stat or access put in
// the cache is never served to a caller the guest would refuse.
func TestAttrCacheIsPerUID(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		a := installAndLaunch(t, d, "com.probe.a")
		b := installAndLaunch(t, d, "com.probe.b")
		const secret = "/data/data/com.probe.a/secret.dat"
		fd := mustOpen(t, a, secret, abi.ORdWr|abi.OCreat)
		mustPwrite(t, a, fd, []byte("12345"), 0)
		if err := a.Close(fd); err != nil {
			t.Fatal(err)
		}
		// The owner warms the attribute cache.
		if size, err := a.Stat(secret); err != nil || size != 5 {
			t.Fatalf("owner stat: size=%d err=%v", size, err)
		}
		if err := a.Access(secret, abi.AccessRead); err != nil {
			t.Fatalf("owner access: %v", err)
		}
		size, statErr := b.Stat(secret)
		accessErr := b.Access(secret, abi.AccessRead)
		if !errors.Is(statErr, abi.EACCES) || !errors.Is(accessErr, abi.EACCES) {
			t.Errorf("other app: stat size=%d err=%v, access err=%v; want EACCES for both", size, statErr, accessErr)
		}
		return []string{errString(statErr), errString(accessErr)}
	})
}

// TestCacheCoherenceAcrossDescriptors: a write through one descriptor is
// what fstat and pread through another descriptor of the same file see,
// whether or not the writer has closed (ROADMAP item 10's probe).
func TestCacheCoherenceAcrossDescriptors(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, "com.probe.coherence")
		fdA := mustOpen(t, p, "shared.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, fdA, bytes.Repeat([]byte{'o'}, 512), 0)
		mustPread(t, p, fdA, 512, 0)
		fdB := mustOpen(t, p, "shared.dat", abi.ORdWr)
		fresh := pattern(1024, 9)
		mustPwrite(t, p, fdB, fresh, 0)

		var obs []string
		look := func(when string) {
			size := fstatSize(p, fdA)
			got := mustPread(t, p, fdA, 1024, 0)
			if size != 1024 || !bytes.Equal(got, fresh) {
				t.Errorf("%s: fstat=%d, pread got %d bytes, fresh=%v; want 1024 fresh bytes",
					when, size, len(got), bytes.Equal(got, fresh))
			}
			obs = append(obs, fmt.Sprintf("%s size=%d data=%x", when, size, got[:16]))
		}
		look("before close(B)")
		if err := p.Close(fdB); err != nil {
			t.Fatal(err)
		}
		look("after close(B)")
		return obs
	})
}

// TestCacheCoherenceStaysInFile: a granted write drops the pages of the
// file it wrote and of no other. Another app's granted write to its own
// file — at the same guest fd number in its own proxy — leaves this
// app's cached pages resident, while a granted write through a second
// descriptor of the same file drops what the first descriptor cached.
func TestCacheCoherenceStaysInFile(t *testing.T) {
	const pages = 16 // 64 KiB: a granted write under the Fast profile
	bulk := int(pages * cachePageSize)
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		fast := d.Layer != nil && d.Layer.cache != nil
		apps := [2]*Proc{installAndLaunch(t, d, "com.probe.inv0"), installAndLaunch(t, d, "com.probe.inv1")}
		var fds [2]int
		for i, p := range apps {
			fds[i] = mustOpen(t, p, "own.dat", abi.ORdWr|abi.OCreat)
			mustPwrite(t, p, fds[i], pattern(bulk, byte(i)), 0)
		}
		if fast && lookupFD(apps[0].Task, fds[0]).GuestFD != lookupFD(apps[1].Task, fds[1]).GuestFD {
			t.Fatal("both apps' files must share a guest fd number for this probe")
		}
		var obs []string
		readAll := func(p *Proc, fd int, what string) {
			got := make([]byte, 0, bulk)
			for pg := int64(0); pg < pages; pg++ {
				got = append(got, mustPread(t, p, fd, int(cachePageSize), pg*cachePageSize)...)
			}
			obs = append(obs, fmt.Sprintf("%s %x", what, got[len(got)-8:]))
		}
		readAll(apps[0], fds[0], "app0 warm")
		var before CacheStats
		if fast {
			before = d.Layer.Stats().Cache
		}
		mustPwrite(t, apps[1], fds[1], pattern(bulk, 7), 0)
		readAll(apps[0], fds[0], "app0 after app1's write")
		if fast {
			after := d.Layer.Stats()
			if after.Grants.Calls == 0 {
				t.Fatal("the 64 KiB pwrite did not take the grant path")
			}
			if miss := after.Cache.Misses - before.Misses; miss != 0 {
				t.Errorf("app 0's re-read missed %d times after app 1 wrote its own file", miss)
			}
		}

		fdB := mustOpen(t, apps[0], "own.dat", abi.ORdWr)
		fresh := pattern(bulk, 42)
		mustPwrite(t, apps[0], fdB, fresh, 0)
		if fast && residentPages(d, apps[0], fds[0]) != 0 {
			t.Error("a granted write through B left pages cached through A resident")
		}
		if got := mustPread(t, apps[0], fds[0], bulk, 0); !bytes.Equal(got, fresh) {
			t.Error("A reads stale bytes after a granted write through B")
		}
		readAll(apps[0], fds[0], "A after B's write")
		return obs
	})
}

// TestCacheReadAheadOnlySequential: a random-offset miss fetches exactly
// the pages it spans in one pread; a scan that starts at offset k earns
// the read-ahead window on its second read, and the window then serves
// the scan from host memory.
func TestCacheReadAheadOnlySequential(t *testing.T) {
	const pages = 64
	content := pattern(pages*int(cachePageSize), 3)
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		fast := d.Layer != nil && d.Layer.cache != nil
		p := installAndLaunch(t, d, "com.probe.readahead")
		fd := mustOpen(t, p, "ra.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, fd, content, 0)
		if _, err := p.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		var obs []string
		read := func(off int64, n int) {
			got := mustPread(t, p, fd, n, off)
			if !bytes.Equal(got, content[off:off+int64(n)]) {
				t.Errorf("pread(%d, %d) returned wrong bytes", n, off)
			}
			obs = append(obs, fmt.Sprintf("%d+%d %x", off, n, got[:4]))
		}
		read(40*cachePageSize, 100) // first miss also learns the size

		// Random misses, one unaligned across a page boundary.
		type step struct {
			off   int64
			n     int
			pages int
		}
		for _, s := range []step{
			{7 * cachePageSize, int(cachePageSize), 1},
			{23*cachePageSize + 64, 512, 1},
			{31*cachePageSize - 100, int(cachePageSize), 2},
			{50 * cachePageSize, 2 * int(cachePageSize), 2},
		} {
			var before LayerStats
			var resident int
			if fast {
				before, resident = d.Layer.Stats(), residentPages(d, p, fd)
			}
			read(s.off, s.n)
			if !fast {
				continue
			}
			after := d.Layer.Stats()
			if after.Cache.ReadAheadPages != before.Cache.ReadAheadPages {
				t.Errorf("random miss at %d read ahead %d pages", s.off, after.Cache.ReadAheadPages-before.Cache.ReadAheadPages)
			}
			if got := after.Redirected - before.Redirected; got != 1 {
				t.Errorf("random miss at %d forwarded %d calls, want one pread", s.off, got)
			}
			if got := residentPages(d, p, fd) - resident; got != s.pages {
				t.Errorf("random miss at %d fetched %d pages, want the %d it spans", s.off, got, s.pages)
			}
		}

		// A scan from page 10: exact fetch, then the window, then hits.
		var before CacheStats
		if fast {
			before = d.Layer.Stats().Cache
		}
		for pg := int64(10); pg < 10+DefaultReadAheadPages+1; pg++ {
			read(pg*cachePageSize, int(cachePageSize))
		}
		if fast {
			after := d.Layer.Stats().Cache
			if got := after.Misses - before.Misses; got != 2 {
				t.Errorf("scan from page 10 missed %d times, want 2", got)
			}
			if got := after.ReadAheadPages - before.ReadAheadPages; got != DefaultReadAheadPages-1 {
				t.Errorf("scan read ahead %d pages, want %d on its second read", got, DefaultReadAheadPages-1)
			}
		}
		return obs
	})
}

// TestCacheCoherenceSendfileAndMmap: calls the guest serves straight from
// the file — a file-to-file sendfile, a file mapping — see what a
// descriptor buffered, and a sendfile into a file drops its cached pages.
func TestCacheCoherenceSendfileAndMmap(t *testing.T) {
	src := pattern(int(cachePageSize), 5)
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, "com.probe.around")
		in := mustOpen(t, p, "src.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, in, src, 0)
		out := mustOpen(t, p, "dst.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, out, make([]byte, len(src)), 0)
		if _, err := p.Fsync(out); err != nil {
			t.Fatal(err)
		}
		mustPread(t, p, out, len(src), 0) // cache the zeros

		n, err := p.Sendfile(out, in, len(src))
		if err != nil || n != len(src) {
			t.Fatalf("sendfile: n=%d err=%v, want %d", n, err, len(src))
		}
		got := mustPread(t, p, out, len(src), 0)
		if !bytes.Equal(got, src) {
			t.Error("the sendfile target reads stale bytes")
		}
		mustPwrite(t, p, in, []byte("mapped"), 0)
		addr, err := p.MapFD(in, 1, kernel.ProtRead)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := p.Peek(addr, 6)
		if err != nil || string(mapped) != "mapped" {
			t.Errorf("mapping shows %q (err %v), want the buffered write", mapped, err)
		}
		return []string{fmt.Sprintf("sent=%d %x", n, got[:8]), string(mapped)}
	})
}

// TestCacheCoherenceRenameLinkUnlink: the cache follows a file across
// rename and hard link and lets go of an unlinked name — a file created
// later under an old name never shares the moved file's pages.
func TestCacheCoherenceRenameLinkUnlink(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, "com.probe.names")
		var obs []string
		look := func(what string, fd int) {
			obs = append(obs, fmt.Sprintf("%s %q", what, mustPread(t, p, fd, 8, 0)))
		}
		a := mustOpen(t, p, "old.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, a, []byte("aaaaaaaa"), 0)
		look("A", a)
		if err := p.Rename("old.dat", "new.dat"); err != nil {
			t.Fatal(err)
		}
		c := mustOpen(t, p, "old.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, c, []byte("cccccccc"), 0)
		look("C at the old name", c)
		look("A after rename", a)
		dd := mustOpen(t, p, "new.dat", abi.ORdWr)
		mustPwrite(t, p, dd, []byte("dd"), 0)
		look("A after a write under the new name", a)

		if res := p.Syscall(kernel.Args{Nr: abi.SysLink, Path: "old.dat", Path2: "lnk.dat"}); !res.Ok() {
			t.Fatalf("link: %v", res.Err)
		}
		e := mustOpen(t, p, "lnk.dat", abi.ORdWr)
		mustPwrite(t, p, e, []byte("ee"), 2)
		look("C after a write through the link", c)

		// A rename onto itself changes nothing, the cache's binding
		// included: a descriptor opened under the name afterwards shares
		// C's file.
		if err := p.Rename("old.dat", "old.dat"); err != nil {
			t.Fatal(err)
		}
		g := mustOpen(t, p, "old.dat", abi.ORdWr)
		mustPwrite(t, p, g, []byte("gg"), 4)
		look("C after a write through a name renamed onto itself", c)

		if err := p.Unlink("new.dat"); err != nil {
			t.Fatal(err)
		}
		look("A after unlink", a)
		f := mustOpen(t, p, "new.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, f, []byte("ff"), 0)
		look("a new file under the unlinked name", f)
		look("A beside it", a)
		return obs
	})
}

// TestCacheCoherenceAccessMode: pages another descriptor or app cached
// are never served through a descriptor that cannot read, and a
// descriptor that cannot write buffers nothing. A UID that may only
// write a file (mode 0622), a write-only descriptor, its dup and a
// creat(2) descriptor all get EBADF from pread; a read-only descriptor
// gets EBADF from pwrite.
func TestCacheCoherenceAccessMode(t *testing.T) {
	const shared = "/sdcard/wo.dat"
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		a := installAndLaunch(t, d, "com.probe.owner")
		b := installAndLaunch(t, d, "com.probe.writer")
		a.Umask(0)
		fd, err := a.Open(shared, abi.ORdWr|abi.OCreat, 0o622)
		if err != nil {
			t.Fatal(err)
		}
		mustPwrite(t, a, fd, []byte("top secret"), 0)
		if _, err := a.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		mustPread(t, a, fd, 10, 0) // the owner caches the page
		if d.Layer != nil && d.Layer.cache != nil && residentPages(d, a, fd) == 0 {
			t.Fatal("the owner's read must leave the page cached for this probe")
		}

		var obs []string
		preadErr := func(who string, p *Proc, fd int) {
			got, err := p.Pread(fd, 10, 0)
			if !errors.Is(err, abi.EBADF) {
				t.Errorf("%s: pread returned %q (err %v), want EBADF", who, got, err)
			}
			obs = append(obs, who+" pread: "+errString(err))
		}
		bw, err := b.Open(shared, abi.OWrOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		preadErr("write-only app", b, bw)
		mustPwrite(t, b, bw, []byte("TOP"), 0)

		aw := mustOpen(t, a, shared, abi.OWrOnly)
		preadErr("write-only descriptor", a, aw)
		dup := a.Syscall(kernel.Args{Nr: abi.SysDup, FD: aw})
		if !dup.Ok() {
			t.Fatal(dup.Err)
		}
		preadErr("its dup", a, dup.FD)
		cr := a.Syscall(kernel.Args{Nr: abi.SysCreat, Path: "/sdcard/creat.dat", Mode: 0o600})
		if !cr.Ok() {
			t.Fatal(cr.Err)
		}
		preadErr("creat descriptor", a, cr.FD)

		ar := mustOpen(t, a, shared, abi.ORdOnly)
		if _, err := a.Pwrite(ar, []byte("x"), 0); !errors.Is(err, abi.EBADF) {
			t.Errorf("read-only descriptor: pwrite err %v, want EBADF", err)
		}
		if err := b.Close(bw); err != nil {
			t.Fatal(err)
		}
		got := mustPread(t, a, ar, 10, 0)
		return append(obs, fmt.Sprintf("owner reads %q", got))
	})
}

// TestCacheCoherenceDeferredWriteBackError: when another descriptor's
// call writes back what descriptor B buffered and the guest refuses it,
// B's next fsync reports the error once, and so does B's close.
func TestCacheCoherenceDeferredWriteBackError(t *testing.T) {
	d, p := bootCachedDevice(t, nil)
	fdA := mustOpen(t, p, "wb.dat", abi.ORdWr|abi.OCreat)
	mustPwrite(t, p, fdA, []byte("aaaa"), 0)
	if _, err := p.Fsync(fdA); err != nil {
		t.Fatal(err)
	}
	fdB := mustOpen(t, p, "wb.dat", abi.ORdWr)
	// Stand in for a write-back the guest refuses: B's flushes go to a
	// read-only guest descriptor, so they fail with EBADF.
	ro := mustOpen(t, p, "ro.dat", abi.ORdOnly|abi.OCreat)
	c := d.Layer.cache
	c.mu.Lock()
	c.fds[lookupFD(p.Task, fdB).key].guestFD = lookupFD(p.Task, ro).GuestFD
	c.mu.Unlock()

	failB := func() {
		t.Helper()
		mustPwrite(t, p, fdB, []byte("bb"), 0)
		// A's read writes back B's buffer first; the failure is B's.
		if got := mustPread(t, p, fdA, 4, 0); string(got) != "aaaa" {
			t.Fatalf("A reads %q, want the bytes the guest holds", got)
		}
	}
	failB()
	if _, err := p.Fsync(fdB); !errors.Is(err, abi.EBADF) {
		t.Errorf("B's fsync after its failed write-back: err %v, want EBADF", err)
	}
	if _, err := p.Fsync(fdB); err != nil {
		t.Errorf("B's second fsync: err %v, want the error reported once", err)
	}
	failB()
	if err := p.Close(fdB); !errors.Is(err, abi.EBADF) {
		t.Errorf("B's close after its failed write-back: err %v, want EBADF", err)
	}
}

// readProcFile reads a procfs file through the app.
func readProcFile(t *testing.T, p *Proc, name string) string {
	t.Helper()
	fd := mustOpen(t, p, name, abi.ORdOnly)
	defer p.Close(fd)
	return string(mustPread(t, p, fd, 4096, 0))
}

// TestCacheCoherenceSpecialFileWrite: a write to a procfs file takes
// effect, or fails, at the call, not at close: the cache binds regular
// files only. The write patches the task /proc/self names — the app on
// Native, its proxy in the CVM otherwise — and the test reads that
// task's memory directly, around every cache.
func TestCacheCoherenceSpecialFileWrite(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, "com.probe.procmem")
		var pid int
		for _, line := range strings.Split(readProcFile(t, p, "/proc/self/status"), "\n") {
			fmt.Sscanf(line, "Pid:\t%d", &pid)
		}
		var addr, end uint64
		var prot string
		for _, line := range strings.Split(readProcFile(t, p, "/proc/self/maps"), "\n") {
			if _, err := fmt.Sscanf(line, "%x-%x %s", &addr, &end, &prot); err == nil && strings.HasPrefix(prot, "rw") {
				break
			}
		}
		k := d.Guest
		if d.Opts.Mode == ModeNative {
			k = d.Host
		}
		target := k.Task(pid)
		if target == nil || prot[:2] != "rw" {
			t.Fatalf("no writable mapping for /proc/self (pid %d)", pid)
		}

		fd := mustOpen(t, p, "/proc/self/mem", abi.ORdWr)
		payload := []byte("patched!")
		_, werr := p.Pwrite(fd, payload, int64(addr))
		mem, _ := target.AS.ReadBytes(k.Region(), addr, len(payload))
		_, uerr := p.Pwrite(fd, payload, 0x10)
		cerr := p.Close(fd)
		return []string{
			"write: " + errString(werr),
			fmt.Sprintf("visible before close: %v", bytes.Equal(mem, payload)),
			"unmapped write: " + errString(uerr),
			"close: " + errString(cerr),
		}
	})
}

// probeDev is a character device that records every write as it arrives.
type probeDev struct {
	mu  sync.Mutex
	got []byte
}

func (d *probeDev) DevName() string                                { return "probe" }
func (d *probeDev) Read(vfs.Cred, []byte, int64) (int, error)      { return 0, nil }
func (d *probeDev) Ioctl(vfs.Cred, uint32, []byte) ([]byte, error) { return nil, abi.EINVAL }

func (d *probeDev) Write(_ vfs.Cred, p []byte, _ int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.got = append(d.got, p...)
	return len(p), nil
}

func (d *probeDev) written() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return string(d.got)
}

// mknodProbe creates a world-writable probe device at p on k.
func mknodProbe(t *testing.T, k *kernel.Kernel, p string) *probeDev {
	t.Helper()
	dev := &probeDev{}
	if err := k.FS().Mknod(abi.Cred{UID: abi.UIDRoot}, p, 0o666, dev); err != nil {
		t.Fatalf("mknod %s: %v", p, err)
	}
	return dev
}

// TestCacheCoherenceDeviceThroughSymlink: a write to a device node opened
// through a symlink in the app's data directory drives the device at the
// call. The path the app opened names no device; the file behind it does,
// so the cache must go by what the container opened, not by the path.
func TestCacheCoherenceDeviceThroughSymlink(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		k := d.Guest
		if d.Opts.Mode == ModeNative {
			k = d.Host
		}
		dev := mknodProbe(t, k, "/dev/probe")
		p := installAndLaunch(t, d, "com.probe.devlink")
		if res := p.Syscall(kernel.Args{Nr: abi.SysSymlink, Path: "/dev/probe", Path2: "devlink"}); !res.Ok() {
			t.Fatalf("symlink: %v", res.Err)
		}
		fd := mustOpen(t, p, "devlink", abi.ORdWr)
		_, werr := p.Pwrite(fd, []byte("drive!"), 0)
		before := dev.written()
		cerr := p.Close(fd)
		return []string{
			"write: " + errString(werr),
			"device before close: " + before,
			"close: " + errString(cerr),
			"device after close: " + dev.written(),
		}
	})
}

// TestClosedDescriptorReachesNoOtherFile: one goroutine of an app preads
// through a descriptor while another closes it and opens a different
// file, on Native, Paper and Fast. The reader sees the old file's bytes
// or EBADF, never the new file's: a copy of a descriptor entry held
// across the close names a descriptor that is gone (DESIGN.md §7).
func TestClosedDescriptorReachesNoOtherFile(t *testing.T) {
	for _, prof := range profiles {
		t.Run(prof.name, func(t *testing.T) {
			opts := prof.opts
			// The two goroutines share the sim clock, so a call's span
			// counts the other's charges: the deadline stays out of it.
			opts.CallDeadline = time.Hour
			d, err := NewDevice(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			p := installAndLaunch(t, d, "com.example.closerace")
			oldData, newData := bytes.Repeat([]byte("o"), 512), bytes.Repeat([]byte("n"), 512)
			seedGuestFile(t, p, "old.dat", oldData)
			seedGuestFile(t, p, "new.dat", newData)
			for round := 0; round < 20; round++ {
				fd := mustOpen(t, p, "old.dat", abi.ORdOnly)
				var wg sync.WaitGroup
				wg.Add(1)
				reading := make(chan struct{})
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						if i == 1 {
							close(reading) // one read landed: close under the next
						}
						got, err := p.Pread(fd, len(oldData), 0)
						if err != nil {
							if i == 0 || !errors.Is(err, abi.EBADF) {
								t.Errorf("round %d: read %d racing the close: %v, want EBADF after the first", round, i, err)
							}
							if i == 0 {
								close(reading)
							}
							return
						}
						if !bytes.Equal(got, oldData) {
							t.Errorf("round %d: read racing the close returned %q, want the old file's bytes", round, got[:min(len(got), 8)])
							return
						}
					}
				}()
				<-reading
				if err := p.Close(fd); err != nil {
					t.Fatal(err)
				}
				nfd := mustOpen(t, p, "new.dat", abi.ORdOnly)
				wg.Wait()
				if got := mustPread(t, p, nfd, len(newData), 0); !bytes.Equal(got, newData) {
					t.Fatalf("round %d: new file reads %q", round, got[:min(len(got), 8)])
				}
				if err := p.Close(nfd); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
