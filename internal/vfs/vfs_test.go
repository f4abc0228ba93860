package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"anception/internal/abi"
)

var (
	root  = Cred{UID: abi.UIDRoot}
	app   = Cred{UID: abi.UIDAppBase, GID: abi.UIDAppBase}
	other = Cred{UID: abi.UIDAppBase + 1, GID: abi.UIDAppBase + 1}
)

func newTestFS(t *testing.T) *FileSystem {
	t.Helper()
	fs := New()
	for _, d := range []string{"/system", "/system/bin", "/data", "/data/data", "/dev", "/proc"} {
		if err := fs.Mkdir(root, d, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	return fs
}

func TestMkdirAndStat(t *testing.T) {
	fs := newTestFS(t)
	st, err := fs.StatPath(root, "/data/data")
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != TypeDir {
		t.Fatalf("type = %v, want dir", st.Type)
	}
	if st.Nlink < 2 {
		t.Fatalf("dir nlink = %d, want >= 2", st.Nlink)
	}
}

func TestMkdirMissingParent(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Mkdir(root, "/no/such/parent", 0o755); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("err = %v, want ENOENT", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	data := []byte("hello, container")
	if err := fs.WriteFile(root, "/data/x.txt", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(root, "/data/x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestOpenCreateExcl(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Open(root, "/data/f", abi.OWrOnly|abi.OCreat|abi.OExcl, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(root, "/data/f", abi.OWrOnly|abi.OCreat|abi.OExcl, 0o600); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("second O_EXCL open: err = %v, want EEXIST", err)
	}
}

func TestOpenNonexistentWithoutCreate(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Open(root, "/data/missing", abi.ORdOnly, 0); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("err = %v, want ENOENT", err)
	}
}

func TestPermissionDeniedForOtherUID(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Mkdir(root, "/data/data/com.bank", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/data/com.bank", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/data/data/com.bank/secret", []byte("pin"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/data/com.bank/secret", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}

	// The owning app can read its file.
	if _, err := fs.Open(app, "/data/data/com.bank/secret", abi.ORdOnly, 0); err != nil {
		t.Fatalf("owner open: %v", err)
	}
	// A different app UID cannot even traverse the 0700 directory.
	if _, err := fs.Open(other, "/data/data/com.bank/secret", abi.ORdOnly, 0); !errors.Is(err, abi.EACCES) {
		t.Fatalf("other open: err = %v, want EACCES", err)
	}
	// Root bypasses everything.
	if _, err := fs.Open(root, "/data/data/com.bank/secret", abi.ORdOnly, 0); err != nil {
		t.Fatalf("root open: %v", err)
	}
}

func TestReadOnlyMount(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/system/bin/vold", []byte("ELF"), 0o755); err != nil {
		t.Fatal(err)
	}
	fs.MountReadOnly("/system")

	if err := fs.WriteFile(root, "/system/bin/evil", []byte("x"), 0o755); !errors.Is(err, abi.EROFS) {
		t.Fatalf("create on ro mount: err = %v, want EROFS", err)
	}
	if _, err := fs.Open(root, "/system/bin/vold", abi.OWrOnly, 0); !errors.Is(err, abi.EROFS) {
		t.Fatalf("open-for-write on ro mount: err = %v, want EROFS", err)
	}
	if err := fs.Unlink(root, "/system/bin/vold"); !errors.Is(err, abi.EROFS) {
		t.Fatalf("unlink on ro mount: err = %v, want EROFS", err)
	}
	if err := fs.Rename(root, "/system/bin/vold", "/data/vold"); !errors.Is(err, abi.EROFS) {
		t.Fatalf("rename off ro mount: err = %v, want EROFS", err)
	}
	// Reading still works.
	if _, err := fs.ReadFile(root, "/system/bin/vold"); err != nil {
		t.Fatalf("read on ro mount: %v", err)
	}
}

func TestSeekAndAppend(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/log", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if pos, err := f.Seek(2, abi.SeekSet); err != nil || pos != 2 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 2)
	if _, err := f.Read(buf); err != nil || string(buf) != "cd" {
		t.Fatalf("Read after seek = %q, %v", buf, err)
	}
	if pos, err := f.Seek(-1, abi.SeekEnd); err != nil || pos != 5 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if _, err := f.Seek(-100, abi.SeekCur); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("negative seek: %v, want EINVAL", err)
	}

	g, err := fs.Open(root, "/data/log", abi.OWrOnly|abi.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile(root, "/data/log")
	if string(data) != "abcdefXY" {
		t.Fatalf("append result = %q", data)
	}
}

func TestTruncateGrowAndShrink(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/t", []byte("123456"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(root, "/data/t", 3); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.ReadFile(root, "/data/t"); string(d) != "123" {
		t.Fatalf("after shrink: %q", d)
	}
	if err := fs.Truncate(root, "/data/t", 5); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.ReadFile(root, "/data/t"); !bytes.Equal(d, []byte{'1', '2', '3', 0, 0}) {
		t.Fatalf("after grow: %v", d)
	}
}

func TestUnlinkAndRmdir(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, "/data"); !errors.Is(err, abi.EBUSY) {
		t.Fatalf("rmdir non-empty: %v, want EBUSY", err)
	}
	if err := fs.Unlink(root, "/data"); !errors.Is(err, abi.EISDIR) {
		t.Fatalf("unlink dir: %v, want EISDIR", err)
	}
	if err := fs.Unlink(root, "/data/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StatPath(root, "/data/f"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if err := fs.Mkdir(root, "/data/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, "/data/sub"); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/a", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(root, "/data/a", "/data/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StatPath(root, "/data/a"); !errors.Is(err, abi.ENOENT) {
		t.Fatal("old name still present")
	}
	if d, err := fs.ReadFile(root, "/data/b"); err != nil || string(d) != "payload" {
		t.Fatalf("read new name: %q, %v", d, err)
	}
}

func TestSymlinkResolution(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/real", []byte("via link"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/data/real", "/data/link"); err != nil {
		t.Fatal(err)
	}
	if d, err := fs.ReadFile(root, "/data/link"); err != nil || string(d) != "via link" {
		t.Fatalf("read through symlink: %q, %v", d, err)
	}
	if tgt, err := fs.Readlink(root, "/data/link"); err != nil || tgt != "/data/real" {
		t.Fatalf("readlink = %q, %v", tgt, err)
	}
	st, err := fs.LstatPath(root, "/data/link")
	if err != nil || st.Type != TypeSymlink {
		t.Fatalf("lstat = %+v, %v", st, err)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Symlink(root, "/data/l2", "/data/l1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/data/l1", "/data/l2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(root, "/data/l1"); !errors.Is(err, abi.ELOOP) {
		t.Fatalf("err = %v, want ELOOP", err)
	}
}

func TestRelativeSymlinkTarget(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/real", []byte("rel"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "real", "/data/rl"); err != nil {
		t.Fatal(err)
	}
	if d, err := fs.ReadFile(root, "/data/rl"); err != nil || string(d) != "rel" {
		t.Fatalf("relative symlink read: %q, %v", d, err)
	}
}

func TestHardLinkSharesData(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/orig", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(root, "/data/orig", "/data/alias"); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.StatPath(root, "/data/orig")
	if st.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", st.Nlink)
	}
	if err := fs.WriteFile(root, "/data/orig", []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.ReadFile(root, "/data/alias"); string(d) != "two" {
		t.Fatalf("alias = %q, want shared contents", d)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := newTestFS(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := fs.WriteFile(root, "/data/"+n, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fs.ReadDir(root, "/data")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	want := []string{"alpha", "data", "mid", "zeta"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestChmodOnlyOwnerOrRoot(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/f", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(other, "/data/f", 0o777); !errors.Is(err, abi.EPERM) {
		t.Fatalf("chmod by non-owner: %v, want EPERM", err)
	}
	if err := fs.Chmod(app, "/data/f", 0o600); err != nil {
		t.Fatalf("chmod by owner: %v", err)
	}
	if err := fs.Chown(app, "/data/f", other.UID, other.GID); !errors.Is(err, abi.EPERM) {
		t.Fatalf("chown by non-root: %v, want EPERM", err)
	}
}

func TestCheckAccess(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/f", nil, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/f", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckAccess(app, "/data/f", abi.AccessRead|abi.AccessWrite); err != nil {
		t.Fatalf("owner rw: %v", err)
	}
	if err := fs.CheckAccess(other, "/data/f", abi.AccessRead); !errors.Is(err, abi.EACCES) {
		t.Fatalf("other read 0640: %v, want EACCES", err)
	}
	sameGroup := Cred{UID: 99999, GID: app.GID}
	if err := fs.CheckAccess(sameGroup, "/data/f", abi.AccessRead); err != nil {
		t.Fatalf("group read 0640: %v", err)
	}
	if err := fs.CheckAccess(sameGroup, "/data/f", abi.AccessWrite); !errors.Is(err, abi.EACCES) {
		t.Fatalf("group write 0640: %v, want EACCES", err)
	}
}

func TestDirtyPageAccounting(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/db", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Write 3 pages worth of data.
	if _, err := f.Write(make([]byte, 3*abi.PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := f.Inode().DirtyPages(); got < 3 {
		t.Fatalf("dirty pages = %d, want >= 3", got)
	}
	flushed := f.Sync()
	if flushed < 3 {
		t.Fatalf("flushed = %d, want >= 3", flushed)
	}
	if got := f.Inode().DirtyPages(); got != 0 {
		t.Fatalf("dirty after sync = %d, want 0", got)
	}
}

func TestCopyTreePreservesOwnershipAndData(t *testing.T) {
	src := newTestFS(t)
	dst := newTestFS(t)
	if err := src.Mkdir(root, "/data/data/com.app", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := src.Chown(root, "/data/data/com.app", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteFile(root, "/data/data/com.app/db", []byte("rows"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := src.Chown(root, "/data/data/com.app/db", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := CopyTree(src, "/data/data/com.app", dst, "/data/data/com.app"); err != nil {
		t.Fatal(err)
	}
	st, err := dst.StatPath(root, "/data/data/com.app/db")
	if err != nil {
		t.Fatal(err)
	}
	if st.UID != app.UID || st.Mode != 0o600 {
		t.Fatalf("copied stat = %+v", st)
	}
	d, err := dst.ReadFile(app, "/data/data/com.app/db")
	if err != nil || string(d) != "rows" {
		t.Fatalf("copied data = %q, %v", d, err)
	}
}

func TestIoctlOnRegularFileIsENOTTY(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/f", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ioctl(1, nil); !errors.Is(err, abi.ENOTTY) {
		t.Fatalf("ioctl on regular file: %v, want ENOTTY", err)
	}
}

func TestRelativePathRejected(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.StatPath(root, "data/x"); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("relative path: %v, want EINVAL", err)
	}
}

// Property: anything written with WriteFile reads back identically through
// ReadFile, for arbitrary contents and nested path depth.
func TestWriteReadPropertyQuick(t *testing.T) {
	fs := newTestFS(t)
	i := 0
	f := func(data []byte) bool {
		i++
		p := "/data/prop" + string(rune('a'+i%26))
		if err := fs.WriteFile(root, p, data, 0o644); err != nil {
			return false
		}
		got, err := fs.ReadFile(root, p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteAt/ReadAt round-trip at arbitrary offsets.
func TestWriteAtReadAtProperty(t *testing.T) {
	fs := newTestFS(t)
	file, err := fs.Open(root, "/data/randio", abi.ORdWr|abi.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := file.WriteAt(data, int64(off)); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		n, err := file.ReadAt(buf, int64(off))
		return err == nil && n == len(data) && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: permission checks are monotone in the mode bits — granting more
// bits never revokes access.
func TestPermissionMonotonicity(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/data/m", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/m", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	modes := []abi.FileMode{0o000, 0o400, 0o440, 0o444, 0o644, 0o666}
	prevReadable := map[string]bool{"app": false, "other": false}
	for _, m := range modes {
		if err := fs.Chmod(root, "/data/m", m); err != nil {
			t.Fatal(err)
		}
		for name, cred := range map[string]Cred{"app": app, "other": other} {
			readable := fs.CheckAccess(cred, "/data/m", abi.AccessRead) == nil
			if prevReadable[name] && !readable {
				t.Fatalf("mode %o revoked read for %s relative to a weaker mode", m, name)
			}
			prevReadable[name] = readable
		}
	}
}

type fakeDev struct{ last uint32 }

func (d *fakeDev) DevName() string { return "fake" }
func (d *fakeDev) Read(_ Cred, p []byte, _ int64) (int, error) {
	for i := range p {
		p[i] = 0xAB
	}
	return len(p), nil
}
func (d *fakeDev) Write(_ Cred, p []byte, _ int64) (int, error) { return len(p), nil }
func (d *fakeDev) Ioctl(_ Cred, req uint32, _ []byte) ([]byte, error) {
	d.last = req
	return []byte{1}, nil
}

func TestDeviceNode(t *testing.T) {
	fs := newTestFS(t)
	dev := &fakeDev{}
	if err := fs.Mknod(root, "/dev/fake", 0o666, dev); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(app, "/dev/fake2", 0o666, dev); !errors.Is(err, abi.EPERM) {
		t.Fatalf("mknod by app: %v, want EPERM", err)
	}
	f, err := fs.Open(app, "/dev/fake", abi.ORdWr, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.Read(buf); err != nil || buf[0] != 0xAB {
		t.Fatalf("device read: %v %v", buf, err)
	}
	if _, err := f.Ioctl(42, nil); err != nil {
		t.Fatal(err)
	}
	if dev.last != 42 {
		t.Fatalf("ioctl req = %d, want 42", dev.last)
	}
	if !f.IsDevice() || f.Device() == nil {
		t.Fatal("device identity lost")
	}
}

// credDev records the credentials each device call arrives with.
type credDev struct{ seen []Cred }

func (d *credDev) DevName() string { return "cred" }
func (d *credDev) Read(c Cred, p []byte, _ int64) (int, error) {
	d.seen = append(d.seen, c)
	return len(p), nil
}
func (d *credDev) Write(c Cred, p []byte, _ int64) (int, error) {
	d.seen = append(d.seen, c)
	return len(p), nil
}
func (d *credDev) Ioctl(c Cred, _ uint32, _ []byte) ([]byte, error) {
	d.seen = append(d.seen, c)
	return nil, nil
}

// TestDeviceSeesOpenerCred: every device read, write and ioctl through a
// File, positioned or not, carries the credentials the File was opened
// with, PID included.
func TestDeviceSeesOpenerCred(t *testing.T) {
	fs := newTestFS(t)
	dev := &credDev{}
	if err := fs.Mknod(root, "/dev/cred", 0o666, dev); err != nil {
		t.Fatal(err)
	}
	opener := Cred{UID: abi.UIDAppBase + 7, GID: abi.UIDAppBase + 8, PID: 4242}
	f, err := fs.Open(opener, "/dev/cred", abi.ORdWr, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(buf, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ioctl(1, nil); err != nil {
		t.Fatal(err)
	}
	if len(dev.seen) != 5 {
		t.Fatalf("device saw %d calls, want 5", len(dev.seen))
	}
	for i, c := range dev.seen {
		if c != opener {
			t.Fatalf("device call %d saw %+v, want the opener's %+v", i, c, opener)
		}
	}
}

// TestFileSize: an open file description fits the 64-byte allocation
// size class; every open on the redirected path makes one.
func TestFileSize(t *testing.T) {
	if got := unsafe.Sizeof(File{}); got > 64 {
		t.Fatalf("File is %d bytes, want at most 64", got)
	}
}

func TestFileAccessors(t *testing.T) {
	fs := newTestFS(t)
	f, err := fs.Open(root, "/data/acc", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/data/acc" {
		t.Fatalf("Path = %q", f.Path())
	}
	if f.Flags() != abi.ORdWr|abi.OCreat {
		t.Fatalf("Flags = %x", f.Flags())
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if f.Offset() != 3 {
		t.Fatalf("Offset = %d", f.Offset())
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if f.Stat().Size != 1 {
		t.Fatalf("size after handle truncate = %d", f.Stat().Size)
	}
	ro, err := fs.Open(root, "/data/acc", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Truncate(2); !errors.Is(err, abi.EBADF) {
		t.Fatalf("truncate read-only handle: %v, want EBADF", err)
	}
}

func TestReadOnlyPathAndLookup(t *testing.T) {
	fs := newTestFS(t)
	fs.MountReadOnly("/system")
	if !fs.ReadOnlyPath("/system/bin/sh") || fs.ReadOnlyPath("/data/x") {
		t.Fatal("ReadOnlyPath classification wrong")
	}
	ino, err := fs.Lookup(root, "/data")
	if err != nil || ino.Type != TypeDir {
		t.Fatalf("Lookup: %+v, %v", ino, err)
	}
	if _, err := fs.Lookup(app, "/nope"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("Lookup missing: %v", err)
	}
}

func TestMkdirAllDeepAndIdempotent(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll(root, "/data/a/b/c/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(root, "/data/a/b/c/d", 0o755); err != nil {
		t.Fatalf("idempotent MkdirAll: %v", err)
	}
	if _, err := fs.StatPath(root, "/data/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	// MkdirAll through a file component fails cleanly.
	if err := fs.WriteFile(root, "/data/blocker", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(root, "/data/blocker/sub", 0o755); err == nil {
		t.Fatal("MkdirAll through a file succeeded")
	}
}

func TestLinkEdgeCases(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Link(root, "/data", "/data/dirlink"); !errors.Is(err, abi.EISDIR) {
		t.Fatalf("hard link to dir: %v, want EISDIR", err)
	}
	if err := fs.WriteFile(root, "/data/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(root, "/data/f", "/data/f"); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("link over self: %v, want EEXIST", err)
	}
	fs.MountReadOnly("/system")
	if err := fs.Link(root, "/data/f", "/system/f"); !errors.Is(err, abi.EROFS) {
		t.Fatalf("link into ro mount: %v, want EROFS", err)
	}
}

func TestTruncatePathEdgeCases(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Truncate(root, "/data", 0); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("truncate dir: %v, want EINVAL", err)
	}
	fs.MountReadOnly("/system")
	if err := fs.WriteFile(root, "/data/t", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/t", app.UID, app.GID); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(root, "/data/t", 0o400); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(app, "/data/t", 0); !errors.Is(err, abi.EACCES) {
		t.Fatalf("truncate 0400: %v, want EACCES", err)
	}
}

func TestCopyTreeWithSymlinkAndDevice(t *testing.T) {
	src := newTestFS(t)
	dst := newTestFS(t)
	if err := src.Mkdir(root, "/data/tree", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteFile(root, "/data/tree/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.Symlink(root, "f", "/data/tree/l"); err != nil {
		t.Fatal(err)
	}
	if err := src.Mknod(root, "/data/tree/dev", 0o666, &fakeDev{}); err != nil {
		t.Fatal(err)
	}
	if err := CopyTree(src, "/data/tree", dst, "/data/tree"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := dst.Readlink(root, "/data/tree/l"); err != nil || tgt != "f" {
		t.Fatalf("symlink copy: %q, %v", tgt, err)
	}
	// Device nodes are skipped, not copied.
	if _, err := dst.StatPath(root, "/data/tree/dev"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("device node copied: %v", err)
	}
}

func TestFileTypeStrings(t *testing.T) {
	want := map[FileType]string{TypeRegular: "-", TypeDir: "d", TypeSymlink: "l", TypeDevice: "c", FileType(0): "?"}
	for ft, s := range want {
		if ft.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(ft), ft.String(), s)
		}
	}
}

// TestComponentWalk: the walk steps through the cleaned path in place. An
// unclean path, a relative or absolute symlink in an intermediate
// component, one whose target climbs with "..", and a parent lookup
// through a symlinked directory all resolve as before.
func TestComponentWalk(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll(root, "/data/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/data/a/b/file", []byte("walked"), 0o644); err != nil {
		t.Fatal(err)
	}
	for target, link := range map[string]string{
		"b":       "/data/a/rel",
		"/data/a": "/data/abs",
		"../a/b":  "/data/a/up",
	} {
		if err := fs.Symlink(root, target, link); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{
		"/data/a/b/file",
		"//data/./a/b/../b//file",
		"/data/a/rel/file",
		"/data/abs/b/file",
		"/data/abs/rel/file",
		"/data/a/up/file",
	} {
		if d, err := fs.ReadFile(root, p); err != nil || string(d) != "walked" {
			t.Errorf("read %s: %q, %v", p, d, err)
		}
	}
	if st, err := fs.LstatPath(root, "/data/a/rel"); err != nil || st.Type != TypeSymlink {
		t.Errorf("lstat of a final symlink: %+v, %v", st, err)
	}
	if st, err := fs.LstatPath(root, "/data/a/rel/file"); err != nil || st.Type != TypeRegular {
		t.Errorf("lstat through an intermediate symlink: %+v, %v", st, err)
	}
	if err := fs.WriteFile(root, "/data/abs/rel/new", []byte("n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := fs.ReadFile(root, "/data/a/b/new"); err != nil || string(d) != "n" {
		t.Errorf("create through symlinked parents landed elsewhere: %q, %v", d, err)
	}
	if _, err := fs.StatPath(root, "/data/a/b/file/x"); !errors.Is(err, abi.ENOTDIR) {
		t.Errorf("walk through a file: err = %v, want ENOTDIR", err)
	}
	if _, err := fs.StatPath(root, ""); !errors.Is(err, abi.ENOENT) {
		t.Errorf("empty path: err = %v, want ENOENT", err)
	}
	if err := fs.Mkdir(root, "/", 0o755); !errors.Is(err, abi.EEXIST) {
		t.Errorf("mkdir /: err = %v, want EEXIST", err)
	}
}

// TestCleanLookupAllocs: looking up a clean absolute path walks its
// components in place and allocates nothing.
func TestCleanLookupAllocs(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll(root, "/data/data/com.example/files", 0o755); err != nil {
		t.Fatal(err)
	}
	const p = "/data/data/com.example/files/sync.dat"
	if err := fs.WriteFile(root, p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ops := map[string]func() error{
		"lookup": func() error { _, err := fs.Lookup(root, p); return err },
		"stat":   func() error { _, err := fs.StatPath(root, p); return err },
		"lstat":  func() error { _, err := fs.LstatPath(root, p); return err },
		"access": func() error { return fs.CheckAccess(app, p, abi.AccessRead) },
	}
	for name, op := range ops {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = op() })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s of a clean absolute path: %.1f allocs, want 0", name, allocs)
		}
	}
}
