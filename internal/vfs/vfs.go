// Package vfs implements the in-memory Unix filesystem used by the
// simulated kernels. It models inodes, directories, permission bits with
// UID/GID checks, read-only mounts (the Android /system partition), device
// nodes, symbolic links, and per-inode dirty-page accounting for the
// buffered-write cost model.
//
// The filesystem is a pure data structure: it charges no simulated time.
// Latency accounting is the kernel's job, which uses the page-resolution
// and dirty-page counts this package exposes.
package vfs

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"

	"anception/internal/abi"
)

// FileType distinguishes inode kinds.
type FileType int

// Inode kinds.
const (
	TypeRegular FileType = iota + 1
	TypeDir
	TypeSymlink
	TypeDevice
)

// typeLetters is the one table of the kinds' one-letter tags, indexed by
// FileType: the unknown kind's "?" first, then "-", "d", "l" and "c".
var typeLetters = []byte("?-dlc")

// String returns a one-letter kind tag as used by ls-style listings.
func (t FileType) String() string {
	return string(t.Letter())
}

// Letter returns t's one-letter tag as a view of the shared letter table,
// cap-clipped so an append copies. It allocates nothing and is read-only:
// nobody may write through it.
func (t FileType) Letter() []byte {
	i := int(t)
	if i < 0 || i >= len(typeLetters) {
		i = 0
	}
	return typeLetters[i : i+1 : i+1]
}

// LetterView returns the shared table's read-only view of tag b, or nil
// when b is not one of the kinds' tags.
func LetterView(b byte) []byte {
	for i, c := range typeLetters {
		if c == b {
			return typeLetters[i : i+1 : i+1]
		}
	}
	return nil
}

// Cred carries the credentials a filesystem operation runs with.
type Cred = abi.Cred

// Device is implemented by device drivers bound to device nodes. Reads,
// writes and ioctls on the node are delegated to the driver.
type Device interface {
	// DevName identifies the device in traces (e.g. "binder", "fb0").
	DevName() string
	// Read fills p starting at off and returns the byte count.
	Read(cred Cred, p []byte, off int64) (int, error)
	// Write stores p at off and returns the byte count.
	Write(cred Cred, p []byte, off int64) (int, error)
	// Ioctl performs a device-specific control operation.
	Ioctl(cred Cred, req uint32, arg []byte) ([]byte, error)
}

// MmapableDevice is implemented by devices that support memory mapping
// (e.g. the framebuffer). Mapping a device that exposes kernel memory is
// one of the exploit channels studied in Section V-A.
type MmapableDevice interface {
	Device
	// MmapKind reports what backing memory a mapping of this device
	// exposes; the kernel uses it to decide frame ownership.
	MmapKind() MmapKind
}

// MmapKind classifies what memory a device mapping exposes.
type MmapKind int

// Mmap kinds.
const (
	// MmapDeviceLocal exposes only device-private buffers.
	MmapDeviceLocal MmapKind = iota + 1
	// MmapKernelMemory exposes kernel memory to the caller; mapping such
	// a device from an unprivileged app is a privilege escalation.
	MmapKernelMemory
)

// Inode is one filesystem object.
type Inode struct {
	Ino   uint64
	Type  FileType
	Mode  abi.FileMode
	UID   int
	GID   int
	Nlink int

	// data holds the contents of a regular file (store.go).
	data fileData
	// Target holds the destination of a symlink.
	Target string
	// Dev is the bound driver for device nodes.
	Dev Device

	children map[string]*Inode // directories only

	// dirty holds the buffered pages not yet flushed as sorted, disjoint,
	// non-adjacent runs; the kernel uses their count for sync cost
	// accounting.
	dirty []pageRange
}

// pageRange is an inclusive run of page numbers.
type pageRange struct{ first, last int64 }

// Stat is the metadata snapshot returned by stat-style calls.
type Stat struct {
	Ino   uint64
	Type  FileType
	Mode  abi.FileMode
	UID   int
	GID   int
	Size  int64
	Nlink int
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Type FileType
	Ino  uint64
}

// FileSystem is a mounted in-memory filesystem tree.
type FileSystem struct {
	mu       sync.Mutex
	root     *Inode
	nextIno  uint64
	roMounts []string // path prefixes mounted read-only
}

// New returns an empty filesystem whose root directory is owned by root
// with mode 0755.
func New() *FileSystem {
	fs := &FileSystem{nextIno: 1}
	fs.root = fs.newInode(TypeDir, 0o755, abi.UIDRoot, abi.UIDRoot)
	return fs
}

func (fs *FileSystem) newInode(t FileType, mode abi.FileMode, uid, gid int) *Inode {
	ino := &Inode{
		Ino:   fs.nextIno,
		Type:  t,
		Mode:  mode,
		UID:   uid,
		GID:   gid,
		Nlink: 1,
	}
	fs.nextIno++
	if t == TypeDir {
		ino.children = make(map[string]*Inode)
		ino.Nlink = 2
	}
	return ino
}

// MountReadOnly marks the subtree at prefix as immutable (like the Android
// /system partition). Mutating operations under it fail with EROFS.
func (fs *FileSystem) MountReadOnly(prefix string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.roMounts = append(fs.roMounts, path.Clean(prefix))
}

// ReadOnlyPath reports whether p falls under a read-only mount.
func (fs *FileSystem) ReadOnlyPath(p string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.readOnlyLocked(path.Clean(p))
}

func (fs *FileSystem) readOnlyLocked(clean string) bool {
	for _, m := range fs.roMounts {
		if clean == m || strings.HasPrefix(clean, m+"/") {
			return true
		}
	}
	return false
}

// cleanPath checks that p is absolute and returns it cleaned. Cleaning a
// path that is already clean returns it without allocating.
func cleanPath(p string) (string, error) {
	if p == "" {
		return "", abi.ENOENT
	}
	if p[0] != '/' {
		return "", fmt.Errorf("vfs: relative path %q: %w", p, abi.EINVAL)
	}
	return path.Clean(p), nil
}

const maxSymlinkDepth = 8

// resolve walks the tree to the inode at p, following symlinks in
// intermediate components and (if followLast) in the final component.
// It checks execute (search) permission on every traversed directory.
// The walk steps through the cleaned path in place; only a symlink's
// expansion builds a new path.
func (fs *FileSystem) resolve(cred Cred, p string, followLast bool, depth int) (*Inode, error) {
	if depth > maxSymlinkDepth {
		return nil, abi.ELOOP
	}
	clean, err := cleanPath(p)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	// rest is what follows the components walked so far; the root's is
	// empty.
	for rest := clean[1:]; rest != ""; {
		c, after, _ := strings.Cut(rest, "/")
		if cur.Type != TypeDir {
			return nil, abi.ENOTDIR
		}
		if !permitted(cred, cur, abi.AccessExec) {
			return nil, abi.EACCES
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, abi.ENOENT
		}
		if next.Type == TypeSymlink && (after != "" || followLast) {
			target := next.Target
			if !strings.HasPrefix(target, "/") {
				// Relative to the directory holding the link.
				target = path.Join(clean[:len(clean)-len(rest)], target)
			}
			if after != "" {
				target = path.Join(target, after)
			}
			return fs.resolve(cred, target, followLast, depth+1)
		}
		cur, rest = next, after
	}
	return cur, nil
}

// lookupParent resolves the directory containing p and returns it along
// with the final component name.
func (fs *FileSystem) lookupParent(cred Cred, p string) (*Inode, string, error) {
	clean, err := cleanPath(p)
	if err != nil {
		return nil, "", err
	}
	if clean == "/" {
		return nil, "", abi.EEXIST // the root itself
	}
	dirPath, name := path.Split(clean)
	dir, err := fs.resolve(cred, dirPath, true, 0)
	if err != nil {
		return nil, "", err
	}
	if dir.Type != TypeDir {
		return nil, "", abi.ENOTDIR
	}
	return dir, name, nil
}

// permitted checks one access bit against the inode's permission bits.
func permitted(cred Cred, ino *Inode, want int) bool {
	if cred.Root() {
		return true
	}
	var shift uint
	switch {
	case cred.UID == ino.UID:
		shift = 6
	case cred.GID == ino.GID:
		shift = 3
	default:
		shift = 0
	}
	bits := (int(ino.Mode) >> shift) & 0o7
	return bits&want == want
}

// CheckAccess verifies that cred may access the object at p with the given
// access bits (abi.AccessRead/Write/Exec ORed together).
func (fs *FileSystem) CheckAccess(cred Cred, p string, want int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return err
	}
	if want&abi.AccessWrite != 0 && fs.readOnlyLocked(path.Clean(p)) {
		return abi.EROFS
	}
	if !permitted(cred, ino, want) {
		return abi.EACCES
	}
	return nil
}

// Lookup returns the inode at p following symlinks.
func (fs *FileSystem) Lookup(cred Cred, p string) (*Inode, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.resolve(cred, p, true, 0)
}

// StatPath returns metadata for the object at p, following symlinks.
func (fs *FileSystem) StatPath(cred Cred, p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return Stat{}, err
	}
	return statOf(ino), nil
}

// LstatPath returns metadata without following a final symlink.
func (fs *FileSystem) LstatPath(cred Cred, p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, false, 0)
	if err != nil {
		return Stat{}, err
	}
	return statOf(ino), nil
}

func statOf(ino *Inode) Stat {
	return Stat{
		Ino:   ino.Ino,
		Type:  ino.Type,
		Mode:  ino.Mode,
		UID:   ino.UID,
		GID:   ino.GID,
		Size:  ino.data.size,
		Nlink: ino.Nlink,
	}
}

// Mkdir creates a directory at p with the given mode.
func (fs *FileSystem) Mkdir(cred Cred, p string, mode abi.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(p)) {
		return abi.EROFS
	}
	dir, name, err := fs.lookupParent(cred, p)
	if err != nil {
		return err
	}
	if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	if _, ok := dir.children[name]; ok {
		return abi.EEXIST
	}
	child := fs.newInode(TypeDir, mode, cred.UID, cred.GID)
	dir.children[name] = child
	dir.Nlink++
	return nil
}

// MkdirAll creates p and any missing parents; it runs with the caller's
// credentials and is primarily a setup helper for platform assembly.
func (fs *FileSystem) MkdirAll(cred Cred, p string, mode abi.FileMode) error {
	clean, err := cleanPath(p)
	if err != nil {
		return err
	}
	// Each prefix of clean that ends at a component is one directory.
	end := 0
	for rest := clean[1:]; rest != ""; {
		c, after, _ := strings.Cut(rest, "/")
		end += 1 + len(c)
		cur := clean[:end]
		if err := fs.Mkdir(cred, cur, mode); err != nil && err != abi.EEXIST {
			return fmt.Errorf("mkdirall %q: %w", cur, err)
		}
		rest = after
	}
	return nil
}

// Mknod creates a device node at p bound to dev.
func (fs *FileSystem) Mknod(cred Cred, p string, mode abi.FileMode, dev Device) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupParent(cred, p)
	if err != nil {
		return err
	}
	if !cred.Root() {
		return abi.EPERM
	}
	if _, ok := dir.children[name]; ok {
		return abi.EEXIST
	}
	child := fs.newInode(TypeDevice, mode, cred.UID, cred.GID)
	child.Dev = dev
	dir.children[name] = child
	return nil
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (fs *FileSystem) Symlink(cred Cred, target, linkPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(linkPath)) {
		return abi.EROFS
	}
	dir, name, err := fs.lookupParent(cred, linkPath)
	if err != nil {
		return err
	}
	if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	if _, ok := dir.children[name]; ok {
		return abi.EEXIST
	}
	child := fs.newInode(TypeSymlink, 0o777, cred.UID, cred.GID)
	child.Target = target
	dir.children[name] = child
	return nil
}

// Readlink returns the target of the symlink at p.
func (fs *FileSystem) Readlink(cred Cred, p string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, false, 0)
	if err != nil {
		return "", err
	}
	if ino.Type != TypeSymlink {
		return "", abi.EINVAL
	}
	return ino.Target, nil
}

// Link creates a hard link newPath referring to the inode at oldPath.
func (fs *FileSystem) Link(cred Cred, oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(newPath)) {
		return abi.EROFS
	}
	src, err := fs.resolve(cred, oldPath, true, 0)
	if err != nil {
		return err
	}
	if src.Type == TypeDir {
		return abi.EISDIR
	}
	dir, name, err := fs.lookupParent(cred, newPath)
	if err != nil {
		return err
	}
	if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	if _, ok := dir.children[name]; ok {
		return abi.EEXIST
	}
	dir.children[name] = src
	src.Nlink++
	return nil
}

// Unlink removes the directory entry at p.
func (fs *FileSystem) Unlink(cred Cred, p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(p)) {
		return abi.EROFS
	}
	dir, name, err := fs.lookupParent(cred, p)
	if err != nil {
		return err
	}
	child, ok := dir.children[name]
	if !ok {
		return abi.ENOENT
	}
	if child.Type == TypeDir {
		return abi.EISDIR
	}
	if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	delete(dir.children, name)
	child.Nlink--
	return nil
}

// Rmdir removes the empty directory at p.
func (fs *FileSystem) Rmdir(cred Cred, p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(p)) {
		return abi.EROFS
	}
	dir, name, err := fs.lookupParent(cred, p)
	if err != nil {
		return err
	}
	child, ok := dir.children[name]
	if !ok {
		return abi.ENOENT
	}
	if child.Type != TypeDir {
		return abi.ENOTDIR
	}
	if len(child.children) != 0 {
		return abi.EBUSY
	}
	if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	delete(dir.children, name)
	dir.Nlink--
	return nil
}

// Rename moves the entry at oldPath to newPath, replacing a non-directory
// target if present.
func (fs *FileSystem) Rename(cred Cred, oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(oldPath)) || fs.readOnlyLocked(path.Clean(newPath)) {
		return abi.EROFS
	}
	oldDir, oldName, err := fs.lookupParent(cred, oldPath)
	if err != nil {
		return err
	}
	child, ok := oldDir.children[oldName]
	if !ok {
		return abi.ENOENT
	}
	newDir, newName, err := fs.lookupParent(cred, newPath)
	if err != nil {
		return err
	}
	if !permitted(cred, oldDir, abi.AccessWrite|abi.AccessExec) ||
		!permitted(cred, newDir, abi.AccessWrite|abi.AccessExec) {
		return abi.EACCES
	}
	if existing, ok := newDir.children[newName]; ok {
		if existing.Type == TypeDir {
			return abi.EISDIR
		}
	}
	delete(oldDir.children, oldName)
	newDir.children[newName] = child
	return nil
}

// Chmod updates permission bits; only the owner or root may do so.
func (fs *FileSystem) Chmod(cred Cred, p string, mode abi.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return err
	}
	if !cred.Root() && cred.UID != ino.UID {
		return abi.EPERM
	}
	ino.Mode = mode
	return nil
}

// Chown changes ownership; only root may do so (the simplified Linux rule).
func (fs *FileSystem) Chown(cred Cred, p string, uid, gid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return err
	}
	if !cred.Root() {
		return abi.EPERM
	}
	ino.UID, ino.GID = uid, gid
	return nil
}

// ReadDir lists the directory at p in name order.
func (fs *FileSystem) ReadDir(cred Cred, p string) ([]DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return nil, err
	}
	if ino.Type != TypeDir {
		return nil, abi.ENOTDIR
	}
	if !permitted(cred, ino, abi.AccessRead) {
		return nil, abi.EACCES
	}
	out := make([]DirEntry, 0, len(ino.children))
	for name, child := range ino.children {
		out = append(out, DirEntry{Name: name, Type: child.Type, Ino: child.Ino})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Truncate sets the file at p to the given size.
func (fs *FileSystem) Truncate(cred Cred, p string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readOnlyLocked(path.Clean(p)) {
		return abi.EROFS
	}
	ino, err := fs.resolve(cred, p, true, 0)
	if err != nil {
		return err
	}
	if ino.Type != TypeRegular {
		return abi.EINVAL
	}
	if !permitted(cred, ino, abi.AccessWrite) {
		return abi.EACCES
	}
	return ino.truncate(size)
}

// markDirtyRange marks pages off/PageSize through (off+n)/PageSize
// dirty. The last page is inclusive, so a write ending on a page boundary
// marks the page after it too (DESIGN.md §19). Runs it overlaps or
// touches merge into one, so the cost is independent of the page count.
func (ino *Inode) markDirtyRange(off, n int64) {
	first, last := off/abi.PageSize, (off+n)/abi.PageSize
	rs := ino.dirty
	// rs[i:j] are the runs that overlap or touch [first, last].
	i := sort.Search(len(rs), func(k int) bool { return rs[k].last+1 >= first })
	j := i
	for j < len(rs) && rs[j].first <= last+1 {
		j++
	}
	if i == j {
		ino.dirty = slices.Insert(rs, i, pageRange{first, last})
		return
	}
	rs[i] = pageRange{min(first, rs[i].first), max(last, rs[j-1].last)}
	ino.dirty = slices.Delete(rs, i+1, j)
}

// DirtyPages reports how many buffered pages of the inode await flush.
func (ino *Inode) DirtyPages() int {
	var n int64
	for _, r := range ino.dirty {
		n += r.last - r.first + 1
	}
	return int(n)
}

// ClearDirty marks all pages clean (called after a simulated flush) and
// returns how many pages were flushed. The run list keeps its capacity
// for the next writes.
func (ino *Inode) ClearDirty() int {
	n := ino.DirtyPages()
	ino.dirty = ino.dirty[:0]
	return n
}
