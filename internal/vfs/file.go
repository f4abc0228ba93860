package vfs

import (
	"path"

	"anception/internal/abi"
)

// File is an open file description: an inode reference plus offset and
// access mode. File descriptors in the kernel layer point at File values.
// It fits the 64-byte allocation size class, which is why it keeps the
// opener's credentials as 32-bit IDs, as Linux's uid_t, gid_t and pid_t
// are.
type File struct {
	fs    *FileSystem
	ino   *Inode
	path  string
	flags abi.OpenFlag
	off   int64
	cred  openerCred
}

// openerCred is the credential a File was opened with. Only device
// reads, writes and ioctls use it, handing it to the driver as a Cred.
type openerCred struct{ uid, gid, pid int32 }

func (c openerCred) expand() Cred { return Cred{UID: int(c.uid), GID: int(c.gid), PID: int(c.pid)} }

// Open opens the object at p with the given flags, creating a regular file
// with createMode when OCreat is set.
func (fs *FileSystem) Open(cred Cred, p string, flags abi.OpenFlag, createMode abi.FileMode) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	clean := path.Clean(p)
	ino, err := fs.resolve(cred, p, true, 0)
	switch {
	case err == nil:
		if flags&(abi.OCreat|abi.OExcl) == abi.OCreat|abi.OExcl {
			return nil, abi.EEXIST
		}
	case err == abi.ENOENT && flags&abi.OCreat != 0:
		if fs.readOnlyLocked(clean) {
			return nil, abi.EROFS
		}
		dir, name, perr := fs.lookupParent(cred, p)
		if perr != nil {
			return nil, perr
		}
		if !permitted(cred, dir, abi.AccessWrite|abi.AccessExec) {
			return nil, abi.EACCES
		}
		ino = fs.newInode(TypeRegular, createMode, cred.UID, cred.GID)
		dir.children[name] = ino
	default:
		return nil, err
	}

	if ino.Type == TypeDir && flags.Writable() {
		return nil, abi.EISDIR
	}
	if flags.Readable() && !permitted(cred, ino, abi.AccessRead) {
		return nil, abi.EACCES
	}
	if flags.Writable() {
		if fs.readOnlyLocked(clean) {
			return nil, abi.EROFS
		}
		if !permitted(cred, ino, abi.AccessWrite) {
			return nil, abi.EACCES
		}
	}
	if flags&abi.OTrunc != 0 && flags.Writable() && ino.Type == TypeRegular {
		if err := ino.truncate(0); err != nil {
			return nil, err
		}
	}

	f := &File{fs: fs, ino: ino, path: clean, flags: flags,
		cred: openerCred{uid: int32(cred.UID), gid: int32(cred.GID), pid: int32(cred.PID)}}
	if flags&abi.OAppend != 0 {
		f.off = ino.data.size
	}
	return f, nil
}

// Path returns the cleaned path the file was opened with.
func (f *File) Path() string { return f.path }

// Inode returns the underlying inode (used by the kernel for accounting).
func (f *File) Inode() *Inode { return f.ino }

// Flags returns the open flags.
func (f *File) Flags() abi.OpenFlag { return f.flags }

// IsDevice reports whether the file refers to a device node.
func (f *File) IsDevice() bool { return f.ino.Type == TypeDevice }

// Device returns the bound driver for device files, or nil.
func (f *File) Device() Device {
	if f.ino.Type != TypeDevice {
		return nil
	}
	return f.ino.Dev
}

// Read reads up to len(p) bytes at the current offset.
func (f *File) Read(p []byte) (int, error) {
	if !f.flags.Readable() {
		return 0, abi.EBADF
	}
	if f.ino.Type == TypeDevice {
		n, err := f.ino.Dev.Read(f.cred.expand(), p, f.off)
		f.off += int64(n)
		return n, err
	}
	if f.ino.Type == TypeDir {
		return 0, abi.EISDIR
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := f.ino.readAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// ReadAt reads at an explicit offset without moving the file offset.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if !f.flags.Readable() {
		return 0, abi.EBADF
	}
	if f.ino.Type == TypeDevice {
		return f.ino.Dev.Read(f.cred.expand(), p, off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.readAt(p, off)
}

// Write writes p at the current offset, growing the file as needed.
func (f *File) Write(p []byte) (int, error) {
	if !f.flags.Writable() {
		return 0, abi.EBADF
	}
	if f.ino.Type == TypeDevice {
		n, err := f.ino.Dev.Write(f.cred.expand(), p, f.off)
		f.off += int64(n)
		return n, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.flags&abi.OAppend != 0 {
		f.off = f.ino.data.size
	}
	n, err := f.ino.writeAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// WriteAt writes at an explicit offset without moving the file offset.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if !f.flags.Writable() {
		return 0, abi.EBADF
	}
	if f.ino.Type == TypeDevice {
		return f.ino.Dev.Write(f.cred.expand(), p, off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.writeAt(p, off)
}

// Seek adjusts the file offset.
func (f *File) Seek(off int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	var base int64
	switch whence {
	case abi.SeekSet:
		base = 0
	case abi.SeekCur:
		base = f.off
	case abi.SeekEnd:
		base = f.ino.data.size
	default:
		return 0, abi.EINVAL
	}
	next := base + off
	if next < 0 {
		return 0, abi.EINVAL
	}
	f.off = next
	return next, nil
}

// Offset returns the current file offset.
func (f *File) Offset() int64 { return f.off }

// Stat returns the inode metadata.
func (f *File) Stat() Stat {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return statOf(f.ino)
}

// Ioctl forwards a control request to the device driver; non-device files
// reject it with ENOTTY, matching Linux.
func (f *File) Ioctl(req uint32, arg []byte) ([]byte, error) {
	if f.ino.Type != TypeDevice {
		return nil, abi.ENOTTY
	}
	return f.ino.Dev.Ioctl(f.cred.expand(), req, arg)
}

// Sync flushes the inode's buffered pages and reports how many pages were
// written back (the kernel charges flash latency per page).
func (f *File) Sync() int {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.ClearDirty()
}

// Truncate resizes the open file.
func (f *File) Truncate(size int64) error {
	if !f.flags.Writable() {
		return abi.EBADF
	}
	if f.ino.Type != TypeRegular {
		return abi.EINVAL
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.truncate(size)
}

// ReadFile is a convenience that reads the whole file at p.
func (fs *FileSystem) ReadFile(cred Cred, p string) ([]byte, error) {
	f, err := fs.Open(cred, p, abi.ORdOnly, 0)
	if err != nil {
		return nil, err
	}
	st := f.Stat()
	buf := make([]byte, st.Size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFile is a convenience that creates/overwrites the file at p.
func (fs *FileSystem) WriteFile(cred Cred, p string, data []byte, mode abi.FileMode) error {
	f, err := fs.Open(cred, p, abi.OWrOnly|abi.OCreat|abi.OTrunc, mode)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return err
}

// CopyTree replicates the subtree at src in dst within the destination
// filesystem, preserving ownership and modes. It is used during app
// enrollment to mirror the app's private data directory into the CVM
// (Section III-D, File I/O).
func CopyTree(srcFS *FileSystem, src string, dstFS *FileSystem, dst string) error {
	root := Cred{UID: abi.UIDRoot}
	// Lstat: symlinks are replicated as symlinks, not dereferenced.
	st, err := srcFS.LstatPath(root, src)
	if err != nil {
		return err
	}
	switch st.Type {
	case TypeDir:
		if err := dstFS.Mkdir(root, dst, st.Mode); err != nil && err != abi.EEXIST {
			return err
		}
		if err := dstFS.Chown(root, dst, st.UID, st.GID); err != nil {
			return err
		}
		entries, err := srcFS.ReadDir(root, src)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := CopyTree(srcFS, path.Join(src, e.Name), dstFS, path.Join(dst, e.Name)); err != nil {
				return err
			}
		}
	case TypeRegular:
		data, err := srcFS.ReadFile(root, src)
		if err != nil {
			return err
		}
		if err := dstFS.WriteFile(root, dst, data, st.Mode); err != nil {
			return err
		}
		if err := dstFS.Chown(root, dst, st.UID, st.GID); err != nil {
			return err
		}
	case TypeSymlink:
		target, err := srcFS.Readlink(root, src)
		if err != nil {
			return err
		}
		if err := dstFS.Symlink(root, target, dst); err != nil && err != abi.EEXIST {
			return err
		}
	case TypeDevice:
		// Device nodes are environment-specific and are created by each
		// kernel's own boot sequence; skip them during enrollment copy.
	}
	return nil
}
