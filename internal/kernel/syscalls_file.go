package kernel

import (
	"strings"
	"time"

	"anception/internal/abi"
	"anception/internal/vfs"
)

// chargeIO charges the latency of moving n bytes through the storage
// stack, page by page.
func (k *Kernel) chargeIO(t *Task, n int, perPage time.Duration) {
	pages := (n + abi.PageSize - 1) / abi.PageSize
	if pages == 0 {
		pages = 1
	}
	k.clock.Charge(t.Lane, time.Duration(pages)*perPage)
}

func (k *Kernel) chargePathResolution(t *Task, p string) {
	comps := strings.Count(p, "/")
	if comps == 0 {
		comps = 1
	}
	k.clock.Charge(t.Lane, time.Duration(comps)*k.model.PathResolvePerComponent)
}

func (k *Kernel) sysOpen(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)

	if strings.HasPrefix(p, "/proc/") || p == "/proc" {
		return k.procfsOpen(t, p, args)
	}

	flags := args.OpenFlags()
	mode := args.Mode &^ t.Umask
	f, err := k.fs.Open(t.Cred, p, flags, mode)
	if err != nil {
		return k.errResult(err)
	}
	fd := t.InstallFD(FDEntry{Kind: FDFile, File: f, Path: p})
	return Result{Ret: int64(fd), FD: fd}
}

func (k *Kernel) sysClose(t *Task, args Args) Result {
	e, ok := t.CloseFD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	switch e.Kind {
	case FDSocket:
		_ = e.Sock.Close()
	case FDPipeRead, FDPipeWrite:
		e.Pipe.Close()
	}
	return Result{}
}

func (k *Kernel) sysRead(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	switch e.Kind {
	case FDFile:
		if !e.File.IsDevice() {
			k.chargeIO(t, len(args.Buf), k.model.StorageReadPerPage)
		}
		n, err := e.File.Read(args.Buf)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(n), Data: args.Buf[:n]}
	case FDPipeRead:
		n, err := e.Pipe.Read(args.Buf)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(n), Data: args.Buf[:n]}
	case FDSocket:
		n, err := e.Sock.Recv(args.Buf)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(n), Data: args.Buf[:n]}
	case FDProcMem:
		return k.procMemRead(t, e, args)
	default:
		return k.errResult(abi.EBADF)
	}
}

func (k *Kernel) sysWrite(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	switch e.Kind {
	case FDFile:
		if !e.File.IsDevice() {
			k.chargeIO(t, len(args.Buf), k.model.StorageWritePerPage)
		}
		n, err := e.File.Write(args.Buf)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(n)}
	case FDPipeWrite:
		n, err := e.Pipe.Write(args.Buf)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(n)}
	case FDSocket:
		return k.sysSend(t, args)
	case FDProcMem:
		return k.procMemWrite(t, e, args)
	default:
		return k.errResult(abi.EBADF)
	}
}

func (k *Kernel) sysPread(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	if e.Kind == FDProcMem {
		return k.procMemRead(t, e, args)
	}
	if e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	k.chargeIO(t, len(args.Buf), k.model.StorageReadPerPage)
	n, err := e.File.ReadAt(args.Buf, args.Off)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(n), Data: args.Buf[:n]}
}

func (k *Kernel) sysPwrite(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	if e.Kind == FDProcMem {
		return k.procMemWrite(t, e, args)
	}
	if e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	k.chargeIO(t, len(args.Buf), k.model.StorageWritePerPage)
	n, err := e.File.WriteAt(args.Buf, args.Off)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(n)}
}

// iovTotal sums the segment lengths of a scatter-gather vector.
func iovTotal(iov [][]byte) int {
	n := 0
	for _, seg := range iov {
		n += len(seg)
	}
	return n
}

// sysReadv serves readv and preadv: fill each segment in order, stopping
// at the first short read. The storage stack is charged once for the
// whole vector — one call's worth of page traversal instead of one per
// segment, which is what vectoring buys over a loop of read calls.
func (k *Kernel) sysReadv(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	if len(args.Iov) == 0 {
		return k.errResult(abi.EINVAL)
	}
	positioned := args.Nr == abi.SysPreadv
	if positioned && e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	switch e.Kind {
	case FDFile:
		if !e.File.IsDevice() {
			k.chargeIO(t, iovTotal(args.Iov), k.model.StorageReadPerPage)
		}
		total := 0
		filled := make([]byte, 0, iovTotal(args.Iov))
		for _, seg := range args.Iov {
			var n int
			var err error
			if positioned {
				n, err = e.File.ReadAt(seg, args.Off+int64(total))
			} else {
				n, err = e.File.Read(seg)
			}
			total += n
			filled = append(filled, seg[:n]...)
			if err != nil || n < len(seg) {
				// EOF mid-vector is a short count, not an error, once
				// anything was read.
				if err != nil && total == n {
					return k.errResult(err)
				}
				break
			}
		}
		return Result{Ret: int64(total), Data: filled}
	case FDPipeRead, FDSocket:
		total := 0
		filled := make([]byte, 0, iovTotal(args.Iov))
		for _, seg := range args.Iov {
			var n int
			var err error
			if e.Kind == FDPipeRead {
				n, err = e.Pipe.Read(seg)
			} else {
				n, err = e.Sock.Recv(seg)
			}
			total += n
			filled = append(filled, seg[:n]...)
			if err != nil || n < len(seg) {
				if err != nil && total == n {
					return k.errResult(err)
				}
				break
			}
		}
		return Result{Ret: int64(total), Data: filled}
	default:
		return k.errResult(abi.EBADF)
	}
}

// sysWritev serves writev and pwritev: gather the segments in order. Like
// sysReadv, the vector pays one storage charge for its total length.
func (k *Kernel) sysWritev(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	if len(args.Iov) == 0 {
		return k.errResult(abi.EINVAL)
	}
	positioned := args.Nr == abi.SysPwritev
	if positioned && e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	switch e.Kind {
	case FDFile:
		if !e.File.IsDevice() {
			k.chargeIO(t, iovTotal(args.Iov), k.model.StorageWritePerPage)
		}
		total := 0
		for _, seg := range args.Iov {
			var n int
			var err error
			if positioned {
				n, err = e.File.WriteAt(seg, args.Off+int64(total))
			} else {
				n, err = e.File.Write(seg)
			}
			total += n
			if err != nil {
				if total == n {
					return k.errResult(err)
				}
				break
			}
		}
		return Result{Ret: int64(total)}
	case FDPipeWrite, FDSocket:
		total := 0
		for _, seg := range args.Iov {
			var n int
			var err error
			if e.Kind == FDPipeWrite {
				n, err = e.Pipe.Write(seg)
			} else {
				n, err = e.Sock.Send(seg)
			}
			total += n
			if err != nil {
				if total == n {
					return k.errResult(err)
				}
				break
			}
		}
		return Result{Ret: int64(total)}
	default:
		return k.errResult(abi.EBADF)
	}
}

func (k *Kernel) sysLseek(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok || e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	pos, err := e.File.Seek(args.Off, args.Whence)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: pos}
}

func (k *Kernel) sysStat(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	st, err := k.fs.StatPath(t.Cred, p)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: st.Size, Data: encodeStat(st)}
}

func (k *Kernel) sysFstat(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok || e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	st := e.File.Stat()
	return Result{Ret: st.Size, Data: encodeStat(st)}
}

// encodeStat renders stat results as a stable text form, the one-letter
// kind tag; the simulation passes structured data out-of-band via
// Result.Ret where callers need it. The tag is a read-only view of vfs's
// letter table (FileType.Letter), so a stat allocates nothing: no caller
// may write to or append in place of a stat reply's Data.
func encodeStat(st vfs.Stat) []byte {
	return st.Type.Letter()
}

func (k *Kernel) sysAccess(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	if err := k.fs.CheckAccess(t.Cred, p, args.Size); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysMkdir(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	if err := k.fs.Mkdir(t.Cred, p, args.Mode&^t.Umask); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysRmdir(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	if err := k.fs.Rmdir(t.Cred, p); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysUnlink(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	if err := k.fs.Unlink(t.Cred, p); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysRename(t *Task, args Args) Result {
	if err := k.fs.Rename(t.Cred, t.AbsPath(args.Path), t.AbsPath(args.Path2)); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysLink(t *Task, args Args) Result {
	if err := k.fs.Link(t.Cred, t.AbsPath(args.Path), t.AbsPath(args.Path2)); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysSymlink(t *Task, args Args) Result {
	if err := k.fs.Symlink(t.Cred, args.Path, t.AbsPath(args.Path2)); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysReadlink(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	if strings.HasPrefix(p, "/proc/") {
		return k.procfsReadlink(t, p)
	}
	target, err := k.fs.Readlink(t.Cred, p)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Data: []byte(target), Ret: int64(len(target))}
}

func (k *Kernel) sysChmod(t *Task, args Args) Result {
	p := args.Path
	if args.Nr == abi.SysFchmod {
		e, ok := t.FD(args.FD)
		if !ok || e.Kind != FDFile {
			return k.errResult(abi.EBADF)
		}
		p = e.File.Path()
	}
	if err := k.fs.Chmod(t.Cred, t.AbsPath(p), args.Mode); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysChown(t *Task, args Args) Result {
	p := args.Path
	if args.Nr == abi.SysFchown {
		e, ok := t.FD(args.FD)
		if !ok || e.Kind != FDFile {
			return k.errResult(abi.EBADF)
		}
		p = e.File.Path()
	}
	if err := k.fs.Chown(t.Cred, t.AbsPath(p), args.UID, args.GID); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysTruncate(t *Task, args Args) Result {
	if args.Nr == abi.SysFtruncate {
		e, ok := t.FD(args.FD)
		if !ok || e.Kind != FDFile {
			return k.errResult(abi.EBADF)
		}
		if err := e.File.Truncate(args.Off); err != nil {
			return k.errResult(err)
		}
		return Result{}
	}
	if err := k.fs.Truncate(t.Cred, t.AbsPath(args.Path), args.Off); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysGetdents(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	if strings.HasPrefix(p, "/proc") {
		return k.procfsGetdents(t, p)
	}
	entries, err := k.fs.ReadDir(t.Cred, p)
	if err != nil {
		return k.errResult(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return Result{Data: []byte(strings.Join(names, "\n")), Ret: int64(len(entries))}
}

func (k *Kernel) sysDup(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	fd := t.InstallFD(e)
	return Result{Ret: int64(fd), FD: fd}
}

func (k *Kernel) sysDup2(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	t.InstallFDAt(args.FD2, e)
	return Result{Ret: int64(args.FD2), FD: args.FD2}
}

func (k *Kernel) sysPipe(t *Task, _ Args) Result {
	p := &Pipe{}
	r := t.InstallFD(FDEntry{Kind: FDPipeRead, Pipe: p})
	w := t.InstallFD(FDEntry{Kind: FDPipeWrite, Pipe: p})
	// Ret packs the read fd; FD carries the write fd.
	return Result{Ret: int64(r), FD: w}
}

func (k *Kernel) sysFsync(t *Task, args Args) Result {
	if args.Nr == abi.SysSync {
		// Whole-filesystem sync: charge a fixed small cost; per-file
		// flushes dominate in the workloads we model.
		k.clock.Charge(t.Lane, k.model.StorageSyncPerPage)
		return Result{}
	}
	e, ok := t.FD(args.FD)
	if !ok || e.Kind != FDFile {
		return k.errResult(abi.EBADF)
	}
	flushed := e.File.Sync()
	k.clock.Charge(t.Lane, time.Duration(flushed)*k.model.StorageSyncPerPage)
	return Result{Ret: int64(flushed)}
}

func (k *Kernel) sysIoctl(t *Task, args Args) Result {
	e, ok := t.FD(args.FD)
	if !ok {
		return k.errResult(abi.EBADF)
	}
	if e.Kind != FDFile || !e.File.IsDevice() {
		return k.errResult(abi.ENOTTY)
	}
	// A synchronous binder transaction includes the service-side handling
	// and scheduling latency (Table I: ~12 ms); other device ioctls are
	// lightweight register pokes.
	if e.File.Device().DevName() == "binder" {
		k.clock.Charge(t.Lane, k.model.BinderTransaction+timesDuration(len(args.Buf), k.model.BinderPerByte))
	} else {
		k.clock.Charge(t.Lane, k.model.UIIoctl)
	}
	out, err := e.File.Ioctl(args.Request, args.Buf)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Data: out, Ret: int64(len(out))}
}

func (k *Kernel) sysSendfile(t *Task, args Args) Result {
	out, okOut := t.FD(args.FD)
	in, okIn := t.FD(args.FD2)
	if !okOut || !okIn {
		return k.errResult(abi.EBADF)
	}

	// CVE-2009-2692: sendfile on a socket family whose proto_ops left
	// sendpage NULL makes the kernel jump to address zero. Whether that
	// is an exploit or a crash depends on whether *this* kernel can see
	// an executable mapping at page zero in the calling task — under
	// Anception the call executes in the CVM under the proxy, whose
	// address space does not contain the shellcode.
	if out.Kind == FDSocket && out.Sock.HasVulnerability(vulnNullSendpage) {
		if t.AS != nil && t.AS.HasExecutableMappingAt(0) {
			k.CompromiseKernel(t, "NULL sendpage dereference (CVE-2009-2692)")
			return Result{}
		}
		k.Panic("NULL pointer dereference in sock_sendpage (pid " + t.Comm + ")")
		return k.errResult(abi.EFAULT)
	}

	if in.Kind != FDFile {
		return k.errResult(abi.EINVAL)
	}
	buf := make([]byte, args.Size)
	k.chargeIO(t, len(buf), k.model.StorageReadPerPage)
	n, err := in.File.Read(buf)
	if err != nil {
		return k.errResult(err)
	}
	switch out.Kind {
	case FDSocket:
		if _, err := out.Sock.Send(buf[:n]); err != nil {
			return k.errResult(err)
		}
	case FDFile:
		k.chargeIO(t, n, k.model.StorageWritePerPage)
		if _, err := out.File.Write(buf[:n]); err != nil {
			return k.errResult(err)
		}
	default:
		return k.errResult(abi.EINVAL)
	}
	return Result{Ret: int64(n)}
}

func (k *Kernel) sysMount(t *Task, _ Args) Result {
	if !t.Cred.Root() {
		return k.errResult(abi.EPERM)
	}
	return Result{}
}
