package anception

import (
	"fmt"
	"sync/atomic"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
)

// Proc is the system-call interface a running app uses: a thin, typed
// wrapper over kernel.Invoke bound to the app's task. It is the outermost
// public API the examples and workloads program against — the simulated
// analogue of libc.
type Proc struct {
	device *Device
	kernel *kernel.Kernel
	Task   *kernel.Task
	App    *App
	// txn is the encode buffer BinderCall and BinderCallAsync reuse.
	// txnBusy is held while a call uses it; a concurrent call on the same
	// Proc encodes into a fresh buffer instead.
	txn     []byte
	txnBusy atomic.Bool
	// fdl is the buffer an AcceptBatch or EpollWait reply's descriptor
	// list lands in. fdlBusy is held while a call uses it; a concurrent
	// call on the same Proc lands its list in a fresh buffer instead.
	fdl     [4 * DefaultNetBatch]byte
	fdlBusy atomic.Bool
}

// Kernel returns the kernel this process traps into.
func (p *Proc) Kernel() *kernel.Kernel { return p.kernel }

// Device returns the owning device.
func (p *Proc) Device() *Device { return p.device }

func (p *Proc) invoke(args kernel.Args) kernel.Result {
	return p.kernel.Invoke(p.Task, args)
}

// Syscall issues a raw system call; the exploit corpus uses it for calls
// without a typed wrapper.
func (p *Proc) Syscall(args kernel.Args) kernel.Result {
	return p.invoke(args)
}

// Chain submits a dependent system-call chain (DESIGN.md §17). On an
// Anception device with the async ring, the whole chain executes
// guest-side off one linked ring submission — one doorbell, one
// completion — with FDFrom/UseCursor bindings resolved by the guest. On
// other platforms (or when fusion cannot apply) the links dispatch one
// call at a time with the bindings resolved host-side; either way the
// result slice is positional and a failed link short-circuits the rest
// with its error.
func (p *Proc) Chain(calls ...ChainCall) []kernel.Result {
	if p.device != nil && p.device.Layer != nil && p.kernel == p.device.Host {
		return p.device.Layer.Chain(p.Task, calls)
	}
	if err := validateChain(calls); err != nil {
		return failLinks(make([]kernel.Result, len(calls)), err)
	}
	return runChainUnfused(p.invoke, calls)
}

// --- identity and process control ---

// Getpid returns the process ID.
func (p *Proc) Getpid() int { return int(p.invoke(kernel.Args{Nr: abi.SysGetpid}).Ret) }

// Getuid returns the real user ID.
func (p *Proc) Getuid() int { return int(p.invoke(kernel.Args{Nr: abi.SysGetuid}).Ret) }

// Setuid attempts a UID change (which Anception punishes per footnote 3).
func (p *Proc) Setuid(uid int) error {
	return p.invoke(kernel.Args{Nr: abi.SysSetuid, UID: uid}).Err
}

// Fork clones the process and returns the child's Proc.
func (p *Proc) Fork() (*Proc, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysFork})
	if !res.Ok() {
		return nil, res.Err
	}
	child := p.kernel.Task(int(res.Ret))
	return &Proc{device: p.device, kernel: p.kernel, Task: child, App: p.App}, nil
}

// Execve replaces the process image.
func (p *Proc) Execve(path string, argv ...string) error {
	return p.invoke(kernel.Args{Nr: abi.SysExecve, Path: path, Argv: argv}).Err
}

// Exit terminates the process.
func (p *Proc) Exit(code int) {
	p.invoke(kernel.Args{Nr: abi.SysExit, Size: code})
}

// Wait reaps one zombie child, returning its PID.
func (p *Proc) Wait() (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysWait4})
	return int(res.Ret), res.Err
}

// Kill sends a signal to a process.
func (p *Proc) Kill(pid, sig int) error {
	return p.invoke(kernel.Args{Nr: abi.SysKill, TargetPID: pid, Sig: sig}).Err
}

// Chdir changes the working directory.
func (p *Proc) Chdir(path string) error {
	return p.invoke(kernel.Args{Nr: abi.SysChdir, Path: path}).Err
}

// Umask sets the file-creation mask and returns the previous one.
func (p *Proc) Umask(mask abi.FileMode) abi.FileMode {
	return abi.FileMode(p.invoke(kernel.Args{Nr: abi.SysUmask, Mode: mask}).Ret)
}

// Nanosleep advances simulated time.
func (p *Proc) Nanosleep(d time.Duration) {
	p.invoke(kernel.Args{Nr: abi.SysNanosleep, Off: int64(d)})
}

// Compute models user-space CPU work: units are abstract operation counts
// converted by the latency model. No kernel entry occurs.
func (p *Proc) Compute(units int64) {
	p.device.Clock.Charge(p.Task.Lane, time.Duration(units)*p.device.Model.CPUPerUnit)
}

// --- files ---

// Open opens a path.
func (p *Proc) Open(path string, flags abi.OpenFlag, mode abi.FileMode) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysOpen, Path: path, Flags: flags, Mode: mode})
	if !res.Ok() {
		return -1, res.Err
	}
	return res.FD, nil
}

// Close closes a descriptor.
func (p *Proc) Close(fd int) error {
	return p.invoke(kernel.Args{Nr: abi.SysClose, FD: fd}).Err
}

// Read reads up to n bytes from fd.
func (p *Proc) Read(fd int, n int) ([]byte, error) {
	buf := make([]byte, n)
	res := p.invoke(kernel.Args{Nr: abi.SysRead, FD: fd, Buf: buf})
	if !res.Ok() {
		return nil, res.Err
	}
	return buf[:res.Ret], nil
}

// Write writes data to fd.
func (p *Proc) Write(fd int, data []byte) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysWrite, FD: fd, Buf: data})
	return int(res.Ret), res.Err
}

// Pread reads at an explicit offset.
func (p *Proc) Pread(fd int, n int, off int64) ([]byte, error) {
	buf := make([]byte, n)
	res := p.invoke(kernel.Args{Nr: abi.SysPread64, FD: fd, Buf: buf, Off: off})
	if !res.Ok() {
		return nil, res.Err
	}
	return buf[:res.Ret], nil
}

// Pwrite writes at an explicit offset.
func (p *Proc) Pwrite(fd int, data []byte, off int64) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysPwrite64, FD: fd, Buf: data, Off: off})
	return int(res.Ret), res.Err
}

// PreadInto reads at an explicit offset into a caller-owned buffer —
// the zero-copy grant path pins exactly these pages, and benchmarks
// reuse one buffer across iterations.
func (p *Proc) PreadInto(fd int, buf []byte, off int64) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysPread64, FD: fd, Buf: buf, Off: off})
	return int(res.Ret), res.Err
}

// Readv reads into a vector of caller-owned segments (scatter read),
// returning the total bytes filled.
func (p *Proc) Readv(fd int, iov [][]byte) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysReadv, FD: fd, Iov: iov})
	return int(res.Ret), res.Err
}

// Writev writes a vector of segments (gather write), returning the
// total bytes written.
func (p *Proc) Writev(fd int, iov [][]byte) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysWritev, FD: fd, Iov: iov})
	return int(res.Ret), res.Err
}

// Preadv is Readv at an explicit offset.
func (p *Proc) Preadv(fd int, iov [][]byte, off int64) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysPreadv, FD: fd, Iov: iov, Off: off})
	return int(res.Ret), res.Err
}

// Pwritev is Writev at an explicit offset.
func (p *Proc) Pwritev(fd int, iov [][]byte, off int64) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysPwritev, FD: fd, Iov: iov, Off: off})
	return int(res.Ret), res.Err
}

// Lseek repositions the file offset.
func (p *Proc) Lseek(fd int, off int64, whence int) (int64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysLseek, FD: fd, Off: off, Whence: whence})
	return res.Ret, res.Err
}

// Stat returns the size of the object at path (the simulation's stat).
func (p *Proc) Stat(path string) (int64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysStat, Path: path})
	return res.Ret, res.Err
}

// Access checks permissions at path.
func (p *Proc) Access(path string, mode int) error {
	return p.invoke(kernel.Args{Nr: abi.SysAccess, Path: path, Size: mode}).Err
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string, mode abi.FileMode) error {
	return p.invoke(kernel.Args{Nr: abi.SysMkdir, Path: path, Mode: mode}).Err
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) error {
	return p.invoke(kernel.Args{Nr: abi.SysUnlink, Path: path}).Err
}

// Rename moves a file.
func (p *Proc) Rename(oldPath, newPath string) error {
	return p.invoke(kernel.Args{Nr: abi.SysRename, Path: oldPath, Path2: newPath}).Err
}

// Readlink reads a symlink (or /proc/<pid>/exe).
func (p *Proc) Readlink(path string) (string, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysReadlink, Path: path})
	if !res.Ok() {
		return "", res.Err
	}
	return string(res.Data), nil
}

// Getdents lists a directory as newline-joined names.
func (p *Proc) Getdents(path string) ([]byte, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysGetdents, Path: path})
	if !res.Ok() {
		return nil, res.Err
	}
	return res.Data, nil
}

// Ftruncate resizes an open file.
func (p *Proc) Ftruncate(fd int, size int64) error {
	return p.invoke(kernel.Args{Nr: abi.SysFtruncate, FD: fd, Off: size}).Err
}

// Fsync flushes a file's dirty pages, returning how many were written.
func (p *Proc) Fsync(fd int) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysFsync, FD: fd})
	return int(res.Ret), res.Err
}

// Sendfile copies n bytes from inFD to outFD in the kernel.
func (p *Proc) Sendfile(outFD, inFD, n int) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysSendfile, FD: outFD, FD2: inFD, Size: n})
	return int(res.Ret), res.Err
}

// --- sockets ---

// Socket creates a socket.
func (p *Proc) Socket(f netstack.Family, t netstack.SockType, proto int) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysSocket, Family: f, SockType: t, Proto: proto})
	if !res.Ok() {
		return -1, res.Err
	}
	return res.FD, nil
}

// Connect connects a socket to an address.
func (p *Proc) Connect(fd int, addr string) error {
	return p.invoke(kernel.Args{Nr: abi.SysConnect, FD: fd, Addr: addr}).Err
}

// Send transmits data on a connected socket.
func (p *Proc) Send(fd int, data []byte) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysSend, FD: fd, Buf: data})
	return int(res.Ret), res.Err
}

// Recv receives up to n bytes.
func (p *Proc) Recv(fd int, n int) ([]byte, error) {
	buf := make([]byte, n)
	res := p.invoke(kernel.Args{Nr: abi.SysRecv, FD: fd, Buf: buf})
	if !res.Ok() {
		return nil, res.Err
	}
	return buf[:res.Ret], nil
}

// RecvInto receives into a caller-owned buffer — the zero-copy grant
// path pins exactly these pages, and benchmarks reuse one buffer.
func (p *Proc) RecvInto(fd int, buf []byte) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysRecv, FD: fd, Buf: buf})
	return int(res.Ret), res.Err
}

// Bind binds a socket to a local address.
func (p *Proc) Bind(fd int, addr string) error {
	return p.invoke(kernel.Args{Nr: abi.SysBind, FD: fd, Addr: addr}).Err
}

// Listen marks a bound socket as accepting connections.
func (p *Proc) Listen(fd, backlog int) error {
	return p.invoke(kernel.Args{Nr: abi.SysListen, FD: fd, Size: backlog}).Err
}

// Accept takes one pending connection, returning the new descriptor.
func (p *Proc) Accept(fd int) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysAccept, FD: fd})
	if !res.Ok() {
		return -1, res.Err
	}
	return res.FD, nil
}

// AcceptBatch drains up to max pending connections in one call (accept4
// batching, DESIGN.md §14) — one ring completion carries the whole fd
// list. max <= 0 asks for the configured batch cap.
func (p *Proc) AcceptBatch(fd, max int) ([]int, error) {
	return p.fdListCall(kernel.Args{Nr: abi.SysAccept4, FD: fd, Size: max})
}

// fdListCall runs an accept4 or epoll_wait whose reply list lands in the
// Proc's fdl buffer when it is free, and decodes the list into the
// []int the app owns.
func (p *Proc) fdListCall(args kernel.Args) ([]int, error) {
	mine := p.fdlBusy.CompareAndSwap(false, true)
	if mine {
		args.Buf = p.fdl[:]
	}
	res := p.invoke(args)
	var fds []int
	err := res.Err
	if res.Ok() && len(res.Data) > 0 {
		fds, err = abi.DecodeFDList(res.Data)
	}
	if mine {
		p.fdlBusy.Store(false)
	}
	return fds, err
}

// EpollCreate creates an epoll instance.
func (p *Proc) EpollCreate() (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysEpollCreate})
	if !res.Ok() {
		return -1, res.Err
	}
	return res.FD, nil
}

// EpollCtl adds or removes a watched descriptor (op is
// kernel.EpollCtlAdd or kernel.EpollCtlDel).
func (p *Proc) EpollCtl(epfd, op, fd int) error {
	return p.invoke(kernel.Args{Nr: abi.SysEpollCtl, FD: epfd, FD2: fd, Flags: abi.OpenFlag(op)}).Err
}

// EpollWait polls for up to max ready descriptors in one call — batched
// like AcceptBatch, one ring completion carries N readiness events.
func (p *Proc) EpollWait(epfd, max int) ([]int, error) {
	return p.fdListCall(kernel.Args{Nr: abi.SysEpollWait, FD: epfd, Size: max})
}

// Shutdown shuts down a connected socket.
func (p *Proc) Shutdown(fd int) error {
	return p.invoke(kernel.Args{Nr: abi.SysShutdownSk, FD: fd}).Err
}

// --- memory ---

// Brk grows the heap to end (0 queries) and returns the break.
func (p *Proc) Brk(end uint64) (uint64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysBrk, Vaddr: end})
	return uint64(res.Ret), res.Err
}

// MapAnon maps pages of anonymous memory.
func (p *Proc) MapAnon(pages, prot int, tag string) (uint64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysMmap2, Pages: pages, Prot: prot, Tag: tag})
	if !res.Ok() {
		return 0, res.Err
	}
	return uint64(res.Ret), nil
}

// MapFixed maps pages at an exact address (MAP_FIXED) — address zero is
// the null-page shellcode staging exploits use.
func (p *Proc) MapFixed(addr uint64, pages, prot int) error {
	res := p.invoke(kernel.Args{Nr: abi.SysMmap2, Vaddr: addr, Pages: pages, Prot: prot, Tag: "fixed"})
	return res.Err
}

// MapFD maps an open file or device descriptor.
func (p *Proc) MapFD(fd, pages, prot int) (uint64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysMmap2, FD: fd, Pages: pages, Prot: prot})
	if !res.Ok() {
		return 0, res.Err
	}
	return uint64(res.Ret), nil
}

// Msync writes a file-backed mapping back to its file.
func (p *Proc) Msync(addr uint64) error {
	return p.invoke(kernel.Args{Nr: abi.SysMsync, Vaddr: addr}).Err
}

// Munmap removes a mapping.
func (p *Proc) Munmap(addr uint64) error {
	return p.invoke(kernel.Args{Nr: abi.SysMunmap, Vaddr: addr}).Err
}

// Poke performs a user-level store into the process's own memory: no
// system call is involved. A store into a mapping of a device that
// exposes kernel memory is kernel code injection — the kernelchopper
// channel (Section V-A1).
func (p *Proc) Poke(addr uint64, data []byte) error {
	if v := p.Task.AS.VMAAt(addr); v != nil && v.DeviceMemory {
		p.kernel.CompromiseKernel(p.Task, fmt.Sprintf("code injection via %s device mapping", v.Tag))
		return nil
	}
	return p.Task.AS.WriteBytes(p.kernel.Region(), addr, data)
}

// Peek performs a user-level load from the process's own memory.
func (p *Proc) Peek(addr uint64, n int) ([]byte, error) {
	return p.Task.AS.ReadBytes(p.kernel.Region(), addr, n)
}

// PlantSecret writes a secret at the start of the app's heap and returns
// its address; the confidentiality experiments read it back through
// attack channels (which dump memory from the heap base, as real
// credential-scanning malware does).
func (p *Proc) PlantSecret(secret []byte) (uint64, error) {
	needed := kernel.AddrHeapBase + uint64(len(secret)) + abi.PageSize
	if end, err := p.Brk(0); err != nil {
		return 0, err
	} else if end < needed {
		if _, err := p.Brk(needed); err != nil {
			return 0, err
		}
	}
	if err := p.Poke(kernel.AddrHeapBase, secret); err != nil {
		return 0, err
	}
	return kernel.AddrHeapBase, nil
}

// --- binder / UI ---

// OpenBinder opens /dev/binder.
func (p *Proc) OpenBinder() (int, error) {
	return p.Open("/dev/binder", abi.ORdWr, 0)
}

// BinderCall performs one synchronous transaction to a named service.
func (p *Proc) BinderCall(fd int, service string, code uint32, payload []byte) ([]byte, error) {
	res := p.binderIoctl(fd, binder.Transaction{Service: service, Code: code, Payload: payload})
	if !res.Ok() {
		return nil, res.Err
	}
	return res.Data, nil
}

// BinderCallAsync performs one asynchronous (TF_ONE_WAY) transaction: the
// service runs the request but no reply, and no error from the CVM side
// of a session, is delivered.
func (p *Proc) BinderCallAsync(fd int, service string, code uint32, payload []byte) error {
	return p.binderIoctl(fd, binder.Transaction{Service: service, Code: code, Payload: payload, Oneway: true}).Err
}

// binderIoctl encodes txn into the Proc's buffer, or a fresh one while
// another call holds it, and issues the transaction ioctl.
func (p *Proc) binderIoctl(fd int, txn binder.Transaction) kernel.Result {
	var buf []byte
	owned := p.txnBusy.CompareAndSwap(false, true)
	if owned {
		buf = p.txn[:0]
	}
	buf = marshal.AppendBinderTxn(buf, txn)
	res := p.invoke(kernel.Args{Nr: abi.SysIoctl, FD: fd, Request: binder.IocTransact, Buf: buf})
	if owned {
		if cap(buf) <= frameKeepBytes {
			p.txn = buf
		}
		p.txnBusy.Store(false)
	}
	return res
}

// WaitInput blocks for the next UI input event routed to this app.
func (p *Proc) WaitInput(binderFD int) ([]byte, error) {
	return p.BinderCall(binderFD, "window", android.CodeWaitInput, nil)
}

// Draw submits a frame.
func (p *Proc) Draw(binderFD int) error {
	_, err := p.BinderCall(binderFD, "window", android.CodeDraw, nil)
	return err
}

// Shmget creates or finds a shared segment (key IPCPrivate-style 0 for a
// fresh one) of the given page count, returning its id.
func (p *Proc) Shmget(key, pages int) (int, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysShmget, Size: key, Pages: pages})
	if !res.Ok() {
		return -1, res.Err
	}
	return int(res.Ret), nil
}

// Shmat attaches a shared segment and returns its base address.
func (p *Proc) Shmat(id int) (uint64, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysShmat, FD: id})
	if !res.Ok() {
		return 0, res.Err
	}
	return uint64(res.Ret), nil
}

// Shmdt detaches the mapping at addr.
func (p *Proc) Shmdt(addr uint64) error {
	return p.invoke(kernel.Args{Nr: abi.SysShmdt, Vaddr: addr}).Err
}

// Shmctl removes a segment (IPC_RMID).
func (p *Proc) Shmctl(id int) error {
	return p.invoke(kernel.Args{Nr: abi.SysShmctl, FD: id}).Err
}

// RegisterService publishes an app-level binder service under the given
// name. Apps also use binder to talk to each other; such IPCs proceed on
// the host (Section III-D, IPC) because both endpoints live there.
func (p *Proc) RegisterService(name string, handler binder.Handler) error {
	return p.kernel.Binder().Register(name, false, handler)
}

// Ioctl issues a raw ioctl.
func (p *Proc) Ioctl(fd int, req uint32, arg []byte) ([]byte, error) {
	res := p.invoke(kernel.Args{Nr: abi.SysIoctl, FD: fd, Request: req, Buf: arg})
	if !res.Ok() {
		return nil, res.Err
	}
	return res.Data, nil
}

// SendNetlink sends a datagram on a netlink socket descriptor.
func (p *Proc) SendNetlink(fd int, msg []byte) error {
	res := p.invoke(kernel.Args{Nr: abi.SysSend, FD: fd, Buf: msg})
	return res.Err
}
