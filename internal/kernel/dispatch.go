package kernel

import (
	"time"

	"anception/internal/abi"
	"anception/internal/netstack"
	"anception/internal/sim"
)

// Args carries the decoded arguments of one system call. Only the fields
// relevant to the call number are meaningful; the struct is shared across
// all calls so the interceptor can marshal uniformly.
type Args struct {
	Nr abi.SyscallNr

	Path  string
	Path2 string

	FD  int
	FD2 int

	Flags abi.OpenFlag
	Mode  abi.FileMode

	// Buf is the data payload: bytes to write/send, or scratch space
	// whose length bounds a read/recv.
	Buf  []byte
	Size int

	// Iov is the scatter-gather vector of the vectored I/O calls
	// (readv/writev/preadv/pwritev): data segments to gather on the write
	// side, scratch segments whose lengths bound the fill on the read
	// side. The segments are independent buffers; a vectored call charges
	// the storage stack once for the total, which is the point of
	// batching over issuing one call per segment.
	Iov [][]byte

	Off    int64
	Whence int

	Request uint32 // ioctl request

	Addr     string // socket address
	Family   netstack.Family
	SockType netstack.SockType
	Proto    int

	Sig       int
	TargetPID int

	UID int
	GID int

	Vaddr uint64
	Pages int
	Prot  int
	Tag   string

	Argv []string
}

// OpenFlags returns the flags an open-like call opens with: creat(2) is
// open(2) with O_WRONLY|O_CREAT|O_TRUNC whatever Flags says.
func (a *Args) OpenFlags() abi.OpenFlag {
	if a.Nr == abi.SysCreat {
		return abi.OWrOnly | abi.OCreat | abi.OTrunc
	}
	return a.Flags
}

// Result is the outcome of one system call.
type Result struct {
	Ret  int64
	Data []byte
	FD   int
	Err  error
}

// Ok reports whether the call succeeded.
func (r Result) Ok() bool { return r.Err == nil }

// Invoke executes one system call on behalf of t, charging simulated time
// and honoring the ASIM redirection hook. This is the patched syscall
// handler of Figure 5: trap entry, RE-byte check, and either the alternate
// (interceptor) table or the local one.
func (k *Kernel) Invoke(t *Task, args Args) Result {
	k.clock.Charge(t.Lane, k.model.SyscallEntry)
	if k.trace != nil {
		k.trace.Record(sim.EvSyscall, "[%s] pid=%d %s", k.name, t.PID, args.Nr)
	}
	k.mu.Lock()
	k.syscallCount[args.Nr]++
	detectors, interceptor := k.detectors, k.interceptor
	k.mu.Unlock()
	if err := k.screen(t, args, detectors); err != nil {
		return k.errResult(err)
	}

	// ASIM: the one-byte redirection entry selects the alternate table.
	if t.RE != 0 && interceptor != nil {
		k.clock.Charge(t.Lane, k.model.ASIMCheck)
		if res, handled := interceptor.Intercept(k, t, args); handled {
			return res
		}
	}

	return k.dispatchLocal(t, args)
}

// Screen is the host side of one syscall entry: it refuses a call with
// ESRCH for a task that is not running and with the first detector's
// veto. Invoke screens every trapped call; a fused chain, whose links
// never trap, screens each link once and counts the links that ran with
// CountSyscall. Screen neither counts nor charges sim time.
func (k *Kernel) Screen(t *Task, args Args) error {
	k.mu.Lock()
	detectors := k.detectors
	k.mu.Unlock()
	return k.screen(t, args, detectors)
}

func (k *Kernel) screen(t *Task, args Args, detectors []Detector) error {
	if t.CurrentState() != TaskRunning {
		return abi.ESRCH
	}
	for _, d := range detectors {
		// Each detector checks a copy of its own, so the call's Args stay
		// off the heap unless a detector is installed.
		a := args
		if err := d(t, &a); err != nil {
			if k.trace != nil {
				k.trace.Record(sim.EvSecurity, "[%s] detector vetoed %s from pid=%d: %v", k.name, args.Nr, t.PID, err)
			}
			return err
		}
	}
	return nil
}

// dispatchLocal runs the call against this kernel's own tables. The
// interceptor calls back into this via InvokeLocal for host-class calls.
func (k *Kernel) dispatchLocal(t *Task, args Args) Result {
	switch args.Nr {
	case abi.SysGetpid:
		return Result{Ret: int64(t.PID)}
	case abi.SysGetppid:
		return Result{Ret: int64(t.PPID)}
	case abi.SysGettid:
		return Result{Ret: int64(t.PID)}
	case abi.SysGetuid, abi.SysGeteuid:
		return Result{Ret: int64(t.Cred.UID)}
	case abi.SysGetgid, abi.SysGetegid:
		return Result{Ret: int64(t.Cred.GID)}
	case abi.SysGetcwd:
		return Result{Data: []byte(t.CWD)}
	case abi.SysUmask:
		return k.sysUmask(t, args)
	case abi.SysChdir:
		return k.sysChdir(t, args)
	case abi.SysSetuid:
		return k.sysSetuid(t, args)
	case abi.SysSetgid:
		return k.sysSetgid(t, args)
	case abi.SysClockGettime:
		return Result{Ret: int64(k.clock.Now())}
	case abi.SysNanosleep:
		k.clock.Charge(t.Lane, time.Duration(args.Off))
		return Result{}
	case abi.SysSysinfo, abi.SysUname:
		// CVE-2013-6282 surface: with the unchecked put_user bug, a
		// caller-controlled destination address becomes an arbitrary
		// kernel write in whichever kernel services the call.
		if args.Vaddr != 0 && k.Vulns().PutUserUnchecked {
			k.CompromiseKernel(t, "unchecked put_user kernel write (CVE-2013-6282)")
		}
		return Result{Data: []byte(k.name + "-linux-3.4-anception")}
	case abi.SysPerfEventOpen:
		return k.sysPerfEventOpen(t, args)

	case abi.SysOpen, abi.SysOpenat, abi.SysCreat:
		return k.sysOpen(t, args)
	case abi.SysClose:
		return k.sysClose(t, args)
	case abi.SysRead:
		return k.sysRead(t, args)
	case abi.SysWrite:
		return k.sysWrite(t, args)
	case abi.SysPread64:
		return k.sysPread(t, args)
	case abi.SysPwrite64:
		return k.sysPwrite(t, args)
	case abi.SysReadv, abi.SysPreadv:
		return k.sysReadv(t, args)
	case abi.SysWritev, abi.SysPwritev:
		return k.sysWritev(t, args)
	case abi.SysLseek:
		return k.sysLseek(t, args)
	case abi.SysStat:
		return k.sysStat(t, args)
	case abi.SysFstat:
		return k.sysFstat(t, args)
	case abi.SysAccess:
		return k.sysAccess(t, args)
	case abi.SysMkdir, abi.SysMkdirat:
		return k.sysMkdir(t, args)
	case abi.SysRmdir:
		return k.sysRmdir(t, args)
	case abi.SysUnlink:
		return k.sysUnlink(t, args)
	case abi.SysRename:
		return k.sysRename(t, args)
	case abi.SysLink:
		return k.sysLink(t, args)
	case abi.SysSymlink:
		return k.sysSymlink(t, args)
	case abi.SysReadlink:
		return k.sysReadlink(t, args)
	case abi.SysChmod, abi.SysFchmod:
		return k.sysChmod(t, args)
	case abi.SysChown, abi.SysFchown:
		return k.sysChown(t, args)
	case abi.SysTruncate, abi.SysFtruncate:
		return k.sysTruncate(t, args)
	case abi.SysGetdents:
		return k.sysGetdents(t, args)
	case abi.SysDup:
		return k.sysDup(t, args)
	case abi.SysDup2:
		return k.sysDup2(t, args)
	case abi.SysPipe:
		return k.sysPipe(t, args)
	case abi.SysFsync, abi.SysSync:
		return k.sysFsync(t, args)
	case abi.SysIoctl:
		return k.sysIoctl(t, args)
	case abi.SysFcntl:
		return Result{} // modeled as a no-op flag twiddle
	case abi.SysSendfile:
		return k.sysSendfile(t, args)
	case abi.SysStatfs:
		return Result{Data: []byte("ext4")}
	case abi.SysMount:
		return k.sysMount(t, args)

	case abi.SysSocket:
		return k.sysSocket(t, args)
	case abi.SysBind:
		return k.sysBind(t, args)
	case abi.SysConnect:
		return k.sysConnect(t, args)
	case abi.SysListen:
		return k.sysListen(t, args)
	case abi.SysAccept:
		return k.sysAccept(t, args)
	case abi.SysAccept4:
		return k.sysAccept4(t, args)
	case abi.SysEpollCreate:
		return k.sysEpollCreate(t, args)
	case abi.SysEpollCtl:
		return k.sysEpollCtl(t, args)
	case abi.SysEpollWait:
		return k.sysEpollWait(t, args)
	case abi.SysSend, abi.SysSendto:
		return k.sysSend(t, args)
	case abi.SysRecv, abi.SysRecvfrom:
		return k.sysRecv(t, args)
	case abi.SysShutdownSk, abi.SysSetsockopt, abi.SysGetsockopt,
		abi.SysGetsockname, abi.SysGetpeername:
		return Result{}

	case abi.SysBrk:
		return k.sysBrk(t, args)
	case abi.SysMmap2:
		return k.sysMmap2(t, args)
	case abi.SysMunmap:
		return k.sysMunmap(t, args)
	case abi.SysMprotect, abi.SysMsync, abi.SysMremap:
		return Result{}

	case abi.SysShmget:
		return k.sysShmget(t, args)
	case abi.SysShmat:
		return k.sysShmat(t, args)
	case abi.SysShmdt:
		return k.sysShmdt(t, args)
	case abi.SysShmctl:
		return k.sysShmctl(t, args)

	case abi.SysFork, abi.SysVfork, abi.SysClone:
		return k.sysFork(t, args)
	case abi.SysExecve:
		return k.sysExecve(t, args)
	case abi.SysExit, abi.SysExitGroup:
		return k.sysExit(t, args)
	case abi.SysWait4:
		return k.sysWait4(t, args)
	case abi.SysKill, abi.SysTgkill:
		return k.sysKill(t, args)
	case abi.SysSigaction:
		t.mu.Lock()
		t.Handlers[args.Sig] = true
		t.mu.Unlock()
		return Result{}
	case abi.SysPause, abi.SysPoll, abi.SysFutex:
		k.clock.Charge(t.Lane, k.model.SchedulerQuantum)
		return Result{}

	case abi.SysPtrace, abi.SysInitModule, abi.SysDeleteModule, abi.SysReboot:
		// Dangerous whole-system calls are denied to apps outright
		// (Section III-D, System Management).
		return k.errResult(abi.EPERM)

	default:
		return k.errResult(abi.ENOSYS)
	}
}

// InvokeLocal lets the interceptor execute a call on this kernel without
// re-entering the redirection check (used for host-class calls and for
// proxy-context execution in the guest).
func (k *Kernel) InvokeLocal(t *Task, args Args) Result {
	k.CountSyscall(args.Nr)
	if t.CurrentState() != TaskRunning {
		return k.errResult(abi.ESRCH)
	}
	return k.dispatchLocal(t, args)
}
