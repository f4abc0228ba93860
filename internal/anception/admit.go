package anception

import (
	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/redirect"
	"anception/internal/sim"
)

// Admission is the one routing decision for a call or a chain link
// (DESIGN.md §18).
type Admission struct {
	Route redirect.Route
	// Path is the absolute path the call names, for path-named calls: the
	// link location for symlink, the source for rename and link.
	Path string
}

// admit decides where one call runs, the way ASIM's redirection entry
// selects one alternate syscall table (Section III). In order:
//   - a task without the redirection entry runs on the host;
//   - a sandboxed task running as root is killed (footnote 3);
//   - the static class of the 324-entry table: blocked, host and split
//     calls take their class's route;
//   - a redirect-class call runs in the container, unless the path rule
//     or the descriptor rule keeps it on the host.
//
// Intercept admits every trapped call and a fused chain admits every link;
// there is no other routing decision. bound marks a chain link whose
// descriptor an earlier link mints in the container. admit reads the
// task's descriptor table only: it allocates nothing beyond the absolute
// path and charges no sim time.
func (l *Layer) admit(t *kernel.Task, args *kernel.Args, bound bool) Admission {
	if t.RE == 0 {
		return Admission{Route: redirect.RouteHost}
	}
	if t.Cred.UID == abi.UIDRoot {
		return Admission{Route: redirect.RouteKill}
	}
	switch redirect.Classify(args.Nr) {
	case redirect.ClassBlocked:
		return Admission{Route: redirect.RouteBlocked}
	case redirect.ClassHost:
		return Admission{Route: redirect.RouteHost}
	case redirect.ClassSplit:
		return Admission{Route: redirect.RouteSplit}
	}

	// The path rule: code, the UI channel and the app's own executable
	// stay on the host (the redirect package's open-path rule), and the
	// host-FS ablation (KeepFSOnHost) keeps every path there.
	p, ruled := "", true
	switch args.Nr {
	case abi.SysOpen, abi.SysOpenat, abi.SysCreat,
		abi.SysStat, abi.SysAccess, abi.SysMkdir, abi.SysMkdirat,
		abi.SysRmdir, abi.SysUnlink, abi.SysReadlink, abi.SysChmod,
		abi.SysChown, abi.SysTruncate, abi.SysGetdents, abi.SysStatfs,
		abi.SysMknod:
		p = args.Path
	case abi.SysSymlink:
		p = args.Path2 // the target string is stored, never resolved
	case abi.SysRename, abi.SysLink:
		// Both names resolve in the container.
		p, ruled = args.Path, false
	case abi.SysShmget, abi.SysShmat, abi.SysShmdt, abi.SysShmctl:
		// Shared segments are app memory: pages stay on the host
		// (principle 3), like the rest of the address space.
		return Admission{Route: redirect.RouteHost}
	case abi.SysSendfile:
		if remoteFD(t, args.FD) || remoteFD(t, args.FD2) {
			return Admission{Route: redirect.RouteGuest}
		}
		return Admission{Route: redirect.RouteHost}
	default:
		// The descriptor rule: a call on a descriptor runs where the
		// descriptor lives.
		if namesFD(args.Nr) && !bound && !remoteFD(t, args.FD) {
			return Admission{Route: redirect.RouteHost}
		}
		return Admission{Route: redirect.RouteGuest}
	}
	abs := l.absPath(t, p)
	if l.keepFSOnHost || ruled && redirect.DecideOpenPath(abs) == redirect.RouteHost {
		return Admission{Route: redirect.RouteHost, Path: abs}
	}
	return Admission{Route: redirect.RouteGuest, Path: abs}
}

// remoteFD reports whether fd names a descriptor living in the CVM proxy.
func remoteFD(t *kernel.Task, fd int) bool {
	e := t.FD(fd)
	return e != nil && e.Kind == kernel.FDRemote
}

// namesFD reports the redirect-class calls routed by the descriptor they
// name (sendfile, naming two, is admitted apart).
func namesFD(nr abi.SyscallNr) bool {
	switch nr {
	case abi.SysRead, abi.SysWrite, abi.SysPread64, abi.SysPwrite64,
		abi.SysReadv, abi.SysWritev, abi.SysPreadv, abi.SysPwritev,
		abi.SysLseek, abi.SysFstat, abi.SysFtruncate, abi.SysFchmod,
		abi.SysFchown, abi.SysFsync, abi.SysFchdir,
		abi.SysBind, abi.SysConnect, abi.SysListen,
		abi.SysSend, abi.SysSendto, abi.SysRecv, abi.SysRecvfrom,
		abi.SysShutdownSk, abi.SysSetsockopt, abi.SysGetsockopt,
		abi.SysGetsockname, abi.SysGetpeername,
		abi.SysClose, abi.SysDup, abi.SysDup2, abi.SysIoctl,
		abi.SysAccept, abi.SysAccept4, abi.SysEpollCtl, abi.SysEpollWait:
		return true
	default:
		return false
	}
}

// kill ends a task Anception will not run (Section III-C, footnote 3)
// and answers its call with EPERM.
func (l *Layer) kill(t *kernel.Task, why string) kernel.Result {
	l.counters.appsKilled.Add(1)
	if l.trace != nil {
		l.trace.Record(sim.EvSecurity, "anception killed pid=%d: %s", t.PID, why)
	}
	t.SetState(kernel.TaskDead)
	if t.AS != nil {
		t.AS.Release()
	}
	l.proxyMgr().MirrorExit(t.PID)
	return kernel.Result{Ret: -1, Err: abi.EPERM}
}
