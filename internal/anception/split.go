package anception

import (
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/redirect"
	"anception/internal/sim"
)

// handleSplit executes a split-class call: the host does its part and the
// proxy mirrors whatever state the container needs to stay consistent
// (Section III-D).
func (l *Layer) handleSplit(t *kernel.Task, args *kernel.Args) kernel.Result {
	switch args.Nr {
	case abi.SysFork, abi.SysVfork, abi.SysClone:
		res := l.host.InvokeLocal(t, *args)
		if !res.Ok() {
			return res
		}
		child := l.host.Task(int(res.Ret))
		if proxies := l.proxyMgr(); proxies.ProxyFor(t.PID) != nil || child.RE != 0 {
			// Mirroring the fork costs one small control round trip.
			l.chargeControlTrip(t)
			if _, err := proxies.MirrorFork(t.PID, child); err != nil {
				return kernel.Result{Ret: -1, Err: err}
			}
		}
		return res

	case abi.SysExecve:
		return l.handleExec(t, args)

	case abi.SysExit, abi.SysExitGroup:
		res := l.host.InvokeLocal(t, *args)
		if proxies := l.proxyMgr(); proxies.ProxyFor(t.PID) != nil {
			l.chargeControlTrip(t)
			proxies.MirrorExit(t.PID)
		}
		l.forgetMmapBindings(t.PID)
		return res

	case abi.SysSetuid, abi.SysSetgid:
		return l.handleCredChange(t, args)

	case abi.SysChdir:
		return l.handleChdir(t, args)

	case abi.SysUmask:
		res := l.host.InvokeLocal(t, *args)
		l.chargeControlTrip(t)
		l.proxyMgr().MirrorUmask(t.PID, t.Umask)
		return res

	case abi.SysBrk, abi.SysMremap:
		// Pages are managed by the trusted host (principle 3).
		return l.host.InvokeLocal(t, *args)

	case abi.SysMmap2:
		return l.handleMmap(t, args)

	case abi.SysMsync:
		return l.handleMsync(t, args)

	default:
		return l.host.InvokeLocal(t, *args)
	}
}

// handleChdir validates the target directory wherever it actually lives —
// the CVM for redirected paths — then updates the host task's working
// directory and mirrors it onto the proxy so both kernels resolve the
// app's relative paths identically. The validation is a stat of the
// target, admitted like any other.
func (l *Layer) handleChdir(t *kernel.Task, args *kernel.Args) kernel.Result {
	stat := kernel.Args{Nr: abi.SysStat, Path: args.Path}
	adm := l.admit(t, &stat, false)
	if adm.Route != redirect.RouteGuest {
		res := l.host.InvokeLocal(t, *args)
		if res.Ok() {
			l.chargeControlTrip(t)
			l.proxyMgr().MirrorChdir(t.PID, t.CWD)
		}
		return res
	}
	stat.Path = adm.Path
	statRes := l.forward(t, &stat)
	if !statRes.Ok() {
		return statRes
	}
	if string(statRes.Data) != "d" {
		return kernel.Result{Ret: -1, Err: abi.ENOTDIR}
	}
	t.CWD = adm.Path
	l.proxyMgr().MirrorChdir(t.PID, adm.Path)
	return kernel.Result{}
}

// handleCredChange enforces footnote 3: a UID change after launch is not
// permitted by the Android security model, so Anception kills the app.
func (l *Layer) handleCredChange(t *kernel.Task, args *kernel.Args) kernel.Result {
	newID := args.UID
	cur := t.Cred.UID
	if args.Nr == abi.SysSetgid {
		newID = args.GID
		cur = t.Cred.GID
	}
	if newID == cur {
		return kernel.Result{} // no-op re-assertion is fine
	}
	return l.kill(t, fmt.Sprintf("attempted UID/GID change %d -> %d", cur, newID))
}

// handleExec implements the exec split: system binaries run from the
// host's identical image; user-generated code is copied out of the CVM
// into the protected execution cache first.
func (l *Layer) handleExec(t *kernel.Task, args *kernel.Args) kernel.Result {
	p := l.absPath(t, args.Path)
	if hasPrefix(p, "/system/") || hasPrefix(p, l.execCache.Root()+"/") {
		return l.host.InvokeLocal(t, *args)
	}
	if hasPrefix(p, "/data/app/") {
		// Installed app code lives on the host (principle 1).
		return l.host.InvokeLocal(t, *args)
	}

	// User-generated code: fetch it from the container through the proxy.
	openRes := l.forward(t, &kernel.Args{Nr: abi.SysOpen, Path: p, Flags: abi.ORdOnly})
	if !openRes.Ok() {
		return openRes
	}
	guestFD := openRes.FD
	var contents []byte
	for {
		buf := make([]byte, abi.PageSize)
		readRes := l.forward(t, &kernel.Args{Nr: abi.SysRead, FD: guestFD, Buf: buf})
		if !readRes.Ok() {
			return readRes
		}
		if readRes.Ret == 0 {
			break
		}
		contents = append(contents, readRes.Data...)
	}
	l.forward(t, &kernel.Args{Nr: abi.SysClose, FD: guestFD})

	cached, err := l.execCache.Place(t.Cred.UID, p, contents)
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	if l.trace != nil {
		l.trace.Record(sim.EvLifecycle, "exec cache: %s -> %s for pid=%d", p, cached, t.PID)
	}
	fwd := *args
	fwd.Path = cached
	return l.host.InvokeLocal(t, fwd)
}

// handleMmap distinguishes the three mapping shapes the design cares
// about: anonymous/fixed mappings stay entirely on the host; host-local
// device mappings dispatch locally; mappings of CVM-resident files pull
// the pages across the boundary once and remap them into the app
// (Section III-D, Memory-mapped files). The pull is a pread of the
// descriptor, admitted like any other.
func (l *Layer) handleMmap(t *kernel.Task, args *kernel.Args) kernel.Result {
	pull := kernel.Args{Nr: abi.SysPread64, FD: args.FD}
	if args.FD <= 0 || l.admit(t, &pull, false).Route != redirect.RouteGuest {
		return l.host.InvokeLocal(t, *args)
	}
	e := t.FD(args.FD)

	pages := args.Pages
	if pages <= 0 {
		pages = 1
	}
	// Pull the file contents from the proxy (forced read faults +
	// pinning on the guest side), then build host-resident pages. The
	// read goes around the redirection cache, so what it buffered for
	// the file is written back first.
	if st := l.currentState(); !l.cacheBypassed(st) {
		if res, failed := l.flushFDFor(st, t, e); failed {
			return res
		}
	}
	pull.FD, pull.Buf = e.GuestFD, make([]byte, pages*abi.PageSize)
	readRes := l.forward(t, &pull)
	if !readRes.Ok() {
		return readRes
	}
	base, err := t.AS.MapAnon(pages, args.Prot, kernel.VMAFile, e.Path)
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	if len(readRes.Data) > 0 {
		if err := t.AS.WriteBytes(l.host.Region(), base, readRes.Data); err != nil {
			return kernel.Result{Ret: -1, Err: err}
		}
	}
	// Efficient page remapping instead of per-fault round trips.
	l.clock.Charge(t.Lane, timesPages(pages, l.model.PageRemap))

	binding := mmapBinding{entry: e, file: l.fileOf(e), pages: pages}
	l.mu.Lock()
	if l.mmapBindings[t.PID] == nil {
		l.mmapBindings[t.PID] = make(map[uint64]mmapBinding)
	}
	l.mmapBindings[t.PID][base] = binding
	l.mu.Unlock()
	return kernel.Result{Ret: int64(base)}
}

// handleMsync writes a CVM-backed mapping back to its file in the
// container ("write-back is used when data has to be synchronized").
func (l *Layer) handleMsync(t *kernel.Task, args *kernel.Args) kernel.Result {
	l.mu.Lock()
	binding, ok := l.mmapBindings[t.PID][args.Vaddr]
	l.mu.Unlock()
	if !ok {
		return l.host.InvokeLocal(t, *args)
	}
	data, err := t.AS.ReadBytes(l.host.Region(), args.Vaddr, binding.pages*abi.PageSize)
	if err != nil {
		return kernel.Result{Ret: -1, Err: err}
	}
	res := l.forward(t, &kernel.Args{Nr: abi.SysPwrite64, FD: binding.entry.GuestFD, Buf: data, Off: 0})
	// The write-back went around the redirection cache: the pages cached
	// for this file are stale now.
	l.noteFileWrite(binding.file)
	return res
}

func (l *Layer) forgetMmapBindings(pid int) {
	l.mu.Lock()
	delete(l.mmapBindings, pid)
	l.mu.Unlock()
}

// chargeControlTrip accounts a small mirror message to the container.
func (l *Layer) chargeControlTrip(t *kernel.Task) {
	l.clock.Charge(t.Lane, l.model.RedirectFixedCost())
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

func timesPages(n int, per time.Duration) time.Duration {
	return time.Duration(n) * per
}
