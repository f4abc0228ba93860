package kernel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"anception/internal/abi"
	"anception/internal/vfs"
)

// procfs is synthesized on access rather than materialized in the VFS:
// the kernel intercepts paths under /proc in the open/readlink/getdents
// paths and answers from live kernel state, exactly the visibility the
// GingerBreak walkthrough (Section V-C) depends on.

// parseProcPath splits "/proc/<pid-or-self>/rest" and resolves "self".
func (k *Kernel) parseProcPath(t *Task, p string) (pid int, rest string, ok bool) {
	parts := strings.Split(strings.TrimPrefix(p, "/proc/"), "/")
	if len(parts) == 0 || parts[0] == "" {
		return 0, "", false
	}
	if parts[0] == "self" {
		pid = t.PID
	} else {
		n, err := strconv.Atoi(parts[0])
		if err != nil {
			return 0, "", false
		}
		pid = n
	}
	return pid, strings.Join(parts[1:], "/"), true
}

func (k *Kernel) procfsOpen(t *Task, p string, args Args) Result {
	switch {
	case p == "/proc/net/netlink":
		return k.openSynthetic(t, p, k.netlinkTable())
	case p == "/proc/sys/kernel/hotplug":
		if args.Flags.Writable() {
			if !t.Cred.Root() {
				return k.errResult(abi.EACCES)
			}
			// Root may retarget the helper; the content write happens
			// through the returned synthetic handle in a real kernel,
			// but the simulation applies it directly on open+write via
			// the hotplug write path below.
		}
		return k.openSynthetic(t, p, []byte(k.HotplugHelper()))
	}

	pid, rest, ok := k.parseProcPath(t, p)
	if !ok {
		return k.errResult(abi.ENOENT)
	}
	target := k.Task(pid)
	if target == nil {
		return k.errResult(abi.ESRCH)
	}

	switch rest {
	case "exe":
		// Opening /proc/<pid>/exe opens the executable itself.
		if target.ExecPath == "" {
			return k.errResult(abi.ENOENT)
		}
		f, err := k.fs.Open(t.Cred, target.ExecPath, abi.ORdOnly, 0)
		if err != nil {
			return k.errResult(err)
		}
		fd := t.InstallFD(FDEntry{Kind: FDFile, File: f, Path: target.ExecPath})
		return Result{Ret: int64(fd), FD: fd}
	case "cmdline", "comm":
		return k.openSynthetic(t, p, []byte(target.Comm))
	case "status":
		status := fmt.Sprintf("Name:\t%s\nPid:\t%d\nUid:\t%d\nGid:\t%d\n",
			target.Comm, target.PID, target.Cred.UID, target.Cred.GID)
		return k.openSynthetic(t, p, []byte(status))
	case "maps":
		return k.openSynthetic(t, p, k.renderMaps(target))
	case "mem":
		// Ptrace-style access check: root or same UID — unless the
		// CVE-2012-0056 check-bypass bug is present in this kernel.
		if !k.Vulns().ProcMemWriteBypass && !t.Cred.Root() && t.Cred.UID != target.Cred.UID {
			return k.errResult(abi.EACCES)
		}
		fd := t.InstallFD(FDEntry{Kind: FDProcMem, Target: target, Path: p})
		return Result{Ret: int64(fd), FD: fd}
	default:
		return k.errResult(abi.ENOENT)
	}
}

// openSynthetic installs a read-only in-memory file without touching the
// real VFS tree.
func (k *Kernel) openSynthetic(t *Task, p string, content []byte) Result {
	scratch := vfs.New()
	cred := abi.Cred{UID: abi.UIDRoot}
	if err := scratch.WriteFile(cred, "/f", content, 0o444); err != nil {
		return k.errResult(err)
	}
	f, err := scratch.Open(t.Cred, "/f", abi.ORdOnly, 0)
	if err != nil {
		return k.errResult(err)
	}
	fd := t.InstallFD(FDEntry{Kind: FDFile, File: f, Path: p})
	return Result{Ret: int64(fd), FD: fd}
}

func (k *Kernel) netlinkTable() []byte {
	var b strings.Builder
	b.WriteString("sk       Eth Pid    Groups\n")
	for _, proto := range k.net.NetlinkProtocols() {
		fmt.Fprintf(&b, "00000000 %-3d kernel 00000000\n", proto)
	}
	return []byte(b.String())
}

func (k *Kernel) renderMaps(target *Task) []byte {
	if target.AS == nil {
		return nil
	}
	var b strings.Builder
	for _, v := range target.AS.VMAs() {
		fmt.Fprintf(&b, "%08x-%08x %s %s\n", v.Start, v.End(), protString(v.Prot), v.Tag)
	}
	return []byte(b.String())
}

func protString(p int) string {
	s := []byte("---")
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	if p&ProtExec != 0 {
		s[2] = 'x'
	}
	return string(s)
}

func (k *Kernel) procfsReadlink(t *Task, p string) Result {
	pid, rest, ok := k.parseProcPath(t, p)
	if !ok || rest != "exe" {
		return k.errResult(abi.ENOENT)
	}
	target := k.Task(pid)
	if target == nil {
		return k.errResult(abi.ESRCH)
	}
	return Result{Data: []byte(target.ExecPath), Ret: int64(len(target.ExecPath))}
}

// procfsGetdents lists /proc: one numeric entry per live task.
func (k *Kernel) procfsGetdents(t *Task, p string) Result {
	if p != "/proc" {
		return k.errResult(abi.ENOENT)
	}
	k.mu.Lock()
	pids := make([]int, 0, len(k.tasks))
	for pid := range k.tasks {
		pids = append(pids, pid)
	}
	k.mu.Unlock()
	sort.Ints(pids)
	names := make([]string, len(pids))
	for i, pid := range pids {
		names[i] = strconv.Itoa(pid)
	}
	return Result{Data: []byte(strings.Join(names, "\n")), Ret: int64(len(names))}
}

func (k *Kernel) procMemRead(t *Task, e FDEntry, args Args) Result {
	target := e.Target
	if target.AS == nil || target.CurrentState() != TaskRunning {
		return k.errResult(abi.ESRCH)
	}
	data, err := target.AS.ReadBytes(k.Region(), uint64(args.Off), len(args.Buf))
	if err != nil {
		return k.errResult(err)
	}
	copy(args.Buf, data)
	return Result{Ret: int64(len(data)), Data: data}
}

func (k *Kernel) procMemWrite(t *Task, e FDEntry, args Args) Result {
	target := e.Target
	if target.AS == nil || target.CurrentState() != TaskRunning {
		return k.errResult(abi.ESRCH)
	}
	if err := target.AS.WriteBytes(k.Region(), uint64(args.Off), args.Buf); err != nil {
		return k.errResult(err)
	}
	// Mempodroid's endgame: code injected into a root-owned process runs
	// with its privileges.
	if !t.Cred.Root() && target.Cred.Root() && isAttackerPayload(args.Buf) {
		k.GrantUserspaceRoot(t, "shellcode written into root process via /proc/pid/mem (CVE-2012-0056)")
	}
	return Result{Ret: int64(len(args.Buf))}
}
