package redirect

import (
	"testing"

	"anception/internal/abi"
)

// TestTableTotals pins the Section V-D aggregate: 324 syscalls analyzed,
// 229 redirected, 66 host, 21 split, 7 blocked, 1 reserved slot.
func TestTableTotals(t *testing.T) {
	s := TableStats()
	if s.Total != 324 {
		t.Fatalf("total = %d, want 324", s.Total)
	}
	if s.Redirect != 229 || s.Host != 66 || s.Split != 21 || s.Blocked != 7 || s.Unused != 1 {
		t.Fatalf("counts = %+v", s)
	}
}

func TestTablePercentagesMatchPaper(t *testing.T) {
	s := TableStats()
	cases := []struct {
		class Class
		want  float64
	}{
		{ClassRedirect, 70.7},
		{ClassHost, 20.4},
		{ClassSplit, 6.5},
		// 7/324 = 2.16%; the paper prints 2.1 (truncation), we round.
		{ClassBlocked, 2.2},
	}
	for _, c := range cases {
		if got := s.Percent(c.class); got != c.want {
			t.Errorf("Percent(%v) = %.1f, want %.1f", c.class, got, c.want)
		}
	}
}

// TestClassesDisjointAndTotal verifies the DESIGN.md invariant: the
// classification is total over the table and the classes are disjoint
// (disjointness is enforced at construction; a duplicate panics).
func TestClassesDisjointAndTotal(t *testing.T) {
	names := TableNames()
	if len(names) != 324 {
		t.Fatalf("names = %d", len(names))
	}
	for _, n := range names {
		if _, ok := ClassOfName(n); !ok {
			t.Errorf("name %q unclassified", n)
		}
	}
}

func TestClassifyImplementedCalls(t *testing.T) {
	cases := map[abi.SyscallNr]Class{
		abi.SysOpen:         ClassRedirect,
		abi.SysRead:         ClassRedirect,
		abi.SysWrite:        ClassRedirect,
		abi.SysIoctl:        ClassRedirect,
		abi.SysSocket:       ClassRedirect,
		abi.SysSendfile:     ClassRedirect,
		abi.SysGetpid:       ClassHost,
		abi.SysKill:         ClassHost,
		abi.SysNanosleep:    ClassHost,
		abi.SysMunmap:       ClassHost,
		abi.SysMprotect:     ClassHost,
		abi.SysFork:         ClassSplit,
		abi.SysExecve:       ClassSplit,
		abi.SysMmap2:        ClassSplit,
		abi.SysBrk:          ClassSplit,
		abi.SysSetuid:       ClassSplit,
		abi.SysChdir:        ClassSplit,
		abi.SysUmask:        ClassSplit,
		abi.SysExit:         ClassSplit,
		abi.SysPtrace:       ClassBlocked,
		abi.SysInitModule:   ClassBlocked,
		abi.SysDeleteModule: ClassBlocked,
		abi.SysReboot:       ClassBlocked,
	}
	for nr, want := range cases {
		if got := Classify(nr); got != want {
			t.Errorf("Classify(%v) = %v, want %v", nr, got, want)
		}
	}
}

func TestClassifyUnknownDefaultsToRedirect(t *testing.T) {
	if got := Classify(abi.SyscallNr(9999)); got != ClassRedirect {
		t.Fatalf("unknown syscall class = %v, want redirect", got)
	}
}

func TestDecideOpenPath(t *testing.T) {
	cases := map[string]Route{
		"/system/bin/vold":             RouteHost,
		"/system/lib/libc.so":          RouteHost,
		"/dev/binder":                  RouteHost,
		"/proc/self/exe":               RouteHost,
		"/proc/42/exe":                 RouteGuest,
		"/proc/net/netlink":            RouteGuest,
		"/proc/42/mem":                 RouteGuest,
		"/data/data/com.bank/secret":   RouteGuest,
		"/dev/graphics/fb0":            RouteGuest,
		"/sdcard/dcim/1.jpg":           RouteGuest,
		"/systemish/not-the-partition": RouteGuest,
	}
	for path, want := range cases {
		if got := DecideOpenPath(path); got != want {
			t.Errorf("DecideOpenPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if ClassRedirect.String() != "redirect" || ClassBlocked.String() != "blocked" {
		t.Fatal("class names")
	}
	if RouteGuest.String() != "guest" || RouteSplit.String() != "split" || RouteKill.String() != "kill" {
		t.Fatal("route names")
	}
	if Class(0).String() != "?" || Route(0).String() != "?" {
		t.Fatal("zero values")
	}
}

// TestEveryImplementedSyscallIsClassified ensures no implemented call
// falls through to the unknown-name default by accident.
func TestEveryImplementedSyscallIsClassified(t *testing.T) {
	implemented := []abi.SyscallNr{
		abi.SysExit, abi.SysFork, abi.SysRead, abi.SysWrite, abi.SysOpen,
		abi.SysClose, abi.SysCreat, abi.SysLink, abi.SysUnlink, abi.SysExecve,
		abi.SysChdir, abi.SysMknod, abi.SysChmod, abi.SysLseek, abi.SysGetpid,
		abi.SysMount, abi.SysSetuid, abi.SysGetuid, abi.SysPtrace, abi.SysPause,
		abi.SysAccess, abi.SysSync, abi.SysKill, abi.SysRename, abi.SysMkdir,
		abi.SysRmdir, abi.SysDup, abi.SysPipe, abi.SysBrk, abi.SysSetgid,
		abi.SysGetgid, abi.SysGeteuid, abi.SysGetegid, abi.SysIoctl,
		abi.SysFcntl, abi.SysUmask, abi.SysDup2, abi.SysGetppid,
		abi.SysSigaction, abi.SysSymlink, abi.SysReadlink, abi.SysReboot,
		abi.SysMunmap, abi.SysTruncate, abi.SysFtruncate, abi.SysFchmod,
		abi.SysFchown, abi.SysStatfs, abi.SysStat, abi.SysFstat, abi.SysWait4,
		abi.SysSysinfo, abi.SysFsync, abi.SysClone, abi.SysUname,
		abi.SysMprotect, abi.SysInitModule, abi.SysDeleteModule, abi.SysFchdir,
		abi.SysGetdents, abi.SysMsync, abi.SysNanosleep, abi.SysMremap,
		abi.SysSetresuid, abi.SysPoll, abi.SysPread64, abi.SysPwrite64,
		abi.SysChown, abi.SysGetcwd, abi.SysSendfile, abi.SysVfork,
		abi.SysMmap2, abi.SysGettid, abi.SysFutex, abi.SysExitGroup,
		abi.SysClockGettime, abi.SysTgkill, abi.SysSocket, abi.SysBind,
		abi.SysConnect, abi.SysListen, abi.SysAccept, abi.SysGetsockname,
		abi.SysGetpeername, abi.SysSocketpair, abi.SysSend, abi.SysSendto,
		abi.SysRecv, abi.SysRecvfrom, abi.SysShutdownSk, abi.SysSetsockopt,
		abi.SysGetsockopt, abi.SysOpenat, abi.SysMkdirat,
	}
	for _, nr := range implemented {
		if _, ok := ClassOfName(nr.String()); !ok {
			t.Errorf("implemented syscall %v (%q) missing from the 324-entry table", nr, nr.String())
		}
	}
}
