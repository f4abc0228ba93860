package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/netstack"
	"anception/internal/sim"
	"anception/internal/vfs"
)

const testMemBytes = 64 << 20 // 64 MB is plenty for unit tests

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	clock := sim.NewClock()
	phys := NewPhysical(testMemBytes)
	fs := vfs.New()
	rootCred := abi.Cred{UID: abi.UIDRoot}
	for _, d := range []string{"/system", "/system/bin", "/system/lib", "/data", "/data/data", "/dev", "/sbin"} {
		if err := fs.Mkdir(rootCred, d, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	k := New(Config{
		Name:   "host",
		Clock:  clock,
		Model:  sim.DefaultLatencyModel(),
		Trace:  sim.NewTrace(clock),
		FS:     fs,
		Net:    netstack.New("host"),
		Binder: binder.NewDriver(),
		Alloc:  phys.NewAllocator("host", Region{}),
	})
	return k
}

func spawnApp(t *testing.T, k *Kernel, uid int) *Task {
	t.Helper()
	task := k.Spawn(abi.Cred{UID: uid, GID: uid}, "app")
	// Give each app a private data directory, as installd would.
	dir := "/data/data/app" + task.Comm
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().Mkdir(root, dir, 0o700); err != nil && !errors.Is(err, abi.EEXIST) {
		t.Fatal(err)
	}
	if err := k.FS().Chown(root, dir, uid, uid); err != nil {
		t.Fatal(err)
	}
	return task
}

func TestGetpidAndCredCalls(t *testing.T) {
	k := newTestKernel(t)
	task := spawnApp(t, k, 10001)
	if res := k.Invoke(task, Args{Nr: abi.SysGetpid}); res.Ret != int64(task.PID) {
		t.Fatalf("getpid = %d, want %d", res.Ret, task.PID)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysGetuid}); res.Ret != 10001 {
		t.Fatalf("getuid = %d", res.Ret)
	}
}

func TestGetpidChargesTableILatency(t *testing.T) {
	k := newTestKernel(t)
	task := spawnApp(t, k, 10001)
	before := k.Clock().Now()
	k.Invoke(task, Args{Nr: abi.SysGetpid})
	elapsed := k.Clock().Now() - before
	if got, want := elapsed, k.Model().SyscallEntry; got != want {
		t.Fatalf("getpid cost %v, want %v (Table I native null call)", got, want)
	}
}

func TestOpenWriteReadClose(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	res := k.Invoke(task, Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.OWrOnly | abi.OCreat, Mode: 0o644})
	if !res.Ok() {
		t.Fatalf("open: %v", res.Err)
	}
	fd := res.FD
	if res := k.Invoke(task, Args{Nr: abi.SysWrite, FD: fd, Buf: []byte("hello")}); res.Ret != 5 {
		t.Fatalf("write = %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysClose, FD: fd}); !res.Ok() {
		t.Fatalf("close: %v", res.Err)
	}
	res = k.Invoke(task, Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.ORdOnly})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 16)
	res = k.Invoke(task, Args{Nr: abi.SysRead, FD: res.FD, Buf: buf})
	if string(res.Data) != "hello" {
		t.Fatalf("read = %q", res.Data)
	}
}

func TestUmaskAppliedOnCreate(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	if res := k.Invoke(task, Args{Nr: abi.SysUmask, Mode: 0o077}); !res.Ok() {
		t.Fatal(res.Err)
	}
	res := k.Invoke(task, Args{Nr: abi.SysOpen, Path: "/data/g", Flags: abi.OWrOnly | abi.OCreat, Mode: 0o666})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	st, err := k.FS().StatPath(abi.Cred{UID: abi.UIDRoot}, "/data/g")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != 0o600 {
		t.Fatalf("mode = %o, want 600 (umask 077)", st.Mode)
	}
}

func TestChdirAndRelativePaths(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	if res := k.Invoke(task, Args{Nr: abi.SysChdir, Path: "/data"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	res := k.Invoke(task, Args{Nr: abi.SysOpen, Path: "rel.txt", Flags: abi.OWrOnly | abi.OCreat, Mode: 0o644})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	if _, err := k.FS().StatPath(abi.Cred{UID: abi.UIDRoot}, "/data/rel.txt"); err != nil {
		t.Fatalf("relative create landed elsewhere: %v", err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysGetcwd}); string(res.Data) != "/data" {
		t.Fatalf("getcwd = %q", res.Data)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysChdir, Path: "/data/rel.txt"}); !errors.Is(res.Err, abi.ENOTDIR) {
		t.Fatalf("chdir to file: %v, want ENOTDIR", res.Err)
	}
}

func TestSetuidRules(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	if res := k.Invoke(app, Args{Nr: abi.SysSetuid, UID: 0}); !errors.Is(res.Err, abi.EPERM) {
		t.Fatalf("app setuid(0): %v, want EPERM", res.Err)
	}
	rootTask := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "daemon")
	if res := k.Invoke(rootTask, Args{Nr: abi.SysSetuid, UID: 10050}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if rootTask.Cred.UID != 10050 {
		t.Fatalf("uid = %d after setuid", rootTask.Cred.UID)
	}
}

func TestForkCopiesStateAndMemory(t *testing.T) {
	k := newTestKernel(t)
	parent := spawnApp(t, k, 10001)
	parent.RE = 1
	if res := k.Invoke(parent, Args{Nr: abi.SysChdir, Path: "/data"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	// Put a secret in the parent's heap.
	if _, err := parent.AS.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := parent.AS.WriteBytes(k.Region(), AddrHeapBase, []byte("parent-secret")); err != nil {
		t.Fatal(err)
	}

	res := k.Invoke(parent, Args{Nr: abi.SysFork})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	child := k.Task(int(res.Ret))
	if child == nil {
		t.Fatal("child not registered")
	}
	if child.PPID != parent.PID || child.CWD != "/data" || child.RE != 1 {
		t.Fatalf("child state = ppid=%d cwd=%q re=%d", child.PPID, child.CWD, child.RE)
	}
	got, err := child.AS.ReadBytes(k.Region(), AddrHeapBase, len("parent-secret"))
	if err != nil || string(got) != "parent-secret" {
		t.Fatalf("child heap = %q, %v", got, err)
	}
	// Child writes must not leak back to the parent (eager COW copy).
	if err := child.AS.WriteBytes(k.Region(), AddrHeapBase, []byte("child-change!")); err != nil {
		t.Fatal(err)
	}
	back, _ := parent.AS.ReadBytes(k.Region(), AddrHeapBase, len("parent-secret"))
	if string(back) != "parent-secret" {
		t.Fatalf("parent heap corrupted by child write: %q", back)
	}
}

func TestExecRequiresExecutePermission(t *testing.T) {
	k := newTestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/system/bin/sh", []byte("ELF"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(root, "/data/noexec", []byte("ELF"), 0o644); err != nil {
		t.Fatal(err)
	}
	app := spawnApp(t, k, 10001)
	if res := k.Invoke(app, Args{Nr: abi.SysExecve, Path: "/system/bin/sh"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if app.Comm != "sh" || app.ExecPath != "/system/bin/sh" {
		t.Fatalf("after exec: comm=%q path=%q", app.Comm, app.ExecPath)
	}
	if res := k.Invoke(app, Args{Nr: abi.SysExecve, Path: "/data/noexec"}); !errors.Is(res.Err, abi.EACCES) {
		t.Fatalf("exec 0644: %v, want EACCES", res.Err)
	}
}

func TestExitAndWait(t *testing.T) {
	k := newTestKernel(t)
	parent := spawnApp(t, k, 10001)
	res := k.Invoke(parent, Args{Nr: abi.SysFork})
	child := k.Task(int(res.Ret))
	if res := k.Invoke(parent, Args{Nr: abi.SysWait4}); !errors.Is(res.Err, abi.ECHILD) {
		t.Fatalf("wait before exit: %v, want ECHILD", res.Err)
	}
	if res := k.Invoke(child, Args{Nr: abi.SysExit, Size: 7}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if child.CurrentState() != TaskZombie {
		t.Fatalf("child state = %v, want zombie", child.CurrentState())
	}
	res = k.Invoke(parent, Args{Nr: abi.SysWait4})
	if !res.Ok() || int(res.Ret) != child.PID || res.Data[0] != 7 {
		t.Fatalf("wait4 = %+v", res)
	}
	if k.Task(child.PID) != nil {
		t.Fatal("zombie not reaped")
	}
}

func TestKillPermissions(t *testing.T) {
	k := newTestKernel(t)
	victim := spawnApp(t, k, 10001)
	attacker := spawnApp(t, k, 10002)
	if res := k.Invoke(attacker, Args{Nr: abi.SysKill, TargetPID: victim.PID, Sig: abi.SIGKILL}); !errors.Is(res.Err, abi.EPERM) {
		t.Fatalf("cross-uid kill: %v, want EPERM", res.Err)
	}
	rootTask := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	if res := k.Invoke(rootTask, Args{Nr: abi.SysKill, TargetPID: victim.PID, Sig: abi.SIGKILL}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if victim.CurrentState() != TaskDead {
		t.Fatalf("victim state = %v", victim.CurrentState())
	}
	if res := k.Invoke(rootTask, Args{Nr: abi.SysKill, TargetPID: 9999, Sig: abi.SIGTERM}); !errors.Is(res.Err, abi.ESRCH) {
		t.Fatalf("kill missing pid: %v, want ESRCH", res.Err)
	}
}

func TestSignalsDeliveredNotFatal(t *testing.T) {
	k := newTestKernel(t)
	taskA := spawnApp(t, k, 10001)
	taskB := k.Spawn(abi.Cred{UID: 10001, GID: 10001}, "peer")
	if res := k.Invoke(taskA, Args{Nr: abi.SysKill, TargetPID: taskB.PID, Sig: abi.SIGTERM}); !res.Ok() {
		t.Fatal(res.Err)
	}
	sigs := taskB.TakeSignals()
	if len(sigs) != 1 || sigs[0] != abi.SIGTERM {
		t.Fatalf("signals = %v", sigs)
	}
}

func TestDangerousCallsBlocked(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	for _, nr := range []abi.SyscallNr{abi.SysPtrace, abi.SysInitModule, abi.SysDeleteModule, abi.SysReboot} {
		if res := k.Invoke(app, Args{Nr: nr}); !errors.Is(res.Err, abi.EPERM) {
			t.Errorf("%v: err = %v, want EPERM", nr, res.Err)
		}
	}
}

func TestENOSYSForUnimplemented(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	if res := k.Invoke(app, Args{Nr: abi.SyscallNr(999)}); !errors.Is(res.Err, abi.ENOSYS) {
		t.Fatalf("err = %v, want ENOSYS", res.Err)
	}
}

func TestDeadTaskCannotSyscall(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	app.SetState(TaskDead)
	if res := k.Invoke(app, Args{Nr: abi.SysGetpid}); !errors.Is(res.Err, abi.ESRCH) {
		t.Fatalf("err = %v, want ESRCH", res.Err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	res := k.Invoke(app, Args{Nr: abi.SysPipe})
	rfd, wfd := int(res.Ret), res.FD
	if res := k.Invoke(app, Args{Nr: abi.SysWrite, FD: wfd, Buf: []byte("through the pipe")}); !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 32)
	res = k.Invoke(app, Args{Nr: abi.SysRead, FD: rfd, Buf: buf})
	if string(res.Data) != "through the pipe" {
		t.Fatalf("pipe read = %q", res.Data)
	}
}

func TestDupSharesOffset(t *testing.T) {
	k := newTestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/data/d", []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	task := k.Spawn(root, "init")
	res := k.Invoke(task, Args{Nr: abi.SysOpen, Path: "/data/d", Flags: abi.ORdOnly})
	fd := res.FD
	dup := k.Invoke(task, Args{Nr: abi.SysDup, FD: fd})
	if !dup.Ok() {
		t.Fatal(dup.Err)
	}
	buf := make([]byte, 3)
	k.Invoke(task, Args{Nr: abi.SysRead, FD: fd, Buf: buf})
	res = k.Invoke(task, Args{Nr: abi.SysRead, FD: dup.FD, Buf: buf})
	if string(res.Data) != "def" {
		t.Fatalf("dup shares description: read %q, want \"def\"", res.Data)
	}
}

func TestProcfsSelfAndStatus(t *testing.T) {
	k := newTestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/system/bin/vold", []byte("ELF-vold"), 0o755); err != nil {
		t.Fatal(err)
	}
	vold := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "vold")
	if res := k.Invoke(vold, Args{Nr: abi.SysExecve, Path: "/system/bin/vold"}); !res.Ok() {
		t.Fatal(res.Err)
	}

	app := spawnApp(t, k, 10001)
	// readlink /proc/<pid>/exe
	res := k.Invoke(app, Args{Nr: abi.SysReadlink, Path: "/proc/" + itoa(vold.PID) + "/exe"})
	if string(res.Data) != "/system/bin/vold" {
		t.Fatalf("readlink exe = %q", res.Data)
	}
	// open /proc/<pid>/status
	res = k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/proc/" + itoa(vold.PID) + "/status", Flags: abi.ORdOnly})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 256)
	res = k.Invoke(app, Args{Nr: abi.SysRead, FD: res.FD, Buf: buf})
	if !strings.Contains(string(res.Data), "Name:\tvold") || !strings.Contains(string(res.Data), "Uid:\t0") {
		t.Fatalf("status = %q", res.Data)
	}
	// /proc listing contains both PIDs.
	res = k.Invoke(app, Args{Nr: abi.SysGetdents, Path: "/proc"})
	listing := string(res.Data)
	if !strings.Contains(listing, itoa(vold.PID)) || !strings.Contains(listing, itoa(app.PID)) {
		t.Fatalf("/proc listing = %q", listing)
	}
}

func TestProcfsSelfExeOpensBinary(t *testing.T) {
	k := newTestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/system/bin/tool", []byte("BINARY-BYTES"), 0o755); err != nil {
		t.Fatal(err)
	}
	app := spawnApp(t, k, 10001)
	if res := k.Invoke(app, Args{Nr: abi.SysExecve, Path: "/system/bin/tool"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	res := k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/proc/self/exe", Flags: abi.ORdOnly})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 32)
	res = k.Invoke(app, Args{Nr: abi.SysRead, FD: res.FD, Buf: buf})
	if string(res.Data) != "BINARY-BYTES" {
		t.Fatalf("self/exe read = %q", res.Data)
	}
}

func TestProcMemAccessControl(t *testing.T) {
	k := newTestKernel(t)
	victim := spawnApp(t, k, 10001)
	if _, err := victim.AS.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := victim.AS.WriteBytes(k.Region(), AddrHeapBase, []byte("password=hunter2")); err != nil {
		t.Fatal(err)
	}

	attacker := spawnApp(t, k, 10002)
	memPath := "/proc/" + itoa(victim.PID) + "/mem"
	if res := k.Invoke(attacker, Args{Nr: abi.SysOpen, Path: memPath, Flags: abi.ORdOnly}); !errors.Is(res.Err, abi.EACCES) {
		t.Fatalf("cross-uid mem open: %v, want EACCES", res.Err)
	}

	// Root (a compromised daemon on native Android) reads the secret.
	rootTask := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "evil")
	res := k.Invoke(rootTask, Args{Nr: abi.SysOpen, Path: memPath, Flags: abi.ORdOnly})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 16)
	res = k.Invoke(rootTask, Args{Nr: abi.SysRead, FD: res.FD, Buf: buf, Off: int64(AddrHeapBase)})
	if string(res.Data) != "password=hunter2" {
		t.Fatalf("root mem read = %q", res.Data)
	}
}

func TestProcNetNetlink(t *testing.T) {
	k := newTestKernel(t)
	k.Net().RegisterNetlink(16, func(netstack.Cred, []byte) error { return nil }, true)
	app := spawnApp(t, k, 10001)
	res := k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/proc/net/netlink", Flags: abi.ORdOnly})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 512)
	res = k.Invoke(app, Args{Nr: abi.SysRead, FD: res.FD, Buf: buf})
	if !strings.Contains(string(res.Data), "16") {
		t.Fatalf("netlink table = %q", res.Data)
	}
}

func TestSendfileNullDerefCompromisesWhenShellcodeMapped(t *testing.T) {
	k := newTestKernel(t)
	k.Net().InjectVulnerability(netstack.AFBluetooth, netstack.SockDgram, netstack.VulnNullSendpage)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/data/arbitrary.txt", []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}

	app := spawnApp(t, k, 10001)
	// Map shellcode at the null page (mmap_min_addr is 0 here).
	if err := app.AS.MapFixed(0, 1, ProtRead|ProtWrite|ProtExec, VMAAnon, "shellcode"); err != nil {
		t.Fatal(err)
	}
	sockRes := k.Invoke(app, Args{Nr: abi.SysSocket, Family: netstack.AFBluetooth, SockType: netstack.SockDgram})
	fileRes := k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/data/arbitrary.txt", Flags: abi.ORdWr})
	res := k.Invoke(app, Args{Nr: abi.SysSendfile, FD: sockRes.FD, FD2: fileRes.FD, Size: abi.PageSize})
	if !res.Ok() {
		t.Fatalf("sendfile: %v", res.Err)
	}
	c := k.Compromised()
	if c == nil || c.ByPID != app.PID {
		t.Fatalf("kernel not compromised: %+v", c)
	}
	if app.Cred.UID != abi.UIDRoot {
		t.Fatal("exploit did not yield root")
	}
}

func TestSendfileNullDerefPanicsWithoutShellcode(t *testing.T) {
	k := newTestKernel(t)
	k.Net().InjectVulnerability(netstack.AFBluetooth, netstack.SockDgram, netstack.VulnNullSendpage)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/data/arbitrary.txt", []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	app := spawnApp(t, k, 10001)
	sockRes := k.Invoke(app, Args{Nr: abi.SysSocket, Family: netstack.AFBluetooth, SockType: netstack.SockDgram})
	fileRes := k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/data/arbitrary.txt", Flags: abi.ORdWr})
	res := k.Invoke(app, Args{Nr: abi.SysSendfile, FD: sockRes.FD, FD2: fileRes.FD, Size: abi.PageSize})
	if !errors.Is(res.Err, abi.EFAULT) {
		t.Fatalf("sendfile: %v, want EFAULT", res.Err)
	}
	if k.Panicked() == "" {
		t.Fatal("kernel should have panicked on unmapped null page")
	}
	if k.Compromised() != nil {
		t.Fatal("panic must not count as compromise")
	}
}

func TestHotplugExecutesAttackerHelper(t *testing.T) {
	k := newTestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	app := spawnApp(t, k, 10001)
	// No helper file: uevent is a no-op.
	if err := k.TriggerHotplug(app); err != nil {
		t.Fatal(err)
	}
	if k.Compromised() != nil {
		t.Fatal("no helper present, must not compromise")
	}
	// Attacker-controlled helper: compromise.
	payload := []byte(AttackerPayloadMagic + "\nchown root exploit")
	if err := k.FS().WriteFile(root, "/sbin/hotplug", payload, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.TriggerHotplug(app); err != nil {
		t.Fatal(err)
	}
	if c := k.Compromised(); c == nil || c.ByPID != app.PID {
		t.Fatalf("compromise = %+v", c)
	}
}

func TestDetectorVetoesCalls(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	k.AddDetector(func(t *Task, args *Args) error {
		if args.Nr == abi.SysOpen && strings.Contains(args.Path, "forbidden") {
			return abi.EACCES
		}
		return nil
	})
	if res := k.Invoke(app, Args{Nr: abi.SysOpen, Path: "/data/forbidden", Flags: abi.ORdOnly}); !errors.Is(res.Err, abi.EACCES) {
		t.Fatalf("detector bypassed: %v", res.Err)
	}
	if res := k.Invoke(app, Args{Nr: abi.SysGetpid}); !res.Ok() {
		t.Fatal("detector broke unrelated calls")
	}
}

func TestPanicKillsAllTasks(t *testing.T) {
	k := newTestKernel(t)
	a := spawnApp(t, k, 10001)
	b := spawnApp(t, k, 10002)
	k.Panic("test-induced oops")
	if a.CurrentState() != TaskDead || b.CurrentState() != TaskDead {
		t.Fatal("panic left tasks running")
	}
	if k.Panicked() != "test-induced oops" {
		t.Fatalf("reason = %q", k.Panicked())
	}
}

func TestSyscallCountsAccumulate(t *testing.T) {
	k := newTestKernel(t)
	app := spawnApp(t, k, 10001)
	for i := 0; i < 5; i++ {
		k.Invoke(app, Args{Nr: abi.SysGetpid})
	}
	if got := k.SyscallCounts()[abi.SysGetpid]; got != 5 {
		t.Fatalf("getpid count = %d", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestHostFDsOf: guest descriptors translate in place to the host
// descriptors of the remote entries naming them, in the order asked;
// unknown guest fds and non-remote entries are skipped, and a duplicate
// name resolves to the lowest host fd.
func TestHostFDsOf(t *testing.T) {
	task := newTask(10, 1, abi.Cred{UID: abi.UIDAppBase}, "app")
	a := task.InstallFD(FDEntry{Kind: FDRemote, GuestFD: 7})
	b := task.InstallFD(FDEntry{Kind: FDRemote, GuestFD: 9})
	task.InstallFD(FDEntry{Kind: FDFile, GuestFD: 11}) // not remote
	dup := task.InstallFD(FDEntry{Kind: FDRemote, GuestFD: 7})
	var list []byte
	for _, g := range []int{9, 11, 7, 42} {
		list = abi.AppendFD(list, g)
	}
	out := task.HostFDsOf(list)
	got, err := abi.DecodeFDList(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{b, min(a, dup)}
	if !slices.Equal(got, want) {
		t.Fatalf("HostFDsOf = %v, want %v", got, want)
	}
	if &out[0] != &list[0] {
		t.Fatal("HostFDsOf did not translate in place")
	}
	if out := task.HostFDsOf(nil); len(out) != 0 {
		t.Fatalf("no guest fds translated to %v", out)
	}
}

// TestInstallRemoteFD: a remote entry installs only when it names a guest
// descriptor, one above 0 that no remote entry of the task maps; a refused
// entry installs nothing. Once closed, a guest fd may be named again.
// MaxGuestFD and SkipFDs let a new proxy number past what its task maps.
func TestInstallRemoteFD(t *testing.T) {
	task := newTask(10, 1, abi.Cred{UID: abi.UIDAppBase}, "app")
	fd, ok := task.InstallRemoteFD(-1, FDEntry{Kind: FDRemote, GuestFD: 5})
	if !ok {
		t.Fatal("guest fd 5 refused by an empty table")
	}
	task.InstallFD(FDEntry{Kind: FDFile, GuestFD: 6}) // not remote
	for _, g := range []int{0, -3, 5} {
		if _, ok := task.InstallRemoteFD(-1, FDEntry{Kind: FDRemote, GuestFD: g}); ok {
			t.Errorf("guest fd %d installed while guest fd 5 is mapped", g)
		}
	}
	if n := len(task.FDs()); n != 2 {
		t.Fatalf("%d descriptors after refused entries, want 2", n)
	}
	if at, ok := task.InstallRemoteFD(40, FDEntry{Kind: FDRemote, GuestFD: 6}); !ok || at != 40 {
		t.Fatalf("guest fd 6 at descriptor 40: fd %d ok %v", at, ok)
	}
	if high := task.MaxGuestFD(); high != 6 {
		t.Fatalf("MaxGuestFD = %d, want 6", high)
	}
	proxy := newTask(11, 1, abi.Cred{UID: abi.UIDAppBase}, "proxy")
	proxy.SkipFDs(task.MaxGuestFD())
	if fd := proxy.InstallFD(FDEntry{Kind: FDFile}); fd != 7 {
		t.Fatalf("after SkipFDs(6) the next descriptor is %d, want 7", fd)
	}
	task.CloseFD(fd)
	if _, ok := task.InstallRemoteFD(-1, FDEntry{Kind: FDRemote, GuestFD: 5}); !ok {
		t.Fatal("guest fd 5 refused after its descriptor closed")
	}
}

// TestAbsPathMemo: a task's relative paths are joined through a small
// memo. A repeated path returns the joined string without allocating,
// more paths than the memo holds still join correctly, a chdir is a miss
// rather than a stale hit, and an empty path stays empty.
func TestAbsPathMemo(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	task.CWD = "/data/data"
	if got := task.AbsPath(""); got != "" {
		t.Fatalf("AbsPath(\"\") = %q, want empty", got)
	}
	const clean = "/data/data/app/x"
	if got := task.AbsPath(clean); got != clean {
		t.Fatalf("clean absolute path became %q", got)
	}
	if got := task.AbsPath("//data/./data/../data/x"); got != "/data/data/x" {
		t.Fatalf("unclean absolute path became %q", got)
	}
	// More paths than the memo holds, cycled so entries are replaced.
	joins := [][2]string{
		{"a", "/data/data/a"}, {"b/c", "/data/data/b/c"}, {"../d", "/data/d"},
		{"./e", "/data/data/e"}, {"f/", "/data/data/f"}, {"g", "/data/data/g"},
	}
	for round := 0; round < 3; round++ {
		for _, j := range joins {
			if got := task.AbsPath(j[0]); got != j[1] {
				t.Fatalf("AbsPath(%q) = %q, want %q", j[0], got, j[1])
			}
		}
	}
	task.CWD = "/data"
	if got := task.AbsPath("a"); got != "/data/a" {
		t.Fatalf("after a chdir AbsPath(\"a\") = %q, want /data/a", got)
	}
	for _, p := range []string{"sync.dat", clean} {
		task.AbsPath(p)
		if n := testing.AllocsPerRun(100, func() { task.AbsPath(p) }); n != 0 {
			t.Errorf("AbsPath(%q) repeated: %v allocs, want 0", p, n)
		}
	}
}

// TestAbsPathConcurrent: goroutines resolving paths for one task at once
// share its memo without racing, and each gets its own path's join while
// they evict one another's entries.
func TestAbsPathConcurrent(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	task.CWD = "/data"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel := fmt.Sprintf("f%d", g)
			for i := 0; i < 500; i++ {
				if got := task.AbsPath(rel); got != "/data/"+rel {
					t.Errorf("AbsPath(%q) = %q", rel, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEmptyPathIsENOENT: the path-named calls fail an empty path with
// ENOENT instead of acting on the working directory.
func TestEmptyPathIsENOENT(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "init")
	task.CWD = "/data"
	for _, nr := range []abi.SyscallNr{abi.SysStat, abi.SysOpen, abi.SysAccess, abi.SysUnlink, abi.SysChdir, abi.SysGetdents, abi.SysMkdir} {
		if res := k.Invoke(task, Args{Nr: nr, Path: ""}); !errors.Is(res.Err, abi.ENOENT) {
			t.Errorf("%v(\"\"): ret=%d err=%v, want ENOENT", nr, res.Ret, res.Err)
		}
	}
}
