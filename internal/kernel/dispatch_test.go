package kernel

import (
	"errors"
	"strings"
	"testing"

	"anception/internal/abi"
	"anception/internal/netstack"
)

// TestDispatchSmoke drives every locally dispatched syscall arm once,
// asserting the observable result of each.
func TestDispatchSmoke(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "smoke")

	// File lifecycle.
	open := k.Invoke(task, Args{Nr: abi.SysOpen, Path: "/data/s", Flags: abi.ORdWr | abi.OCreat, Mode: 0o600})
	if !open.Ok() {
		t.Fatal(open.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysPwrite64, FD: open.FD, Buf: []byte("0123456789"), Off: 0}); res.Ret != 10 {
		t.Fatalf("pwrite: %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysPread64, FD: open.FD, Buf: make([]byte, 4), Off: 2}); string(res.Data) != "2345" {
		t.Fatalf("pread: %q", res.Data)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysLseek, FD: open.FD, Off: 5, Whence: abi.SeekSet}); res.Ret != 5 {
		t.Fatalf("lseek: %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysFstat, FD: open.FD}); res.Ret != 10 {
		t.Fatalf("fstat size: %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysStat, Path: "/data/s"}); res.Ret != 10 || string(res.Data) != "-" {
		t.Fatalf("stat: %+v", res)
	}

	// dup2 onto a chosen descriptor.
	if res := k.Invoke(task, Args{Nr: abi.SysDup2, FD: open.FD, FD2: 42}); res.FD != 42 {
		t.Fatalf("dup2: %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysPread64, FD: 42, Buf: make([]byte, 2), Off: 0}); string(res.Data) != "01" {
		t.Fatalf("read via dup2: %q", res.Data)
	}

	// Directory ops.
	if res := k.Invoke(task, Args{Nr: abi.SysMkdir, Path: "/data/dir", Mode: 0o755}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysRename, Path: "/data/dir", Path2: "/data/dir2"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysRmdir, Path: "/data/dir2"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysUnlink, Path: "/data/s"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysGetdents, Path: "/data"}); !res.Ok() {
		t.Fatal(res.Err)
	}

	// Memory.
	brk := k.Invoke(task, Args{Nr: abi.SysBrk, Vaddr: AddrHeapBase + abi.PageSize})
	if !brk.Ok() {
		t.Fatal(brk.Err)
	}
	mm := k.Invoke(task, Args{Nr: abi.SysMmap2, Pages: 2, Prot: ProtRead | ProtWrite, Tag: "anon"})
	if !mm.Ok() {
		t.Fatal(mm.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysMunmap, Vaddr: uint64(mm.Ret)}); !res.Ok() {
		t.Fatal(res.Err)
	}
	for _, nr := range []abi.SyscallNr{abi.SysMprotect, abi.SysMsync, abi.SysMremap, abi.SysFcntl} {
		if res := k.Invoke(task, Args{Nr: nr}); !res.Ok() {
			t.Fatalf("%v: %v", nr, res.Err)
		}
	}

	// Network: loopback listen/accept.
	srv := k.Invoke(task, Args{Nr: abi.SysSocket, Family: netstack.AFInet, SockType: netstack.SockStream})
	if res := k.Invoke(task, Args{Nr: abi.SysBind, FD: srv.FD, Addr: ":7777"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysListen, FD: srv.FD}); !res.Ok() {
		t.Fatal(res.Err)
	}
	cli := k.Invoke(task, Args{Nr: abi.SysSocket, Family: netstack.AFInet, SockType: netstack.SockStream})
	if res := k.Invoke(task, Args{Nr: abi.SysConnect, FD: cli.FD, Addr: ":7777"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	acc := k.Invoke(task, Args{Nr: abi.SysAccept, FD: srv.FD})
	if !acc.Ok() {
		t.Fatal(acc.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysSend, FD: cli.FD, Buf: []byte("hi")}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysRecv, FD: acc.FD, Buf: make([]byte, 4)}); string(res.Data) != "hi" {
		t.Fatalf("recv: %q", res.Data)
	}

	// Clock and identity.
	if res := k.Invoke(task, Args{Nr: abi.SysClockGettime}); res.Ret <= 0 {
		t.Fatalf("clock_gettime: %+v", res)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysGetcwd}); string(res.Data) != "/" {
		t.Fatalf("getcwd: %q", res.Data)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysGettid}); res.Ret != int64(task.PID) {
		t.Fatalf("gettid: %+v", res)
	}

	// shm detach/remove arms.
	get := k.Invoke(task, Args{Nr: abi.SysShmget, Size: 7, Pages: 1})
	at := k.Invoke(task, Args{Nr: abi.SysShmat, FD: int(get.Ret)})
	if res := k.Invoke(task, Args{Nr: abi.SysShmdt, Vaddr: uint64(at.Ret)}); !res.Ok() {
		t.Fatal(res.Err)
	}
	if res := k.Invoke(task, Args{Nr: abi.SysShmctl, FD: int(get.Ret)}); !res.Ok() {
		t.Fatal(res.Err)
	}
}

func TestInvokeLocalBypassesInterceptor(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "x")
	task.RE = 1
	intercepted := 0
	k.SetInterceptor(interceptorFunc(func(kk *Kernel, tt *Task, a Args) (Result, bool) {
		intercepted++
		return Result{}, false
	}))
	k.Invoke(task, Args{Nr: abi.SysGetpid})
	if intercepted != 1 {
		t.Fatalf("interceptor calls = %d", intercepted)
	}
	k.InvokeLocal(task, Args{Nr: abi.SysGetpid})
	if intercepted != 1 {
		t.Fatal("InvokeLocal re-entered the interceptor")
	}
	dead := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "d")
	dead.SetState(TaskDead)
	if res := k.InvokeLocal(dead, Args{Nr: abi.SysGetpid}); !errors.Is(res.Err, abi.ESRCH) {
		t.Fatalf("InvokeLocal on dead task: %v", res.Err)
	}
}

// TestDeclinedCallDispatchesOriginalArgs: an interceptor works on its own
// copy of the Args, so one that edits them and then declines the call
// leaves the local dispatch with what the task issued.
func TestDeclinedCallDispatchesOriginalArgs(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "x")
	task.RE = 1
	k.SetInterceptor(interceptorFunc(func(kk *Kernel, tt *Task, a Args) (Result, bool) {
		a.Nr = abi.SysReboot
		return Result{}, false
	}))
	if res := k.Invoke(task, Args{Nr: abi.SysGetpid}); !res.Ok() || res.Ret != int64(task.PID) {
		t.Fatalf("declined getpid = %+v, want pid %d", res, task.PID)
	}
}

type interceptorFunc func(*Kernel, *Task, Args) (Result, bool)

func (f interceptorFunc) Intercept(k *Kernel, t *Task, a Args) (Result, bool) { return f(k, t, a) }

func TestKernelAccessors(t *testing.T) {
	k := newTestKernel(t)
	if k.Name() != "host" || k.Binder() == nil || k.Allocator() == nil || k.Trace() == nil {
		t.Fatal("accessors broken")
	}
	if k.String() != "kernel(host)" {
		t.Fatalf("String() = %q", k.String())
	}
	a := k.Spawn(abi.Cred{UID: 10001}, "findme")
	if len(k.Tasks()) == 0 {
		t.Fatal("Tasks() empty")
	}
	if k.FindByComm("findme") != a {
		t.Fatal("FindByComm missed")
	}
	if k.FindByComm("ghost") != nil {
		t.Fatal("FindByComm invented a task")
	}
	if !IsAttackerPayload([]byte(AttackerPayloadMagic+"x")) || IsAttackerPayload([]byte("ELF")) {
		t.Fatal("payload check broken")
	}
	if _, err := a.AS.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	if k.ResidentProcessPages() == 0 {
		t.Fatal("resident pages not counted")
	}
	k.SetHotplugHelper("/data/custom-helper")
	if k.HotplugHelper() != "/data/custom-helper" {
		t.Fatal("hotplug helper not set")
	}
}

func TestVMAAtAndMapDevice(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn(abi.Cred{UID: 10001}, "x")
	base, err := task.AS.MapDevice(1, ProtRead|ProtWrite, "fb0", true)
	if err != nil {
		t.Fatal(err)
	}
	v := task.AS.VMAAt(base)
	if v == nil || !v.DeviceMemory || v.Kind != VMADevice {
		t.Fatalf("VMAAt = %+v", v)
	}
	if task.AS.VMAAt(0xEEEE0000) != nil {
		t.Fatal("VMAAt found a ghost mapping")
	}
}

func TestResetRegionWipesContents(t *testing.T) {
	phys := NewPhysical(1 << 20)
	region, err := phys.ReserveRegion(8)
	if err != nil {
		t.Fatal(err)
	}
	alloc := phys.NewAllocator("cvm", region)
	f, err := alloc.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteFrame(region, f, 0, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	phys.ResetRegion(region)
	if phys.Owner(f).Kind != FrameGuestKernel {
		t.Fatalf("owner after reset = %+v", phys.Owner(f))
	}
	buf := make([]byte, 5)
	if err := phys.ReadFrame(region, f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(string(buf), "\x00") != "" {
		t.Fatalf("contents survived reset: %q", buf)
	}
}

func TestProcMemWriteGrantsRootOnPayload(t *testing.T) {
	k := newTestKernel(t)
	k.SetVulns(KernelVulns{ProcMemWriteBypass: true})
	victim := k.Spawn(abi.Cred{UID: abi.UIDRoot}, "rootd")
	if _, err := victim.AS.Brk(AddrHeapBase + abi.PageSize); err != nil {
		t.Fatal(err)
	}
	attacker := spawnApp(t, k, 10001)
	open := k.Invoke(attacker, Args{Nr: abi.SysOpen, Path: "/proc/" + itoa(victim.PID) + "/mem", Flags: abi.ORdWr})
	if !open.Ok() {
		t.Fatal(open.Err)
	}
	res := k.Invoke(attacker, Args{Nr: abi.SysPwrite64, FD: open.FD, Buf: []byte(AttackerPayloadMagic), Off: int64(AddrHeapBase)})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	if len(k.RootEvents()) != 1 {
		t.Fatalf("root events = %d", len(k.RootEvents()))
	}
	if !k.Rooted() {
		t.Fatal("kernel not marked rooted")
	}
}
