package proxy

import (
	"errors"
	"strings"
	"testing"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/sim"
	"anception/internal/vfs"
)

func newGuestKernel(t *testing.T) (*kernel.Kernel, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	phys := kernel.NewPhysical(64 << 20)
	fs := vfs.New()
	root := abi.Cred{UID: abi.UIDRoot}
	for _, d := range []string{"/data", "/data/data"} {
		if err := fs.Mkdir(root, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir(root, "/data/data/app", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/data/data/app", 10001, 10001); err != nil {
		t.Fatal(err)
	}
	g := kernel.New(kernel.Config{
		Name:   "cvm",
		Clock:  clock,
		Model:  sim.DefaultLatencyModel(),
		Trace:  sim.NewTrace(clock),
		FS:     fs,
		Net:    netstack.New("cvm"),
		Binder: binder.NewDriver(),
		Alloc:  phys.NewAllocator("cvm", kernel.Region{}),
	})
	return g, clock
}

// taskFactory is a host-kernel stand-in used purely to mint host tasks
// with distinct PIDs.
type taskFactory struct{ k *kernel.Kernel }

func newTaskFactory(t *testing.T) *taskFactory {
	t.Helper()
	k, _ := newGuestKernel(t) // same shape; only used as a task factory
	return &taskFactory{k: k}
}

func (f *taskFactory) hostTask() *kernel.Task {
	task := f.k.Spawn(abi.Cred{UID: 10001, GID: 10001}, "app")
	task.CWD = "/data/data/app"
	return task
}

func newHostTask(t *testing.T) *kernel.Task {
	t.Helper()
	return newTaskFactory(t).hostTask()
}

func TestEnsureCreatesCredentialMirror(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	host.Umask = 0o027

	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cred.UID != host.Cred.UID || p.Cred.GID != host.Cred.GID {
		t.Fatalf("proxy cred = %+v", p.Cred)
	}
	if p.Umask != 0o027 || p.CWD != host.CWD {
		t.Fatalf("proxy state = umask %o cwd %q", p.Umask, p.CWD)
	}
	if p.AS.ResidentPages() != FootprintPages {
		t.Fatalf("proxy footprint = %d pages, want %d", p.AS.ResidentPages(), FootprintPages)
	}
	// Idempotent.
	p2, err := m.Ensure(host)
	if err != nil || p2 != p {
		t.Fatalf("Ensure not idempotent: %v %v", p2, err)
	}
	if m.Count() != 1 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestExecuteRunsInProxyContext(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Execute(p, kernel.Args{Nr: abi.SysGetuid})
	if res.Ret != int64(host.Cred.UID) {
		t.Fatalf("guest getuid = %d, want host uid %d", res.Ret, host.Cred.UID)
	}
}

func TestExecutePermissionChecksUseProxyCred(t *testing.T) {
	g, _ := newGuestKernel(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := g.FS().Mkdir(root, "/data/data/other", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := g.FS().Chown(root, "/data/data/other", 10099, 10099); err != nil {
		t.Fatal(err)
	}
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}
	// The proxy carries UID 10001, so another app's 0700 dir is closed.
	res := m.Execute(p, kernel.Args{Nr: abi.SysOpen, Path: "/data/data/other", Flags: abi.ORdOnly})
	if !errors.Is(res.Err, abi.EACCES) {
		t.Fatalf("open other app dir via proxy: %v, want EACCES", res.Err)
	}
}

func TestDispatchCostOptimizedVsNaive(t *testing.T) {
	g, clock := newGuestKernel(t)
	model := g.Model()
	m := NewManager(g, clock, model, nil)
	host := newHostTask(t)
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}

	before := clock.Now()
	m.Execute(p, kernel.Args{Nr: abi.SysGetpid})
	fast := clock.Now() - before

	m.SetNaiveDispatch(true)
	before = clock.Now()
	m.Execute(p, kernel.Args{Nr: abi.SysGetpid})
	slow := clock.Now() - before

	if slow-fast != 4*model.GuestContextSwitch {
		t.Fatalf("naive dispatch penalty = %v, want %v", slow-fast, 4*model.GuestContextSwitch)
	}
	if m.DispatchCost() != model.ProxyDispatch+4*model.GuestContextSwitch {
		t.Fatal("DispatchCost does not reflect naive mode")
	}
}

func TestMirrorFork(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	factory := newTaskFactory(t)
	parent := factory.hostTask()
	pp, err := m.Ensure(parent)
	if err != nil {
		t.Fatal(err)
	}
	// Give the parent proxy an open file; the child proxy must inherit it.
	res := m.Execute(pp, kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/shared", Flags: abi.OWrOnly | abi.OCreat, Mode: 0o644})
	if !res.Ok() {
		t.Fatal(res.Err)
	}

	child := factory.hostTask() // stands in for the forked host child
	cp, err := m.MirrorFork(parent.PID, child)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cred.UID != parent.Cred.UID {
		t.Fatalf("child proxy cred = %+v", cp.Cred)
	}
	if _, ok := cp.FD(res.FD); !ok {
		t.Fatal("child proxy did not inherit parent's guest descriptors")
	}
	if m.ProxyFor(child.PID) != cp {
		t.Fatal("child binding missing")
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestMirrorForkWithoutParentProxyEnrollsFresh(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	child := newHostTask(t)
	cp, err := m.MirrorFork(12345, child)
	if err != nil || cp == nil {
		t.Fatalf("fresh enrollment failed: %v", err)
	}
}

func TestMirrorCredChdirUmask(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	if _, err := m.Ensure(host); err != nil {
		t.Fatal(err)
	}
	m.MirrorChdir(host.PID, "/data")
	m.MirrorUmask(host.PID, 0o077)
	p := m.ProxyFor(host.PID)
	if p.CWD != "/data" || p.Umask != 0o077 {
		t.Fatalf("mirror state: cwd=%q umask=%o", p.CWD, p.Umask)
	}
}

func TestMirrorExitReapsProxy(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}
	m.MirrorExit(host.PID)
	if p.CurrentState() != kernel.TaskDead {
		t.Fatal("proxy still alive after host exit")
	}
	if m.ProxyFor(host.PID) != nil || m.Count() != 0 {
		t.Fatal("binding not removed")
	}
	// Double exit is harmless.
	m.MirrorExit(host.PID)
}

func TestVerifyBijection(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	factory := newTaskFactory(t)
	hostA := factory.hostTask()
	hostB := factory.hostTask()
	if _, err := m.Ensure(hostA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ensure(hostB); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyBijection([]*kernel.Task{hostA, hostB}); err != nil {
		t.Fatalf("bijection: %v", err)
	}
	// Desynchronize a credential and expect detection.
	m.ProxyFor(hostA.PID).Cred.UID = 99999
	if err := m.VerifyBijection([]*kernel.Task{hostA, hostB}); err == nil {
		t.Fatal("credential drift not detected")
	}
}

func TestExecCachePlacement(t *testing.T) {
	fs := vfs.New()
	cache, err := NewExecCache(fs)
	if err != nil {
		t.Fatal(err)
	}
	hostPath, err := cache.Place(10001, "/data/data/app/exploit", []byte("ELF-user-code"))
	if err != nil {
		t.Fatal(err)
	}
	if hostPath != "/anception/execcache/10001/exploit" {
		t.Fatalf("path = %q", hostPath)
	}
	root := abi.Cred{UID: abi.UIDRoot}
	st, err := fs.StatPath(root, hostPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.UID != abi.UIDRoot || st.Mode != 0o755 {
		t.Fatalf("cached binary stat = %+v", st)
	}
	// The app can execute but not modify the cached copy.
	appCred := abi.Cred{UID: 10001, GID: 10001}
	if err := fs.CheckAccess(appCred, hostPath, abi.AccessExec); err != nil {
		t.Fatalf("app exec access: %v", err)
	}
	if err := fs.CheckAccess(appCred, hostPath, abi.AccessWrite); !errors.Is(err, abi.EACCES) {
		t.Fatalf("app write access: %v, want EACCES", err)
	}
	// Apps cannot list or write the cache root.
	if err := fs.CheckAccess(appCred, CacheRoot, abi.AccessWrite); !errors.Is(err, abi.EACCES) {
		t.Fatalf("cache root write: %v, want EACCES", err)
	}
}

// TestExecuteBatchReportsMidBatchFailure: a failing call in the middle of
// a batch must surface in the aggregate error (naming its position) while
// the result slice still carries every call's individual outcome —
// callers must not infer success from the slice length alone.
func TestExecuteBatchReportsMidBatchFailure(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	host := newHostTask(t)
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}

	calls := []*kernel.Args{
		{Nr: abi.SysGetuid},
		{Nr: abi.SysPwrite64, FD: 99, Buf: []byte("x")}, // unopened fd
		{Nr: abi.SysGetuid},
	}
	results, batchErr := m.ExecuteBatch(p, calls, nil)
	if len(results) != len(calls) {
		t.Fatalf("got %d results for %d calls", len(results), len(calls))
	}
	if !results[0].Ok() || !results[2].Ok() {
		t.Fatalf("calls around the failure did not run: %+v", results)
	}
	if !errors.Is(results[1].Err, abi.EBADF) {
		t.Fatalf("failing call result: %v, want EBADF", results[1].Err)
	}
	if batchErr == nil {
		t.Fatal("mid-batch failure not reported in the aggregate error")
	}
	if !errors.Is(batchErr, abi.EBADF) {
		t.Fatalf("aggregate error %v does not wrap the errno", batchErr)
	}
	if !strings.Contains(batchErr.Error(), "call 1") {
		t.Fatalf("aggregate error %q does not identify the failing position", batchErr)
	}

	// An all-green batch reports no error.
	if _, err := m.ExecuteBatch(p, []*kernel.Args{{Nr: abi.SysGetuid}}, nil); err != nil {
		t.Fatalf("clean batch reported %v", err)
	}
}

// TestExecuteBatchAllocs: a batch lands in the caller's result storage,
// so a caller that keeps it runs batches without allocating, on both the
// dispatched and the drained path.
func TestExecuteBatchAllocs(t *testing.T) {
	g, _ := newGuestKernel(t)
	m := NewManager(g, g.Clock(), g.Model(), nil)
	p, err := m.Ensure(newHostTask(t))
	if err != nil {
		t.Fatal(err)
	}
	calls := []*kernel.Args{{Nr: abi.SysGetuid}, {Nr: abi.SysGetpid}, {Nr: abi.SysGetuid}}
	dst := make([]kernel.Result, 0, len(calls))
	if n := testing.AllocsPerRun(100, func() {
		res, err := m.ExecuteBatch(p, calls, dst)
		if err != nil || len(res) != len(calls) || &res[0] != &dst[:1][0] {
			t.Fatalf("batch: %d results, %v, or not in dst", len(res), err)
		}
	}); n != 0 {
		t.Errorf("ExecuteBatch into held storage: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.ExecuteBatchDrained(p, calls, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ExecuteBatchDrained into held storage: %v allocs, want 0", n)
	}
}
