package anception

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
	"anception/internal/sim"
)

func bootDevice(t *testing.T, mode Mode) *Device {
	t.Helper()
	d, err := NewDevice(Options{Mode: mode, Vulns: android.AllVulnerabilities()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func installAndLaunch(t *testing.T, d *Device, pkg string) *Proc {
	t.Helper()
	app, err := d.InstallApp(android.AppSpec{Package: pkg})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.Launch(app)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestBootAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeAnception, ModeClassicalVM} {
		t.Run(mode.String(), func(t *testing.T) {
			d := bootDevice(t, mode)
			if d.AppKernel() == nil {
				t.Fatal("no app kernel")
			}
			if d.UIServices().WM == nil {
				t.Fatal("no window manager")
			}
		})
	}
}

func TestAnceptionHostHasOnlyUIServices(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	if d.HostServices.Service("window") == nil || d.HostServices.Service("zygote") == nil {
		t.Fatal("host UI services missing")
	}
	if d.HostServices.Service("vold") != nil {
		t.Fatal("vold must not run on the Anception host")
	}
	if d.GuestServices.Service("vold") == nil {
		t.Fatal("vold missing from the CVM")
	}
	if d.GuestServices.Service("window") != nil {
		t.Fatal("headless CVM must not run the window manager")
	}
}

func TestAppLaunchEnrollsProxy(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	if proc.Task.RE != 1 {
		t.Fatal("redirection entry not set")
	}
	if d.Proxies.ProxyFor(proc.Task.PID) == nil {
		t.Fatal("no proxy enrolled")
	}
	if err := d.Proxies.VerifyBijection(d.Host.Tasks()); err != nil {
		t.Fatalf("bijection: %v", err)
	}
}

func TestFileWritesLandInCVM(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")

	fd, err := proc.Open("notes.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Write(fd, []byte("private data")); err != nil {
		t.Fatal(err)
	}
	if err := proc.Close(fd); err != nil {
		t.Fatal(err)
	}

	dataPath := proc.App.Info.DataDir + "/notes.txt"
	root := abi.Cred{UID: abi.UIDRoot}
	// The file exists in the CVM's filesystem...
	if got, err := d.Guest.FS().ReadFile(root, dataPath); err != nil || string(got) != "private data" {
		t.Fatalf("guest file = %q, %v", got, err)
	}
	// ...and NOT on the host.
	if _, err := d.Host.FS().ReadFile(root, dataPath); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("host file should not exist: %v", err)
	}
}

func TestFileReadBackThroughRedirect(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	fd, err := proc.Open("roundtrip.bin", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the bytes cross the world switch twice")
	if _, err := proc.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Lseek(fd, 0, abi.SeekSet); err != nil {
		t.Fatal(err)
	}
	got, err := proc.Read(fd, len(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("read back = %q, %v", got, err)
	}
}

func TestSystemLibraryReadsStayOnHost(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	before := d.Layer.Stats().Redirected
	fd, err := proc.Open("/system/lib/libc.so", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Read(fd, 16); err != nil {
		t.Fatal(err)
	}
	if d.Layer.Stats().Redirected != before {
		t.Fatal("system library access was redirected; principle 1 violated")
	}
}

func TestRedirectSemanticsMatchNative(t *testing.T) {
	// The same program must observe the same results on both platforms
	// (DESIGN.md invariant 2).
	run := func(d *Device) []string {
		proc := installAndLaunch(t, d, "com.same.app")
		var results []string
		log := func(f string, args ...any) { results = append(results, sprintf(f, args...)) }

		if err := proc.Mkdir("sub", 0o700); err != nil {
			log("mkdir err %v", err)
		}
		fd, err := proc.Open("sub/file", abi.OWrOnly|abi.OCreat, 0o600)
		log("open %v", err)
		n, err := proc.Write(fd, []byte("hello"))
		log("write %d %v", n, err)
		log("close %v", proc.Close(fd))
		size, err := proc.Stat("sub/file")
		log("stat %d %v", size, err)
		log("access %v", proc.Access("sub/file", abi.AccessRead))
		log("rename %v", proc.Rename("sub/file", "sub/file2"))
		_, err = proc.Stat("sub/file")
		log("stat-old %v", err)
		d2, err := proc.Getdents("sub")
		log("dents %q %v", d2, err)
		log("unlink %v", proc.Unlink("sub/file2"))
		_, err = proc.Open("sub/file2", abi.ORdOnly, 0)
		log("open-gone %v", err)
		return results
	}

	nat := run(bootDevice(t, ModeNative))
	anc := run(bootDevice(t, ModeAnception))
	if len(nat) != len(anc) {
		t.Fatalf("result counts differ: %d vs %d", len(nat), len(anc))
	}
	for i := range nat {
		if nat[i] != anc[i] {
			t.Errorf("step %d: native %q != anception %q", i, nat[i], anc[i])
		}
	}
}

func TestBlockedCallsDenied(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	res := d.Host.Invoke(proc.Task, kernel.Args{Nr: abi.SysPtrace})
	if !errors.Is(res.Err, abi.EPERM) {
		t.Fatalf("ptrace: %v, want EPERM", res.Err)
	}
	if d.Layer.Stats().Blocked == 0 {
		t.Fatal("blocked counter not incremented")
	}
}

func TestUIDChangeKillsApp(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	if err := proc.Setuid(proc.Getuid()); err != nil {
		t.Fatalf("same-uid setuid should be a no-op: %v", err)
	}
	if err := proc.Setuid(0); !errors.Is(err, abi.EPERM) {
		t.Fatalf("setuid(0): %v, want EPERM", err)
	}
	if proc.Task.CurrentState() != kernel.TaskDead {
		t.Fatal("app not killed after UID change (footnote 3)")
	}
	if d.Proxies.ProxyFor(proc.Task.PID) != nil {
		t.Fatal("proxy survived app kill")
	}
	if d.Layer.Stats().AppsKilled != 1 {
		t.Fatal("kill not counted")
	}
}

func TestForkMirrorsProxyAndSandbox(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	child, err := proc.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if child.Task.RE != 1 {
		t.Fatal("child escaped the redirection sandbox via fork")
	}
	if d.Proxies.ProxyFor(child.Task.PID) == nil {
		t.Fatal("child has no mirrored proxy")
	}
	// The child's file operations land in the CVM like the parent's.
	fd, err := child.Open("childfile", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.Write(fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	root := abi.Cred{UID: abi.UIDRoot}
	if _, err := d.Guest.FS().StatPath(root, child.App.Info.DataDir+"/childfile"); err != nil {
		t.Fatalf("child write not in CVM: %v", err)
	}
}

func TestExecSystemBinaryRunsFromHost(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	if err := proc.Execve("/system/bin/sh"); err != nil {
		t.Fatal(err)
	}
	if proc.Task.ExecPath != "/system/bin/sh" {
		t.Fatalf("exec path = %q", proc.Task.ExecPath)
	}
}

func TestExecUserCodeGoesThroughExecCache(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.example.app")
	// The app writes a binary into its (CVM-resident) data dir...
	fd, err := proc.Open("dropped", abi.OWrOnly|abi.OCreat, 0o700)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Write(fd, []byte("ELF dropped-code")); err != nil {
		t.Fatal(err)
	}
	if err := proc.Close(fd); err != nil {
		t.Fatal(err)
	}
	// ...and execs it: Anception must copy it to the protected host cache.
	if err := proc.Execve(proc.App.Info.DataDir + "/dropped"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(proc.Task.ExecPath, "/anception/execcache/") {
		t.Fatalf("exec path = %q, want exec cache", proc.Task.ExecPath)
	}
	root := abi.Cred{UID: abi.UIDRoot}
	cached, err := d.Host.FS().ReadFile(root, proc.Task.ExecPath)
	if err != nil || string(cached) != "ELF dropped-code" {
		t.Fatalf("cached binary = %q, %v", cached, err)
	}
}

func TestNetworkRoundTripViaCVM(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	d.RegisterRemote("bank.com:443", func(req []byte) []byte {
		return append([]byte("resp:"), req...)
	})
	proc := installAndLaunch(t, d, "com.bank")
	fd, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Connect(fd, "bank.com:443"); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Send(fd, []byte("LOGIN")); err != nil {
		t.Fatal(err)
	}
	got, err := proc.Recv(fd, 64)
	if err != nil || string(got) != "resp:LOGIN" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if d.Layer.Stats().Redirected == 0 {
		t.Fatal("network calls were not redirected")
	}
	// The remote is registered only on the CVM's stack: reachability
	// proves the socket lives there.
}

func TestUIIoctlPassesThroughAtNativeCost(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.ui.app")
	bfd, err := proc.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	before := d.Clock.Now()
	if err := proc.Draw(bfd); err != nil {
		t.Fatal(err)
	}
	anceptionCost := d.Clock.Now() - before

	n := bootDevice(t, ModeNative)
	nproc := installAndLaunch(t, n, "com.ui.app")
	nbfd, err := nproc.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	before = n.Clock.Now()
	if err := nproc.Draw(nbfd); err != nil {
		t.Fatal(err)
	}
	nativeCost := n.Clock.Now() - before

	// "UI-related system calls run at essentially native speed."
	diff := anceptionCost - nativeCost
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(nativeCost) {
		t.Fatalf("UI ioctl: anception %v vs native %v", anceptionCost, nativeCost)
	}
	if d.Layer.Stats().UIPassthrough == 0 {
		t.Fatal("UI passthrough not counted")
	}
}

func TestBinderBridgeToCVMServiceCostsExtra(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.loc.app")
	bfd, err := proc.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	before := d.Clock.Now()
	reply, err := proc.BinderCall(bfd, "location", android.CodeGetLocation, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	cost := d.Clock.Now() - before
	if !strings.HasPrefix(string(reply), "fix:") {
		t.Fatalf("reply = %q", reply)
	}
	// Section VI-A: a GPS fix returns with ~19 ms added latency (native
	// 12 ms -> ~31 ms).
	if cost < 29_000_000 || cost > 33_000_000 {
		t.Fatalf("bridged binder cost = %v, want ~31ms", cost)
	}
	if d.Layer.Stats().BinderBridged == 0 {
		t.Fatal("bridge not counted")
	}
}

func TestPipeRedirected(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.pipe.app")
	res := d.Host.Invoke(proc.Task, kernel.Args{Nr: abi.SysPipe})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	rfd, wfd := int(res.Ret), res.FD
	if _, err := proc.Write(wfd, []byte("ipc")); err != nil {
		t.Fatal(err)
	}
	got, err := proc.Read(rfd, 8)
	if err != nil || string(got) != "ipc" {
		t.Fatalf("pipe read = %q, %v", got, err)
	}
	// Both ends are remote descriptors.
	if lookupFD(proc.Task, rfd).Kind != kernel.FDRemote || lookupFD(proc.Task, wfd).Kind != kernel.FDRemote {
		t.Fatal("pipe ends not in the CVM")
	}
}

func TestDupOfRemoteFD(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.dup.app")
	fd, err := proc.Open("f", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	res := d.Host.Invoke(proc.Task, kernel.Args{Nr: abi.SysDup, FD: fd})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	if lookupFD(proc.Task, res.FD).Kind != kernel.FDRemote {
		t.Fatal("dup result not remote")
	}
	if _, err := proc.Write(res.FD, []byte("via dup")); err != nil {
		t.Fatal(err)
	}
}

func TestMmapOfCVMFileAndMsyncWriteback(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	proc := installAndLaunch(t, d, "com.mmap.app")
	fd, err := proc.Open("mapped.db", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]byte, abi.PageSize)
	copy(initial, "initial-file-bytes")
	if _, err := proc.Write(fd, initial); err != nil {
		t.Fatal(err)
	}
	base, err := proc.MapFD(fd, 1, kernel.ProtRead|kernel.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	// The mapping is host-resident and reflects file contents.
	got, err := proc.Peek(base, 18)
	if err != nil || string(got) != "initial-file-bytes" {
		t.Fatalf("mapped contents = %q, %v", got, err)
	}
	// Mutate through memory, then msync back to the CVM file.
	if err := proc.Poke(base, []byte("mutated-file-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := proc.Msync(base); err != nil {
		t.Fatal(err)
	}
	root := abi.Cred{UID: abi.UIDRoot}
	data, err := d.Guest.FS().ReadFile(root, proc.App.Info.DataDir+"/mapped.db")
	if err != nil || string(data[:18]) != "mutated-file-bytes" {
		t.Fatalf("file after msync = %q, %v", data[:18], err)
	}
}

func sprintf(f string, args ...any) string {
	return fmt.Sprintf(f, args...)
}

// hangTransport is a stub transport whose every round-trip hangs; layer
// tests use it to exercise deadline handling without the supervisor
// package (which lives upstream of this one).
type hangTransport struct{}

func (hangTransport) RoundTrip(_ *sim.Lane, payload []byte, handler marshal.GuestHandler) ([]byte, error) {
	return nil, marshal.ErrHang
}
func (hangTransport) Name() string { return "hang-stub" }

func TestLayerTimedOutCounter(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.timeout")
	real := d.Layer.Transport()
	d.Layer.SetTransport(hangTransport{})

	before := d.Clock.Now()
	_, err := app.Open("t.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if !errors.Is(err, abi.ETIMEDOUT) {
		t.Fatalf("err = %v, want ETIMEDOUT", err)
	}
	if got := d.Layer.Stats().TimedOut; got != 1 {
		t.Fatalf("TimedOut = %d, want 1", got)
	}
	// The app was charged exactly its deadline (plus marshal overhead),
	// never more: no redirected call blocks forever.
	if elapsed := d.Clock.Now() - before; elapsed > d.Layer.Deadline()+time.Millisecond {
		t.Fatalf("hung call consumed %v, deadline %v", elapsed, d.Layer.Deadline())
	}
	if d.Trace.Count(sim.EvTimeout) == 0 {
		t.Fatal("no timeout event traced")
	}

	// Restoring the transport restores service.
	d.Layer.SetTransport(real)
	if _, err := app.Open("ok.txt", abi.OWrOnly|abi.OCreat, 0o600); err != nil {
		t.Fatal(err)
	}
}

// chargingTransport charges lane `on` while each round-trip is in
// flight, standing in for work that lands on the shared clock during
// the call: another task's (a concurrent app drawing a frame), the
// caller's own, or device-level work (nil lane).
type chargingTransport struct {
	inner marshal.Transport
	clock *sim.Clock
	on    *sim.Lane
	d     time.Duration
}

func (c chargingTransport) RoundTrip(lane *sim.Lane, payload []byte, handler marshal.GuestHandler) ([]byte, error) {
	c.clock.Charge(c.on, c.d)
	return c.inner.RoundTrip(lane, payload, handler)
}
func (c chargingTransport) Name() string { return "charging-stub" }

// TestDeadlineCountsOnlyTheCallersTime: a call's deadline is measured on
// the caller's timeline. Another task's charges that land while the call
// is in flight advance the device clock but cannot time the call out;
// the same charge on the caller's own lane, or as device-level work
// that no task claims, does.
func TestDeadlineCountsOnlyTheCallersTime(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.deadline.own")
	other := installAndLaunch(t, d, "com.deadline.other")
	real := d.Layer.Transport()
	over := 2 * d.Layer.Deadline()

	d.Layer.SetTransport(chargingTransport{real, d.Clock, other.Task.Lane, over})
	before := d.Clock.Now()
	fd, err := app.Open("ok.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatalf("another task's %v timed the call out: %v", over, err)
	}
	if elapsed := d.Clock.Now() - before; elapsed < over {
		t.Fatalf("device clock moved %v, want at least %v", elapsed, over)
	}

	for _, tc := range []struct {
		name string
		lane *sim.Lane
	}{{"own lane", app.Task.Lane}, {"device-level", nil}} {
		d.Layer.SetTransport(chargingTransport{real, d.Clock, tc.lane, over})
		if _, err := app.Write(fd, []byte("late")); !errors.Is(err, abi.ETIMEDOUT) {
			t.Fatalf("%s: %v charge in flight: err = %v, want ETIMEDOUT", tc.name, over, err)
		}
	}
	if got := d.Layer.Stats().TimedOut; got != 2 {
		t.Fatalf("TimedOut = %d, want 2", got)
	}
}

func TestLayerFailedFastCounter(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.degraded")
	d.SetDegraded(true)

	_, err := app.Open("d.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("degraded err = %v, want EAGAIN", err)
	}
	if got := d.Layer.Stats().FailedFast; got != 1 {
		t.Fatalf("FailedFast = %d, want 1", got)
	}
	// Host-class calls are untouched by degraded mode.
	if pid := app.Getpid(); pid <= 0 {
		t.Fatalf("host-class getpid failed under degraded mode: %d", pid)
	}

	d.SetDegraded(false)
	if _, err := app.Open("ok.txt", abi.OWrOnly|abi.OCreat, 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestLayerRestartCounterAndGeneration(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	if got := d.CVM.Generation(); got != 1 {
		t.Fatalf("generation after boot = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if err := d.RestartCVM(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Layer.Stats().Restarts; got != 2 {
		t.Fatalf("Restarts = %d, want 2", got)
	}
	if got := d.CVM.Generation(); got != 3 {
		t.Fatalf("generation after two restarts = %d, want 3", got)
	}
	if d.Trace.Count(sim.EvWatchdog) == 0 {
		t.Fatal("no watchdog event traced for guest replacement")
	}
}

func TestLayerHostDownCounter(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.hostdown")
	// Enroll the proxy first so the failure comes from the transport's
	// liveness check, not proxy enrollment.
	if _, err := app.Open("pre.txt", abi.OWrOnly|abi.OCreat, 0o600); err != nil {
		t.Fatal(err)
	}
	d.InjectGuestPanic("drill")

	_, err := app.Open("down.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("err = %v, want EHOSTDOWN", err)
	}
	if got := d.Layer.Stats().HostDown; got == 0 {
		t.Fatal("HostDown counter not bumped")
	}
	if d.Trace.Count(sim.EvFault) == 0 {
		t.Fatal("no fault event traced for the injected panic")
	}
}
