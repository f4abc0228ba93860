package anception

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/sim"
)

// TestCVMFirewall: the host controls the container's external
// connectivity with a policy on the CVM's stack (Section III-D).
func TestCVMFirewall(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	d.RegisterRemote("allowed.com:443", func(req []byte) []byte { return []byte("ok") })
	d.RegisterRemote("blocked.net:80", func(req []byte) []byte { return []byte("ok") })
	d.SetCVMFirewall(func(cred abi.Cred, addr string) error {
		if addr == "blocked.net:80" {
			return fmt.Errorf("firewalled by host policy: %w", abi.ENETUNREACH)
		}
		return nil
	})

	p := installAndLaunch(t, d, "com.fw.app")
	allowed, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(allowed, "allowed.com:443"); err != nil {
		t.Fatalf("allowed connection blocked: %v", err)
	}
	blocked, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(blocked, "blocked.net:80"); !errors.Is(err, abi.ENETUNREACH) {
		t.Fatalf("blocked connection: %v, want ENETUNREACH", err)
	}

	// Clearing the policy restores reachability.
	d.SetCVMFirewall(nil)
	again, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(again, "blocked.net:80"); err != nil {
		t.Fatalf("after clearing policy: %v", err)
	}
}

// TestAppToAppBinderStaysOnHost: apps talking to each other over binder
// proceed on the host without any container round trip.
func TestAppToAppBinderStaysOnHost(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	server := installAndLaunch(t, d, "com.ipc.server")
	client := installAndLaunch(t, d, "com.ipc.client")

	var gotFrom abi.Cred
	err := server.RegisterService("com.ipc.server.api", func(from abi.Cred, code uint32, data []byte) ([]byte, error) {
		gotFrom = from
		return append([]byte("echo:"), data...), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	bfd, err := client.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	before := d.Layer.Stats()
	reply, err := client.BinderCall(bfd, "com.ipc.server.api", 1, []byte("ping"))
	if err != nil || string(reply) != "echo:ping" {
		t.Fatalf("reply = %q, %v", reply, err)
	}
	if gotFrom.UID != client.App.UID {
		t.Fatalf("server saw caller uid %d, want %d", gotFrom.UID, client.App.UID)
	}
	after := d.Layer.Stats()
	if after.BinderBridged != before.BinderBridged {
		t.Fatal("app-to-app IPC was bridged to the CVM")
	}
	if after.Redirected != before.Redirected {
		t.Fatal("app-to-app IPC was redirected")
	}
}

// TestIagoTamperedResults: a compromised container can return arbitrary
// bad system-call results (Section VII). The host app sees garbage — but
// only through the redirected interface, and never a host memory
// violation.
func TestIagoTamperedResults(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.iago.victim")

	// Write a file while the container is still honest.
	fd, err := p.Open("data.bin", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("genuine-contents")); err != nil {
		t.Fatal(err)
	}

	// The container is now compromised and lies about every result.
	d.Layer.SetResultTampering(func(resp []byte) []byte {
		evil := bytes.Repeat([]byte{0xEE}, len(resp))
		return evil
	})
	if _, err := p.Lseek(fd, 0, abi.SeekSet); err == nil {
		t.Log("lseek result tampered silently (as Iago predicts)")
	}
	if data, err := p.Read(fd, 16); err == nil && bytes.Equal(data, []byte("genuine-contents")) {
		t.Fatal("tampered container returned genuine data?")
	}

	// The app process itself is unharmed: host-class calls still work and
	// its memory is intact.
	d.Layer.SetResultTampering(nil)
	if got := p.Getpid(); got != p.Task.PID {
		t.Fatal("host-class calls damaged by container tampering")
	}
	if d.Host.Compromised() != nil {
		t.Fatal("result tampering must not compromise the host")
	}
}

// TestWorldSwitchAccounting: each redirected call costs exactly one
// interrupt injection and one hypercall.
func TestWorldSwitchAccounting(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.ws.app")
	in0, out0 := d.CVM.WorldSwitches()
	fd, err := p.Open("f", abi.OWrOnly|abi.OCreat, 0o600) // 1 redirected call
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // 5 more
		if _, err := p.Write(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	in1, out1 := d.CVM.WorldSwitches()
	if in1-in0 != 6 || out1-out0 != 6 {
		t.Fatalf("world switches for 6 redirected calls = (%d, %d), want (6, 6)", in1-in0, out1-out0)
	}
	// Host-class calls cross no boundary.
	p.Getpid()
	in2, out2 := d.CVM.WorldSwitches()
	if in2 != in1 || out2 != out1 {
		t.Fatal("getpid caused a world switch")
	}
}

// TestFrameAccountingUnderChurn: launching and killing many apps leaks no
// physical frames on either side of the boundary.
func TestFrameAccountingUnderChurn(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	free0 := d.Phys.FreeFrames()
	guestPages0 := d.Guest.ResidentProcessPages()

	for round := 0; round < 5; round++ {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.churn%d", round)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Launch(app)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := p.Open("scratch", abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, make([]byte, 8*abi.PageSize)); err != nil {
			t.Fatal(err)
		}
		p.Exit(0)
		if d.Proxies.ProxyFor(p.Task.PID) != nil {
			t.Fatal("proxy survived exit")
		}
	}

	// Host frames: everything the apps mapped was released (app code
	// pages and heap go with the AS). Guest side: proxies released.
	free1 := d.Phys.FreeFrames()
	if free1 < free0-16 { // file data in the guest VFS is retained state, frames are not
		t.Fatalf("host frames leaked: %d -> %d", free0, free1)
	}
	if got := d.Guest.ResidentProcessPages(); got != guestPages0 {
		t.Fatalf("guest resident pages %d -> %d: proxy frames leaked", guestPages0, got)
	}
}

// TestStressManyAppsBijection: a larger fleet keeps the proxy bijection
// and isolation invariants intact.
func TestStressManyAppsBijection(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	var procs []*Proc
	for i := 0; i < 40; i++ {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.fleet.app%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Launch(app)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	// Interleave work across the fleet.
	for round := 0; round < 3; round++ {
		for i, p := range procs {
			fd, err := p.Open(fmt.Sprintf("f%d", round), abi.OWrOnly|abi.OCreat, 0o600)
			if err != nil {
				t.Fatalf("app %d round %d: %v", i, round, err)
			}
			if _, err := p.Write(fd, []byte("data")); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Proxies.VerifyBijection(d.Host.Tasks()); err != nil {
		t.Fatalf("bijection after stress: %v", err)
	}
	// Apps cannot read each other's files through the container.
	other := procs[1]
	foreign := procs[0].App.Info.DataDir + "/f0"
	if _, err := other.Open(foreign, abi.ORdOnly, 0); !errors.Is(err, abi.EACCES) {
		t.Fatalf("cross-app open: %v, want EACCES", err)
	}
}

// TestRedirectedGetdents covers directory listing through the layer.
func TestRedirectedGetdents(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.dents.app")
	for _, n := range []string{"b.txt", "a.txt", "c.txt"} {
		fd, err := p.Open(n, abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	listing, err := p.Getdents(p.App.Info.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(listing, []byte("a.txt")) || !bytes.Contains(listing, []byte("c.txt")) {
		t.Fatalf("listing = %q", listing)
	}
}

// TestSendfileFileToFileRedirected covers the in-kernel copy path when
// both descriptors live in the container.
func TestSendfileFileToFileRedirected(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.sf.app")
	src, err := p.Open("src", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(src, []byte("copy me")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lseek(src, 0, abi.SeekSet); err != nil {
		t.Fatal(err)
	}
	dst, err := p.Open("dst", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sendfile(dst, src, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lseek(dst, 0, abi.SeekSet); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(dst, 16)
	if err != nil || string(got) != "copy me" {
		t.Fatalf("sendfile copy = %q, %v", got, err)
	}
}

// TestRenameAndSymlinkRedirected covers the two-path and symlink layer
// cases.
func TestRenameAndSymlinkRedirected(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.ren.app")
	fd, err := p.Open("orig", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p.Rename("orig", "moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("orig"); err == nil {
		t.Fatal("orig still present after rename")
	}
	if _, err := p.Stat("moved"); err != nil {
		t.Fatalf("moved missing: %v", err)
	}
	// Symlink in the app data dir (CVM) and read back through it.
	res := d.Host.Invoke(p.Task, kernel.Args{Nr: abi.SysSymlink, Path: "moved", Path2: p.App.Info.DataDir + "/link"})
	if !res.Ok() {
		t.Fatalf("symlink: %v", res.Err)
	}
	lfd, err := p.Open("link", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(lfd, 4)
	if err != nil || string(got) != "v" {
		t.Fatalf("read via symlink = %q, %v", got, err)
	}
}

// TestTraceAndStatsCoherence: the number of EvRedirect trace events must
// equal the layer's Redirected counter, and redirected counts must equal
// world-switch round trips (plus control trips from split calls).
func TestTraceAndStatsCoherence(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.coherent")
	fd, err := p.Open("f", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Write(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Lseek(fd, 0, abi.SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(fd, 4); err != nil {
		t.Fatal(err)
	}
	p.Getpid() // host class: no redirect event

	stats := d.Layer.Stats()
	redirectEvents := d.Trace.Count(sim.EvRedirect)
	if redirectEvents != stats.Redirected {
		t.Fatalf("trace redirects = %d, stats = %d", redirectEvents, stats.Redirected)
	}
	if stats.Redirected != 7 { // open + 4 writes + lseek + read
		t.Fatalf("redirected = %d, want 7", stats.Redirected)
	}
}

// TestListing1DirectInputIoctl: the paper's IOC_WAIT_INPUT_EVT ioctl
// path, serviced on the host.
func TestListing1DirectInputIoctl(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.listing1")
	bfd, err := p.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	d.QueueInput(p.App, []byte("pwd:secret"))
	before := d.Layer.Stats().UIPassthrough
	res := d.Host.Invoke(p.Task, kernel.Args{Nr: abi.SysIoctl, FD: bfd, Request: binderIocWaitInput()})
	if !res.Ok() || string(res.Data) != "pwd:secret" {
		t.Fatalf("wait-input ioctl = %q, %v", res.Data, res.Err)
	}
	if d.Layer.Stats().UIPassthrough != before+1 {
		t.Fatal("direct input ioctl not counted as UI passthrough")
	}
	in, _ := d.CVM.WorldSwitches()
	if in != 0 {
		t.Fatal("UI input wait crossed into the CVM")
	}
}

func binderIocWaitInput() uint32 { return binder.IocWaitInputEvent }

// TestServicesAreNotRedirected: only tasks with the redirection entry set
// go through the layer; host services run entirely locally.
func TestServicesAreNotRedirected(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	zygote := d.HostServices.Service("zygote").Task
	if zygote.RE != 0 {
		t.Fatal("service task has the redirection entry set")
	}
	before := d.Layer.Stats().Redirected
	res := d.Host.Invoke(zygote, kernel.Args{Nr: abi.SysOpen, Path: "/data/wmstate", Flags: abi.OWrOnly | abi.OCreat, Mode: 0o600})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	if d.Layer.Stats().Redirected != before {
		t.Fatal("service syscall was redirected")
	}
	// The service's file landed on the HOST filesystem.
	if _, err := d.Host.FS().StatPath(abi.Cred{UID: abi.UIDRoot}, "/data/wmstate"); err != nil {
		t.Fatalf("service file not on host: %v", err)
	}
}

// TestInstallAndLookupAPI covers the app-registry surface.
func TestInstallAndLookupAPI(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app, err := d.InstallApp(android.AppSpec{Package: "com.reg"})
	if err != nil {
		t.Fatal(err)
	}
	if d.App("com.reg") != app {
		t.Fatal("App() lookup failed")
	}
	if d.App("com.ghost") != nil {
		t.Fatal("App() invented an app")
	}
	if _, err := d.InstallApp(android.AppSpec{Package: "com.reg"}); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("duplicate install: %v, want EEXIST", err)
	}
	// Assets shipped with the app are readable through redirection.
	app2, err := d.InstallApp(android.AppSpec{
		Package: "com.assets",
		Assets:  map[string][]byte{"cfg": []byte("shipped")},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Launch(app2)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.Open("cfg", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Read(fd, 16)
	if err != nil || string(data) != "shipped" {
		t.Fatalf("asset = %q, %v", data, err)
	}
}

// TestConcurrentAppsParallelIO drives many apps from separate goroutines
// through redirected I/O, UI transactions, and memory ops concurrently —
// the platform's locking must hold up (run under -race in CI).
func TestConcurrentAppsParallelIO(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	const apps = 12
	procs := make([]*Proc, apps)
	for i := range procs {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.par.app%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Launch(app)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, apps)
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			bfd, err := p.OpenBinder()
			if err != nil {
				errs <- err
				return
			}
			for round := 0; round < 20; round++ {
				fd, err := p.Open(fmt.Sprintf("f%d", round%3), abi.ORdWr|abi.OCreat, 0o600)
				if err != nil {
					errs <- fmt.Errorf("app %d open: %w", i, err)
					return
				}
				if _, err := p.Write(fd, []byte("concurrent data")); err != nil {
					errs <- fmt.Errorf("app %d write: %w", i, err)
					return
				}
				if _, err := p.Pread(fd, 8, 0); err != nil {
					errs <- fmt.Errorf("app %d read: %w", i, err)
					return
				}
				if err := p.Close(fd); err != nil {
					errs <- fmt.Errorf("app %d close: %w", i, err)
					return
				}
				if err := p.Draw(bfd); err != nil {
					errs <- fmt.Errorf("app %d draw: %w", i, err)
					return
				}
				if _, err := p.Brk(0); err != nil {
					errs <- fmt.Errorf("app %d brk: %w", i, err)
					return
				}
			}
			errs <- nil
		}(i, p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Proxies.VerifyBijection(d.Host.Tasks()); err != nil {
		t.Fatalf("bijection after parallel load: %v", err)
	}
}

// TestSendfileMixedLocality exercises the bounce-buffer path: a host-local
// pipe fed from a CVM-resident file, and vice versa.
func TestSendfileMixedLocality(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.mixed")

	// CVM file as the source.
	src, err := p.Open("src", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(src, []byte("bounce!")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lseek(src, 0, abi.SeekSet); err != nil {
		t.Fatal(err)
	}
	// Host-local shm-backed target is awkward; use a host pipe: pipes are
	// redirected though. Open the host-resident binder-adjacent path
	// instead: a /system file cannot be written, so use a second remote
	// file and a host /proc mem fd is read-only... The realistic mixed
	// case is remote-out/local-in: a host-opened system file into a CVM
	// socket.
	sysFD, err := p.Open("/system/lib/libc.so", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lookupFD(p.Task, sysFD).Kind == kernel.FDRemote {
		t.Fatal("system lib fd should be host-local")
	}
	d.RegisterRemote("sink:1", func(req []byte) []byte { return nil })
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(sock, "sink:1"); err != nil {
		t.Fatal(err)
	}
	// local file -> remote socket: mixed locality.
	n, err := p.Sendfile(sock, sysFD, 16)
	if err != nil || n == 0 {
		t.Fatalf("mixed sendfile = %d, %v", n, err)
	}
}

// TestExecOfMissingUserBinary: the exec split reports the container's
// ENOENT cleanly.
func TestExecOfMissingUserBinary(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.noexec")
	err := p.Execve(p.App.Info.DataDir + "/ghost")
	if !errors.Is(err, abi.ENOENT) {
		t.Fatalf("exec missing: %v, want ENOENT", err)
	}
	if p.Task.CurrentState() != kernel.TaskRunning {
		t.Fatal("failed exec killed the task")
	}
}
