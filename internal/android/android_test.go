package android

import (
	"errors"
	"strings"
	"testing"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/netstack"
	"anception/internal/sim"
	"anception/internal/vfs"
)

func bootKernel(t *testing.T, name string, cfg BootConfig) (*kernel.Kernel, *Services) {
	t.Helper()
	clock := sim.NewClock()
	phys := kernel.NewPhysical(256 << 20)
	fs := vfs.New()
	if err := BuildSystemImage(fs); err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{
		Name:   name,
		Clock:  clock,
		Model:  sim.DefaultLatencyModel(),
		Trace:  sim.NewTrace(clock),
		FS:     fs,
		Net:    netstack.New(name),
		Binder: binder.NewDriver(),
		Alloc:  phys.NewAllocator(name, kernel.Region{}),
	})
	svcs, err := Boot(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, svcs
}

func TestBootFullStack(t *testing.T) {
	k, svcs := bootKernel(t, "host", BootConfig{Vulns: AllVulnerabilities()})
	for _, name := range []string{"window", "vold", "system_server", "surfaceflinger", "zygote"} {
		if svcs.Service(name) == nil {
			t.Errorf("service %s missing", name)
		}
	}
	if svcs.WM == nil || svcs.Vold == nil {
		t.Fatal("WM/vold handles missing")
	}
	// Device nodes exist.
	root := abi.Cred{UID: abi.UIDRoot}
	if _, err := k.FS().StatPath(root, "/dev/binder"); err != nil {
		t.Fatalf("/dev/binder: %v", err)
	}
	if _, err := k.FS().StatPath(root, "/dev/graphics/fb0"); err != nil {
		t.Fatalf("/dev/graphics/fb0: %v", err)
	}
}

func TestHeadlessBootOmitsUIStack(t *testing.T) {
	k, svcs := bootKernel(t, "cvm", BootConfig{Headless: true, Vulns: AllVulnerabilities()})
	for _, name := range []string{"window", "surfaceflinger", "inputmethod", "activity", "zygote"} {
		if svcs.Service(name) != nil {
			t.Errorf("headless boot started UI service %s", name)
		}
	}
	if svcs.Service("vold") == nil || svcs.Service("system_server") == nil {
		t.Fatal("headless boot missing delegable services")
	}
	// No framebuffer node in the container.
	root := abi.Cred{UID: abi.UIDRoot}
	if _, err := k.FS().StatPath(root, "/dev/graphics/fb0"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("fb0 in headless CVM: %v, want ENOENT", err)
	}
}

func TestHeadlessMemorySavings(t *testing.T) {
	_, full := bootKernel(t, "a", BootConfig{})
	_, headless := bootKernel(t, "b", BootConfig{Headless: true})
	if headless.ResidentPages() >= full.ResidentPages() {
		t.Fatalf("headless (%d pages) should use less than full (%d pages)",
			headless.ResidentPages(), full.ResidentPages())
	}
	// Headless services plus the paper's 23-app proxy set should land
	// near the measured 25,460 KB active set.
	activeKB := (headless.ResidentPages() + 23*24) * abi.PageSize / 1024
	if activeKB < 24000 || activeKB > 27000 {
		t.Fatalf("projected active set = %d KB, want ~25460", activeKB)
	}
}

func TestServiceLoCTotalsMatchPaper(t *testing.T) {
	var total, ui int
	for _, spec := range Catalog() {
		total += spec.LoC
		if spec.UI {
			ui += spec.LoC
		}
	}
	if total != 181260 {
		t.Errorf("total privileged LoC = %d, want 181260", total)
	}
	if ui != 72542 {
		t.Errorf("UI LoC = %d, want 72542", ui)
	}
	if got := total - ui; got != 108718 {
		t.Errorf("deprivileged LoC = %d, want 108718", got)
	}
}

func TestWindowManagerInputQueue(t *testing.T) {
	_, svcs := bootKernel(t, "host", BootConfig{})
	wm := svcs.WM
	appUID := abi.UIDAppBase
	wm.QueueInput(appUID, []byte("pwd:hunter2"))

	// Wrong UID sees nothing.
	if _, err := wm.HandleTransaction(abi.Cred{UID: appUID + 1}, CodeWaitInput, nil); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("foreign uid input wait: %v, want EAGAIN", err)
	}
	evt, err := wm.HandleTransaction(abi.Cred{UID: appUID}, CodeWaitInput, nil)
	if err != nil || string(evt) != "pwd:hunter2" {
		t.Fatalf("input = %q, %v", evt, err)
	}
	if wm.PendingInput(appUID) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestWindowManagerStagesInputInItsHeap(t *testing.T) {
	k, svcs := bootKernel(t, "host", BootConfig{})
	wm := svcs.WM
	secret := []byte("PIN=4242")
	wm.QueueInput(abi.UIDAppBase, secret)
	// The staged bytes are readable from the WM's memory by a same-kernel
	// root attacker — the input-theft channel on native Android.
	got, err := wm.Task().AS.ReadBytes(k.Region(), wmInputBufBase, len(secret))
	if err != nil || string(got) != string(secret) {
		t.Fatalf("WM heap staging = %q, %v", got, err)
	}
}

func TestWindowManagerDrawCounting(t *testing.T) {
	_, svcs := bootKernel(t, "host", BootConfig{})
	for i := 0; i < 3; i++ {
		if _, err := svcs.WM.HandleTransaction(abi.Cred{UID: abi.UIDAppBase}, CodeDraw, nil); err != nil {
			t.Fatal(err)
		}
	}
	if svcs.WM.FramesDrawn() != 3 {
		t.Fatalf("frames = %d", svcs.WM.FramesDrawn())
	}
	if _, err := svcs.WM.HandleTransaction(abi.Cred{}, 99, nil); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("unknown code: %v", err)
	}
}

func TestVoldGingerBreakExactIndexSpawnsRootShell(t *testing.T) {
	k, svcs := bootKernel(t, "host", BootConfig{Vulns: AllVulnerabilities()})
	root := abi.Cred{UID: abi.UIDRoot}
	payload := []byte(kernel.AttackerPayloadMagic + "\nrootshell")
	if err := k.FS().MkdirAll(root, "/data/data/com.mal", 0o777); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(root, "/data/data/com.mal/exploit", payload, 0o755); err != nil {
		t.Fatal(err)
	}
	msg := []byte("GB:-1073741821:/data/data/com.mal/exploit")
	if err := svcs.Vold.HandleNetlink(abi.Cred{UID: abi.UIDAppBase}, msg); err != nil {
		t.Fatal(err)
	}
	shells := svcs.Vold.RootShells()
	if len(shells) != 1 || shells[0].Cred.UID != abi.UIDRoot {
		t.Fatalf("root shells = %v", shells)
	}
}

func TestVoldGingerBreakWrongIndexCrashes(t *testing.T) {
	_, svcs := bootKernel(t, "host", BootConfig{Vulns: AllVulnerabilities()})
	for i := -5; i < 0; i++ {
		_ = svcs.Vold.HandleNetlink(abi.Cred{UID: abi.UIDAppBase}, []byte("GB:-"+string(rune('0'+(-i)))+":/x"))
	}
	if svcs.Vold.Crashes() == 0 {
		t.Fatal("bad probes should crash vold")
	}
	if lines := svcs.Logd.Grep("F/vold"); len(lines) == 0 {
		t.Fatal("crashes not logged (the exploit's brute-force oracle)")
	}
	if len(svcs.Vold.RootShells()) != 0 {
		t.Fatal("wrong index must not spawn a shell")
	}
}

func TestVoldPatchedIgnoresExploit(t *testing.T) {
	k, svcs := bootKernel(t, "host", BootConfig{}) // no vulnerabilities
	root := abi.Cred{UID: abi.UIDRoot}
	if err := k.FS().WriteFile(root, "/data/p", []byte(kernel.AttackerPayloadMagic), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := svcs.Vold.HandleNetlink(abi.Cred{UID: abi.UIDAppBase}, []byte("GB:-1073741821:/data/p")); err != nil {
		t.Fatal(err)
	}
	if len(svcs.Vold.RootShells()) != 0 {
		t.Fatal("patched vold executed payload")
	}
}

func TestVoldNetlinkPermissionWhenPatched(t *testing.T) {
	k, _ := bootKernel(t, "host", BootConfig{}) // vold channel not world-sendable
	sock, err := k.Net().Socket(abi.Cred{UID: abi.UIDAppBase}, netstack.AFNetlink, netstack.SockDgram, NetlinkVoldProto)
	if err != nil {
		t.Fatal(err)
	}
	err = sock.SendToNetlink(NetlinkVoldProto, abi.Cred{UID: abi.UIDAppBase}, []byte("GB:-1:/x"))
	if !errors.Is(err, abi.EPERM) {
		t.Fatalf("app send to patched vold channel: %v, want EPERM", err)
	}
}

func TestBinderDeviceIoctl(t *testing.T) {
	k, _ := bootKernel(t, "host", BootConfig{})
	app := k.Spawn(abi.Cred{UID: abi.UIDAppBase, GID: abi.UIDAppBase}, "app")
	res := k.Invoke(app, kernel.Args{Nr: abi.SysOpen, Path: "/dev/binder", Flags: abi.ORdWr})
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	fd := res.FD
	ioctl := func(arg []byte) kernel.Result {
		return k.Invoke(app, kernel.Args{Nr: abi.SysIoctl, FD: fd, Request: binder.IocTransact, Buf: arg})
	}
	res = ioctl(marshal.AppendBinderTxn(nil, binder.Transaction{Service: "location", Code: CodeGetLocation}))
	if !res.Ok() {
		t.Fatal(res.Err)
	}
	if !strings.HasPrefix(string(res.Data), "fix:") {
		t.Fatalf("location reply = %q", res.Data)
	}
	// The device decodes the argument: a malformed one is EINVAL, one
	// past the driver's buffer E2BIG, a dead service ENOENT.
	if res := ioctl([]byte{9}); !errors.Is(res.Err, abi.EINVAL) {
		t.Fatalf("malformed transaction: %v, want EINVAL", res.Err)
	}
	big := marshal.AppendBinderTxn(nil, binder.Transaction{Service: "location", Payload: make([]byte, binder.MaxTransaction)})
	if res := ioctl(big); !errors.Is(res.Err, abi.E2BIG) {
		t.Fatalf("oversized transaction: %v, want E2BIG", res.Err)
	}
	if res := ioctl(marshal.AppendBinderTxn(nil, binder.Transaction{Service: "ghost"})); !errors.Is(res.Err, abi.ENOENT) {
		t.Fatalf("unknown service: %v, want ENOENT", res.Err)
	}
}

func TestFramebufferVulnerableVsHardened(t *testing.T) {
	vuln := NewFramebuffer(true)
	if vuln.MmapKind() != vfs.MmapKernelMemory {
		t.Fatal("exposed fb must map kernel memory")
	}
	safe := NewFramebuffer(false)
	if safe.MmapKind() != vfs.MmapDeviceLocal {
		t.Fatal("hardened fb must map device memory only")
	}
	buf := make([]byte, 4)
	if _, err := vuln.Write(vfs.Cred{}, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := vuln.Read(vfs.Cred{}, buf, 0); err != nil || buf[0] != 1 {
		t.Fatalf("fb read = %v %v", buf, err)
	}
}

func TestPackageManagerInstall(t *testing.T) {
	codeFS := vfs.New()
	dataFS := vfs.New()
	if err := BuildSystemImage(codeFS); err != nil {
		t.Fatal(err)
	}
	if err := BuildSystemImage(dataFS); err != nil {
		t.Fatal(err)
	}
	pm := NewPackageManager()
	app, err := pm.Install(codeFS, dataFS, AppSpec{
		Package: "com.bank",
		Code:    []byte("DEX bank"),
		Assets:  map[string][]byte{"cert.pem": []byte("CERT")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if app.UID != abi.UIDAppBase {
		t.Fatalf("first app uid = %d", app.UID)
	}

	// Code is on the code FS, protected but app-readable.
	appCred := abi.Cred{UID: app.UID, GID: app.UID}
	if _, err := codeFS.ReadFile(appCred, app.CodePath); err != nil {
		t.Fatalf("app cannot read own code: %v", err)
	}
	other := abi.Cred{UID: app.UID + 1, GID: app.UID + 1}
	if _, err := codeFS.ReadFile(other, app.CodePath); !errors.Is(err, abi.EACCES) {
		t.Fatalf("other app read code: %v, want EACCES", err)
	}

	// Data dir with unpacked assets on the data FS.
	if data, err := dataFS.ReadFile(appCred, app.DataDir+"/cert.pem"); err != nil || string(data) != "CERT" {
		t.Fatalf("asset = %q, %v", data, err)
	}
	if _, err := dataFS.ReadFile(other, app.DataDir+"/cert.pem"); !errors.Is(err, abi.EACCES) {
		t.Fatalf("other app read asset: %v, want EACCES", err)
	}

	// Second install gets the next UID; duplicates rejected.
	app2, err := pm.Install(codeFS, dataFS, AppSpec{Package: "com.game"})
	if err != nil || app2.UID != abi.UIDAppBase+1 {
		t.Fatalf("second install = %+v, %v", app2, err)
	}
	if _, err := pm.Install(codeFS, dataFS, AppSpec{Package: "com.bank"}); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("dup install: %v, want EEXIST", err)
	}
	if pm.Lookup("com.bank") == nil || len(pm.Installed()) != 2 {
		t.Fatal("lookup/list broken")
	}
}

func TestSystemImageReadOnly(t *testing.T) {
	fs := vfs.New()
	if err := BuildSystemImage(fs); err != nil {
		t.Fatal(err)
	}
	root := abi.Cred{UID: abi.UIDRoot}
	if err := fs.WriteFile(root, "/system/bin/backdoor", []byte("x"), 0o755); !errors.Is(err, abi.EROFS) {
		t.Fatalf("write to /system: %v, want EROFS", err)
	}
	// /sdcard is world-writable.
	appCred := abi.Cred{UID: abi.UIDAppBase, GID: abi.UIDAppBase}
	if err := fs.WriteFile(appCred, "/sdcard/x", []byte("x"), 0o644); err != nil {
		t.Fatalf("sdcard write: %v", err)
	}
}

func TestLogd(t *testing.T) {
	l := NewLogd()
	l.Log("I/system: boot")
	l.Log("F/vold: crash")
	if len(l.Lines()) != 2 {
		t.Fatal("lines lost")
	}
	if got := l.Grep("F/vold"); len(got) != 1 {
		t.Fatalf("grep = %v", got)
	}
}
