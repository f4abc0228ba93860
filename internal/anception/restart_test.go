package anception

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// TestCVMRestartAfterCrash: the crash-only recovery story. A container
// crash (here: the failed CVE-2009-2692 null dereference) kills the CVM;
// the host restarts it, apps keep running, and redirected I/O resumes —
// with the container's persistent storage intact.
func TestCVMRestartAfterCrash(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.survivor")

	// Durable state written before the crash.
	fd, err := app.Open("persisted.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Write(fd, []byte("written before the crash")); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(fd); err != nil {
		t.Fatal(err)
	}

	// A malicious app crashes the container via the null-sendpage bug.
	mal := installAndLaunch(t, d, "com.crasher")
	_ = mal.MapFixed(0, 1, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec)
	sock, err := mal.Socket(netstack.AFBluetooth, netstack.SockDgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	vfd, err := mal.Open("bait.txt", abi.ORdWr|abi.OCreat, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mal.Sendfile(sock, vfd, abi.PageSize); err == nil {
		t.Fatal("sendfile should have failed with the CVM crash")
	}
	if d.Guest.Panicked() == "" {
		t.Fatal("container did not crash")
	}
	// Redirected I/O is down.
	if _, err := app.Open("while-down.txt", abi.OWrOnly|abi.OCreat, 0o600); err == nil {
		t.Fatal("redirected open succeeded on a dead container")
	}
	// The host app itself is fine.
	if app.Task.CurrentState() != kernel.TaskRunning {
		t.Fatal("host app died with the container")
	}

	// Restart the container.
	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	if d.Guest.Panicked() != "" {
		t.Fatal("fresh guest kernel reports a panic")
	}
	if d.GuestServices.Service("vold") == nil {
		t.Fatal("services did not come back")
	}

	// The app resumes: a fresh proxy enrolls on its next call.
	fd2, err := app.Open("after.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatalf("redirected open after restart: %v", err)
	}
	if _, err := app.Write(fd2, []byte("back in business")); err != nil {
		t.Fatal(err)
	}
	if d.Proxies.ProxyFor(app.Task.PID) == nil {
		t.Fatal("no fresh proxy after restart")
	}

	// Persistent container storage survived the reboot.
	data, err := d.Guest.FS().ReadFile(abi.Cred{UID: abi.UIDRoot}, app.App.Info.DataDir+"/persisted.txt")
	if err != nil || string(data) != "written before the crash" {
		t.Fatalf("persisted data = %q, %v", data, err)
	}

	// Stale pre-crash descriptors surface as errors, not corruption.
	if _, err := app.Write(fd, []byte("stale")); err == nil {
		t.Fatal("stale descriptor silently worked after restart")
	}
}

// TestCVMRestartWipesCompromise: a rooted container is fully cleaned by a
// restart — the exploit state does not survive the region wipe.
func TestCVMRestartWipesCompromise(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	mal := installAndLaunch(t, d, "com.rooter")

	// Root the container via the delegated diag driver.
	fd, err := mal.Open("/dev/diag", abi.ORdWr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mal.Ioctl(fd, android.IoctlExploitTrigger, nil); err != nil {
		t.Fatal(err)
	}
	if d.Guest.Compromised() == nil {
		t.Fatal("container not compromised")
	}

	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	if d.Guest.Compromised() != nil {
		t.Fatal("compromise survived the restart")
	}
	if d.Guest.Rooted() {
		t.Fatal("root state survived the restart")
	}
	// The platform is fully functional again.
	p2 := installAndLaunch(t, d, "com.fresh")
	fd2, err := p2.Open("f", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Write(fd2, []byte("clean")); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRejectsNonAnception: native platforms have no container.
func TestRestartRejectsNonAnception(t *testing.T) {
	d := bootDevice(t, ModeNative)
	if err := d.RestartCVM(); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

// TestRestartPreservesMemoryIsolation: the relaunched container's frames
// remain confined to the original region.
func TestRestartPreservesMemoryIsolation(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	hi := installAndLaunch(t, d, "com.bank")
	addr, err := hi.PlantSecret([]byte("still-secret"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	// Guest services landed inside the region.
	for _, task := range d.Guest.Tasks() {
		for _, v := range task.AS.VMAs() {
			for _, f := range v.Frames {
				if !d.CVM.Region().Contains(f) {
					t.Fatalf("guest frame %d outside region after restart", f)
				}
			}
		}
	}
	// And the host app's secret is still unreadable from the guest side.
	if _, err := hi.Task.AS.ReadBytes(d.Guest.Region(), addr, 12); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest-region read of host memory after restart: %v", err)
	}
}

// TestConcurrentRestartUnderLoad: apps hammer redirected I/O from several
// goroutines while the container is restarted repeatedly. Every failure an
// app observes must be a clean errno — never a raw data race, deadlock, or
// non-errno error — and once the dust settles every app can still do
// redirected I/O. Run under -race in CI.
func TestConcurrentRestartUnderLoad(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	const workers = 4
	apps := make([]*Proc, workers)
	for i := range apps {
		apps[i] = installAndLaunch(t, d, fmt.Sprintf("com.worker%d", i))
	}

	stop := make(chan struct{})
	badErr := make(chan error, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app *Proc) {
			defer wg.Done()
			report := func(err error) {
				var errno abi.Errno
				if err != nil && !errors.As(err, &errno) {
					select {
					case badErr <- fmt.Errorf("worker %d: non-errno error: %w", i, err):
					default:
					}
				}
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("w%d-%d.txt", i, n)
				fd, err := app.Open(name, abi.OWrOnly|abi.OCreat, 0o600)
				if err != nil {
					report(err)
					continue
				}
				if _, err := app.Write(fd, []byte("under load")); err != nil {
					report(err)
				}
				if _, err := app.Pread(fd, 4, 0); err != nil {
					report(err)
				}
				report(app.Close(fd))
			}
		}(i, app)
	}

	for r := 0; r < 5; r++ {
		if err := d.RestartCVM(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-badErr:
		t.Fatal(err)
	default:
	}

	// Every worker recovers: a fresh open/write/close round-trip works and
	// its proxy re-enrolls against the final guest.
	for i, app := range apps {
		fd, err := app.Open("final.txt", abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			t.Fatalf("worker %d post-restart open: %v", i, err)
		}
		if _, err := app.Write(fd, []byte("clean")); err != nil {
			t.Fatalf("worker %d post-restart write: %v", i, err)
		}
		if err := app.Close(fd); err != nil {
			t.Fatalf("worker %d post-restart close: %v", i, err)
		}
		if d.Proxies.ProxyFor(app.Task.PID) == nil {
			t.Fatalf("worker %d has no proxy on the final guest", i)
		}
	}
	if got := d.Layer.Stats().Restarts; got != 5 {
		t.Fatalf("Restarts = %d, want 5", got)
	}
}

// TestRestartNumbersPastStaleDescriptors: an app keeps a descriptor open
// across a container restart. The new container's proxies, the app's and
// a child it forks afterwards, number their descriptors past every guest
// fd the app still maps, so the stale descriptor never reads a file
// opened after the restart, and fresh opens are not mistaken for forged
// replies. On Paper and Fast.
func TestRestartNumbersPastStaleDescriptors(t *testing.T) {
	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			d, p := admitApp(t, prof.opts)
			seedGuestFile(t, p, "old.dat", []byte("old bytes"))
			seedGuestFile(t, p, "new.dat", []byte("new bytes"))
			stale := mustOpen(t, p, "old.dat", abi.ORdOnly)
			if err := d.RestartCVM(); err != nil {
				t.Fatal(err)
			}
			// A path call enrolls the app's new proxy; a child forked now
			// inherits the stale entry and forks that proxy.
			if _, err := p.Stat("new.dat"); err != nil {
				t.Fatal(err)
			}
			child, err := p.Fork()
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range []struct {
				name string
				p    *Proc
			}{{"child", child}, {"parent", p}} {
				// Enough opens to reach the stale descriptor's guest fd,
				// were the new proxies to number from the bottom again.
				for range 4 {
					fd, err := app.p.Open("new.dat", abi.ORdOnly, 0)
					if err != nil {
						t.Fatalf("%s: open after the restart: %v", app.name, err)
					}
					if got := mustPread(t, app.p, fd, 16, 0); string(got) != "new bytes" {
						t.Fatalf("%s: new file reads %q", app.name, got)
					}
				}
				if got, err := app.p.Pread(stale, 16, 0); err == nil {
					t.Fatalf("%s: descriptor from before the restart read %q", app.name, got)
				}
			}
		})
	}
}
