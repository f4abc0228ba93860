package supervisor_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/netstack"
	"anception/internal/supervisor"
)

// TestSupervisedRestartRollsSocketGeneration is the end-to-end regression
// drill for the boot-generation rollover: after a supervised restart the
// fresh guest stack is keyed to the new CVM generation (so ConnectPolicy
// re-checks fire, see netstack's generation-roll tests), a policy swapped
// in around the restart governs new connects, and the socket accounting
// identity holds across the churn.
func TestSupervisedRestartRollsSocketGeneration(t *testing.T) {
	d, err := anception.NewDevice(anception.Options{
		Mode:         anception.ModeAnception,
		RingDepth:    16,
		CallDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sup := supervisor.New(d, d.Clock, d.Trace, supervisor.Config{})
	app, err := d.InstallApp(android.AppSpec{Package: "com.net.drill"})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.Launch(app)
	if err != nil {
		t.Fatal(err)
	}

	d.RegisterRemote("bank.com:443", func(req []byte) []byte { return []byte("ok") })
	fd, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Connect(fd, "bank.com:443"); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Send(fd, []byte("q")); err != nil {
		t.Fatal(err)
	}
	genBefore := d.Guest.Net().Generation()

	d.InjectGuestPanic("socket drill")
	if err := sup.RunUntilHealthy(50); err != nil {
		t.Fatalf("watchdog never recovered: %v", err)
	}

	// The SocketDrainer hook keyed the fresh guest stack to the new boot
	// generation.
	if got, want := d.Guest.Net().Generation(), uint64(d.CVM.Generation()); got != want || got <= genBefore {
		t.Fatalf("guest stack generation = %d, want %d (> %d)", got, want, genBefore)
	}
	if st := d.NetStats(); st.Drains < 1 {
		t.Fatalf("Drains = %d after supervised restart, want >= 1", st.Drains)
	}

	// A deny policy swapped in with the restart governs the new container:
	// the remote is re-registered (remotes died with the old guest) but
	// the firewall refuses the connect.
	d.RegisterRemote("bank.com:443", func(req []byte) []byte { return []byte("ok") })
	d.SetCVMFirewall(func(cred abi.Cred, addr string) error {
		return fmt.Errorf("firewalled by host policy: %w", abi.ENETUNREACH)
	})
	fd2, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Connect(fd2, "bank.com:443"); !errors.Is(err, abi.ENETUNREACH) {
		t.Fatalf("connect under post-restart deny policy: %v, want ENETUNREACH", err)
	}

	// Lifting it restores service on the new container.
	d.SetCVMFirewall(nil)
	fd3, err := proc.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Connect(fd3, "bank.com:443"); err != nil {
		t.Fatalf("connect after lifting policy: %v", err)
	}
	if _, err := proc.Send(fd3, []byte("q")); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}

	st := d.NetStats()
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("socket accounting %+v after supervised restart", st)
	}
}

// TestSocketChurnUnderRestarts: workers hammer connect/send/recv/close
// from several goroutines while the container is panicked and recovered
// repeatedly. Every failure an app observes must be a clean errno — never
// a raw data race or non-errno error — and at the end the socket-op
// accounting identity Submitted = Completed + Failed holds exactly. Run
// under -race in CI.
func TestSocketChurnUnderRestarts(t *testing.T) {
	d, err := anception.NewDevice(anception.Options{
		Mode:         anception.ModeAnception,
		RingDepth:    16,
		CallDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sup := supervisor.New(d, d.Clock, d.Trace, supervisor.Config{})
	d.RegisterRemote("sink:1", func(req []byte) []byte { return []byte("ack") })

	const workers = 4
	apps := make([]*anception.Proc, workers)
	for i := range apps {
		app, err := d.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.churn%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if apps[i], err = d.Launch(app); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	badErr := make(chan error, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app *anception.Proc) {
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
			for {
				select {
				case <-stop:
					return
				default:
				}
				fd, err := app.Socket(netstack.AFInet, netstack.SockStream, 0)
				if err != nil {
					report(err)
					continue
				}
				if err := app.Connect(fd, "sink:1"); err != nil {
					report(err)
					report(app.Close(fd))
					continue
				}
				if _, err := app.Send(fd, []byte("ping")); err != nil {
					report(err)
				}
				if _, err := app.Recv(fd, 8); err != nil {
					report(err)
				}
				report(app.Close(fd))
			}
		}(i, app)
	}

	// Each restart lands on live traffic: it is injected only once the
	// workers have forwarded a socket op since the previous one, or after
	// a bounded host-time wait (the assertions below then catch a churn
	// that never forwarded anything).
	var forwarded int64
	for r := 0; r < 5; r++ {
		for wait := time.Now().Add(10 * time.Second); d.NetStats().Submitted == forwarded && time.Now().Before(wait); {
			time.Sleep(100 * time.Microsecond)
		}
		forwarded = d.NetStats().Submitted
		d.InjectGuestPanic(fmt.Sprintf("churn round %d", r))
		if err := sup.RunUntilHealthy(50); err != nil {
			t.Fatalf("round %d: watchdog never recovered: %v", r, err)
		}
		// Remotes die with the old guest stack; re-arm the sink so the
		// next round's connects can succeed again.
		d.RegisterRemote("sink:1", func(req []byte) []byte { return []byte("ack") })
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-badErr:
		t.Fatal(err)
	default:
	}

	st := d.NetStats()
	if st.Submitted == 0 {
		t.Fatal("churn produced no forwarded socket ops")
	}
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("socket accounting broken under churn: %+v", st)
	}
	if got, want := d.Guest.Net().Generation(), uint64(d.CVM.Generation()); got != want {
		t.Fatalf("final stack generation = %d, want %d", got, want)
	}
}
