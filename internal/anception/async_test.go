package anception

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/sim"
)

func bootRingDevice(t *testing.T, mutate func(*Options)) *Device {
	t.Helper()
	opts := Options{
		Mode:      ModeAnception,
		Vulns:     android.AllVulnerabilities(),
		RingDepth: 32,
	}
	if mutate != nil {
		mutate(&opts)
	}
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestRingRedirectedIORoundTrip: redirected file I/O is byte-identical
// through the async ring, and the layer surfaces the ring's counters.
func TestRingRedirectedIORoundTrip(t *testing.T) {
	d := bootRingDevice(t, nil)
	if got := d.Layer.Transport().Name(); got != "async-ring" {
		t.Fatalf("transport = %q, want async-ring", got)
	}

	app := installAndLaunch(t, d, "com.ring.io")
	fd, err := app.Open("ring.txt", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("payload through the async ring")
	if _, err := app.Write(fd, want); err != nil {
		t.Fatal(err)
	}
	got, err := app.Pread(fd, len(want), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pread = %q, want %q", got, want)
	}
	// Enough further traffic to close out at least one full completion
	// batch, so the reap hypercall is observable below.
	for i := 0; i < 8; i++ {
		if _, err := app.Pwrite(fd, want, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(fd); err != nil {
		t.Fatal(err)
	}

	st := d.Layer.Stats()
	if st.Ring.Depth != 32 {
		t.Fatalf("Ring.Depth = %d, want 32", st.Ring.Depth)
	}
	if st.Ring.Submitted == 0 || st.Ring.Completed != st.Ring.Submitted || st.Ring.Failed != 0 {
		t.Fatalf("ring accounting %+v, want submitted==completed, no failures", st.Ring)
	}
	if st.Ring.Doorbells == 0 || st.Ring.Reaps == 0 {
		t.Fatalf("ring rang no doorbell/reap: %+v", st.Ring)
	}
	if st.Redirected == 0 {
		t.Fatal("no calls counted as redirected")
	}
	if d.Trace.Count(sim.EvRing) == 0 {
		t.Fatal("no EvRing events traced")
	}
}

// TestRingConcurrentSubmissions: many goroutines drive redirected I/O
// through the ring at once; every call succeeds and the accounting
// identity submitted == completed + failed holds afterwards.
func TestRingConcurrentSubmissions(t *testing.T) {
	d := bootRingDevice(t, nil)
	const workers, opsPer = 8, 16
	apps := make([]*Proc, workers)
	for i := range apps {
		apps[i] = installAndLaunch(t, d, fmt.Sprintf("com.ring.conc%d", i))
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app *Proc) {
			defer wg.Done()
			for n := 0; n < opsPer; n++ {
				name := fmt.Sprintf("c%d-%d.txt", i, n)
				fd, err := app.Open(name, abi.ORdWr|abi.OCreat, 0o600)
				if err == nil {
					_, err = app.Write(fd, []byte("concurrent"))
					if err == nil {
						_, err = app.Pread(fd, 10, 0)
					}
					if cerr := app.Close(fd); err == nil {
						err = cerr
					}
				}
				if err != nil {
					select {
					case errCh <- fmt.Errorf("worker %d op %d: %w", i, n, err):
					default:
					}
					return
				}
			}
		}(i, app)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := d.Layer.Stats().Ring
	if st.Submitted == 0 || st.Submitted != st.Completed+st.Failed {
		t.Fatalf("ring accounting %+v: submitted != completed+failed", st)
	}
	if st.Failed != 0 {
		t.Fatalf("ring failed %d slots with no restarts in play", st.Failed)
	}
}

// TestRingConcurrentRestartUnderLoad: goroutines hammer the ring while the
// CVM restarts repeatedly. Every failure must be a clean errno, nothing
// may deadlock, and afterwards the ring has neither lost nor
// double-completed a slot: submitted == completed + failed exactly. Run
// under -race in CI.
func TestRingConcurrentRestartUnderLoad(t *testing.T) {
	d := bootRingDevice(t, nil)
	const workers = 4
	apps := make([]*Proc, workers)
	for i := range apps {
		apps[i] = installAndLaunch(t, d, fmt.Sprintf("com.ring.worker%d", i))
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
				name := fmt.Sprintf("rw%d-%d.txt", i, n)
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

	// Every worker recovers on the final guest.
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
	}
	st := d.Layer.Stats()
	if st.Restarts != 5 {
		t.Fatalf("Restarts = %d, want 5", st.Restarts)
	}
	// No lost or double completions: with all submitters quiesced, every
	// slot the ring ever accepted was completed exactly once (successfully
	// or with a clean failure).
	if st.Ring.Submitted != st.Ring.Completed+st.Ring.Failed {
		t.Fatalf("ring accounting %+v: submitted != completed+failed after quiesce", st.Ring)
	}
	if st.Ring.Rearms < 5 {
		t.Fatalf("Rearms = %d after 5 restarts, want >= 5", st.Ring.Rearms)
	}
}

// TestRingPingZeroAllocs: steady-state submission through the ring is
// allocation-free, like the synchronous channel's heartbeat
// (TestPingZeroAllocs). Guards the hot path against closure captures or
// per-call buffers sneaking in.
func TestRingPingZeroAllocs(t *testing.T) {
	d, err := NewDevice(Options{
		Mode:         ModeAnception,
		DisableTrace: true,
		RingDepth:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for i := 0; i < 100; i++ { // warm channel frames and scheduler state
		if err := d.Layer.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Layer.Ping(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ring Ping allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRingDegradedFailsFast: with the breaker open, calls fail EAGAIN
// before consuming a ring slot.
func TestRingDegradedFailsFast(t *testing.T) {
	d := bootRingDevice(t, nil)
	app := installAndLaunch(t, d, "com.ring.degraded")

	before := d.Layer.Stats()
	d.SetDegraded(true)
	if _, err := app.Open("no.txt", abi.OWrOnly|abi.OCreat, 0o600); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("degraded open err = %v, want EAGAIN", err)
	}
	st := d.Layer.Stats()
	if st.FailedFast == before.FailedFast {
		t.Fatal("FailedFast did not advance")
	}
	if st.Ring.Submitted != before.Ring.Submitted {
		t.Fatalf("degraded call consumed a ring slot: %d -> %d", before.Ring.Submitted, st.Ring.Submitted)
	}

	d.SetDegraded(false)
	fd, err := app.Open("yes.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestRingDeadlineTimedOut: the per-slot deadline applies on the ring path
// — a completion landing past the budget surfaces ETIMEDOUT and bumps the
// TimedOut counter, exactly like the synchronous path.
func TestRingDeadlineTimedOut(t *testing.T) {
	d := bootRingDevice(t, func(o *Options) { o.CallDeadline = time.Nanosecond })
	app := installAndLaunch(t, d, "com.ring.deadline")

	_, err := app.Open("slow.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if !errors.Is(err, abi.ETIMEDOUT) {
		t.Fatalf("err = %v, want ETIMEDOUT", err)
	}
	if got := d.Layer.Stats().TimedOut; got == 0 {
		t.Fatal("TimedOut counter did not advance")
	}
	if d.Trace.Count(sim.EvTimeout) == 0 {
		t.Fatal("no timeout event traced")
	}
}
