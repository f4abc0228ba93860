package anception

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/binder"
	"anception/internal/marshal"
)

// bootSnapshotDevice boots an Anception device with checkpoints enabled
// plus whatever warm-state machinery the options ask for.
func bootSnapshotDevice(t *testing.T, opts Options) *Device {
	t.Helper()
	opts.Mode = ModeAnception
	opts.Vulns = android.AllVulnerabilities()
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = time.Millisecond
	}
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestRestoreKeepsWarmState: warm state provably unchanged since the
// checkpoint survives a snapshot restore — clean redirection-cache pages
// keep serving host-side, the binder session is re-pinned without paying
// setup again, and checkpointed replies still hit. Dirty write-behind
// buffers drain (crash semantics), exactly as a cold restart would drop
// them.
func TestRestoreKeepsWarmState(t *testing.T) {
	d := bootSnapshotDevice(t, Options{
		RedirCache:       true,
		BinderSessions:   true,
		BinderReplyCache: true,
	})
	p := installAndLaunch(t, d, "com.warm")

	// Warm the page cache: write+close (flushes), reopen, read twice.
	fd, err := p.Open("warm.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("warm state survives the restore")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	rd, err := p.Open("warm.txt", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pread(rd, 8, 0); err != nil {
		t.Fatal(err)
	}

	// Warm the binder fast path: one session call (opens the session,
	// stores a cacheable reply).
	bfd, err := p.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("where am i")
	if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}

	if !d.Checkpoint() {
		t.Fatal("checkpoint refused with snapshots enabled")
	}

	// Post-checkpoint novel state: a buffered positioned write whose
	// dirty extents must drain on restore, never replay against the
	// restored guest.
	wfd, err := p.Open("dirty.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pwrite(wfd, []byte("buffered after the checkpoint"), 0); err != nil {
		t.Fatal(err)
	}

	if err := d.RestoreFromSnapshot(); err != nil {
		t.Fatal(err)
	}

	rs := d.Layer.Stats().Restore
	if rs.Restores != 1 {
		t.Fatalf("Restore stats = %+v, want exactly 1 restore", rs)
	}
	if rs.CachePagesKept == 0 {
		t.Fatalf("Restore stats = %+v, want clean cache pages kept", rs)
	}
	if rs.SessionsKept != 1 {
		t.Fatalf("Restore stats = %+v, want the pre-checkpoint session re-pinned", rs)
	}
	if rs.RepliesKept == 0 {
		t.Fatalf("Restore stats = %+v, want checkpointed replies kept", rs)
	}
	if rs.DirtyDropped == 0 {
		t.Fatalf("Restore stats = %+v, want post-checkpoint dirty extents dropped", rs)
	}

	// The kept page serves from host memory: the same read hits without a
	// container round-trip (the stale guest descriptor would EBADF).
	hitsBefore := d.Layer.Stats().Cache.Hits
	if _, err := p.Pread(rd, 8, 0); err != nil {
		t.Fatalf("cached read after restore: %v", err)
	}
	if got := d.Layer.Stats().Cache.Hits; got <= hitsBefore {
		t.Fatalf("post-restore read missed the kept page: hits %d -> %d", hitsBefore, got)
	}

	// The kept reply hits; the re-pinned session carries new calls without
	// a second session setup.
	if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}
	st := d.BinderStats()
	if st.ReplyHits != 1 {
		t.Fatalf("binder stats = %+v, want the checkpointed reply to hit", st)
	}
	if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, []byte("elsewhere")); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.SessionsOpened != 1 {
		t.Fatalf("binder stats = %+v, want no second session setup after restore", st)
	}
	binderIdentity(t, d)
}

// TestConcurrentRestoreUnderLoad: apps hammer redirected I/O from several
// goroutines while the container is checkpointed and restored repeatedly.
// Mirrors TestConcurrentRestartUnderLoad: every failure an app observes
// must be a clean errno, the async ring's accounting identity
// (Submitted = Completed + Failed) must hold once the dust settles, and
// every app can still do redirected I/O afterwards. Run under -race in CI.
func TestConcurrentRestoreUnderLoad(t *testing.T) {
	d := bootSnapshotDevice(t, Options{RingDepth: 8, RedirCache: true})
	const workers = 4
	apps := make([]*Proc, workers)
	for i := range apps {
		apps[i] = installAndLaunch(t, d, fmt.Sprintf("com.restore%d", i))
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
				name := fmt.Sprintf("r%d-%d.txt", i, n)
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

	const rounds = 5
	for r := 0; r < rounds; r++ {
		if !d.Checkpoint() {
			t.Fatal("checkpoint refused")
		}
		if err := d.RestoreFromSnapshot(); err != nil {
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

	// Every worker recovers against the restored guest.
	for i, app := range apps {
		fd, err := app.Open("final.txt", abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			t.Fatalf("worker %d post-restore open: %v", i, err)
		}
		if _, err := app.Write(fd, []byte("clean")); err != nil {
			t.Fatalf("worker %d post-restore write: %v", i, err)
		}
		if err := app.Close(fd); err != nil {
			t.Fatalf("worker %d post-restore close: %v", i, err)
		}
		if d.Proxies.ProxyFor(app.Task.PID) == nil {
			t.Fatalf("worker %d has no proxy on the restored guest", i)
		}
	}
	st := d.Layer.Stats()
	if st.Restore.Restores != rounds {
		t.Fatalf("Restores = %d, want %d", st.Restore.Restores, rounds)
	}
	if st.Ring.Submitted != st.Ring.Completed+st.Ring.Failed {
		t.Fatalf("ring accounting broken after restores: %+v", st.Ring)
	}
}

// TestBinderRoutedBeforeUpgradeIsRetryable is a gate test: a transaction
// routed to the guest just before the layer's EAGAIN gate closed and the
// guest went down never reached the container, so it fails EAGAIN
// (retry) like any gated arrival, not EHOSTDOWN. A guest that died with
// the gate open is still a dead container.
func TestBinderRoutedBeforeUpgradeIsRetryable(t *testing.T) {
	d := bootSnapshotDevice(t, Options{RingDepth: 8, BinderSessions: true})
	app := installAndLaunch(t, d, "com.upgrade.routed")
	txn := binder.Transaction{Service: "location", Code: android.CodeGetLocation}
	f := d.Layer.getFrame()
	defer d.Layer.putFrame(f)
	f.txn = marshal.AppendBinderTxn(f.txn[:0], txn)
	routed := d.Layer.currentState()

	d.SetDegraded(true)
	d.Guest.Panic("gated guest down")
	if res := d.Layer.bridgeBinder(routed, app.Task, f, txn); !errors.Is(res.Err, abi.EAGAIN) {
		t.Fatalf("gated, guest down: err = %v, want EAGAIN", res.Err)
	}
	d.SetDegraded(false)
	if res := d.Layer.bridgeBinder(routed, app.Task, f, txn); !errors.Is(res.Err, abi.EHOSTDOWN) {
		t.Fatalf("open, guest down: err = %v, want EHOSTDOWN", res.Err)
	}
}
