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
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/marshal"
)

// bootBinderDevice boots an Anception device with the given binder
// fast-path options and one launched app holding an open /dev/binder fd.
func bootBinderDevice(t *testing.T, opts Options) (*Device, *Proc, int) {
	t.Helper()
	opts.Mode = ModeAnception
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	p := installAndLaunch(t, d, "com.binder.test")
	fd, err := p.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	return d, p, fd
}

// binderIdentity asserts the fast path's accounting identity.
func binderIdentity(t *testing.T, d *Device) {
	t.Helper()
	st := d.BinderStats()
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("binder accounting broken: %+v", st)
	}
}

// TestBinderSessionAmortizesPenalty: the first transaction pays the cold
// CVM penalty plus the one-time session setup; established sessions pay
// BinderSessionPerTxn instead of the 18.7 ms penalty — at least 5x less
// fixed overhead than the synchronous bridge.
func TestBinderSessionAmortizesPenalty(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderSessions: true})
	payload := make([]byte, 128)
	call := func() time.Duration {
		return measureOnce(d, func() {
			if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	cold := call()
	warm := call()

	m := d.Model
	encoded := time.Duration(2 + len("location") + 4 + len(payload)) // 142 B cross the boundary
	wantCold := m.SyscallEntry + m.BinderTransaction + m.BinderCVMPenalty + m.BinderSessionSetup + encoded*m.BinderCVMPerByte
	wantWarm := m.SyscallEntry + m.BinderTransaction + m.BinderSessionPerTxn + encoded*m.BinderCVMPerByte
	within(t, "cold session call", cold, wantCold, 0.01)
	within(t, "warm session call", warm, wantWarm, 0.01)

	// The acceptance floor, at model level: warm overhead over the native
	// transaction must be at least 5x below the sync bridge's.
	syncOver := m.BinderCVMPenalty + encoded*m.BinderCVMPerByte
	warmOver := m.BinderSessionPerTxn + encoded*m.BinderCVMPerByte
	if syncOver < 5*warmOver {
		t.Fatalf("session overhead %v not 5x below sync %v", warmOver, syncOver)
	}

	st := d.BinderStats()
	if st.SessionsOpened != 1 || st.SessionTxns != 2 {
		t.Fatalf("stats = %+v, want 1 session, 2 txns", st)
	}
	if st.Submitted != 2 || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("accounting = %+v, want 2/2/0", st)
	}
	if got := d.Layer.Stats().Binder; got != st {
		t.Fatalf("LayerStats.Binder = %+v, want %+v", got, st)
	}
}

// TestBinderSessionSharedAcrossApps: sessions pin a (service -> guest
// handle) resolution, so a second app's transactions reuse the session the
// first app opened instead of paying setup again.
func TestBinderSessionSharedAcrossApps(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderSessions: true})
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, nil); err != nil {
		t.Fatal(err)
	}
	p2 := installAndLaunch(t, d, "com.binder.second")
	fd2, err := p2.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.BinderCall(fd2, "location", android.CodeGetLocation, nil); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.SessionsOpened != 1 || st.SessionTxns != 2 {
		t.Fatalf("stats = %+v, want the second app on the first app's session", st)
	}
}

// TestBinderUIStaysOnHost: UI transactions never enter the fast path —
// they pass through to the host service even with every knob on.
func TestBinderUIStaysOnHost(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderSessions: true, BinderReplyCache: true})
	if _, err := p.BinderCall(fd, "window", android.CodeDraw, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.Submitted != 0 || st.SessionsOpened != 0 {
		t.Fatalf("UI transaction leaked into the fast path: %+v", st)
	}
}

// TestBinderReplyCacheHit: a read-only reply is served host-side on
// repeat, a different payload misses, and a mutating transaction to the
// same service invalidates what was cached.
func TestBinderReplyCacheHit(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderReplyCache: true})
	payload := []byte("where am i")

	first, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload)
	if err != nil {
		t.Fatal(err)
	}
	var second []byte
	hitCost := measureOnce(d, func() {
		second, err = p.BinderCall(fd, "location", android.CodeGetLocation, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached reply %q != first reply %q", second, first)
	}
	if hitCost >= time.Millisecond {
		t.Fatalf("reply-cache hit cost %v, want host-side (sub-millisecond)", hitCost)
	}
	st := d.BinderStats()
	if st.ReplyHits != 1 || st.ReplyStores != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 store", st)
	}

	// A different payload is a different key: miss, then store.
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, []byte("elsewhere")); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.ReplyHits != 1 || st.ReplyStores != 2 {
		t.Fatalf("stats = %+v, want miss+store on a new payload", st)
	}

	// An undeclared (mutating) code drops every cached reply for the
	// service; the next read-only call misses and re-populates.
	if _, err := p.BinderCall(fd, "location", android.CodeDraw, nil); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want both cached replies dropped", st.Invalidations)
	}
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.ReplyHits != 1 || st.ReplyStores != 3 {
		t.Fatalf("stats = %+v, want a miss after invalidation", st)
	}
	binderIdentity(t, d)
}

// TestBinderReplyCacheDegradedBypass: with the circuit breaker open the
// reply cache neither serves nor stores, and the bridge, with sessions
// or without, fails fast EAGAIN like the rest of the redirection
// machinery.
func TestBinderReplyCacheDegradedBypass(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderReplyCache: true})
	payload := []byte("fix")
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}
	d.SetDegraded(true)
	failedFast := d.Layer.Stats().FailedFast
	for i := 0; i < 2; i++ {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); !errors.Is(err, abi.EAGAIN) {
			t.Fatalf("degraded bridged call: %v, want EAGAIN", err)
		}
	}
	if got := d.Layer.Stats().FailedFast - failedFast; got != 2 {
		t.Fatalf("FailedFast rose by %d, want 2", got)
	}
	if st := d.BinderStats(); st.ReplyHits != 0 || st.ReplyStores != 1 {
		t.Fatalf("degraded stats = %+v, want no cache traffic", st)
	}
	d.SetDegraded(false)
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.ReplyHits != 1 {
		t.Fatalf("stats = %+v, want caching to resume after recovery", st)
	}

	// Session traffic respects the breaker.
	ds, ps, fds := bootBinderDevice(t, Options{BinderSessions: true})
	ds.SetDegraded(true)
	if _, err := ps.BinderCall(fds, "location", android.CodeGetLocation, nil); !errors.Is(err, abi.EAGAIN) {
		t.Fatalf("degraded session call: %v, want EAGAIN", err)
	}
	binderIdentity(t, ds)
}

// TestBinderRestartDrainsSessions: a CVM restart rolls the boot
// generation — pinned handles and cached replies die with the container,
// and the next transaction re-enrolls cleanly.
func TestBinderRestartDrainsSessions(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderSessions: true, BinderReplyCache: true})
	payload := []byte("pre-restart")
	for i := 0; i < 2; i++ {
		if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.BinderStats(); st.SessionsOpened != 1 || st.ReplyStores != 1 || st.ReplyHits != 1 {
		t.Fatalf("pre-restart stats = %+v", st)
	}

	if err := d.RestartCVM(); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.DrainedSessions != 1 {
		t.Fatalf("DrainedSessions = %d, want 1", st.DrainedSessions)
	}

	// Same payload, fresh container: must NOT be served from the dead
	// generation's cache, and must open a fresh session.
	if _, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload); err != nil {
		t.Fatal(err)
	}
	st := d.BinderStats()
	if st.ReplyHits != 1 {
		t.Fatalf("stale reply served across restart: %+v", st)
	}
	if st.SessionsOpened != 2 {
		t.Fatalf("SessionsOpened = %d, want a fresh session", st.SessionsOpened)
	}
	binderIdentity(t, d)
}

// TestBinderPipelinedDeadline: on the ring, a transaction whose completion
// lands past CallDeadline surfaces ETIMEDOUT and counts as failed.
func TestBinderPipelinedDeadline(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{
		BinderSessions: true,
		RingDepth:      8,
		CallDeadline:   time.Millisecond, // far below the ~12 ms guest-side handling
	})
	_, err := p.BinderCall(fd, "location", android.CodeGetLocation, nil)
	if !errors.Is(err, abi.ETIMEDOUT) {
		t.Fatalf("err = %v, want ETIMEDOUT", err)
	}
	st := d.BinderStats()
	if st.Failed != 1 || st.Pipelined != 1 {
		t.Fatalf("stats = %+v, want 1 pipelined failure", st)
	}
	binderIdentity(t, d)
}

// TestBinderOnewayTransaction: a oneway (async) transaction returns
// without a reply, dispatches in the guest, and keeps the accounting
// identity on both the plain session path and the ring, where it is
// complete when the call returns.
func TestBinderOnewayTransaction(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderSessions: true})
	if err := p.BinderCallAsync(fd, "location", android.CodeGetLocation, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if st := d.BinderStats(); st.Oneway != 1 {
		t.Fatalf("stats = %+v, want 1 oneway", st)
	}
	if got := d.Guest.Binder().OnewayCount(); got != 1 {
		t.Fatalf("guest OnewayCount = %d, want 1", got)
	}
	binderIdentity(t, d)

	// On the ring the slot is served before the call returns: the
	// identity holds as soon as BinderCallAsync is back.
	dr, pr, fdr := bootBinderDevice(t, Options{
		BinderSessions: true, RingDepth: 8, CallDeadline: time.Hour,
	})
	if err := pr.BinderCallAsync(fdr, "location", android.CodeGetLocation, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if st := dr.BinderStats(); st.Oneway != 1 || st.Pipelined != 1 || st.Completed != 1 || st.Submitted != st.Completed+st.Failed {
		t.Fatalf("stats = %+v, want 1 oneway pipelined txn completed on return", st)
	}
	if got := dr.Guest.Binder().OnewayCount(); got != 1 {
		t.Fatalf("guest OnewayCount = %d, want 1", got)
	}
}

// TestBinderRestartUnderLoad: workers hammer sessioned+pipelined binder
// transactions while the container restarts repeatedly. Every observed
// failure must be a clean errno, the accounting identity must hold once
// the dust settles, and fresh traffic must flow. Run under -race in CI.
func TestBinderRestartUnderLoad(t *testing.T) {
	d, err := NewDevice(Options{
		Mode:           ModeAnception,
		BinderSessions: true,
		RingDepth:      16,
		CallDeadline:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const workers = 4
	type binderApp struct {
		proc *Proc
		fd   int
	}
	apps := make([]binderApp, workers)
	for i := range apps {
		proc := installAndLaunch(t, d, fmt.Sprintf("com.binder.load%d", i))
		fd, err := proc.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = binderApp{proc, fd}
	}

	stop := make(chan struct{})
	badErr := make(chan error, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app binderApp) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := app.proc.BinderCall(app.fd, "location", android.CodeGetLocation, []byte("under load"))
				var errno abi.Errno
				if err != nil && !errors.As(err, &errno) {
					select {
					case badErr <- fmt.Errorf("worker %d: non-errno error: %w", i, err):
					default:
					}
					return
				}
			}
		}(i, app)
	}

	// Restart only after the workers have re-enrolled a session on the
	// current container, so every restart kills live fast-path state.
	for r := 0; r < 5; r++ {
		deadline := time.Now().Add(10 * time.Second)
		for d.BinderStats().SessionsOpened <= r {
			if time.Now().After(deadline) {
				t.Fatalf("workers never opened session %d: %+v", r+1, d.BinderStats())
			}
			time.Sleep(time.Millisecond)
		}
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

	binderIdentity(t, d)
	// Every app recovers on the final guest.
	for i, app := range apps {
		if _, err := app.proc.BinderCall(app.fd, "location", android.CodeGetLocation, []byte("post")); err != nil {
			t.Fatalf("worker %d post-restart call: %v", i, err)
		}
	}
	binderIdentity(t, d)
	if st := d.BinderStats(); st.SessionsOpened < 5 {
		t.Fatalf("restarts left no trace in the fast path: %+v", st)
	}
}

// TestBinderFetchedOnce: the host decodes an app's transaction from the
// copy it fetched into the call frame, so bytes the app rewrites while
// the call is in flight (here, from inside the service) reach neither the
// service nor anything checked before it, on every bridge.
func TestBinderFetchedOnce(t *testing.T) {
	for _, br := range binderBridges {
		t.Run(br.name, func(t *testing.T) {
			d, p, fd := bootBinderDevice(t, br.opts)
			arg := marshal.AppendBinderTxn(nil, binder.Transaction{Service: "probe", Code: 1, Payload: []byte("checked")})
			var seen string
			err := registerContainerService(d, "probe", func(_ abi.Cred, _ uint32, data []byte) ([]byte, error) {
				copy(arg[len(arg)-len("changed"):], "changed")
				seen = string(data)
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			res := p.Syscall(kernel.Args{Nr: abi.SysIoctl, FD: fd, Request: binder.IocTransact, Buf: arg})
			if !res.Ok() || seen != "checked" {
				t.Fatalf("service saw %q (%v), want the bytes fetched at the call", seen, res.Err)
			}
		})
	}
}

// registerContainerService registers a binder service in the container
// and declares it one of the container's services to the host, the way
// the trusted image lists the platform's (android.ContainerServices).
func registerContainerService(d *Device, name string, h binder.Handler) error {
	d.Layer.declareContainerService(name)
	return d.Guest.Binder().Register(name, false, h)
}

// whoamiService registers a CVM service that answers every transaction
// with its caller's UID, the reply no two apps may share.
func whoamiService(t *testing.T, d *Device) {
	t.Helper()
	err := registerContainerService(d, "whoami", func(from abi.Cred, _ uint32, _ []byte) ([]byte, error) {
		return fmt.Appendf(nil, "uid=%d", from.UID), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBinderReplyCacheNoCrossAppLeak: two apps send the same transaction
// to a CVM service that answers with the caller's UID. The host never
// declared that service caller-independent, so with the reply cache on
// no reply is cached, and each app gets its own UID; the container has
// no way to make the host serve one app's reply to another.
func TestBinderReplyCacheNoCrossAppLeak(t *testing.T) {
	for _, prof := range []struct {
		name string
		opts Options
	}{
		{"paper", Options{BinderReplyCache: true}},
		{"fast", Options{AutoTune: true}},
	} {
		t.Run(prof.name, func(t *testing.T) {
			d, p1, fd1 := bootBinderDevice(t, prof.opts)
			whoamiService(t, d)
			p2 := installAndLaunch(t, d, "com.binder.second")
			fd2, err := p2.OpenBinder()
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for _, app := range []struct {
					p  *Proc
					fd int
				}{{p1, fd1}, {p2, fd2}} {
					got, err := app.p.BinderCall(app.fd, "whoami", 1, []byte("who am i"))
					if want := fmt.Sprintf("uid=%d", app.p.Task.Cred.UID); err != nil || string(got) != want {
						t.Fatalf("round %d: app uid %d got %q (%v), want %q", round, app.p.Task.Cred.UID, got, err, want)
					}
				}
			}
			if st := d.BinderStats(); st.ReplyStores != 0 || st.ReplyHits != 0 {
				t.Fatalf("stats = %+v, want no reply cached", st)
			}
		})
	}
}

// TestBinderCacheableSetIsHostDeclared: the reply cache serves only the
// (service, code) pairs the host declares caller-independent, the
// location fix and the package query of the trusted image. Another code
// of a declared service is mutating: it is not cached and drops what the
// service had cached. A service the host never declared is never cached.
func TestBinderCacheableSetIsHostDeclared(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderReplyCache: true})
	if err := registerContainerService(d, "ghost", func(abi.Cred, uint32, []byte) ([]byte, error) {
		return []byte("boo"), nil
	}); err != nil {
		t.Fatal(err)
	}
	call := func(service string, code uint32) {
		t.Helper()
		if _, err := p.BinderCall(fd, service, code, []byte("q")); err != nil {
			t.Fatalf("%s code %d: %v", service, code, err)
		}
	}
	want := func(stores, hits, invalidations int) {
		t.Helper()
		if st := d.BinderStats(); st.ReplyStores != stores || st.ReplyHits != hits || st.Invalidations != invalidations {
			t.Fatalf("stats = %+v, want %d stores, %d hits, %d invalidations", st, stores, hits, invalidations)
		}
	}
	declared := android.CallerIndependent()
	if len(declared) != 2 || declared[0] != (android.BinderCode{Service: "location", Code: android.CodeGetLocation}) ||
		declared[1] != (android.BinderCode{Service: "package", Code: android.CodeQuery}) {
		t.Fatalf("host's cacheable set = %+v", declared)
	}
	for _, c := range declared {
		call(c.Service, c.Code)
		call(c.Service, c.Code)
	}
	want(2, 2, 0)
	call("location", android.CodeDraw)
	want(2, 2, 1)
	call("location", android.CodeGetLocation)
	want(3, 2, 1)
	for i := 0; i < 2; i++ {
		call("ghost", android.CodeGetLocation)
	}
	want(3, 2, 1)
}

// TestBinderBridgeDeadGuestIsHostDown: a transaction routed to a guest
// that died with the layer open fails EHOSTDOWN on the Paper bridge and
// on its sessions, from the transport's liveness probe, and counts one
// HostDown.
func TestBinderBridgeDeadGuestIsHostDown(t *testing.T) {
	for _, prof := range []struct {
		name string
		opts Options
	}{
		{"paper", Options{}},
		{"paper-sessions", Options{BinderSessions: true}},
	} {
		t.Run(prof.name, func(t *testing.T) {
			d, p, _ := bootBinderDevice(t, prof.opts)
			txn := binder.Transaction{Service: "location", Code: android.CodeGetLocation}
			f := d.Layer.getFrame()
			defer d.Layer.putFrame(f)
			f.txn = marshal.AppendBinderTxn(f.txn[:0], txn)
			routed := d.Layer.currentState()
			before := d.Layer.Stats().HostDown
			d.Guest.Panic("container crashed")
			if res := d.Layer.bridgeBinder(routed, p.Task, f, txn); !errors.Is(res.Err, abi.EHOSTDOWN) {
				t.Fatalf("dead guest: err = %v, want EHOSTDOWN", res.Err)
			}
			if got := d.Layer.Stats().HostDown - before; got != 1 {
				t.Fatalf("HostDown rose by %d, want 1", got)
			}
			binderIdentity(t, d)
		})
	}
}

// TestContainerServiceSeesProxyCred: a service in the container sees a
// bridged call as coming from the app's proxy, which runs with the app's
// credentials and executes the call (paper §III): from.PID is the
// proxy's guest pid, not the app's host pid (which names some other task
// in the container), and from.UID is the app's UID. The same holds on
// the page channel, by name and on sessions, and on the ring.
func TestContainerServiceSeesProxyCred(t *testing.T) {
	for _, br := range binderBridges {
		t.Run(br.name, func(t *testing.T) {
			d, p, fd := bootBinderDevice(t, br.opts)
			var seen []abi.Cred
			if err := registerContainerService(d, "whoami", func(from abi.Cred, _ uint32, _ []byte) ([]byte, error) {
				seen = append(seen, from)
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // the first call opens the session, if any
				if _, err := p.BinderCall(fd, "whoami", 1, []byte("who am i")); err != nil {
					t.Fatal(err)
				}
			}
			px := d.Proxies.ProxyFor(p.Task.PID)
			if px == nil {
				t.Fatal("app has no proxy after a bridged call")
			}
			if len(seen) != 2 {
				t.Fatalf("service ran %d times for 2 calls", len(seen))
			}
			for i, from := range seen {
				if from.PID != px.PID || from.UID != p.Task.Cred.UID {
					t.Errorf("call %d: service saw pid %d uid %d, want the proxy's pid %d and the app's uid %d",
						i, from.PID, from.UID, px.PID, p.Task.Cred.UID)
				}
			}
		})
	}
}

// TestBinderCallDuringOutage: while the container is down, an app's call
// to a container service fails in the forward core like every other
// crossing (EHOSTDOWN, or EAGAIN once the breaker is open), not ENOENT
// from the host's driver, because the host routes by its own list of
// container services. After a restart the same call succeeds.
func TestBinderCallDuringOutage(t *testing.T) {
	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			d, p, fd := bootBinderDevice(t, prof.opts)
			call := func(payload string) error {
				_, err := p.BinderCall(fd, "location", android.CodeGetLocation, []byte(payload))
				return err
			}
			if err := call("before"); err != nil {
				t.Fatal(err)
			}
			d.Guest.Panic("container crashed")
			// A fresh payload: a cached reply would not reach the core.
			err := call("during")
			if !errors.Is(err, abi.EHOSTDOWN) && !errors.Is(err, abi.EAGAIN) {
				t.Fatalf("call during the outage: err = %v, want EHOSTDOWN or EAGAIN", err)
			}
			if err := d.RestartCVM(); err != nil {
				t.Fatal(err)
			}
			if err := call("after"); err != nil {
				t.Fatalf("call after the restart: %v", err)
			}
			binderIdentity(t, d)
		})
	}
}
