package anception

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// fleetTestOpts turns every fast path on so all five epoch participants
// have observable warm state.
func fleetTestOpts(size int) Options {
	return Options{
		Mode: ModeAnception, DisableTrace: true,
		RedirCache: true, RingDepth: 8, GrantThreshold: abi.PageSize,
		BinderSessions: true, BinderReplyCache: true,
		FleetSize: size,
	}
}

func bootFleet(t *testing.T, size int) *Fleet {
	t.Helper()
	f, err := NewFleet(fleetTestOpts(size))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// warmShardApp drives one fleet app through every fast path: a bulk
// write (grant path), a page write+read (ring + redirection cache), a
// socket echo (sockop path), and a binder transaction (session path).
func warmShardApp(t *testing.T, f *Fleet, a *FleetApp) {
	t.Helper()
	p := a.Proc()
	fd, err := p.Open("warm.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatalf("%s: open: %v", a.Pkg, err)
	}
	bulk := make([]byte, 64<<10)
	if _, err := p.Pwrite(fd, bulk, 0); err != nil {
		t.Fatalf("%s: bulk pwrite: %v", a.Pkg, err)
	}
	page := make([]byte, abi.PageSize)
	if _, err := p.Pwrite(fd, page, 0); err != nil {
		t.Fatalf("%s: pwrite: %v", a.Pkg, err)
	}
	if _, err := p.Pread(fd, abi.PageSize, 0); err != nil {
		t.Fatalf("%s: pread: %v", a.Pkg, err)
	}
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		t.Fatalf("%s: socket: %v", a.Pkg, err)
	}
	if err := p.Connect(sock, "echo.fleettest:80"); err != nil {
		t.Fatalf("%s: connect: %v", a.Pkg, err)
	}
	if _, err := p.Send(sock, []byte("ping")); err != nil {
		t.Fatalf("%s: send: %v", a.Pkg, err)
	}
	if _, err := p.Recv(sock, 4); err != nil {
		t.Fatalf("%s: recv: %v", a.Pkg, err)
	}
	bfd, err := p.OpenBinder()
	if err != nil {
		t.Fatalf("%s: open binder: %v", a.Pkg, err)
	}
	if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, page[:128]); err != nil {
		t.Fatalf("%s: binder: %v", a.Pkg, err)
	}
}

func registerFleetEcho(f *Fleet) {
	for _, sh := range f.Shards() {
		sh.Dev.RegisterRemote("echo.fleettest:80", func(req []byte) []byte { return req })
	}
}

func TestFleetBasics(t *testing.T) {
	f := bootFleet(t, 4)
	if f.Size() != 4 {
		t.Fatalf("size = %d, want 4", f.Size())
	}
	for i, sh := range f.Shards() {
		want := "shard-" + string(rune('0'+i))
		if got := sh.Dev.Label(); got != want {
			t.Fatalf("shard %d label = %q, want %q", i, got, want)
		}
	}
	// Least-loaded placement spreads 8 apps 2 per shard: the fleet is
	// idle, so the score reduces to the population term.
	for i := 0; i < 8; i++ {
		if _, err := f.InstallApp(android.AppSpec{Package: "com.fleet.basic" + string(rune('0'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range f.Loads() {
		if l.Apps != 2 {
			t.Fatalf("shard %d has %d apps, want 2 (loads %+v)", l.Shard, l.Apps, f.Loads())
		}
	}
	// Duplicate install is rejected.
	if _, err := f.InstallApp(android.AppSpec{Package: "com.fleet.basic0"}); err == nil {
		t.Fatal("duplicate install succeeded")
	}
	// A non-anception fleet is rejected.
	if _, err := NewFleet(Options{Mode: ModeNative, FleetSize: 2}); err == nil {
		t.Fatal("native-mode fleet succeeded")
	}
}

func TestFleetMigration(t *testing.T) {
	f := bootFleet(t, 2)
	registerFleetEcho(f)
	a, err := f.InstallApp(android.AppSpec{Package: "com.fleet.mover"})
	if err != nil {
		t.Fatal(err)
	}
	src := a.Shard()
	warmShardApp(t, f, a)

	// Durable state written before the move must survive it.
	p := a.Proc()
	fd, err := p.Open("keep.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("migrated bytes stay intact")
	if _, err := p.Pwrite(fd, payload, 0); err != nil {
		t.Fatal(err)
	}

	target := 1 - src
	if err := f.Migrate(a, target); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if a.Shard() != target {
		t.Fatalf("app on shard %d after migrate, want %d", a.Shard(), target)
	}
	if a.Proc() == p {
		t.Fatal("migration kept the old proc")
	}
	if p.Task.State != kernel.TaskDead {
		t.Fatalf("old task state = %v, want dead", p.Task.State)
	}
	if f.Migrations() != 1 || a.Moves() != 1 {
		t.Fatalf("migrations = %d, moves = %d, want 1/1", f.Migrations(), a.Moves())
	}

	np := a.Proc()
	nfd, err := np.Open("keep.dat", abi.ORdOnly, 0)
	if err != nil {
		t.Fatalf("open on target shard: %v", err)
	}
	got, err := np.Pread(nfd, len(payload), 0)
	if err != nil {
		t.Fatalf("read on target shard: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("data after migration = %q, want %q", got, payload)
	}

	// Migrating back is idempotent re-install on the original shard.
	if err := f.Migrate(a, src); err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	if a.Shard() != src || a.Moves() != 2 {
		t.Fatalf("after return: shard %d moves %d, want %d/2", a.Shard(), a.Moves(), src)
	}
	// Same-shard migration is a no-op.
	if err := f.Migrate(a, src); err != nil {
		t.Fatalf("same-shard migrate: %v", err)
	}
	if a.Moves() != 2 {
		t.Fatalf("same-shard migrate counted a move")
	}
}

// TestFleetMigrationUnderLoad: sibling apps on both shards loop file,
// grant-path and binder calls while Migrate moves one app out and back. The
// source shard's EAGAIN gate and QuiesceGuestCalls barrier must drain
// in-flight calls gracefully: gated arrivals fail EAGAIN (retryable),
// and no worker ever sees EHOSTDOWN, the signature of an ungraceful
// teardown, or an error without an errno. The ring and binder
// accounting identities hold afterwards on every shard. Run under
// -race in CI.
func TestFleetMigrationUnderLoad(t *testing.T) {
	f := bootFleet(t, 2)
	const napps = 6
	apps := make([]*FleetApp, napps)
	for i := range apps {
		a, err := f.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.fleet.load%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = a
	}
	mover, workers := apps[0], apps[1:]
	src := mover.Shard()
	siblings := 0
	for _, a := range workers {
		if a.Shard() == src {
			siblings++
		}
	}
	if siblings == 0 {
		t.Fatalf("no sibling shares shard %d with the mover", src)
	}

	stop := make(chan struct{})
	// A failed migration ends the test early: signal the workers to
	// stop then too, so they do not keep loading the process for the
	// tests after this one.
	halt := sync.OnceFunc(func() { close(stop) })
	defer halt()
	badErr := make(chan error, len(workers))
	bulk := make([]byte, 4*abi.PageSize) // over GrantThreshold: the grant path
	var started, wg sync.WaitGroup
	for i, a := range workers {
		p := a.Proc()
		bfd, err := p.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		started.Add(1)
		wg.Add(1)
		go func(i int, p *Proc, bfd int) {
			defer wg.Done()
			report := func(err error) {
				if err == nil {
					return
				}
				var errno abi.Errno
				switch {
				case errors.Is(err, abi.EHOSTDOWN):
					err = fmt.Errorf("worker %d: EHOSTDOWN during migration: %w", i, err)
				case !errors.As(err, &errno):
					err = fmt.Errorf("worker %d: non-errno error: %w", i, err)
				default:
					return
				}
				select {
				case badErr <- err:
				default:
				}
			}
			for n := 0; ; n++ {
				if n == 1 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				fd, err := p.Open(fmt.Sprintf("m%d-%d.txt", i, n), abi.OWrOnly|abi.OCreat, 0o600)
				if err != nil {
					report(err)
				} else {
					_, err = p.Write(fd, []byte("under migration"))
					report(err)
					_, err = p.Pwrite(fd, bulk, 0)
					report(err)
					report(p.Close(fd))
				}
				_, err = p.BinderCall(bfd, "location", android.CodeGetLocation, []byte{byte(i), byte(n)})
				report(err)
			}
		}(i, a.Proc(), bfd)
	}
	// Every worker has finished one round of calls before the first move,
	// so the moves overlap live traffic on both shards.
	started.Wait()

	const rounds = 3
	for r := 0; r < rounds; r++ {
		if err := f.Migrate(mover, 1-src); err != nil {
			t.Fatalf("round %d: migrate out: %v", r, err)
		}
		if err := f.Migrate(mover, src); err != nil {
			t.Fatalf("round %d: migrate back: %v", r, err)
		}
	}
	halt()
	wg.Wait()
	select {
	case err := <-badErr:
		t.Fatal(err)
	default:
	}
	if mover.Shard() != src || mover.Moves() != 2*rounds {
		t.Fatalf("mover on shard %d after %d moves, want shard %d after %d", mover.Shard(), mover.Moves(), src, 2*rounds)
	}

	for _, a := range apps {
		p := a.Proc()
		fd, err := p.Open("final.txt", abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			t.Fatalf("%s: post-migration open: %v", a.Pkg, err)
		}
		if _, err := p.Write(fd, []byte("clean")); err != nil {
			t.Fatalf("%s: post-migration write: %v", a.Pkg, err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("%s: post-migration close: %v", a.Pkg, err)
		}
		bfd, err := p.OpenBinder()
		if err != nil {
			t.Fatalf("%s: post-migration open binder: %v", a.Pkg, err)
		}
		if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, []byte("post")); err != nil {
			t.Fatalf("%s: post-migration binder call: %v", a.Pkg, err)
		}
	}
	for _, sh := range f.Shards() {
		if st := sh.Dev.Layer.Stats(); st.Ring.Submitted != st.Ring.Completed+st.Ring.Failed {
			t.Fatalf("shard %d: ring accounting broken after migrations: %+v", sh.ID, st.Ring)
		}
		binderIdentity(t, sh.Dev)
	}
}

// TestFleetMigrationWaitsForInflightCalls: Migrate closes the source
// shard's gate, so a new arrival fails EAGAIN without touching the
// guest, and then waits on the quiesce barrier until the call already
// inside the guest leaves. Only then does it drain the shard's epoch and
// move the app.
func TestFleetMigrationWaitsForInflightCalls(t *testing.T) {
	f := bootFleet(t, 2)
	a, err := f.InstallApp(android.AppSpec{Package: "com.fleet.inflight"})
	if err != nil {
		t.Fatal(err)
	}
	l := f.Shard(a.Shard()).Dev.Layer
	if !l.enterGuestCall(l.currentState()) {
		t.Fatal("idle shard refused a guest call")
	}
	done := make(chan error, 1)
	go func() { done <- f.Migrate(a, 1-a.Shard()) }()
	for !l.currentState().degraded {
		select {
		case err := <-done:
			t.Fatalf("Migrate returned (%v) with a guest call in flight", err)
		default:
			runtime.Gosched()
		}
	}
	if l.enterGuestCall(l.currentState()) {
		t.Fatal("gated shard admitted a new guest call")
	}
	select {
	case err := <-done:
		t.Fatalf("Migrate returned (%v) with a guest call in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	l.exitGuestCall()
	if err := <-done; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if l.currentState().degraded {
		t.Fatal("Migrate left the source shard gated")
	}
}

// TestFleetEpochIsolation is the per-CVM epoch keying drill: advancing
// one shard's epoch drains exactly that shard's participants — grants,
// ring, sockets, binder, cache, in the pinned order — and leaves every
// sibling's warm state untouched. Table-driven over the participants,
// and run with sibling traffic concurrent with the advance so the race
// detector patrols the isolation boundary.
func TestFleetEpochIsolation(t *testing.T) {
	f := bootFleet(t, 3)
	registerFleetEcho(f)
	apps := make([]*FleetApp, 3)
	for i := range apps {
		a, err := f.InstallApp(android.AppSpec{Package: "com.fleet.epoch" + string(rune('0'+i))})
		if err != nil {
			t.Fatal(err)
		}
		if a.Shard() != i {
			t.Fatalf("app %d on shard %d, want %d", i, a.Shard(), i)
		}
		warmShardApp(t, f, a)
		apps[i] = a
	}

	// Evidence counters: each participant's drain leaves a distinct mark.
	participants := []struct {
		name    string
		observe func(LayerStats) int
	}{
		{"grants", func(s LayerStats) int { return s.Grants.Table.Revokes }},
		{"ring", func(s LayerStats) int { return s.Ring.Rearms }},
		{"sockets", func(s LayerStats) int { return int(s.Net.Drains) }},
		{"binder", func(s LayerStats) int { return s.Binder.DrainedSessions }},
		{"cache", func(s LayerStats) int { return s.Cache.Invalidations }},
	}

	// Phase 1 — quiescent isolation: advance the middle shard's epoch
	// with the siblings idle, so any sibling counter movement could only
	// come from the advance itself.
	const drained = 1
	before := make([]LayerStats, 3)
	for i := range before {
		before[i] = f.Shard(i).Dev.Layer.Stats()
	}
	f.Shard(drained).Dev.AdvanceEpoch()
	after := make([]LayerStats, 3)
	for i := range after {
		after[i] = f.Shard(i).Dev.Layer.Stats()
	}

	// The drained shard stepped its epoch and every participant left
	// drain evidence.
	if after[drained].Epoch.Advances != before[drained].Epoch.Advances+1 {
		t.Fatalf("drained shard advances %d -> %d, want one step",
			before[drained].Epoch.Advances, after[drained].Epoch.Advances)
	}
	for _, p := range participants {
		t.Run(p.name, func(t *testing.T) {
			if got, was := p.observe(after[drained]), p.observe(before[drained]); got <= was {
				t.Errorf("shard %d %s evidence %d -> %d, want an increase", drained, p.name, was, got)
			}
			// Siblings: no drain evidence at all (their counters only move
			// on their own epoch advances, and none happened).
			for _, sib := range []int{0, 2} {
				if got, was := p.observe(after[sib]), p.observe(before[sib]); got != was {
					t.Errorf("sibling shard %d %s evidence moved %d -> %d during shard %d's advance",
						sib, p.name, was, got, drained)
				}
			}
		})
	}
	for _, sib := range []int{0, 2} {
		if after[sib].Epoch.Advances != before[sib].Epoch.Advances {
			t.Errorf("sibling shard %d epoch advanced", sib)
		}
	}

	// Phase 2 — race patrol: siblings keep serving while the middle
	// shard's epoch advances repeatedly. Shards are independent service
	// domains, so this must be data-race free (the CI -race run patrols
	// the boundary) and the siblings' traffic must never fail.
	var wg sync.WaitGroup
	for _, sib := range []int{0, 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := apps[i].Proc()
			fd, err := p.Open("during.dat", abi.ORdWr|abi.OCreat, 0o600)
			if err != nil {
				t.Errorf("sibling %d open: %v", i, err)
				return
			}
			page := make([]byte, abi.PageSize)
			for k := 0; k < 16; k++ {
				if _, err := p.Pwrite(fd, page, 0); err != nil {
					t.Errorf("sibling %d pwrite: %v", i, err)
					return
				}
				if _, err := p.Pread(fd, abi.PageSize, 0); err != nil {
					t.Errorf("sibling %d pread: %v", i, err)
					return
				}
			}
		}(sib)
	}
	for k := 0; k < 4; k++ {
		f.Shard(drained).Dev.AdvanceEpoch()
	}
	wg.Wait()

	// The drained shard's app re-faults and keeps working; its warm
	// cache went cold (invalidation), siblings' caches stayed warm.
	warmShardApp(t, f, apps[drained])
}

// TestFleetElapsedIsMaxShardClock pins the fleet time model: shards run
// on private clocks, so fleet elapsed time is the slowest shard, not
// the sum.
func TestFleetElapsedIsMaxShardClock(t *testing.T) {
	f := bootFleet(t, 2)
	registerFleetEcho(f)
	a, err := f.InstallApp(android.AppSpec{Package: "com.fleet.clock"})
	if err != nil {
		t.Fatal(err)
	}
	warmShardApp(t, f, a)
	var max, sum int64
	for _, sh := range f.Shards() {
		now := int64(sh.Dev.Clock.Now())
		sum += now
		if now > max {
			max = now
		}
	}
	if got := int64(f.Elapsed()); got != max {
		t.Fatalf("fleet elapsed %d, want max shard clock %d (sum %d)", got, max, sum)
	}
	if max == sum {
		t.Fatal("both shards burned identical nonzero time; drill is vacuous")
	}
}

// TestFleetShardMatchesPlainDevice guards the fleet's pinned Table I
// rows: a 1-CVM fleet on the Paper profile must charge exactly what a
// plain device charges for getpid, a 4 KiB pwrite and pread, and
// 128/256 B binder calls, and read4k stays at the paper's 305.03 us.
func TestFleetShardMatchesPlainDevice(t *testing.T) {
	f, err := NewFleet(Options{DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	plain := bootPolicyDevice(t, Options{})

	page := make([]byte, abi.PageSize)
	prep := func(p *Proc) (int, int) {
		fd := mustOpen(t, p, "t1.dat", abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, fd, page, 0)
		bfd, err := p.OpenBinder()
		if err != nil {
			t.Fatal(err)
		}
		return fd, bfd
	}
	app, err := f.InstallApp(android.AppSpec{Package: "com.fleet.tablei"})
	if err != nil {
		t.Fatal(err)
	}
	shard, sp := f.Shard(0).Dev, app.Proc()
	sfd, sbfd := prep(sp)
	pp := installAndLaunch(t, plain, "com.fleet.tablei")
	pfd, pbfd := prep(pp)

	benches := []struct {
		name string
		run  func(p *Proc, fd, bfd int)
	}{
		{"getpid", func(p *Proc, _, _ int) { p.Getpid() }},
		{"write4k", func(p *Proc, fd, _ int) { _, _ = p.Pwrite(fd, page, 0) }},
		{"read4k", func(p *Proc, fd, _ int) { _, _ = p.Pread(fd, abi.PageSize, 0) }},
		{"binder128", func(p *Proc, _, bfd int) {
			_, _ = p.BinderCall(bfd, "location", android.CodeGetLocation, make([]byte, 128))
		}},
		{"binder256", func(p *Proc, _, bfd int) {
			_, _ = p.BinderCall(bfd, "location", android.CodeGetLocation, make([]byte, 256))
		}},
	}
	for _, b := range benches {
		got := measureOnce(shard, func() { b.run(sp, sfd, sbfd) })
		want := measureOnce(plain, func() { b.run(pp, pfd, pbfd) })
		if got != want {
			t.Errorf("%s: fleet shard charged %v, plain device %v, want identical", b.name, got, want)
		}
	}
	within(t, "read4k", measureOnce(shard, func() { _, _ = sp.Pread(sfd, abi.PageSize, 0) }),
		305030*time.Nanosecond, 0.03)
}
