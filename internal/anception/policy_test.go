package anception

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// bootPolicyDevice boots a quiet Anception device with the given knobs.
func bootPolicyDevice(t *testing.T, opts Options) *Device {
	t.Helper()
	opts.Mode = ModeAnception
	opts.DisableTrace = true
	d, err := NewDevice(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestEpochDrainOrder pins the epoch/drain protocol's participant order —
// grants before ring before fusion before sockets before binder before
// cache, the one ordering the five deleted per-path supervisor hooks
// used to encode (grant revocation must precede the ring re-arm that
// could recycle its slots; fusion's speculative results ride ring slots
// so they drop right after the re-arm; the cache invalidation runs last
// so flush attempts during earlier drains cannot repopulate it). The
// supervisor's TestPostRestartEpochAdvance asserts the single
// AdvanceEpoch call; this test owns the order within it.
func TestEpochDrainOrder(t *testing.T) {
	d := bootPolicyDevice(t, Options{
		RedirCache: true, RingDepth: 8, GrantThreshold: abi.PageSize,
		BinderSessions: true, BinderReplyCache: true,
	})
	want := []string{"grants", "ring", "fusion", "sockets", "binder", "cache"}
	st := d.Layer.Stats()
	if len(st.Epoch.Order) != len(want) {
		t.Fatalf("epoch order = %v, want %v", st.Epoch.Order, want)
	}
	for i, name := range want {
		if st.Epoch.Order[i] != name {
			t.Fatalf("epoch order[%d] = %q, want %q (full order %v)", i, st.Epoch.Order[i], name, st.Epoch.Order)
		}
	}
	if st.Epoch.Advances != 0 {
		t.Fatalf("fresh device has %d epoch advances, want 0", st.Epoch.Advances)
	}

	// Warm the cache so the advance has something observable to drain.
	p := installAndLaunch(t, d, "com.policy.epoch")
	fd := mustOpen(t, p, "epoch.dat", abi.ORdWr|abi.OCreat)
	data := []byte("drained by the epoch")
	mustPwrite(t, p, fd, data, 0)
	if got := mustPread(t, p, fd, len(data), 0); !bytes.Equal(got, data) {
		t.Fatalf("warm read = %q", got)
	}
	before := d.Layer.Stats()

	d.AdvanceEpoch()

	after := d.Layer.Stats()
	if after.Epoch.Advances != before.Epoch.Advances+1 {
		t.Fatalf("advances %d -> %d, want one step", before.Epoch.Advances, after.Epoch.Advances)
	}
	if after.Epoch.Generation != d.CVM.Generation() {
		t.Fatalf("epoch generation = %d, want boot generation %d", after.Epoch.Generation, d.CVM.Generation())
	}
	if after.Cache.Invalidations == before.Cache.Invalidations {
		t.Fatal("epoch advance did not invalidate the redirection cache")
	}
	if after.Ring.Rearms == before.Ring.Rearms {
		t.Fatal("epoch advance did not re-arm the ring")
	}
	if after.Net.Drains == before.Net.Drains {
		t.Fatal("epoch advance did not drain the socket path")
	}
}

// TestDegradedMatrix is the one table-driven breaker test: every fast
// path — redirection cache, async ring, grants, binder sessions, binder
// reply cache, socket ring — must stop serving while the circuit breaker
// is open, and resume once it closes. It replaces scattered per-path
// assertions with a single matrix.
func TestDegradedMatrix(t *testing.T) {
	page := make([]byte, abi.PageSize)
	big := make([]byte, 4*abi.PageSize)

	rows := []struct {
		name string
		opts Options
		// prepare warms the fast path and returns the redirected op to
		// probe plus the fast-path counter the breaker must freeze.
		prepare func(t *testing.T, d *Device, p *Proc) (op func() error, fastPath func(LayerStats) int64)
	}{
		{
			name: "cache",
			opts: Options{RedirCache: true},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				fd := mustOpen(t, p, "m.dat", abi.ORdWr|abi.OCreat)
				mustPwrite(t, p, fd, page, 0)
				mustPread(t, p, fd, abi.PageSize, 0)
				return func() error { _, err := p.Pread(fd, abi.PageSize, 0); return err },
					func(s LayerStats) int64 { return int64(s.Cache.Hits + s.Cache.Misses) }
			},
		},
		{
			name: "ring",
			opts: Options{RingDepth: 8},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				fd := mustOpen(t, p, "m.dat", abi.ORdWr|abi.OCreat)
				return func() error { _, err := p.Pwrite(fd, page, 0); return err },
					func(s LayerStats) int64 { return int64(s.Ring.Submitted) }
			},
		},
		{
			name: "grant",
			opts: Options{GrantThreshold: abi.PageSize},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				fd := mustOpen(t, p, "m.dat", abi.ORdWr|abi.OCreat)
				mustPwrite(t, p, fd, big, 0)
				return func() error { _, err := p.Pwrite(fd, big, 0); return err },
					func(s LayerStats) int64 { return int64(s.Grants.Calls) }
			},
		},
		{
			name: "binder-session",
			opts: Options{BinderSessions: true},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				bfd, err := p.OpenBinder()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, nil); err != nil {
					t.Fatal(err)
				}
				return func() error {
						_, err := p.BinderCall(bfd, "location", android.CodeGetLocation, nil)
						return err
					},
					func(s LayerStats) int64 { return int64(s.Binder.Submitted) }
			},
		},
		{
			name: "binder-reply-cache",
			opts: Options{BinderReplyCache: true},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				bfd, err := p.OpenBinder()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.BinderCall(bfd, "location", android.CodeGetLocation, nil); err != nil {
					t.Fatal(err)
				}
				return func() error {
						_, err := p.BinderCall(bfd, "location", android.CodeGetLocation, nil)
						return err
					},
					func(s LayerStats) int64 { return int64(s.Binder.ReplyHits + s.Binder.ReplyStores) }
			},
		},
		{
			name: "socket-ring",
			opts: Options{RingDepth: 8},
			prepare: func(t *testing.T, d *Device, p *Proc) (func() error, func(LayerStats) int64) {
				d.RegisterRemote("echo:1", func(req []byte) []byte { return req })
				sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Connect(sock, "echo:1"); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Send(sock, []byte("warm frame")); err != nil {
					t.Fatal(err)
				}
				return func() error { _, err := p.Send(sock, []byte("probe frame")); return err },
					func(s LayerStats) int64 { return s.Net.RingOps }
			},
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := bootPolicyDevice(t, row.opts)
			p := installAndLaunch(t, d, fmt.Sprintf("com.degraded.%s", row.name))
			op, fastPath := row.prepare(t, d, p)

			before := d.Layer.Stats()
			if fastPath(before) == 0 {
				t.Fatalf("warm-up did not exercise the %s fast path", row.name)
			}

			d.SetDegraded(true)
			if err := op(); !errors.Is(err, abi.EAGAIN) {
				t.Fatalf("degraded %s op err = %v, want EAGAIN", row.name, err)
			}
			if got, was := fastPath(d.Layer.Stats()), fastPath(before); got != was {
				t.Fatalf("breaker open but %s fast path advanced: %d -> %d", row.name, was, got)
			}

			d.SetDegraded(false)
			if err := op(); err != nil {
				t.Fatalf("post-recovery %s op: %v", row.name, err)
			}
			if got, was := fastPath(d.Layer.Stats()), fastPath(before); got <= was {
				t.Fatalf("%s fast path did not resume after recovery: %d -> %d", row.name, was, got)
			}
		})
	}
}

// dispatchCounts is the slice of LayerStats the dispatch rules move:
// the policy's decision counters plus the traffic each fast path saw.
type dispatchCounts struct {
	Ring, Grant, Copy, Served           int64
	RingSlots, GrantCalls, CacheLookups int64
}

func dispatchCountsOf(s LayerStats) dispatchCounts {
	return dispatchCounts{
		Ring: s.Policy.RingChosen, Grant: s.Policy.GrantChosen,
		Copy: s.Policy.CopyChosen, Served: s.Policy.CacheServed,
		RingSlots:    int64(s.Ring.Submitted),
		GrantCalls:   int64(s.Grants.Calls),
		CacheLookups: int64(s.Cache.Hits + s.Cache.Misses),
	}
}

func (c dispatchCounts) minus(o dispatchCounts) dispatchCounts {
	return dispatchCounts{
		c.Ring - o.Ring, c.Grant - o.Grant, c.Copy - o.Copy, c.Served - o.Served,
		c.RingSlots - o.RingSlots, c.GrantCalls - o.GrantCalls, c.CacheLookups - o.CacheLookups,
	}
}

// TestFixedDispatchRules pins the fast profile's static rules on an
// AutoTune device, one row per decision: a forwarded call rides the
// ring, a payload is granted exactly when it reaches GrantThreshold, and
// the redirection cache serves.
func TestFixedDispatchRules(t *testing.T) {
	atThreshold := make([]byte, autoTuneGrantThreshold)
	below := make([]byte, autoTuneGrantThreshold-1)
	page := make([]byte, abi.PageSize)

	rows := []struct {
		name string
		op   func(p *Proc, fd int) error
		want dispatchCounts
	}{
		{
			name: "forwarded-call-rides-ring",
			op:   func(p *Proc, fd int) error { return p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd}).Err },
			want: dispatchCounts{Ring: 1, RingSlots: 1},
		},
		{
			name: "grant-at-threshold",
			op:   func(p *Proc, fd int) error { _, err := p.Pwrite(fd, atThreshold, 0); return err },
			want: dispatchCounts{Grant: 1, RingSlots: 1, GrantCalls: 1},
		},
		{
			name: "copy-below-threshold",
			op:   func(p *Proc, fd int) error { _, err := p.Pwrite(fd, below, 0); return err },
			want: dispatchCounts{Copy: 1, Served: 1, CacheLookups: 1},
		},
		{
			name: "cache-serves",
			op:   func(p *Proc, fd int) error { _, err := p.Pread(fd, abi.PageSize, 0); return err },
			want: dispatchCounts{Copy: 1, Served: 1, CacheLookups: 1},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := bootPolicyDevice(t, Options{AutoTune: true, CallDeadline: time.Hour})
			p := installAndLaunch(t, d, "com.policy.rules")
			fd := mustOpen(t, p, "rules.dat", abi.ORdWr|abi.OCreat)
			mustPwrite(t, p, fd, page, 0)
			if _, err := p.Fsync(fd); err != nil {
				t.Fatal(err)
			}
			mustPread(t, p, fd, abi.PageSize, 0) // the page is now cached
			before := d.Layer.Stats()
			if err := row.op(p, fd); err != nil {
				t.Fatal(err)
			}
			after := d.Layer.Stats()
			if got := dispatchCountsOf(after).minus(dispatchCountsOf(before)); got != row.want {
				t.Fatalf("counter deltas = %+v, want %+v", got, row.want)
			}
			if after.Policy.SyncChosen != 0 || after.Policy.Explorations != 0 {
				t.Fatalf("SyncChosen = %d, Explorations = %d, want 0 under fixed rules",
					after.Policy.SyncChosen, after.Policy.Explorations)
			}
		})
	}
}

// TestPolicyKnobsForceOverridesUnderAutoTune pins the preset contract
// from the README: AutoTune expands into the fast profile's knobs at
// boot, and a knob the caller set keeps its value.
func TestPolicyKnobsForceOverridesUnderAutoTune(t *testing.T) {
	preset := bootPolicyDevice(t, Options{AutoTune: true}).Opts
	if preset.RingDepth != autoTuneRingDepth ||
		preset.RingReapBatch != autoTuneRingDepth || preset.GrantThreshold != autoTuneGrantThreshold {
		t.Fatalf("AutoTune expanded to ring depth %d, reap batch %d, grant threshold %d",
			preset.RingDepth, preset.RingReapBatch, preset.GrantThreshold)
	}
	if !preset.RedirCache || !preset.BinderSessions || !preset.BinderReplyCache || !preset.FusionEnable {
		t.Fatalf("AutoTune left a fast path off: %+v", preset)
	}

	d := bootPolicyDevice(t, Options{AutoTune: true, RingDepth: 8, GrantThreshold: abi.PageSize, CallDeadline: time.Hour})
	if d.Opts.RingDepth != 8 || d.Opts.RingReapBatch != 8 || d.Opts.GrantThreshold != abi.PageSize {
		t.Fatalf("explicit knobs lost under AutoTune: depth %d, reap batch %d, grant threshold %d",
			d.Opts.RingDepth, d.Opts.RingReapBatch, d.Opts.GrantThreshold)
	}
	if got := d.Layer.Stats().Ring.Depth; got != 8 {
		t.Fatalf("mounted ring depth = %d, want the explicit 8", got)
	}
	p := installAndLaunch(t, d, "com.policy.knobs")
	fd := mustOpen(t, p, "knobs.dat", abi.ORdWr|abi.OCreat)
	before := d.Layer.Stats().Grants.Calls
	mustPwrite(t, p, fd, make([]byte, abi.PageSize), 0)
	if got := d.Layer.Stats().Grants.Calls; got != before+1 {
		t.Fatalf("a page-sized write under GrantThreshold=%d made %d grant calls, want 1", abi.PageSize, got-before)
	}
}

// TestPolicyCountsIndependentOfSchedule: the fixed rules depend on
// nothing but the call, so two AutoTune devices running the same
// two-goroutine stream report identical decision counts however the
// goroutines interleave.
func TestPolicyCountsIndependentOfSchedule(t *testing.T) {
	run := func() PolicyStats {
		d := bootPolicyDevice(t, Options{AutoTune: true, CallDeadline: time.Hour})
		procs := []*Proc{installAndLaunch(t, d, "com.policy.sched0"), installAndLaunch(t, d, "com.policy.sched1")}
		errs := make(chan error, len(procs))
		for i, p := range procs {
			go func(p *Proc, name string) {
				errs <- policyStream(p, name)
			}(p, fmt.Sprintf("sched%d.dat", i))
		}
		for range procs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		return d.Layer.Stats().Policy
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same stream, different decision counts:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.RingChosen == 0 || a.GrantChosen == 0 || a.CopyChosen == 0 || a.CacheServed == 0 {
		t.Fatalf("stream did not exercise every rule: %+v", a)
	}
}

// policyStream is one app's op stream for the schedule test: cached
// page writes written back by fsync, cached reads, forwarded fstats and
// granted bulk reads, all on the app's own file. It writes nothing
// through a grant: a granted write invalidates cached pages by guest
// descriptor number, which two apps can share, so the other app's
// cache misses would depend on the interleaving.
func policyStream(p *Proc, name string) error {
	fd, err := p.Open(name, abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return err
	}
	page := make([]byte, abi.PageSize)
	bulk := make([]byte, 2*autoTuneGrantThreshold)
	for i := 0; i < 32; i++ {
		off := int64(i%4) * abi.PageSize
		if _, err := p.Pwrite(fd, page, off); err != nil {
			return err
		}
		if _, err := p.Fsync(fd); err != nil {
			return err
		}
		if _, err := p.Pread(fd, abi.PageSize, off); err != nil {
			return err
		}
		if res := p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd}); !res.Ok() {
			return res.Err
		}
		if _, err := p.PreadInto(fd, bulk, 0); err != nil {
			return err
		}
	}
	return p.Close(fd)
}
