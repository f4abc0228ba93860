package marshal

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/sim"
)

func newRingForTest(t *testing.T, depth int) (*RingChannel, *hypervisor.CVM, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	phys := kernel.NewPhysical(256 << 20)
	cvm, err := hypervisor.Launch(phys, hypervisor.Config{
		Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewRingChannel(cvm, clock, model, nil, depth, 0), cvm, clock
}

// drainOne pops the next submission and completes it through its handler,
// standing in for one step of the guest SQ poller.
func drainOne(t *testing.T, r *RingChannel) {
	t.Helper()
	s, ok := r.NextSubmission()
	if !ok {
		t.Fatal("submission queue closed unexpectedly")
	}
	if r.FailFastIfUnservable(s) {
		return
	}
	r.Complete(s, s.Handler()(s.Payload()))
}

func TestRingSubmitCompleteRoundTrip(t *testing.T) {
	r, _, _ := newRingForTest(t, 8)
	const n = 4
	echo := func(req []byte) []byte { return append([]byte("re:"), req...) }

	pendings := make([]*Pending, n)
	for i := 0; i < n; i++ {
		p, err := r.Submit(nil, []byte(fmt.Sprintf("req-%d", i)), echo)
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	for i := 0; i < n; i++ {
		drainOne(t, r)
	}
	for i, p := range pendings {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if want := fmt.Sprintf("re:req-%d", i); string(resp) != want {
			t.Fatalf("slot %d: resp %q, want %q", i, resp, want)
		}
	}

	st := r.RingStats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d submitted/completed", st, n)
	}
	// One doorbell woke the poller for all four entries; with fewer than
	// RingReapBatch completions posted, the poller is still awake and no
	// reap hypercall has been paid.
	if st.Doorbells != 1 || st.Coalesced != n-1 || st.Reaps != 0 {
		t.Fatalf("doorbells=%d coalesced=%d reaps=%d, want 1/%d/0", st.Doorbells, st.Coalesced, st.Reaps, n-1)
	}
	if st.MaxInFlight != n {
		t.Fatalf("max in flight %d, want %d", st.MaxInFlight, n)
	}

	// Four more round-trips complete the RingReapBatch: the poller reaps
	// once and goes back to sleep, still without a second doorbell.
	for i := 0; i < RingReapBatch-n; i++ {
		p, err := r.Submit(nil, []byte("more"), echo)
		if err != nil {
			t.Fatal(err)
		}
		drainOne(t, r)
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st = r.RingStats()
	if st.Doorbells != 1 || st.Reaps != 1 {
		t.Fatalf("after %d total ops: doorbells=%d reaps=%d, want 1/1", RingReapBatch, st.Doorbells, st.Reaps)
	}
}

func TestRingBackpressureWhenFull(t *testing.T) {
	r, _, _ := newRingForTest(t, 2)
	echo := func(req []byte) []byte { return req }
	p1, err := r.Submit(nil, []byte("a"), echo)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Submit(nil, []byte("b"), echo)
	if err != nil {
		t.Fatal(err)
	}

	// The ring is full: a third Submit must block until a slot recycles.
	unblocked := make(chan *Pending)
	go func() {
		p, err := r.Submit(nil, []byte("c"), echo)
		if err != nil {
			t.Error(err)
		}
		unblocked <- p
	}()
	select {
	case <-unblocked:
		t.Fatal("Submit returned with every slot in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// Complete + Wait slot 1: its recycle lets the blocked Submit through.
	drainOne(t, r)
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	var p3 *Pending
	select {
	case p3 = <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Submit still blocked after a slot was recycled")
	}
	// Drain the rest so nothing leaks.
	drainOne(t, r)
	drainOne(t, r)
	for _, p := range []*Pending{p2, p3} {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingRearmFailsStaleSlots(t *testing.T) {
	r, cvm, _ := newRingForTest(t, 4)
	executed := false
	p, err := r.Submit(nil, []byte("old-boot"), func(req []byte) []byte {
		executed = true
		return req
	})
	if err != nil {
		t.Fatal(err)
	}

	// A restart re-keys the ring before the pool reaches the slot.
	r.Rearm(cvm.Generation() + 1)
	drainOne(t, r)

	_, werr := p.Wait()
	if !errors.Is(werr, abi.EHOSTDOWN) {
		t.Fatalf("stale slot completed with %v, want EHOSTDOWN", werr)
	}
	if executed {
		t.Fatal("stale slot's handler ran after re-arm")
	}
	st := r.RingStats()
	if st.Failed != 1 || st.Completed != 0 || st.Rearms != 1 {
		t.Fatalf("stats = %+v, want failed=1 completed=0 rearms=1", st)
	}

	// The recycled slot serves the new generation normally.
	p2, err := r.Submit(nil, []byte("new-boot"), func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	drainOne(t, r)
	if resp, err := p2.Wait(); err != nil || string(resp) != "new-boot" {
		t.Fatalf("post-rearm slot: resp=%q err=%v", resp, err)
	}
}

// TestRingDoorbellCoalescingAcrossBursts pins the poller wake/sleep
// protocol: one doorbell covers every submission while the poller is
// awake, an idle gap past RingPollIdle puts it to sleep (the next burst
// pays a fresh doorbell), and a full RingReapBatch of completions costs
// exactly one reap hypercall. All decisions are sim-time based, so the
// counts are exact on any machine.
func TestRingDoorbellCoalescingAcrossBursts(t *testing.T) {
	r, _, clock := newRingForTest(t, 8)
	echo := func(req []byte) []byte { return req }

	burst := func(n int) {
		t.Helper()
		ps := make([]*Pending, n)
		for i := range ps {
			p, err := r.Submit(nil, []byte("x"), echo)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		for range ps {
			drainOne(t, r)
		}
		for _, p := range ps {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}

	burst(3)
	if st := r.RingStats(); st.Doorbells != 1 || st.Reaps != 0 || st.Coalesced != 2 {
		t.Fatalf("after burst 1: %+v, want doorbells=1 reaps=0 coalesced=2", st)
	}

	// The ring idles past the poll window: the poller sleeps, and the next
	// burst must ring the doorbell again.
	clock.Advance(RingPollIdle + time.Millisecond)
	burst(5)
	if st := r.RingStats(); st.Doorbells != 2 || st.Reaps != 0 || st.Coalesced != 6 {
		t.Fatalf("after burst 2: %+v, want doorbells=2 reaps=0 coalesced=6", st)
	}

	// Three more completions close out the RingReapBatch since the second
	// doorbell: one reap hypercall, no new doorbell.
	burst(3)
	if st := r.RingStats(); st.Doorbells != 2 || st.Reaps != 1 || st.Coalesced != 9 {
		t.Fatalf("after burst 3: %+v, want doorbells=2 reaps=1 coalesced=9", st)
	}
}

// TestRingChargesPerDoorbellNotPerCall pins the cost model: a burst of N
// calls through the ring pays 2 world switches total (doorbell + reap),
// where the synchronous channel pays 2 per call.
func TestRingChargesPerDoorbellNotPerCall(t *testing.T) {
	const n = 8
	r, cvm, _ := newRingForTest(t, n)
	echo := func(req []byte) []byte { return req }

	in0, out0 := cvm.WorldSwitches()
	ps := make([]*Pending, n)
	for i := range ps {
		p, err := r.Submit(nil, []byte("payload"), echo)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	for range ps {
		drainOne(t, r)
	}
	for _, p := range ps {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	in1, out1 := cvm.WorldSwitches()
	if switches := (in1 - in0) + (out1 - out0); switches != 2 {
		t.Fatalf("ring burst of %d cost %d world switches, want 2 (1 doorbell + 1 reap)", n, switches)
	}
}

func TestRingGuestDownFailsFast(t *testing.T) {
	r, _, _ := newRingForTest(t, 4)
	alive := true
	r.SetLiveness(func() bool { return alive })

	// Submit-side: a dead guest is refused without consuming a slot.
	alive = false
	if _, err := r.Submit(nil, []byte("x"), func(b []byte) []byte { return b }); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("submit against dead guest: %v, want EHOSTDOWN", err)
	}

	// Poller-side: a slot caught in flight when the guest dies completes
	// with EHOSTDOWN instead of executing against the dead kernel.
	alive = true
	p, err := r.Submit(nil, []byte("x"), func(b []byte) []byte { return b })
	if err != nil {
		t.Fatal(err)
	}
	alive = false
	drainOne(t, r)
	if _, werr := p.Wait(); !errors.Is(werr, abi.EHOSTDOWN) {
		t.Fatalf("in-flight slot completed with %v, want EHOSTDOWN", werr)
	}
}
