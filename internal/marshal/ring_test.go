package marshal

import (
	"errors"
	"fmt"
	"sync"
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

	// Wait serves slot 1 and recycles it, which lets the blocked Submit
	// through.
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
	for _, p := range []*Pending{p2, p3} {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingRearmFailsStaleSlots(t *testing.T) {
	r, cvm, _ := newRingForTest(t, 4)
	ran := 0
	handler := func(req []byte) []byte { ran++; return req }
	served, err := r.Submit(nil, []byte("served"), handler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := served.Wait(); err != nil {
		t.Fatal(err)
	}
	var queued []*Pending
	for i := 0; i < 3; i++ {
		p, err := r.Submit(nil, []byte("old-boot"), handler)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, p)
	}

	// A restart re-keys the ring before any waiter serves the queued
	// slots: the re-arm itself fails them, so the accounting identity
	// holds before anyone waits.
	r.Rearm(cvm.Generation() + 1)
	st := r.RingStats()
	if st.Failed != len(queued) || st.Completed != 1 || st.Rearms != 1 || st.Submitted != st.Completed+st.Failed {
		t.Fatalf("stats = %+v, want failed=%d completed=1 rearms=1", st, len(queued))
	}
	for i, p := range queued {
		if _, werr := p.Wait(); !errors.Is(werr, abi.EHOSTDOWN) {
			t.Fatalf("stale slot %d completed with %v, want EHOSTDOWN", i, werr)
		}
	}
	if ran != 1 {
		t.Fatalf("%d handlers ran, want only the slot served before the re-arm", ran)
	}

	// The recycled slots serve the new generation normally.
	p2, err := r.Submit(nil, []byte("new-boot"), func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
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

	// Serve-side: a slot caught in flight when the guest dies completes
	// with EHOSTDOWN instead of executing against the dead kernel.
	alive = true
	p, err := r.Submit(nil, []byte("x"), func(b []byte) []byte { return b })
	if err != nil {
		t.Fatal(err)
	}
	alive = false
	if _, werr := p.Wait(); !errors.Is(werr, abi.EHOSTDOWN) {
		t.Fatalf("in-flight slot completed with %v, want EHOSTDOWN", werr)
	}
}

// TestRingServesInGlobalSubmissionOrder: two submitters interleave their
// submissions, then both wait — the later one first, so it serves the
// other's slots too. Every handler still runs in global submission
// order, whoever serves it.
func TestRingServesInGlobalSubmissionOrder(t *testing.T) {
	const perSubmitter = 6
	for round := 0; round < 20; round++ {
		r, _, _ := newRingForTest(t, 2*perSubmitter)
		var order []string // appended by handlers, which run under the ring mutex
		handler := func(name string) GuestHandler {
			return func(req []byte) []byte {
				order = append(order, name)
				return req
			}
		}
		var want []string
		turn := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		pendings := [2][]*Pending{}
		var wg sync.WaitGroup
		for who := 0; who < 2; who++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					<-turn[who]
					p, err := r.Submit(nil, []byte("x"), handler(fmt.Sprintf("%c%d", 'a'+who, i)))
					if err != nil {
						t.Error(err)
					}
					pendings[who] = append(pendings[who], p)
					if who == 0 || i < perSubmitter-1 {
						turn[1-who] <- struct{}{}
					}
				}
			}()
		}
		for i := 0; i < perSubmitter; i++ {
			want = append(want, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		}
		turn[0] <- struct{}{}
		wg.Wait()

		var waiters sync.WaitGroup
		for who := 1; who >= 0; who-- {
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				ps := pendings[who]
				for i := len(ps) - 1; i >= 0; i-- {
					if _, err := ps[i].Wait(); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		waiters.Wait()
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("round %d: served %v, want %v", round, order, want)
		}
	}
}

// TestRingWaiterServedByAnotherCombiner: the waiter of a later slot
// serves an earlier one on its way; the earlier slot's own waiter then
// finds it done, gets its own reply and runs no handler.
func TestRingWaiterServedByAnotherCombiner(t *testing.T) {
	r, _, _ := newRingForTest(t, 4)
	runs := map[string]int{}
	echo := func(req []byte) []byte {
		runs[string(req)]++
		return append([]byte("re:"), req...)
	}
	first, err := r.Submit(nil, []byte("first"), echo)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Submit(nil, []byte("second"), echo)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := second.Wait(); err != nil || string(resp) != "re:second" {
			t.Errorf("second: resp=%q err=%v", resp, err)
		}
	}()
	<-done
	if runs["first"] != 1 || runs["second"] != 1 {
		t.Fatalf("handler runs %v, want each once", runs)
	}
	if resp, err := first.Wait(); err != nil || string(resp) != "re:first" {
		t.Fatalf("first: resp=%q err=%v, want its own reply", resp, err)
	}
	if runs["first"] != 1 {
		t.Fatalf("first slot's handler ran %d times", runs["first"])
	}
	if st := r.RingStats(); st.Completed != 2 || st.Wakeups+st.Drained != 2 {
		t.Fatalf("stats = %+v, want 2 completed and 2 served", st)
	}
}

// TestRingFullRingBlocksThenDrains: 8 goroutines call into a depth-2
// ring that two open slots fill. They block, none fails, and once the
// two slots are waited for they all drain — with never more than 2
// slots open.
func TestRingFullRingBlocksThenDrains(t *testing.T) {
	const (
		depth   = 2
		callers = 8
		calls   = 100
	)
	r, _, _ := newRingForTest(t, depth)
	echo := func(b []byte) []byte { return b }
	var open []*Pending
	for i := 0; i < depth; i++ {
		p, err := r.Submit(nil, []byte("fill"), echo)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, p)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := []byte(fmt.Sprintf("c%d-%d", c, i))
				resp, err := r.RoundTrip(nil, req, echo)
				if err != nil || string(resp) != string(req) {
					t.Errorf("caller %d call %d: resp=%q err=%v", c, i, resp, err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if st := r.RingStats(); st.Submitted != depth {
		t.Fatalf("%d slots submitted into a full ring of %d", st.Submitted, depth)
	}
	for _, p := range open {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := r.RingStats()
	if st.MaxInFlight > depth {
		t.Fatalf("max in flight %d exceeds depth %d", st.MaxInFlight, depth)
	}
	if want := depth + callers*calls; st.Submitted != want || st.Completed != want || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d completed", st, want)
	}
}
