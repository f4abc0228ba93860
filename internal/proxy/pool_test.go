package proxy

import (
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

// The guest SQ poller that serves proxy work off the async ring is the
// ring's waiting submitter (marshal.Pending.Wait serves queued slots in
// order until its own is done). These tests pin that scheduling as the
// proxy sees it: order, dispatch charges, determinism.

func newPoolRig(t *testing.T, depth int) (*marshal.RingChannel, *sim.Clock) {
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
	return marshal.NewRingChannel(cvm, clock, model, nil, depth, 0), clock
}

// TestPoolServesInSubmissionOrder: slots are served in global
// submission order, whatever they carry — argument frames for several
// descriptors, a fused chain, and a oneway binder frame — and whichever
// waiter serves them: here the last slot's waiter serves them all.
func TestPoolServesInSubmissionOrder(t *testing.T) {
	type slot struct {
		name    string
		payload []byte
	}
	args := func(nr abi.SyscallNr, fd int) []byte {
		return marshal.AppendArgs(nil, &kernel.Args{Nr: nr, FD: fd, Size: 16})
	}
	slots := []slot{
		{name: "pread fd3", payload: args(abi.SysPread64, 3)},
		{name: "pread fd4", payload: args(abi.SysPread64, 4)},
		{name: "chain fd5", payload: marshal.AppendChain(nil, []marshal.ChainLink{
			{Args: &kernel.Args{Nr: abi.SysFstat, FD: 5}, FDFrom: -1},
			{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
		})},
		{name: "pwrite fd3", payload: args(abi.SysPwrite64, 3)},
		{name: "oneway binder", payload: marshal.AppendBinderSession(nil, marshal.BinderSession{
			Session: 1, Code: 2, Oneway: true,
		})},
		{name: "pread fd4 again", payload: args(abi.SysPread64, 4)},
		{name: "fstat fd6", payload: args(abi.SysFstat, 6)},
		{name: "pread fd3 again", payload: args(abi.SysPread64, 3)},
	}

	for round := 0; round < 20; round++ {
		ring, _ := newPoolRig(t, len(slots))
		var order []string // appended by handlers, which run under the ring mutex
		pendings := make([]*marshal.Pending, len(slots))
		for i, s := range slots {
			name := s.name
			p, err := ring.Submit(nil, s.payload, func(req []byte) []byte {
				order = append(order, name)
				return req
			})
			if err != nil {
				t.Fatal(err)
			}
			pendings[i] = p
		}
		for i := len(pendings) - 1; i >= 0; i-- {
			if _, err := pendings[i].Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if len(order) != len(slots) {
			t.Fatalf("round %d: executed %d of %d slots", round, len(order), len(slots))
		}
		for i, s := range slots {
			if order[i] != s.name {
				t.Fatalf("round %d: execution order %v violates submission order", round, order)
			}
		}
	}
}

// TestPoolChargesDispatchPerWakeup: entries queued behind one another
// drain off a single wakeup — one ProxyDispatch for the whole batch, the
// guest half of doorbell coalescing.
func TestPoolChargesDispatchPerWakeup(t *testing.T) {
	const n = 16
	ring, _ := newPoolRig(t, n)
	pendings := make([]*marshal.Pending, n)
	for i := range pendings {
		p, err := ring.Submit(nil, []byte("x"), func(req []byte) []byte { return req })
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	// The last waiter serves the whole backlog; the rest find their
	// slots done.
	for i := n - 1; i >= 0; i-- {
		if _, err := pendings[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := ring.RingStats()
	if st.Wakeups != 1 || st.Drained != n-1 {
		t.Fatalf("wakeups=%d drained=%d, want 1/%d", st.Wakeups, st.Drained, n-1)
	}
}

// TestPoolSequentialCallerIsDeterministic: one caller submitting and
// waiting in turn must see the same sim time and the same doorbell, reap
// and dispatch decisions on every run. Every decision is made under the
// ring's mutex from sim time alone, so none can depend on scheduling.
func TestPoolSequentialCallerIsDeterministic(t *testing.T) {
	run := func() (time.Duration, marshal.RingStats) {
		ring, clock := newPoolRig(t, 16)
		var lane sim.Lane
		for i := 0; i < 400; i++ {
			payload := make([]byte, 64+(i%5)*1500)
			p, err := ring.Submit(&lane, payload, func(req []byte) []byte {
				clock.Charge(&lane, time.Duration(len(req))*time.Nanosecond)
				return req[:len(req)/2]
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				// Idle past the poll window so doorbells re-arm.
				clock.Advance(2 * marshal.RingPollIdle)
			}
		}
		return clock.Now(), ring.RingStats()
	}
	now0, ring0 := run()
	for r := 0; r < 10; r++ {
		now, rs := run()
		if now != now0 || rs != ring0 {
			t.Fatalf("run %d diverged:\n  clock %v vs %v\n  ring %+v\n  vs   %+v",
				r, now, now0, rs, ring0)
		}
	}
}
