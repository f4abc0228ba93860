package proxy

import (
	"sync"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

func newPoolRig(t *testing.T, depth int) (*marshal.RingChannel, *Pool, *sim.Clock) {
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
	ring := marshal.NewRingChannel(cvm, clock, model, nil, depth, 0)
	pool := NewPool(ring, clock, model)
	t.Cleanup(func() {
		ring.Close()
		pool.Wait()
	})
	return ring, pool, clock
}

// TestPoolServesInSubmissionOrder: the poller executes every slot in
// global submission order, whatever it carries — argument frames for
// several descriptors, a fused chain, and a oneway binder frame whose
// waiter is detached — so order across descriptors is as strict as
// order on one.
func TestPoolServesInSubmissionOrder(t *testing.T) {
	type slot struct {
		name    string
		payload []byte
		oneway  bool
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
		{name: "oneway binder", payload: marshal.AppendBinderCall(nil, binder.EncodeSessionFrame(binder.SessionFrame{
			Session: 1, Code: 2, Oneway: true,
		})), oneway: true},
		{name: "pread fd4 again", payload: args(abi.SysPread64, 4)},
		{name: "fstat fd6", payload: args(abi.SysFstat, 6)},
		{name: "pread fd3 again", payload: args(abi.SysPread64, 3)},
	}

	for round := 0; round < 20; round++ {
		ring, pool, _ := newPoolRig(t, len(slots))
		pool.Start()
		var mu sync.Mutex
		var order []string
		var waiters sync.WaitGroup
		var pendings []*marshal.Pending
		for _, s := range slots {
			name := s.name
			p, err := ring.Submit(nil, s.payload, func(req []byte) []byte {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return req
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.oneway {
				// Nobody waits for a oneway reply; a detached waiter
				// recycles the slot, as the binder bridge does.
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					if _, err := p.Wait(); err != nil {
						t.Error(err)
					}
				}()
				continue
			}
			pendings = append(pendings, p)
		}
		for _, p := range pendings {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		waiters.Wait()
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

// TestPoolChargesDispatchPerWakeup: entries queued while the poller is
// busy drain off its single wakeup — one ProxyDispatch for the whole
// batch, the guest half of doorbell coalescing.
func TestPoolChargesDispatchPerWakeup(t *testing.T) {
	const n = 16
	ring, pool, _ := newPoolRig(t, n)
	pool.Start()

	// The first handler parks the poller on a gate so the remaining 15
	// entries pile up behind it; on release the poller drains them all
	// without going idle.
	gate := make(chan struct{})
	first, err := ring.Submit(nil, []byte("x"), func(req []byte) []byte {
		<-gate
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]*marshal.Pending, n-1)
	for i := range rest {
		p, err := ring.Submit(nil, []byte("x"), func(req []byte) []byte { return req })
		if err != nil {
			t.Fatal(err)
		}
		rest[i] = p
	}
	time.Sleep(50 * time.Millisecond) // let the backlog queue behind the gate
	close(gate)

	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rest {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := pool.Stats()
	if st.Wakeups != 1 || st.Drained != n-1 {
		t.Fatalf("wakeups=%d drained=%d, want 1/%d", st.Wakeups, st.Drained, n-1)
	}
}

// TestPoolSequentialCallerIsDeterministic: one caller submitting and
// waiting in turn over the pool must see the same sim time and the same
// doorbell/reap decisions on every run. The ring decides its doorbell
// before a slot becomes visible to the poller and reaps
// before it wakes the waiter, and the pool stamps its poll window before
// that wake, so no decision can race the caller's next submission.
func TestPoolSequentialCallerIsDeterministic(t *testing.T) {
	run := func() (time.Duration, marshal.RingStats, PoolStats) {
		ring, pool, clock := newPoolRig(t, 16)
		pool.Start()
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
		return clock.Now(), ring.RingStats(), pool.Stats()
	}
	now0, ring0, pool0 := run()
	for r := 0; r < 10; r++ {
		now, rs, ps := run()
		if now != now0 || rs != ring0 || ps != pool0 {
			t.Fatalf("run %d diverged:\n  clock %v vs %v\n  ring %+v\n  vs   %+v\n  pool %+v vs %+v",
				r, now, now0, rs, ring0, ps, pool0)
		}
	}
}
