package proxy

import (
	"sync"
	"testing"
	"time"

	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

func newPoolRig(t *testing.T, depth, workers int) (*marshal.RingChannel, *Pool, *sim.Clock) {
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
	pool := NewPool(ring, workers, clock, model)
	t.Cleanup(func() {
		ring.Close()
		pool.Wait()
	})
	return ring, pool, clock
}

// TestPoolPreservesFIFOPerKey: the pool runs 4 workers concurrently, yet
// entries sharing a key must execute in submission order — the layer's
// per-descriptor ordering guarantee.
func TestPoolPreservesFIFOPerKey(t *testing.T) {
	const keys, perKey = 4, 10
	ring, pool, _ := newPoolRig(t, keys*perKey, 4)
	pool.Start()

	var mu sync.Mutex
	order := make(map[int64][]int)

	pendings := make([]*marshal.Pending, 0, keys*perKey)
	// Interleave keys in submission order: key 0 seq 0, key 1 seq 0, ...
	for seq := 0; seq < perKey; seq++ {
		for k := int64(0); k < keys; k++ {
			k, seq := k, seq
			p, err := ring.Submit(nil, []byte("x"), k, func(req []byte) []byte {
				mu.Lock()
				order[k] = append(order[k], seq)
				mu.Unlock()
				return req
			})
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, p)
		}
	}
	for _, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	for k := int64(0); k < keys; k++ {
		got := order[k]
		if len(got) != perKey {
			t.Fatalf("key %d: executed %d of %d entries", k, len(got), perKey)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("key %d: execution order %v violates submission order", k, got)
			}
		}
	}
}

// TestPoolChargesDispatchPerWakeup: entries queued while a worker is busy
// drain off that worker's single wakeup — one ProxyDispatch for the whole
// batch, the guest half of doorbell coalescing.
func TestPoolChargesDispatchPerWakeup(t *testing.T) {
	const n = 16
	ring, pool, _ := newPoolRig(t, n, 4)
	pool.Start()

	// The first handler parks its worker on a gate so the remaining 15
	// same-key entries pile up behind it; on release the worker drains
	// them all without going idle.
	gate := make(chan struct{})
	first, err := ring.Submit(nil, []byte("x"), 7, func(req []byte) []byte {
		<-gate
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]*marshal.Pending, n-1)
	for i := range rest {
		p, err := ring.Submit(nil, []byte("x"), 7, func(req []byte) []byte { return req })
		if err != nil {
			t.Fatal(err)
		}
		rest[i] = p
	}
	time.Sleep(50 * time.Millisecond) // let the dispatcher shard the backlog
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
// waiting in turn over a multi-worker pool must see the same sim time
// and the same doorbell/reap decisions on every run. The ring decides
// its doorbell before a slot becomes visible to the workers and reaps
// before it wakes the waiter, and the pool stamps its poll window before
// that wake, so no decision can race the caller's next submission.
func TestPoolSequentialCallerIsDeterministic(t *testing.T) {
	run := func() (time.Duration, marshal.RingStats, PoolStats) {
		ring, pool, clock := newPoolRig(t, 16, 4)
		pool.Start()
		var lane sim.Lane
		for i := 0; i < 400; i++ {
			payload := make([]byte, 64+(i%5)*1500)
			p, err := ring.Submit(&lane, payload, int64(i%7), func(req []byte) []byte {
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
