package hypervisor

import (
	"errors"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/sim"
)

func TestGrantBatchResolveRoundTrip(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)

	bufs := [][]byte{[]byte("alpha"), []byte("beta")}
	refs := g.GrantBatch(nil, bufs, true, nil)
	if len(refs) != 2 {
		t.Fatalf("refs = %d", len(refs))
	}
	for i, ref := range refs {
		if int(ref.Len) != len(bufs[i]) {
			t.Fatalf("ref %d len = %d", i, ref.Len)
		}
		got, err := g.Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		// Zero-copy means aliasing, not equality: the resolved slice must
		// be the granted buffer itself.
		if &got[0] != &bufs[i][0] {
			t.Fatalf("ref %d resolved to a copy", i)
		}
	}

	st := g.Stats()
	if st.Maps != 1 || st.Entries != 2 || st.Active != 2 || st.BytesGranted != 9 {
		t.Fatalf("stats after map: %+v", st)
	}
}

func TestGrantBatchChargesOneMapPerBatch(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)
	model := c.model

	before := c.clock.Now()
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)}, false, nil)
	if got := c.clock.Now() - before; got != model.GrantMapCost {
		t.Fatalf("3-entry map charged %v, want one GrantMapCost (%v)", got, model.GrantMapCost)
	}

	before = c.clock.Now()
	g.RevokeBatch(nil, refs)
	if got := c.clock.Now() - before; got != model.GrantUnmapTLBShootdown {
		t.Fatalf("3-entry revoke charged %v, want one shootdown (%v)", got, model.GrantUnmapTLBShootdown)
	}
	if g.Active() != 0 {
		t.Fatalf("active = %d after revoke", g.Active())
	}
}

func TestGrantResolveAfterRevokeIsENXIO(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 8)}, false, nil)
	g.RevokeBatch(nil, refs)
	if _, err := g.Resolve(refs[0]); !errors.Is(err, abi.ENXIO) {
		t.Fatalf("revoked grant resolved with err=%v, want ENXIO", err)
	}
	// Revoking again is harmless: RevokeAll may have raced ahead.
	g.RevokeBatch(nil, refs)
}

func TestGrantStaleGenerationIsEHOSTDOWN(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 4096)}, true, nil)

	if err := c.Relaunch(); err != nil {
		t.Fatal(err)
	}
	g.RevokeAll()

	if _, err := g.Resolve(refs[0]); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("stale grant resolved with err=%v, want EHOSTDOWN", err)
	}
	st := g.Stats()
	if st.StaleRejected != 1 || st.RevokedByRestart != 1 || st.Active != 0 {
		t.Fatalf("stats after restart: %+v", st)
	}

	// A fresh grant from the new generation works.
	fresh := g.GrantBatch(nil, [][]byte{make([]byte, 16)}, true, nil)
	if _, err := g.Resolve(fresh[0]); err != nil {
		t.Fatalf("new-generation grant: %v", err)
	}
}

// TestGrantConcurrentMapRevokeDuringRelaunch hammers GrantBatch /
// Resolve / RevokeBatch from several goroutines while the CVM relaunches
// and sweeps the table. Every Resolve outcome must be one of: the pinned
// buffer itself, ENXIO (revoked in flight), or EHOSTDOWN (stale
// generation) — never a panic, a foreign buffer, or a silent success
// against a dead generation. Run under -race in CI.
func TestGrantConcurrentMapRevokeDuringRelaunch(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)

	stop := make(chan struct{})
	badErr := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				refs := g.GrantBatch(nil, [][]byte{buf}, i%2 == 0, nil)
				got, err := g.Resolve(refs[0])
				switch {
				case err == nil:
					if &got[0] != &buf[0] {
						select {
						case badErr <- errors.New("resolve returned a foreign buffer"):
						default:
						}
					}
				case errors.Is(err, abi.ENXIO), errors.Is(err, abi.EHOSTDOWN):
					// Revoked or stranded by a concurrent restart: fine.
				default:
					select {
					case badErr <- err:
					default:
					}
				}
				g.RevokeBatch(nil, refs)
			}
		}(i)
	}

	for r := 0; r < 5; r++ {
		if err := c.Relaunch(); err != nil {
			t.Fatal(err)
		}
		g.RevokeAll()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-badErr:
		t.Fatal(err)
	default:
	}
	// Quiesced: every batch was revoked by its owner or a sweep.
	if g.RevokeAll(); g.Active() != 0 {
		t.Fatalf("active = %d after quiesce", g.Active())
	}
}

func TestGrantRevokeAllSweepsEverything(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)
	g.GrantBatch(nil, [][]byte{make([]byte, 1), make([]byte, 2)}, false, nil)
	g.GrantBatch(nil, [][]byte{make([]byte, 3)}, true, nil)
	if n := g.RevokeAll(); n != 3 {
		t.Fatalf("RevokeAll swept %d, want 3", n)
	}
	if g.Active() != 0 {
		t.Fatalf("active = %d", g.Active())
	}
	// An empty sweep still completes (restart with nothing in flight).
	if n := g.RevokeAll(); n != 0 {
		t.Fatalf("second RevokeAll swept %d", n)
	}
}

// launchQuietCVM is launchTestCVM without a trace, so the grant table's
// own allocations are all a test sees.
func launchQuietCVM(t *testing.T) *CVM {
	t.Helper()
	c, err := Launch(kernel.NewPhysical(1<<30), Config{
		Clock:              sim.NewClock(),
		Model:              sim.DefaultLatencyModel(),
		MemoryBytes:        64 << 20,
		KernelReserveBytes: 15 << 20,
		ChannelPages:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGrantBatchAllocs: the table holds its entries by value and appends
// refs into the caller's storage, so a map, resolve and revoke cycle
// allocates nothing once the table has held that many entries.
func TestGrantBatchAllocs(t *testing.T) {
	g := NewGrantTable(launchQuietCVM(t))
	bufs := [][]byte{make([]byte, 64<<10), make([]byte, 4096)}
	refs := make([]GrantRef, 0, len(bufs))
	cycle := func() {
		refs = g.GrantBatch(nil, bufs, true, refs[:0])
		for i, ref := range refs {
			if b, err := g.Resolve(ref); err != nil || &b[0] != &bufs[i][0] {
				t.Fatalf("resolve %+v: %v", ref, err)
			}
		}
		g.RevokeBatch(nil, refs)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("grant/resolve/revoke cycle: %v allocs, want 0", n)
	}
}

// TestGrantRefNeverResolvesLaterGrant: IDs are never reused, so a ref
// revoked in flight still fails ENXIO after 10k later grants have come
// and gone, and a ref from an earlier boot still fails EHOSTDOWN.
func TestGrantRefNeverResolvesLaterGrant(t *testing.T) {
	c := launchQuietCVM(t)
	g := NewGrantTable(c)
	stale := g.GrantBatch(nil, [][]byte{make([]byte, 16)}, true, nil)
	if err := c.Relaunch(); err != nil {
		t.Fatal(err)
	}
	g.RevokeAll()
	revoked := g.GrantBatch(nil, [][]byte{make([]byte, 16)}, false, nil)
	g.RevokeBatch(nil, revoked)

	later := make([]byte, 16)
	var refs []GrantRef
	for i := 0; i < 10000; i++ {
		refs = g.GrantBatch(nil, [][]byte{later}, i%2 == 0, refs[:0])
		if refs[0].ID <= revoked[0].ID {
			t.Fatalf("grant %d got id %d, not above the revoked ref's %d", i, refs[0].ID, revoked[0].ID)
		}
		if i%1000 == 999 { // a few stay live while the others come and go
			continue
		}
		g.RevokeBatch(nil, refs)
	}
	if _, err := g.Resolve(revoked[0]); !errors.Is(err, abi.ENXIO) {
		t.Errorf("revoked ref after 10k later grants: err=%v, want ENXIO", err)
	}
	if _, err := g.Resolve(stale[0]); !errors.Is(err, abi.EHOSTDOWN) {
		t.Errorf("stale-generation ref after 10k later grants: err=%v, want EHOSTDOWN", err)
	}
	if got := g.Active(); got != 10 {
		t.Errorf("active = %d, want the 10 left live", got)
	}
}
