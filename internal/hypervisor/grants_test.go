package hypervisor

import (
	"errors"
	"sync"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

func TestGrantBatchResolveRoundTrip(t *testing.T) {
	c := launchTestCVM(t, kernel.NewPhysical(1<<30))
	g := NewGrantTable(c)

	bufs := [][]byte{[]byte("alpha"), []byte("beta")}
	refs := g.GrantBatch(nil, bufs, true)
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
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)}, false)
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
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 8)}, false)
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
	refs := g.GrantBatch(nil, [][]byte{make([]byte, 4096)}, true)

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
	fresh := g.GrantBatch(nil, [][]byte{make([]byte, 16)}, true)
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
				refs := g.GrantBatch(nil, [][]byte{buf}, i%2 == 0)
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
	g.GrantBatch(nil, [][]byte{make([]byte, 1), make([]byte, 2)}, false)
	g.GrantBatch(nil, [][]byte{make([]byte, 3)}, true)
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
