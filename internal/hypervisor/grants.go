package hypervisor

import (
	"fmt"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/sim"
)

// GrantRef names one granted extent. It is small enough to travel in a
// scatter-gather descriptor through the data channel: the guest side
// resolves it back to the pinned host pages instead of receiving the
// bytes through chunked copies. Gen is the container boot generation the
// grant was issued against; a restart strands every outstanding ref at
// the old generation, and Resolve fails them with EHOSTDOWN rather than
// letting a completion touch pages the host may have reused.
type GrantRef struct {
	ID  uint32
	Gen uint32
	Len uint32
}

// GrantStats counts grant-table activity.
type GrantStats struct {
	// Maps counts batched map operations (one GrantMapCost each);
	// Entries counts the extents those batches installed.
	Maps    int
	Entries int
	// Revokes counts batched revoke operations (one TLB shootdown each).
	Revokes int
	// RevokedByRestart counts entries dropped by RevokeAll sweeps and by
	// the post-checkpoint half of restore-time reconciliation.
	RevokedByRestart int
	// KeptByRestore counts entries that survived a snapshot restore
	// because they were provably issued before the checkpoint was taken.
	KeptByRestore int
	// StaleRejected counts Resolve calls that named a grant from an
	// earlier boot generation.
	StaleRejected int
	// Active is the number of currently live entries.
	Active int
	// BytesGranted is the cumulative payload size mapped through the
	// table (bytes that did NOT traverse the copy channel).
	BytesGranted int64
}

type grantEntry struct {
	buf      []byte
	writable bool
	gen      int
	// issuedAt is the simulated time the grant was mapped; restore-time
	// reconciliation keeps entries issued at or before the checkpoint
	// (their guest-side PTEs are inside the restored image) and sweeps
	// everything newer.
	issuedAt time.Duration
}

// GrantTable is the page-flipping side channel of the data path (the
// Xen-style grant mechanism the tech report points at): the host pins an
// app buffer's pages and maps them into guest address space, so a bulk
// redirected call moves a fixed-size descriptor through the channel
// instead of paying CopyToGuestPerByte twice. Mapping charges one
// GrantMapCost per batch (grant-table writes plus a batched guest PTE
// install); revoking charges one GrantUnmapTLBShootdown per batch (PTE
// teardown plus the IPI broadcast). Entries are tagged with the CVM boot
// generation: a restart revokes everything, and any straggler ref from
// the old generation fails EHOSTDOWN at Resolve. The table holds its
// entries by value and never reuses an ID: IDs rise with every grant, so
// a ref revoked while its call was in flight can never resolve a later
// grant.
type GrantTable struct {
	cvm *CVM

	mu    sync.Mutex
	slots map[uint32]grantEntry
	next  uint32
	stats GrantStats
}

// NewGrantTable builds an empty grant table bound to a launched CVM. The
// table shares the CVM's clock, model, and trace.
func NewGrantTable(cvm *CVM) *GrantTable {
	return &GrantTable{cvm: cvm, slots: make(map[uint32]grantEntry)}
}

// GrantBatch pins each buffer and maps it into the guest as one batched
// update: a single GrantMapCost covers the whole scatter-gather list,
// which is why vectored calls are the natural consumers of grants. The
// writable flag marks read-style calls (the guest fills the buffer);
// write-style calls grant read-only. The refs, tagged with the current
// boot generation, are appended to dst, so a caller that keeps its
// storage maps without allocating. The map is charged to lane l, the
// task whose call the grants carry.
func (g *GrantTable) GrantBatch(l *sim.Lane, bufs [][]byte, writable bool, dst []GrantRef) []GrantRef {
	gen := g.cvm.Generation()
	g.cvm.clock.Charge(l, g.cvm.model.GrantMapCost)
	refs := dst
	now := g.cvm.clock.Now()
	g.mu.Lock()
	g.stats.Maps++
	for _, buf := range bufs {
		g.next++
		id := g.next
		g.slots[id] = grantEntry{buf: buf, writable: writable, gen: gen, issuedAt: now}
		refs = append(refs, GrantRef{ID: id, Gen: uint32(gen), Len: uint32(len(buf))})
		g.stats.Entries++
		g.stats.BytesGranted += int64(len(buf))
	}
	g.stats.Active = len(g.slots)
	g.mu.Unlock()
	if g.cvm.trace != nil {
		g.cvm.trace.Record(sim.EvGrant, "map: %d extent(s) granted (gen %d, writable=%v)", len(bufs), gen, writable)
	}
	return refs
}

// Resolve returns the pinned host bytes behind a ref, from the guest
// side of a redirected call. A ref from an earlier boot generation fails
// with EHOSTDOWN — the container it was granted to no longer exists and
// the host may have reused the pages — and an unknown current-generation
// id fails with ENXIO (revoked while the call was in flight).
func (g *GrantTable) Resolve(ref GrantRef) ([]byte, error) {
	cur := g.cvm.Generation()
	g.mu.Lock()
	defer g.mu.Unlock()
	if int(ref.Gen) < cur {
		g.stats.StaleRejected++
		if g.cvm.trace != nil {
			g.cvm.trace.Record(sim.EvGrant, "stale: grant %d from boot generation %d rejected (current %d)", ref.ID, ref.Gen, cur)
		}
		return nil, fmt.Errorf("grant %d from boot generation %d (current %d): %w", ref.ID, ref.Gen, cur, abi.EHOSTDOWN)
	}
	e, ok := g.slots[ref.ID]
	if !ok || e.gen != int(ref.Gen) {
		return nil, fmt.Errorf("grant %d not mapped: %w", ref.ID, abi.ENXIO)
	}
	return e.buf, nil
}

// RevokeBatch unmaps a batch of grants: one GrantUnmapTLBShootdown
// covers the whole list (a single IPI broadcast flushes every extent).
// Unknown ids are ignored — a restart's RevokeAll may have raced ahead.
// The shootdown is charged to lane l, like GrantBatch.
func (g *GrantTable) RevokeBatch(l *sim.Lane, refs []GrantRef) {
	g.cvm.clock.Charge(l, g.cvm.model.GrantUnmapTLBShootdown)
	g.mu.Lock()
	g.stats.Revokes++
	for _, ref := range refs {
		if e, ok := g.slots[ref.ID]; ok && e.gen == int(ref.Gen) {
			delete(g.slots, ref.ID)
		}
	}
	g.stats.Active = len(g.slots)
	g.mu.Unlock()
	if g.cvm.trace != nil {
		g.cvm.trace.Record(sim.EvGrant, "revoke: %d extent(s), TLB shootdown broadcast", len(refs))
	}
}

// RevokeAll drops every grant, returning how many were live. Called on
// CVM restart: the guest address space holding the mappings is gone, so
// a single shootdown (flush-all) closes the old generation. Refs still
// in flight fail EHOSTDOWN at Resolve via their generation tag.
func (g *GrantTable) RevokeAll() int {
	g.cvm.clock.Advance(g.cvm.model.GrantUnmapTLBShootdown)
	g.mu.Lock()
	n := len(g.slots)
	if n > 0 {
		clear(g.slots)
	}
	g.stats.Revokes++
	g.stats.RevokedByRestart += n
	g.stats.Active = 0
	g.mu.Unlock()
	if g.cvm.trace != nil {
		g.cvm.trace.Record(sim.EvGrant, "revoke-all: %d live grant(s) swept (boot generation %d)", n, g.cvm.Generation())
	}
	return n
}

// ReconcileRestore is the grant half of restoring a CVM from a snapshot
// taken at takenAt. Entries issued at or before the checkpoint survive:
// their guest-side PTEs are part of the restored image, so tearing them
// down would leave the restored guest holding dangling mappings. They keep
// their ORIGINAL generation tag — the owning call's deferred RevokeBatch
// matches refs by (id, gen) and must still retire them, while any stale
// in-flight Resolve from before the restore still fails EHOSTDOWN against
// the bumped generation. Entries issued after the checkpoint have no PTEs
// in the restored image and are swept like a restart would. One TLB
// shootdown covers the sweep. Returns (kept, swept).
func (g *GrantTable) ReconcileRestore(takenAt time.Duration) (kept, swept int) {
	g.cvm.clock.Advance(g.cvm.model.GrantUnmapTLBShootdown)
	g.mu.Lock()
	for id, e := range g.slots {
		if e.issuedAt <= takenAt {
			kept++
			continue
		}
		delete(g.slots, id)
		swept++
	}
	g.stats.Revokes++
	g.stats.RevokedByRestart += swept
	g.stats.KeptByRestore += kept
	g.stats.Active = len(g.slots)
	g.mu.Unlock()
	if g.cvm.trace != nil {
		g.cvm.trace.Record(sim.EvGrant, "restore-reconcile: %d grant(s) kept (pre-checkpoint), %d swept", kept, swept)
	}
	return kept, swept
}

// Active reports the number of live entries.
func (g *GrantTable) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.slots)
}

// Stats snapshots the counters.
func (g *GrantTable) Stats() GrantStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
