package anception

import (
	"sync"
	"sync/atomic"
)

// This file is the dispatch plane (DESIGN.md §15): the counters of the
// fixed dispatch rules and the generation-keyed epoch/drain protocol
// that replaced the five ad-hoc supervisor restart hooks.
//
// The rules are static: a mounted ring serves every forwarded call, a
// bulk payload rides a grant when it is at least GrantThreshold
// (useGrant), and an enabled redirection cache serves. Options.AutoTune
// is only a preset that boot expands into the knobs these rules read;
// Options{} is the paper's synchronous, uncached data plane.

// PolicyStats counts dispatch decisions, surfaced via
// LayerStats.Policy.
type PolicyStats struct {
	// RingChosen counts forwarded calls sent over a mounted ring.
	RingChosen int64
	// SyncChosen is always 0: a device mounts one data channel, so no
	// call chooses between them. The field stays so existing readers
	// of LayerStats keep working.
	SyncChosen int64
	// GrantChosen / CopyChosen count payload-strategy decisions for
	// grant-shaped bulk calls.
	GrantChosen int64
	CopyChosen  int64
	// CacheServed counts descriptor calls the redirection cache served.
	CacheServed int64
	// Explorations is always 0: the rules are fixed, so no decision
	// ever deliberately takes a losing arm. The field stays so existing
	// readers of LayerStats keep working.
	Explorations int64
}

// EpochStats describes the epoch/drain protocol state, surfaced via
// LayerStats.Epoch.
type EpochStats struct {
	// Advances counts AdvanceEpoch calls since boot.
	Advances int
	// Generation is the boot generation of the last advance.
	Generation int
	// Order is the pinned participant drain order.
	Order []string
}

// dispatchPolicy holds the decision counters. They are atomic:
// decisions happen on the lock-free hot path.
type dispatchPolicy struct {
	ringChosen  atomic.Int64
	grantChosen atomic.Int64
	copyChosen  atomic.Int64
	cacheServed atomic.Int64
}

// useGrant decides the payload strategy for a grant-shaped bulk call:
// a grant exactly when the payload is at least the threshold, copy
// otherwise.
func (p *dispatchPolicy) useGrant(size, threshold int) bool {
	if size >= threshold {
		p.grantChosen.Add(1)
		return true
	}
	p.copyChosen.Add(1)
	return false
}

// snapshot copies the decision counters for LayerStats.
func (p *dispatchPolicy) snapshot() PolicyStats {
	return PolicyStats{
		RingChosen:  p.ringChosen.Load(),
		GrantChosen: p.grantChosen.Load(),
		CopyChosen:  p.copyChosen.Load(),
		CacheServed: p.cacheServed.Load(),
	}
}

// epochParticipant is one fast path enrolled in the epoch/drain
// protocol: a name (for the pinned order) and the generation-keyed
// advance that drains/fails/reconciles its warm state.
type epochParticipant struct {
	name    string
	advance func(gen int)
}

// layerEpoch tracks epoch advances. The participant list is fixed at
// boot; only the counters need the lock.
type layerEpoch struct {
	participants []epochParticipant

	mu       sync.Mutex
	advances int
	gen      int
}

// AdvanceEpoch rolls every fast path's warm state to the new boot
// generation in one pinned pass. This is the single drain entry point
// that replaced the five per-path supervisor restart hooks; the order
// is a contract, asserted by tests:
//
//  1. grants — first, so every stale page-flipping ref fails fast
//     before any other drain step can complete work that would resolve
//     a grant against host pages the app may already be reusing.
//  2. ring — second: with grants gone, re-arming the ring makes
//     in-flight slots fail EHOSTDOWN cleanly; re-arming before the
//     grant sweep would let a slot complete against a grant that is
//     about to be revoked underneath it.
//  3. sockets — third: socket ops ride ring slots like file I/O, so
//     the network fast path rolls only after the ring is keyed to the
//     new generation; rolling it also re-keys the fresh guest stack so
//     surviving sockets re-run the current ConnectPolicy, which must
//     happen before any later participant could forward a socket op.
//  4. binder — fourth: binder sessions pipeline transactions through
//     ring slots, so sessions are dropped only after the ring is keyed
//     to the new generation — a drained session can then never re-pin
//     its handle against the old boot.
//  5. cache — last: the cache's fetch and flush paths forward through
//     the ring, grant, and binder paths above; invalidating after all
//     of them guarantees nothing can re-populate the cache from a
//     pre-drain code path, so no stale page survives the sweep.
//
// The snapshot-restore path deliberately does NOT advance the epoch:
// RestoreGuest reconciles warm state generation-aware (entries
// provably unchanged since the checkpoint survive), and these
// wholesale sweeps would destroy exactly the state the restore path
// exists to preserve.
func (l *Layer) AdvanceEpoch(gen int) {
	for _, p := range l.epoch.participants {
		p.advance(gen)
	}
	l.epoch.mu.Lock()
	l.epoch.advances++
	l.epoch.gen = gen
	l.epoch.mu.Unlock()
}

// epochStats snapshots the epoch protocol state.
func (l *Layer) epochStats() EpochStats {
	order := make([]string, len(l.epoch.participants))
	for i, p := range l.epoch.participants {
		order[i] = p.name
	}
	l.epoch.mu.Lock()
	defer l.epoch.mu.Unlock()
	return EpochStats{Advances: l.epoch.advances, Generation: l.epoch.gen, Order: order}
}
