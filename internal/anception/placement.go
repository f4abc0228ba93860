package anception

import (
	"hash/fnv"
	"time"
)

// Placement scheduler for the CVM fleet (DESIGN.md §16): decides which
// shard an app enrolls on, and which apps move when a shard overloads.
// Placement consumes the shard's observable load signals: the layer's
// instantaneous inflight count, the async ring's queue depth, and the
// app population.

// PlacementPolicy selects the fleet's app-to-shard assignment strategy.
type PlacementPolicy string

const (
	// PlaceLeastLoaded (the default) scores every shard's load signals
	// at install time and picks the minimum.
	PlaceLeastLoaded PlacementPolicy = "least-loaded"
	// PlaceHashed assigns by package-name hash: stateless, stable across
	// restarts, no load feedback — the classic hashed-pool shape.
	PlaceHashed PlacementPolicy = "hashed"
	// PlaceByUser keys placement on the app's Android user
	// (internal/android/multiuser): all of one user's apps share a
	// shard, so mutually-trusting apps co-locate and distinct users are
	// hardware-isolated from each other's compromised shards.
	PlaceByUser PlacementPolicy = "per-user"
)

// valid reports whether p names a known policy.
func (p PlacementPolicy) valid() bool {
	switch p {
	case PlaceLeastLoaded, PlaceHashed, PlaceByUser:
		return true
	}
	return false
}

// ShardLoad is one shard's placement-visible load snapshot.
type ShardLoad struct {
	Shard int
	Label string
	// Apps is the resident app population.
	Apps int
	// Inflight is the layer's instantaneous guest-call count.
	Inflight int64
	// RingQueued is submitted-but-unresolved async ring slots.
	RingQueued int
	// Score is the composite the scheduler minimizes, in queued calls:
	// Inflight + RingQueued + Apps.
	Score float64
	// Elapsed is the shard's own sim clock — shards are independent
	// service domains, so this is per-shard, not fleet-wide.
	Elapsed time.Duration
}

// loadOf snapshots one shard's placement signals.
func loadOf(sh *Shard) ShardLoad {
	st := sh.Dev.Layer.Stats()
	l := ShardLoad{
		Shard:    sh.ID,
		Label:    sh.Dev.Label(),
		Apps:     sh.appCount(),
		Inflight: sh.Dev.Layer.Inflight(),
		Elapsed:  sh.Dev.Clock.Now(),
	}
	if q := st.Ring.Submitted - st.Ring.Completed - st.Ring.Failed; q > 0 {
		l.RingQueued = q
	}
	l.Score = float64(l.Inflight) + float64(l.RingQueued) + float64(l.Apps)
	return l
}

// pickShard chooses the shard for a new app under the fleet's policy.
func (f *Fleet) pickShard(pkg string, userID int) *Shard {
	switch f.policy {
	case PlaceHashed:
		h := fnv.New32a()
		h.Write([]byte(pkg))
		return f.shards[int(h.Sum32())%len(f.shards)]
	case PlaceByUser:
		if userID < 0 {
			userID = 0
		}
		return f.shards[userID%len(f.shards)]
	default: // PlaceLeastLoaded
		best := f.shards[0]
		bestScore := loadOf(best).Score
		for _, sh := range f.shards[1:] {
			if s := loadOf(sh).Score; s < bestScore {
				best, bestScore = sh, s
			}
		}
		return best
	}
}

// Loads snapshots every shard's placement signals, in shard order.
func (f *Fleet) Loads() []ShardLoad {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ShardLoad, 0, len(f.shards))
	for _, sh := range f.shards {
		out = append(out, loadOf(sh))
	}
	return out
}

// imbalance returns the most and least loaded shards by score.
func (f *Fleet) imbalance() (hot, cold *Shard, hotScore, coldScore float64) {
	hot, cold = f.shards[0], f.shards[0]
	hotScore = loadOf(hot).Score
	coldScore = hotScore
	for _, sh := range f.shards[1:] {
		s := loadOf(sh).Score
		if s > hotScore {
			hot, hotScore = sh, s
		}
		if s < coldScore {
			cold, coldScore = sh, s
		}
	}
	return hot, cold, hotScore, coldScore
}
