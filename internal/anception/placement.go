package anception

import "time"

// Placement scheduler for the CVM fleet (DESIGN.md §16): decides which
// shard an app enrolls on. Placement consumes the shard's observable
// load signals: the layer's instantaneous inflight count, the async
// ring's queue depth, and the app population. A new app goes to the
// least-loaded shard.

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

// pickShard chooses the shard for a new app: the one whose load scores
// lowest, the first of equals.
func (f *Fleet) pickShard() *Shard {
	best := f.shards[0]
	bestScore := loadOf(best).Score
	for _, sh := range f.shards[1:] {
		if s := loadOf(sh).Score; s < bestScore {
			best, bestScore = sh, s
		}
	}
	return best
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
