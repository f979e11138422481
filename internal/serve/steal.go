package serve

import "sync/atomic"

// Wave rebalancing ("work stealing") lets a hot shard — one whose station
// hash distribution concentrates traffic — hand the scoring half of an
// oversized wave to idle shards without ever migrating a ring:
//
//   - Only the pure inference pass moves. The owner shard performs every
//     ring Push, every mitigation AmendLast and every verdict delivery
//     itself, so ring ownership, per-station verdict order and index
//     contiguity are untouched by rebalancing.
//   - The window slices handed to a helper alias the owner's rings, but
//     the owner blocks at the wave barrier until every chunk completes
//     before it pushes anything else, so the aliases are stable for the
//     helper's whole pass (the same invariant the wave scorer itself
//     relies on).
//   - A chunk is offered through a single-slot atomic mailbox per shard.
//     If no helper takes it by the time the owner has scored its own
//     share, the owner CAS-reclaims the mailbox and scores the chunk
//     locally — stealing is an opportunistic accelerator, never a
//     liveness dependency, and a reclaimed chunk can be reused because
//     the mailbox swap is the only handoff point.
//
// Helpers look for offers only when their own queue is empty (idle shards
// by construction), either in the pre-park scan or when woken through the
// service-wide stealWake channel.

// maxOffers bounds how many chunks one wave may offer (so one hot shard
// engages at most maxOffers helpers at a time).
const maxOffers = 4

// stealChunk is one offered slice of a wave's scoring work. windows,
// scores and recons are disjoint sub-slices of the owner's wave arrays.
type stealChunk struct {
	state    *modelState
	windows  [][]float64
	scores   []float64
	recons   []float64
	byHelper bool  // set by the helper before signalling done
	err      error // scoring failure, merged into the wave's error
	done     chan struct{}
}

// runChunk scores a stolen chunk on the helper's steal scorer, which is
// rebuilt whenever the chunk's model epoch differs from the last one this
// helper scored for (a helper keeps a separate steal scorer so stealing
// never thrashes the scratch of its own serving path).
func (sh *shard) runChunk(c *stealChunk) {
	if sh.stealEpoch != c.state.epoch {
		sh.stealBatch = c.state.det.NewBatchScorer()
		sh.stealEpoch = c.state.epoch
	}
	c.err = sh.stealBatch.ScoreLastInto(c.scores, c.recons, c.windows)
	c.byHelper = true
	c.done <- struct{}{}
}

// tryStealOnce scans the other shards' offer mailboxes and runs at most
// one chunk. It reports whether it found work.
func (sh *shard) tryStealOnce() bool {
	shards := sh.svc.shards
	for i := range shards {
		other := shards[i]
		if other == sh {
			continue
		}
		for j := range other.offers {
			if c := other.offers[j].Swap(nil); c != nil {
				sh.stealRuns.Add(1)
				sh.runChunk(c)
				return true
			}
		}
	}
	return false
}

// scoreWindowsStealing is the owner-side wave scorer with rebalancing: it
// splits the wave's ready windows into up to 1+maxOffers chunks, offers
// all but the first through its mailboxes, scores its own chunk, then
// reclaims whatever no helper took and joins the rest. Falls back to the
// plain path for small waves (the caller gates on 2×BatchThreshold).
func (sh *shard) scoreWindowsStealing(state *modelState, scores, recons []float64) error {
	n := len(sh.windows)
	parts := n / sh.svc.cfg.BatchThreshold // every chunk holds at least BatchThreshold windows
	if max := len(sh.svc.shards); parts > max {
		parts = max
	}
	if parts > maxOffers+1 {
		parts = maxOffers + 1
	}
	if parts < 2 {
		return sh.batch.ScoreLastInto(scores, recons, sh.windows)
	}
	per := (n + parts - 1) / parts
	offered := 0
	for i := 1; i < parts; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		c := sh.chunks[i-1]
		c.state = state
		c.windows = sh.windows[lo:hi]
		c.scores = scores[lo:hi]
		c.recons = recons[lo:hi]
		c.byHelper = false
		c.err = nil
		sh.offers[i-1].Store(c)
		offered++
	}
	sh.stealOffered.Add(uint64(offered))
	for i := 0; i < offered; i++ {
		select {
		case sh.svc.stealWake <- struct{}{}:
		default:
		}
	}
	own := per
	if own > n {
		own = n
	}
	err := sh.batch.ScoreLastInto(scores[:own], recons[:own], sh.windows[:own])
	for i := 0; i < offered; i++ {
		c := sh.chunks[i]
		if sh.offers[i].CompareAndSwap(c, nil) {
			// Nobody took it: score locally on the owner's scorer.
			if cerr := sh.batch.ScoreLastInto(c.scores, c.recons, c.windows); cerr != nil && err == nil {
				err = cerr
			}
			continue
		}
		// A helper holds it: wait for completion (helpers never block, so
		// this join is bounded by one chunk's inference time).
		<-c.done
		sh.stealStolen.Add(1)
		if c.err != nil && err == nil {
			err = c.err
		}
	}
	return err
}

// stealEnabled reports whether this service rebalances waves at all.
func (s *Service) stealEnabled() bool {
	return !s.cfg.DisableSteal && len(s.shards) > 1
}

// offerBox is the per-shard mailbox array type (kept tiny: a chunk is
// posted and either taken or reclaimed within one wave).
type offerBox = atomic.Pointer[stealChunk]
