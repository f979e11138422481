package serve

// Wave splitting lets a hot shard — one whose station hash distribution
// concentrates traffic — spread the scoring half of an oversized wave over
// the cores its idle siblings leave free, without ever migrating a ring:
//
//   - Only the pure inference pass moves. The owner shard performs every
//     ring Push, every mitigation AmendLast and every verdict delivery
//     itself, so ring ownership, per-station verdict order and index
//     contiguity are untouched by splitting.
//   - The split is a plain fork-join: the owner forks one goroutine per
//     extra chunk, scores the first chunk itself and waits for the forks
//     before it touches any ring. The window slices a fork scores alias
//     the owner's rings, and the join keeps them stable for its whole
//     pass. Go's scheduler moves the forks onto idle Ps.
//   - A wave forks only as many chunks as siblings are parked, so a busy
//     service never oversubscribes its Ps.
//
// The kernels are row-invariant, so a window scores the same bits in any
// chunk of any wave (TestWaveSplitParity).

// minChunk is the fewest windows a forked chunk holds: a wave splits
// only at 2×minChunk ready windows or more.
const minChunk = 8

// maxOffers bounds how many chunks one wave forks.
const maxOffers = 4

// scoreWave scores sh.windows into scores and recons, split over the
// shard's parked siblings when the wave is large enough.
func (sh *shard) scoreWave(state *modelState, scores, recons []float64) error {
	n := len(sh.windows)
	parts := 1
	for _, other := range sh.svc.shards {
		if parts > maxOffers || (parts+1)*minChunk > n {
			break
		}
		if other != sh && other.q.parked.Load() {
			parts++
		}
	}
	if parts == 1 {
		return sh.batch.ScoreLastInto(scores, recons, sh.windows)
	}
	per := (n + parts - 1) / parts
	forks := 0
	for lo := per; lo < n; lo += per {
		hi := min(lo+per, n)
		if sh.helpers[forks] == nil {
			sh.helpers[forks] = state.det.NewBatchScorer()
		}
		sh.forks.Add(1)
		go func(k int) {
			sh.forkErr[k] = sh.helpers[k].ScoreLastInto(scores[lo:hi], recons[lo:hi], sh.windows[lo:hi])
			sh.forks.Done()
		}(forks)
		forks++
	}
	sh.stealOffered.Add(uint64(forks))
	err := sh.batch.ScoreLastInto(scores[:per], recons[:per], sh.windows[:per])
	sh.forks.Wait()
	for _, ferr := range sh.forkErr[:forks] {
		if err == nil {
			err = ferr
		}
	}
	return err
}
