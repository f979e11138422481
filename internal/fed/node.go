package fed

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// ErrNonFiniteUpdate marks a client update or an edge's partial aggregate
// carrying NaN or Inf weights — diverged local training or bytes
// corrupted in flight. The payload is rejected before aggregation (a
// single non-finite weight would poison the global irreversibly) and
// treated as that peer's round error; a rejected partial drops the edge's
// whole subtree.
var ErrNonFiniteUpdate = errors.New("fed: non-finite client update")

// node is the role-agnostic aggregation engine shared by the root
// Coordinator and the regional Edge: one round of broadcast → local train
// → streaming fold over a pool of downstream peers, under a concurrency
// bound, a round deadline, deterministic failure injection, and the
// delta-reference bookkeeping of the wire codec. The node does not care
// whether a peer is a leaf station (Train → Update) or another
// aggregation node (TrainPartial → Partial) — it dispatches per peer, so
// tiers compose freely.
//
// What the node deliberately does not own: the global model, the round
// loop, client sampling, and what happens to the fold (Finish into a new
// global at the root, ExportPartial upward at an edge). Those stay with
// the role built on top.
type node struct {
	clients []ClientHandle
	cfg     nodeConfig

	// sentFull[i]: peer i completed a training call, so (in the wire
	// model) its connection holds a delta reference for the next
	// broadcast. Persists across rounds, like the connections it mirrors.
	sentFull []bool
	// resolved is per-round scratch, touched only by the node's own
	// goroutine — safe to reuse.
	resolved []bool
}

// nodeConfig is the subset of round-engine knobs a node needs; both
// Config (root) and EdgeConfig (edge tier) lower into it.
type nodeConfig struct {
	Parallel             bool
	MaxConcurrentClients int
	RoundDeadline        time.Duration
	TolerateClientErrors bool
	Codec                Codec
	Failures             *FailurePlan
}

func newNode(clients []ClientHandle, cfg nodeConfig) *node {
	n := len(clients)
	return &node{
		clients:  clients,
		cfg:      cfg,
		sentFull: make([]bool, n),
		resolved: make([]bool, n),
	}
}

// roundReport is one runRound's outcome: everything the role on top needs
// to build a RoundStat (root) or a Partial (edge).
type roundReport struct {
	// Participants and Dropped list direct downstream peer IDs; Errs maps
	// a dropped peer to the tolerated error that dropped it.
	Participants []string
	Dropped      []string
	Errs         map[string]string
	// LeafParticipants and LeafDropped count leaf stations across the
	// whole subtree: a direct station counts once, an edge peer
	// contributes its own subtree's counts. A peer that drops before
	// reporting, or whose partial is rejected, counts once regardless of
	// its subtree size (the node cannot see behind a dead edge, and does
	// not trust a poisoned partial's counts).
	LeafParticipants int
	LeafDropped      int
	// LossSum is the sample-weighted final-loss sum and SampleSum the
	// participant sample total, spanning the subtree.
	LossSum   float64
	SampleSum int
	// ClientSeconds sums client-reported local training time.
	ClientSeconds float64
	// BytesDown and BytesUp are this node's own modeled downstream round
	// traffic; SubDown and SubUp total the traffic reported by downstream
	// aggregation nodes for their subtrees.
	BytesDown, BytesUp uint64
	SubDown, SubUp     uint64
	// AbandonedAny reports that a selected peer was abandoned at the
	// round deadline: the round's broadcast buffer must not be recycled
	// (the straggler goroutine may read it arbitrarily late).
	AbandonedAny bool
}

// runRound executes one round over the selected peers: broadcast global,
// train each under the concurrency bound and deadline, and fold the
// responses into stream in client-index order. Failure-injection
// decisions are drawn from failRNG up front for every peer in client
// order, so they are deterministic regardless of scheduling. The caller
// owns stream.Begin-before / Finish-or-Export-after; global must remain
// stable until a future round whose report had AbandonedAny == false.
func (nd *node) runRound(round int, selected []int, global []float64, ltc LocalTrainConfig,
	stream StreamAggregator, failRNG *rng.Source, roundStart time.Time) (*roundReport, error) {

	n := len(nd.clients)
	dim := len(global)
	rep := &roundReport{}

	// The slices the training goroutines touch are allocated per round:
	// an abandoned straggler from an earlier round may still be
	// reading/writing its round's slots, so they must never be recycled.
	for i := 0; i < n; i++ {
		nd.resolved[i] = false
	}
	updates := make([]*Update, n)
	partials := make([]*Partial, n)
	// nonFinite[i] is the non-finite guard's verdict on updates[i] or
	// partials[i], reached by the worker that received the payload so the
	// serial fold below only folds.
	nonFinite := make([]error, n)
	errs := make([]error, n)
	dropped := make([]bool, n)
	delayed := make([]bool, n)
	if f := nd.cfg.Failures; f != nil {
		for i := range nd.clients {
			dropped[i] = failRNG.Bernoulli(f.DropoutProb)
			delayed[i] = failRNG.Bernoulli(f.StragglerProb)
		}
	}

	// Stragglers abandoned at the round deadline keep running into later
	// rounds; they must read this round's broadcast snapshot, not the
	// caller's live global variable.
	roundGlobal := global
	trainOne := func(i int) {
		if dropped[i] {
			return
		}
		if delayed[i] && nd.cfg.Failures != nil {
			time.Sleep(nd.cfg.Failures.StragglerDelay)
		}
		if pt, ok := nd.clients[i].(PartialTrainer); ok {
			p, err := pt.TrainPartial(roundGlobal, ltc)
			if err != nil {
				errs[i] = err
				return
			}
			partials[i] = &p
			nonFinite[i] = partialNonFinite(&p)
			return
		}
		u, err := nd.clients[i].Train(roundGlobal, ltc)
		if err != nil {
			errs[i] = err
			return
		}
		updates[i] = &u
		if j := mat.FirstNonFinite(u.Weights); j >= 0 {
			nonFinite[i] = fmt.Errorf("%w: weight %d", ErrNonFiniteUpdate, j)
		}
	}

	// Streaming consumption: peers are folded into the aggregator in
	// client-index order, as far as the resolution prefix reaches, every
	// time a completion lands. All consumption happens on this goroutine
	// (runSelected's event loop), so no locking is needed.
	cursor := 0
	var roundErr error
	dropWithError := func(id string, err error) {
		rep.Dropped = append(rep.Dropped, id)
		rep.LeafDropped++
		if rep.Errs == nil {
			rep.Errs = make(map[string]string)
		}
		rep.Errs[id] = err.Error()
	}
	// fail makes err peer id's round error: fatal without tolerance, a
	// recorded drop with it.
	fail := func(id string, err error) {
		if !nd.cfg.TolerateClientErrors {
			if roundErr == nil {
				roundErr = fmt.Errorf("fed: round %d: client %s: %w", round, id, err)
			}
			return
		}
		dropWithError(id, err)
	}
	consume := func(i int, abandoned bool) {
		id := nd.clients[i].ID()
		wasFull := !nd.sentFull[i]
		switch {
		case dropped[i]:
			// Injected dropout: the training call never happened, so no
			// traffic is counted.
			rep.Dropped = append(rep.Dropped, id)
			rep.LeafDropped++
			return
		case abandoned:
			rep.BytesDown += nd.downBytes(dim, wasFull)
			// The in-flight call's fate is unknown; mirror the
			// conservative transport behaviour (reference dropped, next
			// broadcast full).
			nd.sentFull[i] = false
			fail(id, ErrRoundDeadline)
		case errs[i] != nil:
			rep.BytesDown += nd.downBytes(dim, wasFull)
			if !errors.Is(errs[i], ErrRemote) {
				// A transport error resets the real connection and with it
				// the delta reference; an application error (ErrRemote)
				// leaves both intact.
				nd.sentFull[i] = false
			}
			if !nd.cfg.TolerateClientErrors {
				if roundErr == nil {
					roundErr = fmt.Errorf("fed: round %d: %w", round, errs[i])
				}
				return
			}
			dropWithError(id, errs[i])
		case partials[i] != nil:
			p := partials[i]
			rep.BytesDown += nd.downBytes(dim, wasFull)
			rep.BytesUp += uint64(wire.TrainPartialBytes(uint8(p.Kind), p.Dim, p.Count, len(p.NodeID)))
			nd.sentFull[i] = true
			partials[i] = nil
			if nonFinite[i] != nil {
				// As for a non-finite update below; the partial's subtree
				// diagnostics are untrusted too, so the edge drops as one.
				fail(id, nonFinite[i])
				return
			}
			if roundErr == nil {
				ps, ok := stream.(partialStream)
				if !ok {
					roundErr = fmt.Errorf("fed: round %d: %w: aggregator %s cannot merge partial aggregates",
						round, ErrBadConfig, stream.Name())
				} else if err := ps.AddPartial(p); err != nil {
					roundErr = fmt.Errorf("fed: round %d: %w", round, err)
				}
			}
			rep.Participants = append(rep.Participants, id)
			rep.LeafParticipants += p.LeafParticipants
			rep.LeafDropped += p.LeafDropped
			rep.LossSum += p.LossSum
			rep.SampleSum += p.SampleSum
			rep.ClientSeconds += p.ClientSeconds
			rep.SubDown += p.BytesDown
			rep.SubUp += p.BytesUp
		case updates[i] != nil:
			u := updates[i]
			rep.BytesDown += nd.downBytes(dim, wasFull)
			rep.BytesUp += nd.upBytes(dim, len(u.ClientID))
			nd.sentFull[i] = true
			updates[i] = nil // the stream holds it at most until the round ends
			if nonFinite[i] != nil {
				// The frame itself arrived intact as far as the transport is
				// concerned (traffic counted, reference committed like an
				// application error), but its payload must not reach the
				// aggregator.
				fail(id, nonFinite[i])
				return
			}
			if roundErr == nil {
				if err := stream.Add(u); err != nil {
					roundErr = fmt.Errorf("fed: round %d: %w", round, err)
				}
			}
			rep.Participants = append(rep.Participants, id)
			rep.LeafParticipants++
			rep.LossSum += u.FinalLoss * float64(u.NumSamples)
			rep.SampleSum += u.NumSamples
			rep.ClientSeconds += u.TrainSeconds
		}
	}
	onDone := func(i int) {
		// The channel receive in runSelected orders the training
		// goroutine's writes to updates/partials/nonFinite/errs before
		// this read.
		nd.resolved[i] = true
		for cursor < len(selected) && nd.resolved[selected[cursor]] {
			consume(selected[cursor], false)
			cursor++
		}
	}

	nd.runSelected(selected, trainOne, roundStart, onDone)

	// Whatever the cursor has not reached is either a straggler abandoned
	// at the deadline (unresolved; its slot is never read — the goroutine
	// may still be writing it) or a peer queued behind one.
	for ; cursor < len(selected); cursor++ {
		i := selected[cursor]
		if !nd.resolved[i] && !dropped[i] {
			rep.AbandonedAny = true
		}
		consume(i, !nd.resolved[i])
	}
	if roundErr != nil {
		return nil, roundErr
	}
	return rep, nil
}

// partialNonFinite reports the first NaN/Inf in a partial's payload — the
// weight total, both words of a folded sum, every held update — as an
// ErrNonFiniteUpdate, or nil.
func partialNonFinite(p *Partial) error {
	if w := p.WeightTotal; math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: partial weight total %v", ErrNonFiniteUpdate, w)
	}
	if j := mat.FirstNonFinite(p.AccHi); j >= 0 {
		return fmt.Errorf("%w: partial sum %d", ErrNonFiniteUpdate, j)
	}
	if j := mat.FirstNonFinite(p.AccLo); j >= 0 {
		return fmt.Errorf("%w: partial compensation %d", ErrNonFiniteUpdate, j)
	}
	for k, w := range p.Held {
		if j := mat.FirstNonFinite(w); j >= 0 {
			return fmt.Errorf("%w: held update %d weight %d", ErrNonFiniteUpdate, k, j)
		}
	}
	return nil
}

// deltaRefs snapshots the per-peer delta-reference flags by peer ID (the
// wire model's "connection holds a reference" bits) for a checkpoint.
func (nd *node) deltaRefs() map[string]bool {
	refs := make(map[string]bool, len(nd.clients))
	for i, c := range nd.clients {
		refs[c.ID()] = nd.sentFull[i]
	}
	return refs
}

// connRefHolder marks a handle whose delta reference lives in a network
// connection rather than in the handle itself. Such references die with
// the process: a resumed coordinator dials fresh connections, and the
// transport's full-frame fallback re-establishes the reference on both
// ends at once. Restoring a checkpointed flag for one would desynchronize
// the byte model from the wire — and claim a reference the remote no
// longer holds.
type connRefHolder interface{ connScopedDeltaRef() }

// restoreDeltaRefs restores checkpointed delta-reference flags for
// handles whose references survive a process restart (in-process
// clients). Connection-scoped handles keep the fresh-connection default
// (next broadcast full-frame).
func (nd *node) restoreDeltaRefs(refs map[string]bool) {
	for i, c := range nd.clients {
		if _, scoped := c.(connRefHolder); scoped {
			continue
		}
		if v, ok := refs[c.ID()]; ok {
			nd.sentFull[i] = v
		}
	}
}

// downBytes models one broadcast's wire cost under the configured codec:
// the exact Train frame size. first selects the full-precision fallback a
// delta codec pays before the peer's connection holds a reference.
func (nd *node) downBytes(dim int, first bool) uint64 {
	return uint64(wireTrainBytes(nd.cfg.Codec, dim, first))
}

// upBytes models one update's wire cost: the exact TrainOK frame size.
func (nd *node) upBytes(dim, idLen int) uint64 {
	return uint64(wireTrainOKBytes(nd.cfg.Codec, dim, idLen))
}

// runSelected trains the selected peers under the configured concurrency
// bound and round deadline, invoking onDone(i) on this goroutine for
// every peer whose trainOne call completed before the deadline. Peers
// without an onDone call by return time were abandoned at the deadline;
// their updates/errs slots must not be read.
func (nd *node) runSelected(selected []int, trainOne func(int), roundStart time.Time, onDone func(int)) {
	deadline := nd.cfg.RoundDeadline
	workers := nd.cfg.MaxConcurrentClients
	if !nd.cfg.Parallel {
		workers = 1 // sequential: one peer at a time, in selection order
	} else if workers <= 0 || workers > len(selected) {
		workers = len(selected)
	}
	// A fixed pool of workers pulls from a pre-filled, closed work channel
	// — workers goroutines total instead of one per selected peer, and
	// peers start in selection order.
	work := make(chan int, len(selected))
	for _, i := range selected {
		work <- i
	}
	close(work)
	// done is buffered so abandoned stragglers can report and exit
	// instead of leaking on a blocked send after the deadline fires.
	done := make(chan int, len(selected))
	// cancel keeps workers from starting stale Train calls after the
	// deadline has already cut the round off: a hung station pinning every
	// pool slot would otherwise cascade — the queued calls would run to
	// completion into later rounds, serialize behind the next round's call
	// to the same peer, and blow its deadline too. The re-check sits
	// between taking a work item and calling trainOne, so a worker whose
	// current call straggled past the deadline finishes that one call
	// (reporting into the buffered channel) and exits without starting
	// another.
	cancel := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range work {
				select {
				case <-cancel:
					return
				default:
				}
				trainOne(i)
				done <- i
			}
		}()
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline - time.Since(roundStart))
		defer timer.Stop()
		timeout = timer.C
	}
	for remaining := len(selected); remaining > 0; {
		select {
		case i := <-done:
			// The channel receive orders the goroutine's writes to
			// updates/partials/nonFinite/errs before the consumer's reads.
			onDone(i)
			remaining--
		case <-timeout:
			close(cancel)
			// Keep completions that raced the timer: peers already in the
			// buffered channel finished before the deadline and must not
			// be discarded (fatal under strict mode, a wrongful drop under
			// tolerance).
			for {
				select {
				case i := <-done:
					onDone(i)
				default:
					return // cut off the true stragglers
				}
			}
		}
	}
}

// preflightClients runs the Hello handshake against every client handle
// that supports it, verifying model-dimension compatibility before round
// 1. A peer whose weight vector cannot be aggregated, or that speaks an
// incompatible protocol revision, is a configuration bug and always
// fatal; an unreachable peer is fatal only without tolerance (with
// tolerance it simply drops out of rounds). A peer that is unreachable at
// preflight and later joins with an incompatible model is not
// retro-validated: its Train calls fail every round and the reason is
// recorded in the round's Errors.
func preflightClients(clients []ClientHandle, wantDim int, tolerate bool) error {
	// Handshakes run concurrently: a sequential sweep would pay each
	// unreachable peer's full dial/retry ladder back to back, turning a
	// few dead peers into minutes of startup delay.
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for idx, c := range clients {
		p, ok := c.(Prober)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(idx int, id string, p Prober) {
			defer wg.Done()
			info, err := p.Hello()
			switch {
			case isProtocolMismatch(err):
				errs[idx] = fmt.Errorf("fed: preflight %s: %w", id, err)
			case err != nil:
				if !tolerate {
					errs[idx] = fmt.Errorf("fed: preflight %s: %w", id, err)
				}
			case info.ModelDim != wantDim:
				errs[idx] = fmt.Errorf("%w: station %s has %d parameters, coordinator expects %d",
					ErrDimMismatch, info.StationID, info.ModelDim, wantDim)
			}
		}(idx, c.ID(), p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
