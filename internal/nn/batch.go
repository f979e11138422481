package nn

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
)

// Batched execution path.
//
// A BatchSeq holds B same-length sequences in timestep-major layout: at
// every timestep the whole batch is one B×D matrix, so a layer's
// per-timestep work becomes a single B×in → B×out GEMM instead of B
// matrix-vector products. The weight panel loaded for the timestep is
// reused across every sample in the batch while it is cache-resident,
// which is where the batched path's throughput comes from (see
// internal/mat's GEMM kernels and DESIGN.md §7).
//
// Contracts:
//
//   - Shapes: all B sequences share one length T and feature width D.
//     Ragged sample sets are handled above this layer by bucketing
//     same-length samples into separate batches (PredictBatchWS does this
//     transparently; the trainer batches maximal same-shape runs).
//   - Aliasing: Steps matrices of a layer's input batch must not be
//     mutated by the layer (mirroring the per-sample contract). Outputs
//     may share backing matrices with the layer's cache (and, for
//     RepeatVector, all T output steps alias one matrix), so callers must
//     copy out anything they need past the owning workspace's next Reset.
//   - Numerics: the batched path computes the same quantities as the
//     per-sample path but associates floating-point sums differently (and
//     may use fused multiply-adds), so outputs agree to ~1e-12 relative
//     accuracy rather than bit-for-bit. Each path is individually
//     deterministic for a binary/machine pair.
//   - Batch invariance: a forward pass computes every sample's row with
//     kernels whose association does not depend on the batch height or
//     the row's position (mat's row-invariant GEMMs, row-wise panel
//     activations), so in inference a sample's outputs are bit-identical
//     whichever batch it is predicted in.
//   - Stochastic layers draw per-sample randomness from
//     Context.BatchRNGs[b], never from Context.RNG, so a sample's dropout
//     mask depends only on its own sub-stream position — identical to a
//     sequential pass consuming the same sub-streams.
type BatchSeq struct {
	// B and D are the batch size and per-timestep feature width.
	B, D int
	// Steps holds one B×D matrix per timestep. Steps[t].Row(b) is sample
	// b's feature vector at timestep t.
	Steps []*mat.Matrix
}

// T returns the number of timesteps.
func (s *BatchSeq) T() int { return len(s.Steps) }

// Sample returns a view of sample b as a Seq whose rows alias the batch
// matrices (valid while the backing workspace buffers are).
func (s *BatchSeq) Sample(b int) Seq {
	out := make(Seq, len(s.Steps))
	for t, m := range s.Steps {
		out[t] = m.Row(b)
	}
	return out
}

// BatchLayer is implemented by layers that can process a whole batch per
// timestep. Every layer in this package implements it; the interface is
// separate from Layer so external code can still satisfy Layer alone (at
// the cost of the batched path rejecting the model).
type BatchLayer interface {
	// ForwardBatch is Forward over a batch: it returns the output batch
	// and an opaque cache consumed by BackwardBatch. x must not be
	// mutated.
	ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any)
	// BackwardBatch consumes the upstream gradient batch (same shape as
	// the ForwardBatch output), accumulates parameter gradients — summed
	// over the batch — into grads, and returns the input gradient batch.
	BackwardBatch(cache any, dOut *BatchSeq, grads []*mat.Matrix) *BatchSeq
}

// wsBatchRaw returns a [T]×(B×D) batch with unspecified step contents.
func wsBatchRaw(ws *Workspace, t, b, d int) *BatchSeq {
	bs := wsBatchSeqStruct(ws)
	bs.B, bs.D = b, d
	bs.Steps = wsMatList(ws, t)
	for i := range bs.Steps {
		bs.Steps[i] = wsMatRaw(ws, b, d)
	}
	return bs
}

// wsBatchView wraps existing step matrices in a BatchSeq header.
func wsBatchView(ws *Workspace, b, d int, steps []*mat.Matrix) *BatchSeq {
	bs := wsBatchSeqStruct(ws)
	bs.B, bs.D = b, d
	bs.Steps = steps
	return bs
}

func wsBatchSeqStruct(ws *Workspace) *BatchSeq {
	if ws == nil {
		return &BatchSeq{}
	}
	return ws.batchSeqs.get()
}

// packSeqBatch copies the picked samples of seqs into a timestep-major
// batch drawn from ws: seqs[idx[0]], seqs[idx[1]], ... — or, with a nil
// idx, all of seqs in order. All picked samples must share one length
// and feature width (the callers bucket by shape first); a mismatched
// sample panics exactly like the per-sample path's shape check.
func packSeqBatch(ws *Workspace, seqs []Seq, idx []int) *BatchSeq {
	n := len(idx)
	if idx == nil {
		n = len(seqs)
	}
	pick := func(b int) int {
		if idx == nil {
			return b
		}
		return idx[b]
	}
	first := seqs[pick(0)]
	t, d := len(first), len(first[0])
	bs := wsBatchRaw(ws, t, n, d)
	for b := 0; b < n; b++ {
		i := pick(b)
		s := seqs[i]
		if len(s) != t {
			panic(fmt.Sprintf("nn: ragged batch: sample %d has %d timesteps, batch has %d", i, len(s), t))
		}
		for tt := 0; tt < t; tt++ {
			if len(s[tt]) != d {
				panic(fmt.Sprintf("nn: batch feature mismatch: sample %d has %d features at timestep %d, batch has %d",
					i, len(s[tt]), tt, d))
			}
			copy(bs.Steps[tt].Row(b), s[tt])
		}
	}
	return bs
}

// ForwardBatch runs a training-mode forward pass over a batch, returning
// the output batch and the per-layer caches BackwardBatch needs. Every
// layer of the model must implement BatchLayer.
func (m *Model) ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, []any) {
	caches := wsAnys(ctx.WS, len(m.layers))
	out := x
	for i, l := range m.layers {
		bl, ok := l.(BatchLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s does not implement the batched path", l.Name()))
		}
		out, caches[i] = bl.ForwardBatch(out, ctx)
	}
	return out, caches
}

// BackwardBatch propagates the batch gradient dOut through the stack,
// accumulating parameter gradients (summed over the batch) into gs.
func (m *Model) BackwardBatch(caches []any, dOut *BatchSeq, gs *GradSet) {
	d := dOut
	for i := len(m.layers) - 1; i >= 0; i-- {
		d = m.layers[i].(BatchLayer).BackwardBatch(caches[i], d, gs.ByLayer[i])
	}
}

// PredictBatchWS runs batched inference over xs, drawing every
// intermediate from ws (which is Reset on entry — all previously returned
// buffers are invalidated). The returned per-sample sequences are views
// into workspace-backed batch matrices: they stay valid only until the
// next call that uses the same workspace, and must not be mutated.
//
// Same-length samples are processed as single GEMM batches; a ragged xs
// is bucketed by sequence length (each bucket one batched pass, results
// scattered back in input order). The uniform-length path is
// allocation-free in steady state; bucketing a ragged input allocates the
// bucket index lists.
func (m *Model) PredictBatchWS(xs []Seq, ws *Workspace) []Seq {
	if len(xs) == 0 {
		return nil
	}
	ws.Reset()
	ctx := &ws.predictCtx
	ctx.Train = false
	ctx.RNG = nil
	ctx.BatchRNGs = nil
	ctx.WS = ws
	out := ws.seqList(len(xs))

	uniform := true
	for _, x := range xs[1:] {
		if len(x) != len(xs[0]) {
			uniform = false
			break
		}
	}
	if uniform {
		m.predictRange(xs, out, ctx, ws)
		return out
	}
	// Ragged: bucket sample indices by length, preserving input order
	// within each bucket.
	buckets := make(map[int][]int)
	var order []int
	for i, x := range xs {
		if _, seen := buckets[len(x)]; !seen {
			order = append(order, len(x))
		}
		buckets[len(x)] = append(buckets[len(x)], i)
	}
	for _, t := range order {
		idx := buckets[t]
		xb := packSeqBatch(ws, xs, idx)
		yb, _ := m.ForwardBatch(xb, ctx)
		for b, i := range idx {
			out[i] = sampleView(ws, yb, b)
		}
	}
	return out
}

// PredictBatch is the inference sub-batch size shared by every chunked
// batched-prediction consumer (validation, window scoring, evaluation):
// the paper's minibatch size, large enough to amortize each weight-panel
// load across the batch, small enough to stay cache-resident.
const PredictBatch = 32

// PredictChunked runs batched inference over xs in PredictBatch-sized
// chunks through ws, invoking visit(i, out) once per sample in input
// order. out aliases workspace buffers and is valid only until the next
// chunk is predicted — consume it inside the callback.
func (m *Model) PredictChunked(xs []Seq, ws *Workspace, visit func(i int, out Seq)) {
	for lo := 0; lo < len(xs); lo += PredictBatch {
		hi := lo + PredictBatch
		if hi > len(xs) {
			hi = len(xs)
		}
		for k, out := range m.PredictBatchWS(xs[lo:hi], ws) {
			visit(lo+k, out)
		}
	}
}

// predictRange batches the uniform-length xs in one pass and writes the
// per-sample views into out.
func (m *Model) predictRange(xs []Seq, out []Seq, ctx *Context, ws *Workspace) {
	xb := packSeqBatch(ws, xs, nil)
	yb, _ := m.ForwardBatch(xb, ctx)
	for b := range xs {
		out[b] = sampleView(ws, yb, b)
	}
}

// sampleView builds a workspace-backed Seq view of batch sample b.
func sampleView(ws *Workspace, bs *BatchSeq, b int) Seq {
	s := wsHeads(ws, bs.T())
	for t, m := range bs.Steps {
		s[t] = m.Row(b)
	}
	return s
}

// checkBatch validates the batch's feature width against a layer's input
// dimension.
func checkBatch(x *BatchSeq, d int, layer Layer) {
	if x.D != d {
		panic(fmt.Sprintf("nn: %s expected feature dim %d, got batch width %d",
			layer.Name(), d, x.D))
	}
	for t, m := range x.Steps {
		if m.Rows != x.B || m.Cols != x.D {
			panic(fmt.Sprintf("nn: %s got %dx%d step at t=%d for a %dx%d batch",
				layer.Name(), m.Rows, m.Cols, t, x.B, x.D))
		}
	}
}
