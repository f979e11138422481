package nn

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// checkGradients compares the analytic gradients of BackwardBatch with
// central differences of the summed per-sample loss, at B = 1 (the first
// sample alone) and at B = len(xs). Finite differences are the ground
// truth for every layer's backward pass.
func checkGradients(t *testing.T, m *Model, xs, ys []Seq, tol float64) {
	t.Helper()
	loss := MSE{}
	for _, b := range []int{1, len(xs)} {
		xb, yb := xs[:b], ys[:b]
		gs := m.NewGradSet()
		gradBatch(m, xb, yb, loss, gs)
		lossSum := func() float64 {
			var sum float64
			for i := range xb {
				sum += loss.Value(m.Predict(xb[i]), yb[i])
			}
			return sum
		}

		const eps = 1e-6
		flatG := gs.Flat()
		params := flatParams(m)
		checked := 0
		for pi, p := range params {
			for j := range p.Data {
				orig := p.Data[j]
				p.Data[j] = orig + eps
				lossPlus := lossSum()
				p.Data[j] = orig - eps
				lossMinus := lossSum()
				p.Data[j] = orig
				numGrad := (lossPlus - lossMinus) / (2 * eps)
				anaGrad := flatG[pi].Data[j]
				denom := math.Max(1, math.Abs(numGrad)+math.Abs(anaGrad))
				if math.Abs(numGrad-anaGrad)/denom > tol {
					t.Fatalf("B=%d param %d[%d]: numerical %v vs analytic %v", b, pi, j, numGrad, anaGrad)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no parameters checked")
		}
	}
}

// trainPass runs xs as one training batch through ForwardBatch, the loss
// and BackwardBatch, drawing buffers from ctx.WS (Reset first) when it is
// set. Gradients, summed over the batch, accumulate into gs; it returns
// the output batch and the summed loss.
func trainPass(m *Model, ctx *Context, xs, ys []Seq, loss Loss, gs *GradSet) (*BatchSeq, float64) {
	if ctx.WS != nil {
		ctx.WS.Reset()
	}
	out, caches := m.ForwardBatch(packSeqBatch(ctx.WS, xs, nil), ctx)
	dOut := wsBatchRaw(ctx.WS, out.T(), out.B, out.D)
	l := loss.EvalBatchInto(dOut, out, packSeqBatch(ctx.WS, ys, nil))
	m.BackwardBatch(caches, dOut, gs)
	return out, l
}

// gradBatch is trainPass without a workspace or dropout streams,
// returning the summed loss.
func gradBatch(m *Model, xs, ys []Seq, loss Loss, gs *GradSet) float64 {
	_, l := trainPass(m, &Context{Train: true}, xs, ys, loss, gs)
	return l
}

func randSeq(r *rng.Source, t, d int) Seq {
	s := make(Seq, t)
	for i := range s {
		s[i] = make([]float64, d)
		for j := range s[i] {
			s[i][j] = r.Normal(0, 0.5)
		}
	}
	return s
}

// randSeqs returns n random [t][d] samples.
func randSeqs(r *rng.Source, n, t, d int) []Seq {
	out := make([]Seq, n)
	for i := range out {
		out[i] = randSeq(r, t, d)
	}
	return out
}

func TestGradDenseLinear(t *testing.T) {
	r := rng.New(1)
	d, err := NewDense(3, 2, Linear, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(d)
	checkGradients(t, m, randSeqs(r, 3, 4, 3), randSeqs(r, 3, 4, 2), 1e-6)
}

func TestGradDenseReLU(t *testing.T) {
	r := rng.New(2)
	d, err := NewDense(3, 4, ReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(d)
	checkGradients(t, m, randSeqs(r, 3, 5, 3), randSeqs(r, 3, 5, 4), 1e-5)
}

func TestGradDenseTanhSigmoid(t *testing.T) {
	r := rng.New(3)
	d1, _ := NewDense(2, 3, Tanh, r)
	d2, _ := NewDense(3, 2, Sigmoid, r)
	m, _ := NewModel(d1, d2)
	checkGradients(t, m, randSeqs(r, 3, 3, 2), randSeqs(r, 3, 3, 2), 1e-6)
}

func TestGradLSTMReturnLast(t *testing.T) {
	r := rng.New(4)
	l, err := NewLSTM(2, 5, false, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(l)
	checkGradients(t, m, randSeqs(r, 3, 6, 2), randSeqs(r, 3, 1, 5), 1e-5)
}

func TestGradLSTMReturnSeq(t *testing.T) {
	r := rng.New(5)
	l, err := NewLSTM(2, 4, true, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(l)
	checkGradients(t, m, randSeqs(r, 3, 5, 2), randSeqs(r, 3, 5, 4), 1e-5)
}

func TestGradStackedLSTM(t *testing.T) {
	r := rng.New(6)
	l1, _ := NewLSTM(1, 4, true, r)
	l2, _ := NewLSTM(4, 3, false, r)
	m, _ := NewModel(l1, l2)
	checkGradients(t, m, randSeqs(r, 3, 6, 1), randSeqs(r, 3, 1, 3), 1e-5)
}

func TestGradForecasterArchitecture(t *testing.T) {
	// The paper's forecaster: LSTM → Dense(relu) → Dense(1).
	m, err := Build(ForecasterSpec(6, 4), 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	checkGradients(t, m, randSeqs(r, 3, 8, 1), randSeqs(r, 3, 1, 1), 1e-5)
}

func TestGradAutoencoderArchitecture(t *testing.T) {
	// Scaled-down version of the paper's autoencoder (dropout disabled so
	// the inference and training passes agree for the numerical check).
	m, err := Build(AutoencoderSpec(5, 6, 3, 0), 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	checkGradients(t, m, randSeqs(r, 3, 5, 1), randSeqs(r, 3, 5, 1), 1e-5)
}

func TestGradRepeatVector(t *testing.T) {
	r := rng.New(11)
	d, _ := NewDense(3, 2, Tanh, r)
	rep, err := NewRepeatVector(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDense(2, 1, Linear, r)
	m, _ := NewModel(d, rep, d2)
	checkGradients(t, m, randSeqs(r, 3, 1, 3), randSeqs(r, 3, 4, 1), 1e-6)
}
