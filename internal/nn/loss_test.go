package nn

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// evalOne is EvalBatchInto on a batch of one: the sample's loss and its
// gradient with respect to pred.
func evalOne(l Loss, pred, target Seq) (float64, Seq) {
	p := packSeqBatch(nil, []Seq{pred}, nil)
	grad := wsBatchRaw(nil, p.T(), 1, p.D)
	v := l.EvalBatchInto(grad, p, packSeqBatch(nil, []Seq{target}, nil))
	return v, sampleView(nil, grad, 0)
}

func TestHuberQuadraticRegion(t *testing.T) {
	h := Huber{Delta: 1}
	// |d| = 0.5 < delta: loss = 0.5·d², grad = d/n.
	v, grad := evalOne(h, Seq{{0.5}}, Seq{{0}})
	if math.Abs(v-0.125) > 1e-12 {
		t.Fatalf("huber quadratic value %v", v)
	}
	if math.Abs(grad[0][0]-0.5) > 1e-12 {
		t.Fatalf("huber quadratic grad %v", grad[0][0])
	}
}

func TestHuberLinearRegion(t *testing.T) {
	h := Huber{Delta: 1}
	// |d| = 3 > delta: loss = delta(|d| − delta/2) = 2.5, grad = ±delta/n.
	v, grad := evalOne(h, Seq{{3}}, Seq{{0}})
	if math.Abs(v-2.5) > 1e-12 {
		t.Fatalf("huber linear value %v", v)
	}
	if grad[0][0] != 1 {
		t.Fatalf("huber linear grad %v", grad[0][0])
	}
	v2, grad2 := evalOne(h, Seq{{-3}}, Seq{{0}})
	if v2 != v || grad2[0][0] != -1 {
		t.Fatalf("huber asymmetric: %v %v", v2, grad2[0][0])
	}
}

func TestHuberDefaultDelta(t *testing.T) {
	var h Huber // Delta 0 → default 1
	v := h.Value(Seq{{2}}, Seq{{0}})
	if math.Abs(v-1.5) > 1e-12 {
		t.Fatalf("default-delta huber %v", v)
	}
}

func TestHuberGradientMatchesNumerical(t *testing.T) {
	h := Huber{Delta: 0.7}
	r := rng.New(91)
	pred := randSeq(r, 3, 2)
	target := randSeq(r, 3, 2)
	_, grad := evalOne(h, pred, target)
	const eps = 1e-6
	for ti := range pred {
		for j := range pred[ti] {
			orig := pred[ti][j]
			pred[ti][j] = orig + eps
			plus := h.Value(pred, target)
			pred[ti][j] = orig - eps
			minus := h.Value(pred, target)
			pred[ti][j] = orig
			num := (plus - minus) / (2 * eps)
			if math.Abs(num-grad[ti][j]) > 1e-5 {
				t.Fatalf("huber grad mismatch at [%d][%d]: %v vs %v", ti, j, num, grad[ti][j])
			}
		}
	}
}

// Huber is bounded above by MSE/2 per point and approaches MAE·delta for
// large residuals — the robustness property that motivates it.
func TestHuberBoundedByMSE(t *testing.T) {
	h := Huber{Delta: 1}
	var mse MSE
	r := rng.New(92)
	for i := 0; i < 100; i++ {
		pred := randSeq(r, 2, 2)
		target := randSeq(r, 2, 2)
		if h.Value(pred, target) > mse.Value(pred, target)/2+1e-12 {
			t.Fatal("huber exceeded MSE/2")
		}
	}
}

// Training with Huber on spike-contaminated data must beat MSE on clean
// targets: the robust-loss story for residual attack spikes.
func TestHuberRobustToSpikes(t *testing.T) {
	r := rng.New(93)
	clean := make([]float64, 400)
	for i := range clean {
		clean[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/12)
	}
	contaminated := make([]float64, len(clean))
	copy(contaminated, clean)
	for i := 30; i < len(contaminated); i += 37 {
		contaminated[i] = 3 // gross outliers in the training targets
	}
	const seqLen = 12
	makeData := func(vals []float64) (ins, tgts []Seq) {
		for t2 := seqLen; t2 < len(vals); t2++ {
			in := make(Seq, seqLen)
			for k := 0; k < seqLen; k++ {
				in[k] = []float64{contaminated[t2-seqLen+k]}
			}
			ins = append(ins, in)
			tgts = append(tgts, Seq{{vals[t2]}})
		}
		return ins, tgts
	}
	ins, contaminatedTargets := makeData(contaminated)
	_, cleanTargets := makeData(clean)

	evalClean := func(loss Loss) float64 {
		m, err := Build(ForecasterSpec(8, 4), 94)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig(10, 95)
		cfg.Loss = loss
		if _, err := Fit(m, ins, contaminatedTargets, cfg); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range ins {
			d := m.Predict(ins[i])[0][0] - cleanTargets[i][0][0]
			sum += d * d
		}
		return sum / float64(len(ins))
	}
	mseErr := evalClean(MSE{})
	huberErr := evalClean(Huber{Delta: 0.2})
	if huberErr >= mseErr {
		t.Fatalf("Huber (%v) not more robust than MSE (%v) under target spikes", huberErr, mseErr)
	}
	_ = r
}
