package eval

import (
	"strings"
	"testing"
)

func TestAmHaloFilter(t *testing.T) {
	labels := make([]bool, 40)
	flags := make([]bool, 40)
	for i := 18; i < 22; i++ {
		labels[i] = true
	}
	flags[19] = true // hit inside episode
	flags[23] = true // halo flag: must not count as FP
	flags[2] = true  // genuine FP far from the episode
	truth, pred := amHaloFilter(labels, flags, 5)

	// Evaluable set: hours 0..12 and 27..39 (clean, outside the halo
	// 13..26) plus the four labeled hours.
	wantLen := 13 + 4 + 13
	if len(truth) != wantLen || len(pred) != wantLen {
		t.Fatalf("lengths %d/%d, want %d", len(truth), len(pred), wantLen)
	}
	tp, fp, labeled := 0, 0, 0
	for i := range truth {
		if truth[i] {
			labeled++
			if pred[i] {
				tp++
			}
		} else if pred[i] {
			fp++
		}
	}
	if labeled != 4 || tp != 1 || fp != 1 {
		t.Fatalf("labeled/tp/fp = %d/%d/%d, want 4/1/1 (halo flag excluded)", labeled, tp, fp)
	}
}

func TestAmHaloFilterNoEpisodes(t *testing.T) {
	labels := make([]bool, 10)
	flags := make([]bool, 10)
	flags[3] = true
	truth, pred := amHaloFilter(labels, flags, 4)
	if len(truth) != 10 || len(pred) != 10 {
		t.Fatalf("no-episode filter must keep everything, got %d/%d", len(truth), len(pred))
	}
}

// Every family×intensity must declare non-degenerate bounds: detection
// floors strictly positive (the matrix's "non-degenerate detection"
// claim) and an FPR ceiling at or under 5%.
func TestAmDetectionBoundsNonDegenerate(t *testing.T) {
	for _, fam := range amFamilies() {
		for _, intensity := range []string{"low", "high"} {
			b := amDetectionBounds(fam.name, intensity)
			if b.minPrecision <= 0 || b.minRecall <= 0 || b.minEpisodeRecall <= 0 {
				t.Fatalf("%s/%s: degenerate floor %+v", fam.name, intensity, b)
			}
			if b.maxFPR <= 0 || b.maxFPR > 0.05 {
				t.Fatalf("%s/%s: FPR ceiling %v outside (0, 0.05]", fam.name, intensity, b.maxFPR)
			}
		}
	}
}

func TestAmBreakdownPoints(t *testing.T) {
	if bp := amBreakdown("median", 8, 2); bp != 3 {
		t.Fatalf("median breakdown %d, want 3", bp)
	}
	if bp := amBreakdown("trimmed-mean(2)", 8, 2); bp != 2 {
		t.Fatalf("trimmed breakdown %d, want 2", bp)
	}
	if bp := amBreakdown("fedavg", 8, 2); bp != 0 {
		t.Fatalf("mean breakdown %d, want 0", bp)
	}
}

// The containment plane is cheap enough to run in tests (~2s): verify the
// verdict structure — cells exist for every arm, keys are unique, every
// contain/break expectation holds, and 2-tier cells match their flat
// twins exactly (hierarchy parity under Byzantine wrappers).
func TestRunContainmentCells(t *testing.T) {
	if testing.Short() {
		t.Skip("containment sweep in -short mode")
	}
	p := AttackMatrixParams{Seed: 42}
	cells, err := runContainmentCells(p.fill())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 40 {
		t.Fatalf("got %d containment cells, want 40", len(cells))
	}
	seen := map[string]AttackMatrixCell{}
	for _, c := range cells {
		if _, dup := seen[c.Key()]; dup {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		seen[c.Key()] = c
		if !c.Pass {
			t.Errorf("cell %s: expect %s failed (ΔR² %.4f vs bound %.3f)",
				c.Key(), c.Expect, c.R2Delta, c.Bound)
		}
	}
	for key, c := range seen {
		if c.Topology != "2-tier" {
			continue
		}
		flat, ok := seen[strings.Replace(key, "2-tier", "flat", 1)]
		if !ok {
			t.Fatalf("2-tier cell %s has no flat twin", key)
		}
		if c.R2 != flat.R2 {
			t.Errorf("%s: 2-tier R² %.6f != flat %.6f (hierarchy parity broken)", key, c.R2, flat.R2)
		}
	}
}

// amCellKeys pins the matrix's cell set: 14 detection cells (7 families ×
// 2 intensities) and 40 containment cells (3 attacks × f=1..4 × 3
// aggregators flat, plus 4 edge-tier spot checks). Dropping, renaming or
// adding a cell must be a deliberate edit here.
var amCellKeys = []string{
	"detection/ddos/low/-/-",
	"detection/ddos/high/-/-",
	"detection/fdi-bias/low/-/-",
	"detection/fdi-bias/high/-/-",
	"detection/fdi-ramp/low/-/-",
	"detection/fdi-ramp/high/-/-",
	"detection/fdi-pulse/low/-/-",
	"detection/fdi-pulse/high/-/-",
	"detection/temporal-reorder/low/-/-",
	"detection/temporal-reorder/high/-/-",
	"detection/temporal-replay/low/-/-",
	"detection/temporal-replay/high/-/-",
	"detection/temporal-gap/low/-/-",
	"detection/temporal-gap/high/-/-",
	"containment/sign-flip/f=1/fedavg/flat",
	"containment/sign-flip/f=2/fedavg/flat",
	"containment/sign-flip/f=3/fedavg/flat",
	"containment/sign-flip/f=4/fedavg/flat",
	"containment/scaled-poison/f=1/fedavg/flat",
	"containment/scaled-poison/f=2/fedavg/flat",
	"containment/scaled-poison/f=3/fedavg/flat",
	"containment/scaled-poison/f=4/fedavg/flat",
	"containment/collude/f=1/fedavg/flat",
	"containment/collude/f=2/fedavg/flat",
	"containment/collude/f=3/fedavg/flat",
	"containment/collude/f=4/fedavg/flat",
	"containment/sign-flip/f=1/median/flat",
	"containment/sign-flip/f=2/median/flat",
	"containment/sign-flip/f=3/median/flat",
	"containment/sign-flip/f=4/median/flat",
	"containment/scaled-poison/f=1/median/flat",
	"containment/scaled-poison/f=2/median/flat",
	"containment/scaled-poison/f=3/median/flat",
	"containment/scaled-poison/f=4/median/flat",
	"containment/collude/f=1/median/flat",
	"containment/collude/f=2/median/flat",
	"containment/collude/f=3/median/flat",
	"containment/collude/f=4/median/flat",
	"containment/sign-flip/f=1/trimmed-mean(2)/flat",
	"containment/sign-flip/f=2/trimmed-mean(2)/flat",
	"containment/sign-flip/f=3/trimmed-mean(2)/flat",
	"containment/sign-flip/f=4/trimmed-mean(2)/flat",
	"containment/scaled-poison/f=1/trimmed-mean(2)/flat",
	"containment/scaled-poison/f=2/trimmed-mean(2)/flat",
	"containment/scaled-poison/f=3/trimmed-mean(2)/flat",
	"containment/scaled-poison/f=4/trimmed-mean(2)/flat",
	"containment/collude/f=1/trimmed-mean(2)/flat",
	"containment/collude/f=2/trimmed-mean(2)/flat",
	"containment/collude/f=3/trimmed-mean(2)/flat",
	"containment/collude/f=4/trimmed-mean(2)/flat",
	"containment/collude/f=1/fedavg/2-tier",
	"containment/collude/f=3/median/2-tier",
	"containment/collude/f=4/median/2-tier",
	"containment/collude/f=2/trimmed-mean(2)/2-tier",
}

// TestRunAttackMatrix is the adversarial gate: the full matrix at seed 42
// (both planes) must produce exactly the pinned cells, in order, and every
// cell must clear its declared bound. -v prints both tables.
func TestRunAttackMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversarial matrix in -short mode")
	}
	cells, err := RunAttackMatrix(AttackMatrixParams{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatAttackMatrix(cells))
	if len(cells) != len(amCellKeys) {
		t.Fatalf("got %d cells, want %d", len(cells), len(amCellKeys))
	}
	for i, c := range cells {
		if c.Key() != amCellKeys[i] {
			t.Errorf("cell %d is %s, want %s", i, c.Key(), amCellKeys[i])
		}
		if !c.Pass {
			t.Errorf("cell %s outside its declared bound (expect %s): %+v", c.Key(), c.Expect, c)
		}
	}
}
