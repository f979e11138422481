package eval

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/chaos"
	"github.com/evfed/evfed/internal/fed"
)

// TestChaosRecoveryMatrix runs the full fault matrix at test scale and
// requires every arm to land inside its scenario's recovery guarantee:
// drops and stalls heal bit-identically, corruption completes finite,
// coordinator crashes resume bit-identically at every cadence, and the
// serving restart loses at most one warmup window.
func TestChaosRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix federates over TCP; skipped in -short")
	}
	points, err := RunChaosRecovery(ChaosParams{Rounds: 3, Seed: 9, CheckpointEvery: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies × (baseline + 3 fault arms + 2 crash cadences) + serve.
	if want := 2*6 + 1; len(points) != want {
		t.Fatalf("got %d matrix arms, want %d", len(points), want)
	}
	seen := map[string]bool{}
	for _, pt := range points {
		seen[pt.Scenario] = true
		if !pt.WithinTolerance {
			t.Errorf("%s/%s (every=%d) outside tolerance: %+v", pt.Scenario, pt.Topology, pt.CheckpointEvery, pt)
		}
	}
	for _, sc := range []string{"baseline", "conn-drop", "stall", "corrupt", "coordinator-crash", "server-restart"} {
		if !seen[sc] {
			t.Errorf("scenario %s missing from matrix", sc)
		}
	}
	table := FormatChaosRecovery(points)
	if !strings.Contains(table, "coordinator-crash") || strings.Contains(table, "FAIL") {
		t.Errorf("unexpected table:\n%s", table)
	}
}

// TestChaosFaultArmActuallyInjects guards against the matrix silently
// testing nothing: a fault arm with aggressive drop probability must
// observe injected faults.
func TestChaosFaultArmActuallyInjects(t *testing.T) {
	if testing.Short() {
		t.Skip("federates over TCP; skipped in -short")
	}
	params := ChaosParams{Rounds: 2, Seed: 3}
	p := params.fill()
	cluster, err := buildChaosCluster("flat", nil, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	hs, closeHandles := cluster.handles(p.Seed)
	co, err := fed.NewCoordinator(chaosSpec(), hs, chaosRunConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	control, err := co.Run()
	closeHandles()
	cluster.stop()
	if err != nil {
		t.Fatal(err)
	}

	pt, err := runChaosFaultArm(chaosConnDrop, "flat",
		chaos.Policy{Seed: p.Seed, DropProb: 0.05, StallProb: 0.1, StallFor: time.Millisecond},
		p, control.Global)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Faults == 0 {
		t.Fatal("fault arm completed without injecting a single fault")
	}
	if !pt.WithinTolerance {
		t.Fatalf("drop+stall arm did not heal: %+v", pt)
	}
}

// FormatChaosRecovery renders the fault matrix as a table.
func FormatChaosRecovery(points []ChaosRecoveryPoint) string {
	out := "Chaos recovery: injected faults and crash-resume vs fault-free controls\n"
	out += fmt.Sprintf("%-18s %-7s %6s %7s %8s %7s %9s %11s %7s %s\n",
		"Scenario", "Tier", "Ckpt/N", "Rounds", "Dropped", "Faults", "Wall(s)", "Max |diff|", "Warmup", "OK")
	for _, pt := range points {
		every := "-"
		if pt.CheckpointEvery > 0 {
			every = fmt.Sprintf("%d", pt.CheckpointEvery)
		}
		ok := "PASS"
		if !pt.WithinTolerance {
			ok = "FAIL"
		}
		out += fmt.Sprintf("%-18s %-7s %6s %7d %8d %7d %9.3f %11.2e %7d %s\n",
			pt.Scenario, pt.Topology, every, pt.Rounds, pt.Dropped, pt.Faults,
			pt.WallSeconds, pt.MaxAbsDiff, pt.VerdictWarmupLoss, ok)
	}
	return out
}
