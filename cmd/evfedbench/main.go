// Command evfedbench regenerates the paper's tables and figures.
//
// Usage:
//
//	evfedbench [-quick] [-seed N] [-workers N] [-codec none|f32|q8] [-strict]
//	    [-table 1|2|3] [-fig 2|3] [-summary] [-all] [-json REPORT.json]
//	evfedbench -scalability 3,6,12 [-quick] [-seed N]
//
// With no selection flags, everything is printed (-all). The default
// configuration is the paper's full size (4,344 hours per client,
// LSTM(50), 5 rounds × 10 epochs); -quick runs the scaled-down
// configuration in seconds.
//
// This binary measures nothing and gates nothing. Performance is measured
// by the benchmark of record (bash bench/run.sh, see bench/README.md);
// the recovery, hierarchy, rollout and adversarial gates are go tests in
// internal/eval (TestChaosRecoveryMatrix, TestScalabilityHier10kStations,
// TestRunCanaryRollout, TestRunAttackMatrix).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/fed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evfedbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick   = flag.Bool("quick", false, "run the scaled-down configuration")
		seed    = flag.Uint64("seed", 42, "pipeline seed")
		workers = flag.Int("workers", 0, "gradient workers per trainer (0 = all cores)")
		table   = flag.Int("table", 0, "print only this table (1, 2 or 3)")
		fig     = flag.Int("fig", 0, "print only this figure (2 or 3)")
		summary = flag.Bool("summary", false, "print only the headline scalars")
		all     = flag.Bool("all", false, "print every table and figure (default)")
		strict  = flag.Bool("strict", false, "score every scenario against the true clean demand instead of the paper protocol")
		jsonOut = flag.String("json", "", "also write the full report as JSON to this path")
		codec   = flag.String("codec", "none", "federated update compression: none, f32 or q8")
		scal    = flag.String("scalability", "", "run the federation-size sweep instead (comma-separated client counts, e.g. 3,6,12)")
	)
	flag.Parse()

	p := eval.PaperParams(*seed)
	if *quick {
		p = eval.QuickParams(*seed)
	}
	p.Workers = *workers
	p.EvalAgainstClean = *strict
	uc, err := fed.ParseCodec(*codec)
	if err != nil {
		return err
	}
	p.UpdateCodec = uc

	if *scal != "" {
		counts, err := parseCounts(*scal)
		if err != nil {
			return err
		}
		points, err := eval.RunScalability(counts, p)
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatScalability(points))
		return nil
	}

	fmt.Fprintf(os.Stderr, "running %s configuration (seed %d, %d hours/client)...\n",
		configName(*quick), *seed, p.Hours)
	start := time.Now()
	rep, err := eval.Run(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline completed in %.1fs\n\n", time.Since(start).Seconds())

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	selected := *table != 0 || *fig != 0 || *summary
	if *all || !selected {
		fmt.Print(rep.FormatAll())
		return nil
	}
	switch *table {
	case 0:
	case 1:
		fmt.Print(rep.FormatTable1())
	case 2:
		fmt.Print(rep.FormatTable2())
	case 3:
		fmt.Print(rep.FormatTable3())
	default:
		return fmt.Errorf("unknown table %d (want 1, 2 or 3)", *table)
	}
	switch *fig {
	case 0:
	case 2:
		fmt.Print(rep.FormatFig2())
	case 3:
		fmt.Print(rep.FormatFig3())
	default:
		return fmt.Errorf("unknown figure %d (want 2 or 3)", *fig)
	}
	if *summary {
		fmt.Print(rep.FormatHeadline())
	}
	return nil
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad client count %q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts in %q", s)
	}
	return out, nil
}

func configName(quick bool) string {
	if quick {
		return "quick"
	}
	return "paper"
}
