package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&bf)
	return bf, err
}

// runRepeatCheck runs every workload twice, each run in a process of its
// own, and fails if any end-to-end metric of the second set is worse than
// the first by more than the metric's own bound in BENCHMARK.json. It
// prints the observed move next to each bound. The return value is the
// exit code.
func runRepeatCheck(seed uint64) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -repeat-check runs from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runSet := func(set int) (map[string]map[string]float64, bool) {
		results := map[string]map[string]float64{}
		for _, wl := range bf.Workloads {
			fmt.Printf("set %d: %s ...\n", set, wl.Name)
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				fmt.Printf("set %d: %s failed: %v\n%s", set, wl.Name, err, outBytes)
				return nil, false
			}
			lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Printf("set %d: %s: no correct result line (%v)\n", set, wl.Name, err)
				return nil, false
			}
			results[wl.Name] = map[string]float64{}
			for name, mv := range res.Metrics {
				results[wl.Name][name] = mv.Value
			}
		}
		return results, true
	}
	first, ok := runSet(1)
	if !ok {
		return 1
	}
	second, ok := runSet(2)
	if !ok {
		return 1
	}
	exit := 0
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := first[wl.Name][m.Name], second[wl.Name][m.Name]
			worse := worseShare(a, b, m.Better == "higher")
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS BOUND"
				exit = 1
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n",
				wl.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return exit
}
