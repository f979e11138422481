package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint printed with every result and written into
// every trace, so that no record can be mistaken for one taken on another
// core count, kernel path or commit.
type hostInfo struct {
	HostCPUs   int    `json:"hostCPUs"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOARCH     string `json:"goarch"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
	PureGo     string `json:"EVFED_PURE_GO"`
	// Kernel is the internal/mat path this process runs: "fma" when the
	// AVX2+FMA micro-kernels are selected, "purego" otherwise.
	Kernel    string `json:"kernel"`
	Seed      uint64 `json:"seed"`
	GitCommit string `json:"gitCommit"`
}

func fingerprint(seed uint64) hostInfo {
	h := hostInfo{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		PureGo:     os.Getenv("EVFED_PURE_GO"),
		Kernel:     "purego",
		Seed:       seed,
		GitCommit:  gitCommit("."),
	}
	h.AVX2, h.FMA = cpuFlags("/proc/cpuinfo")
	// Mirrors internal/mat's selection: amd64, both features, no override.
	if h.GOARCH == "amd64" && h.AVX2 && h.FMA && h.PureGo == "" {
		h.Kernel = "fma"
	}
	return h
}

// cpuFlags reads the avx2 and fma feature flags of the first processor
// listed in a cpuinfo file; both are false where the file is missing.
func cpuFlags(path string) (avx2, fma bool) {
	f, err := os.Open(path)
	if err != nil {
		return false, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		for _, fl := range strings.Fields(line) {
			switch fl {
			case "avx2":
				avx2 = true
			case "fma":
				fma = true
			}
		}
		break
	}
	return avx2, fma
}

// gitCommit resolves HEAD of the repository at dir by reading .git
// directly (the benchmark also runs in checkouts that are not git
// repositories, and where no git binary exists); "unknown" otherwise.
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(s, "ref: ")
	if !isRef {
		return s
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// settleMemory puts the heap in a known state before a measured run and
// restarts the kernel's peak-resident-set mark, so that peak_rss_mb is
// the run's own peak and not whatever garbage three set-ups left behind
// (which varied by a third from run to run). Where the mark cannot be
// reset the figure simply includes set-up.
func settleMemory() {
	debug.FreeOSMemory()                                      // forces a collection, then returns freed spans
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5 = reset VmHWM
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0
// where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
