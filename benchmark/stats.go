package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailQuantile returns the highest of p90, p99 and p99.9 that has at least
// minTail of n samples beyond it, or 0 when n is too small for p90.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= minTail-1e-9 {
			best = q
		}
	}
	return best
}

// quantile is the nearest-rank q-quantile of ascending samples; +Inf
// entries (failed ops) sort last and can be returned.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencies holds client-side op latencies in seconds; a failed op is
// recorded as +Inf, so failures count as infinitely slow in every
// percentile.
type latencies []float64

func (l *latencies) add(d time.Duration, failed bool) {
	if failed {
		*l = append(*l, math.Inf(1))
		return
	}
	*l = append(*l, d.Seconds())
}

func (l latencies) failed() int {
	n := 0
	for _, v := range l {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

func (l latencies) quantile(q float64) float64 { return quantile(sortedCopy(l), q) }

// failPct is failed ops over attempted ops, in percent.
func failPct(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(attempted)
}

// finite maps an infinite latency (more than a tenth of the ops failed) to
// a large finite value JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// sortedCopy returns v sorted ascending.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of a sample set.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// vmHWM reads a process's peak resident set size in MiB from procfs.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// goUsage is the in-process allocation and GC counters.
type goUsage struct {
	totalAlloc uint64
	gcCycles   uint64
}

func readGoUsage() goUsage {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return goUsage{totalAlloc: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// refLoop is the fixed, allocation-free host reference: it does the same
// integer work on every run, so its time tracks host speed, not the
// program under test.
func refLoop() float64 {
	const iters = 30_000_000
	runs := make([]float64, 3)
	for r := range runs {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runs[r] = time.Since(t0).Seconds()
		refSink = x
	}
	return median(runs)
}

// refSink keeps refLoop's result live so the loop is not optimized away.
var refSink uint64

// hostRecord identifies where and on what a run was measured, so figures
// from another host or another generated input are never compared blindly.
type hostRecord struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Trace         bool    `json:"trace"`
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	SourceDigest  string  `json:"source_digest"`
	ProfileDigest string  `json:"profile_digest"`
	ProfileMiB    float64 `json:"profile_mib"`
	RefBeforeS    float64 `json:"host_ref_before_s"`
	RefAfterS     float64 `json:"host_ref_after_s"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf returns the git commit of root, or "none" outside a repository.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file (the
// benchmark's own directory and build outputs excluded), identifying the
// code under test where no commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func newHostRecord(workload string, seed uint64, traced bool, root string) hostRecord {
	return hostRecord{
		Workload:     workload,
		Seed:         seed,
		Trace:        traced,
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commitOf(root),
		SourceDigest: sourceDigest(root),
	}
}
