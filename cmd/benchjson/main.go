// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result line, so CI and the
// Makefile's bench target can archive machine-readable numbers (e.g.
// BENCH_sweep.json) without external tooling.
//
// The -alloc-guard flag records the compiled replay engine's allocation
// budget (the TestReplayAllocBudget constant, passed by the Makefile) as a
// synthetic AllocGuardBudget entry, so the archive pins the whole
// zero-allocation contract, not just per-benchmark allocs/op.
//
// The diff subcommand compares two such archives:
//
//	benchjson diff [-threshold pct] old.json new.json
//
// It prints Δns/op and Δallocs/op per benchmark label and exits non-zero
// when any benchmark regressed by more than the threshold (default 10%) —
// or when the AllocGuardBudget entry grew at all: raising the alloc
// budget (e.g. to absorb observability overhead on the hot path) is a
// contract change that must land deliberately, never ride along.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Labels holds the key=value segments of a sub-benchmark name (e.g.
	// "BenchmarkPlan_BranchAndBound/strategy=bnb/space=131072" →
	// strategy=bnb, space=131072), so entries in BENCH_sweep.json stay
	// comparable across fabrics, strategies, schedules and cache states.
	Labels     map[string]string  `json:"labels,omitempty"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// nameLabels parses the key=value segments of a benchmark name, after the
// GOMAXPROCS suffix go test appends to the last segment is stripped.
func nameLabels(name string) map[string]string {
	var labels map[string]string
	for _, seg := range strings.Split(canonicalName(name), "/")[1:] {
		if k, v, ok := strings.Cut(seg, "="); ok {
			if labels == nil {
				labels = map[string]string{}
			}
			labels[k] = v
		}
	}
	return labels
}

func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters, Labels: nameLabels(fields[0]), Metrics: map[string]float64{}}
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			r.Metrics[unit] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}

// allocGuardName keys the synthetic archive entry recording the compiled
// engine's allocation budget (allocs/op carries the budget value).
const allocGuardName = "AllocGuardBudget"

// canonicalName strips the GOMAXPROCS suffix go test appends, so archives
// recorded on machines with different core counts remain comparable.
var procSuffixRe = regexp.MustCompile(`-\d+$`)

func canonicalName(name string) string { return procSuffixRe.ReplaceAllString(name, "") }

// loadArchive reads one benchjson-produced JSON archive into a map keyed
// by canonical benchmark name, last entry winning for duplicates.
func loadArchive(path string) (map[string]result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]result, len(rs))
	var order []string
	for _, r := range rs {
		key := canonicalName(r.Name)
		if _, seen := m[key]; !seen {
			order = append(order, key)
		}
		m[key] = r
	}
	return m, order, nil
}

// pctDelta is the relative change new vs old in percent; ok=false when the
// old value is zero (no baseline to compare against).
func pctDelta(oldV, newV float64) (float64, bool) {
	if oldV == 0 {
		return 0, false
	}
	return (newV - oldV) / oldV * 100, true
}

// diffMain implements `benchjson diff [-threshold pct] old.json new.json`.
func diffMain(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 10, "regression threshold in percent; exceeding it on ns/op or allocs/op fails the diff")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson diff [-threshold pct] old.json new.json")
		os.Exit(2)
	}
	oldM, _, err := loadArchive(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	newM, newOrder, err := loadArchive(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	regressions := 0
	fmt.Printf("%-72s %14s %14s\n", "benchmark", "Δns/op", "Δallocs/op")
	for _, key := range newOrder {
		nw := newM[key]
		od, ok := oldM[key]
		if !ok {
			fmt.Printf("%-72s %14s %14s\n", key, "new", "new")
			continue
		}
		cell := func(oldV, newV float64) string {
			d, ok := pctDelta(oldV, newV)
			if !ok {
				return "n/a"
			}
			return fmt.Sprintf("%+.1f%%", d)
		}
		flag := ""
		if d, ok := pctDelta(od.NsPerOp, nw.NsPerOp); ok && d > *threshold {
			flag = "  REGRESSION"
		}
		if d, ok := pctDelta(od.AllocsOp, nw.AllocsOp); ok && d > *threshold {
			flag = "  REGRESSION"
		}
		// The alloc-guard budget is a contract, not a measurement: any
		// increase fails the diff regardless of threshold.
		if key == allocGuardName && nw.AllocsOp > od.AllocsOp {
			flag = "  REGRESSION"
		}
		if flag != "" {
			regressions++
		}
		fmt.Printf("%-72s %14s %14s%s\n", key, cell(od.NsPerOp, nw.NsPerOp), cell(od.AllocsOp, nw.AllocsOp), flag)
	}
	for key := range oldM {
		if _, ok := newM[key]; !ok {
			fmt.Printf("%-72s %14s %14s\n", key, "gone", "gone")
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", regressions, *threshold)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		diffMain(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	allocGuard := fs.Float64("alloc-guard", 0,
		"record the compiled-engine allocation budget (allocs/op) as a synthetic AllocGuardBudget entry (0 = omit)")
	_ = fs.Parse(os.Args[1:])
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the raw output so the bench stays readable when piped.
		fmt.Fprintln(os.Stderr, line)
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *allocGuard > 0 {
		results = append(results, result{Name: allocGuardName, Iterations: 1, AllocsOp: *allocGuard})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
