// Package manip implements the paper's graph manipulation (Section 3.4):
// generating a new execution graph from a profiled one to predict
// performance under a different configuration — data-parallel scaling,
// pipeline-parallel re-staging under the scheduling policy, and model
// architecture changes (layer count, hidden/FFN size).
//
// The mechanism follows the paper: the structure of the new execution is
// derived from the deployment (schedule policy, layer partitioning,
// inserted communication), while task durations come from the profiled
// trace wherever the kernel is unchanged — an exact (class, FLOPs, bytes)
// or (kind, payload, group) match — and from the trace-fitted kernel
// performance model (the stand-in for the paper's in-house fleet model)
// for kernels whose shapes or communicator sizes the new configuration
// alters. Tensor-parallel changes are not supported, matching the paper's
// stated scope.
package manip

import (
	"fmt"
	"sort"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// computeKey identifies a compute kernel by its exact work signature.
type computeKey struct {
	class        trace.KernelClass
	flops, bytes int64
}

// commKey identifies a collective by primitive, payload, group size and
// fabric tier.
type commKey struct {
	kind  trace.CommKind
	bytes int64
	n     int
	tier  int
}

// durStat accumulates duration samples for one key.
type durStat struct {
	durs []trace.Dur
}

func (d *durStat) median() trace.Dur {
	if len(d.durs) == 0 {
		return 0
	}
	s := make([]trace.Dur, len(d.durs))
	copy(s, d.durs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Library holds measured kernel durations extracted from profiled traces.
type Library struct {
	fabric  topology.Fabric
	compute map[computeKey]trace.Dur
	comm    map[commKey]trace.Dur
}

// BuildLibrary extracts per-kernel measured durations from a profiled
// multi-rank trace collected on the given fabric. Collective durations use
// each group's intrinsic time (minimum across participants, i.e. free of
// rendezvous waiting).
func BuildLibrary(m *trace.Multi, c topology.Fabric) *Library {
	lib := &Library{
		fabric:  c,
		compute: map[computeKey]trace.Dur{},
		comm:    map[commKey]trace.Dur{},
	}
	computeAcc := map[computeKey]*durStat{}

	type gk struct{ id, seq int64 }
	type gAgg struct {
		kind   trace.CommKind
		bytes  int64
		minDur trace.Dur
		ranks  []int
	}
	groups := map[gk]*gAgg{}

	for _, t := range m.Ranks {
		for i := range t.Events {
			e := &t.Events[i]
			if e.Cat != trace.CatKernel {
				continue
			}
			if e.IsComm() {
				k := gk{e.CommID, e.CommSeq}
				a := groups[k]
				if a == nil {
					a = &gAgg{kind: e.Comm, bytes: e.CommBytes, minDur: e.Dur}
					groups[k] = a
				}
				if e.Dur < a.minDur {
					a.minDur = e.Dur
				}
				a.ranks = append(a.ranks, t.Rank)
				continue
			}
			key := computeKey{e.Class, e.FLOPs, e.Bytes}
			st := computeAcc[key]
			if st == nil {
				st = &durStat{}
				computeAcc[key] = st
			}
			st.durs = append(st.durs, e.Dur)
		}
	}
	for key, st := range computeAcc {
		lib.compute[key] = st.median()
	}

	commAcc := map[commKey]*durStat{}
	for _, a := range groups {
		if len(a.ranks) < 2 {
			continue
		}
		key := commKey{a.kind, a.bytes, len(a.ranks), lib.fabric.TierOf(a.ranks)}
		st := commAcc[key]
		if st == nil {
			st = &durStat{}
			commAcc[key] = st
		}
		st.durs = append(st.durs, a.minDur)
	}
	for key, st := range commAcc {
		lib.comm[key] = st.median()
	}
	return lib
}

// Sizes reports the number of distinct calibrated keys.
func (l *Library) Sizes() (compute, comm int) { return len(l.compute), len(l.comm) }

// Predictor prices kernels for a manipulated configuration: measured
// durations for unchanged kernels, fitted-model estimates for new ones.
// It implements kernelmodel.Predictor, so the program-driven graph
// generator can use it directly.
type Predictor struct {
	Lib    *Library
	Fitted *kernelmodel.Fitted

	// Hits and Misses count library lookups, for validation that unchanged
	// configurations replay from measurements.
	Hits, Misses int
}

// Compute implements kernelmodel.Predictor.
func (p *Predictor) Compute(class trace.KernelClass, flops, bytes int64) trace.Dur {
	if d, ok := p.Lib.compute[computeKey{class, flops, bytes}]; ok {
		p.Hits++
		return d
	}
	p.Misses++
	return p.Fitted.Compute(class, flops, bytes)
}

// Comm implements kernelmodel.Predictor.
func (p *Predictor) Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	if d, ok := p.Lib.comm[commKey{kind, bytes, len(ranks), p.Lib.fabric.TierOf(ranks)}]; ok {
		p.Hits++
		return d
	}
	p.Misses++
	return p.Fitted.Comm(kind, bytes, ranks)
}

// Request describes a manipulation of a profiled baseline.
type Request struct {
	// Base is the configuration the traces were collected under.
	Base parallel.Config
	// Target is the desired configuration. Target.Arch may differ from
	// Base.Arch in Layers, Hidden and FFN; Target.Map may differ in PP and
	// DP. TP changes are rejected (paper scope).
	Target parallel.Config
}

// Validate enforces the paper's manipulation scope.
func (r Request) Validate() error {
	if err := r.Base.Validate(); err != nil {
		return fmt.Errorf("manip: base: %w", err)
	}
	if err := r.Target.Validate(); err != nil {
		return fmt.Errorf("manip: target: %w", err)
	}
	if r.Base.Map.TP != r.Target.Map.TP {
		return fmt.Errorf("manip: tensor-parallel changes are not supported (TP %d → %d); the paper leaves TP manipulation as future work",
			r.Base.Map.TP, r.Target.Map.TP)
	}
	if r.Base.Arch.Heads != r.Target.Arch.Heads && r.Base.Arch.HeadDim != r.Target.Arch.HeadDim {
		return fmt.Errorf("manip: changing both heads and head dim is not supported")
	}
	return nil
}

// GraphResult carries a prediction for a manipulated configuration: the
// synthesized execution graph for the target with predicted timestamps.
type GraphResult struct {
	// Graph is the generated execution graph, timestamps included.
	Graph *execgraph.Graph
	// Iteration is the predicted per-iteration time.
	Iteration trace.Dur
	// LibraryHits/LibraryMisses report how many kernels reused measured
	// durations vs were priced by the fitted model.
	LibraryHits, LibraryMisses int
}

// PredictGraphWith generates the new execution graph for the target
// configuration from supplied calibration (one library and fitted model
// serve many targets). Following Section 3.4: the pipeline schedule is
// regenerated under the scheduling policy, layers (and their task groups)
// are re-partitioned onto the new stages, communication tasks are inserted
// at the appropriate points with the original dependency patterns
// (event-bridge and launch structure), and task durations are carried over
// from the profiled graph or assigned by the kernel performance model. The
// generator emits the graph directly, with predicted timestamps; no trace
// is materialized.
func PredictGraphWith(req Request, lib *Library, fitted *kernelmodel.Fitted, c topology.Fabric) (*GraphResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pred := &Predictor{Lib: lib, Fitted: fitted}

	world := req.Target.Map.WorldSize()
	simCfg := deterministicSim(c, world, pred)
	g, err := cluster.Synthesize(req.Target, simCfg)
	if err != nil {
		return nil, fmt.Errorf("manip: synthesizing target execution graph: %w", err)
	}
	return &GraphResult{
		Graph:         g,
		Iteration:     g.Duration(),
		LibraryHits:   pred.Hits,
		LibraryMisses: pred.Misses,
	}, nil
}

// deterministicSim returns simulator settings with all stochastic and
// contention effects disabled: the generator must be a pure function of the
// graph and the duration assignments, exactly like the paper's simulator.
func deterministicSim(c topology.Fabric, world int, pred kernelmodel.Predictor) cluster.SimConfig {
	cfg := cluster.DefaultSimConfig(world, 0)
	cfg.Fabric = c
	if cfg.Fabric.Capacity() < world {
		cfg.Fabric = cfg.Fabric.WithCapacity(world)
	}
	cfg.Oracle = pred
	cfg.ComputeJitterSigma = 0
	cfg.CommJitterSigma = 0
	cfg.CPUJitterSigma = 0
	cfg.RankSkewSigma = 0
	cfg.OverlapComputeSlowdown = 1
	cfg.OverlapCommSlowdown = 1
	return cfg
}

// ScaleDP returns a Request scaling only data parallelism. Per the paper,
// local computation is unchanged (per-rank microbatches are preserved);
// only data-parallel communication is re-priced for the larger group.
func ScaleDP(base parallel.Config, newDP int) Request {
	target := base
	target.Map.DP = newDP
	return Request{Base: base, Target: target}
}

// ScalePP returns a Request scaling pipeline parallelism: layers are
// re-partitioned into the new stage count and the schedule is regenerated.
func ScalePP(base parallel.Config, newPP int) Request {
	target := base
	target.Map.PP = newPP
	return Request{Base: base, Target: target}
}

// Scale3D returns a Request changing PP and DP simultaneously.
func Scale3D(base parallel.Config, newPP, newDP int) Request {
	target := base
	target.Map.PP = newPP
	target.Map.DP = newDP
	return Request{Base: base, Target: target}
}

// ChangeArch returns a Request replacing the architecture (layer count,
// hidden size, FFN size) while keeping the deployment fixed.
func ChangeArch(base parallel.Config, arch parallel.Config) Request {
	return Request{Base: base, Target: arch}
}

// WithArch builds a target config from the base with a new architecture.
func WithArch(base parallel.Config, layers, hidden, ffn int) parallel.Config {
	t := base
	a := t.Arch
	if layers > 0 {
		a = a.WithLayers(layers)
	}
	if hidden > 0 && ffn > 0 {
		a = a.WithHidden(hidden, ffn)
	}
	t.Arch = a
	return t
}
