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
	"slices"
	"sort"

	"lumos/internal/cluster"
	"lumos/internal/collective"
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
	return p.ComputeN(class, flops, bytes, 1)
}

// Comm implements kernelmodel.Predictor.
func (p *Predictor) Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	return p.CommN(kind, bytes, ranks, 1)
}

// ComputeN prices a compute kernel that stands for n identical kernels
// (a price-class representative's; see cluster.Synthesize), booking its
// library lookup n times.
func (p *Predictor) ComputeN(class trace.KernelClass, flops, bytes int64, n int) trace.Dur {
	if d, ok := p.Lib.compute[computeKey{class, flops, bytes}]; ok {
		p.Hits += n
		return d
	}
	p.Misses += n
	return p.Fitted.Compute(class, flops, bytes)
}

// CommN prices a collective that stands for n identical collectives,
// booking its library lookup n times; n = 0 prices without booking.
func (p *Predictor) CommN(kind trace.CommKind, bytes int64, ranks []int, n int) trace.Dur {
	if d, ok := p.Lib.comm[commKey{kind, bytes, len(ranks), p.Lib.fabric.TierOf(ranks)}]; ok {
		p.Hits += n
		return d
	}
	p.Misses += n
	return p.Fitted.Comm(kind, bytes, ranks)
}

// quietPricer prices collectives as the predictor does without booking
// a lookup: it is the oracle synthesis splits price classes under.
type quietPricer struct{ p *Predictor }

func (q quietPricer) Cost(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	return q.p.CommN(kind, bytes, ranks, 0)
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
	// Graph is the generated execution graph, timestamps included. It
	// simulates one DP replica per price class; Graph.Weight gives each
	// simulated rank's class size.
	Graph *execgraph.Graph
	// Iteration is the predicted per-iteration time.
	Iteration trace.Dur
	// LibraryHits/LibraryMisses report how many kernels of the whole world
	// reused measured durations vs were priced by the fitted model.
	LibraryHits, LibraryMisses int
	// Classes is the price-class partition the graph was synthesized
	// under (nil at DP 1), and Comms the replica-local communication it
	// was split by; Split re-checks the partition under other pricers.
	Classes parallel.Classes
	Comms   []parallel.ReplicaComm
}

// Split refines the result's price classes so that every pricer also
// prices each class's replica-local communication alike, and reports
// whether any class split. A graph retimed onto a fabric whose pricer
// splits a class must be synthesized under the finer partition.
func (r *GraphResult) Split(m topology.Mapping, pricers ...collective.Pricer) (parallel.Classes, bool) {
	if !r.Classes.Merged() {
		return r.Classes, false
	}
	fine := r.Classes.Split(m, r.Comms, pricers...)
	return fine, !slices.Equal(fine, r.Classes)
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
//
// Following the paper's DP manipulation, which keeps per-rank work and
// re-prices only DP communication, the target's DP replicas are first
// split into price classes: two replicas share a class when the predictor
// prices every one of their TP-group collectives and pipeline transfers
// alike (and so does each refine pricer). The generator simulates one
// representative replica per class and weights its ranks by the class
// size, which is exact under the deterministic generator: a class's
// replicas run identical timelines. A refine pricer that tells every
// replica apart gives the full synthesis.
func PredictGraphWith(req Request, lib *Library, fitted *kernelmodel.Fitted, c topology.Fabric, refine ...collective.Pricer) (*GraphResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pred := &Predictor{Lib: lib, Fitted: fitted}
	res := &GraphResult{}
	if m := req.Target.Map; m.DP > 1 {
		comms, err := parallel.ReplicaComms(req.Target)
		if err != nil {
			return nil, err
		}
		pricers := append([]collective.Pricer{quietPricer{pred}}, refine...)
		res.Classes = parallel.OneClass(m.DP).Split(m, comms, pricers...)
		res.Comms = comms
	}

	world := req.Target.Map.WorldSize()
	simCfg := deterministicSim(c, world, pred)
	g, err := cluster.Synthesize(req.Target, simCfg, res.Classes)
	if err != nil {
		return nil, fmt.Errorf("manip: synthesizing target execution graph: %w", err)
	}
	res.Graph = g
	res.Iteration = g.Duration()
	res.LibraryHits, res.LibraryMisses = pred.Hits, pred.Misses
	return res, nil
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
