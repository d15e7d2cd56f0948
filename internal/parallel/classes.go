package parallel

import (
	"fmt"
	"slices"

	"lumos/internal/collective"
	"lumos/internal/model"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Classes partitions a deployment's data-parallel replicas into price
// classes. A DP replica is the block of TP·PP consecutive ranks that share
// a dp coordinate. Classes[d] is the representative of replica d's class:
// its lowest replica. A nil Classes puts every replica in a class of its
// own.
//
// Under a deterministic generator two replicas whose replica-local
// communication prices alike run identical timelines, so synthesis
// simulates one representative replica per class and weights its ranks by
// the class size (see cluster.Synthesize).
type Classes []int

// OneClass returns the partition of dp replicas into a single class, the
// start of every split.
func OneClass(dp int) Classes { return make(Classes, dp) }

// check rejects a partition that is not one of dp replicas with each
// class represented by its lowest replica.
func (c Classes) check(dp int) error {
	if c == nil {
		return nil
	}
	if len(c) != dp {
		return fmt.Errorf("parallel: price classes cover %d replicas, deployment has %d", len(c), dp)
	}
	for d, rep := range c {
		if rep < 0 || rep > d || c[rep] != rep {
			return fmt.Errorf("parallel: replica %d's price-class representative %d is not its class's lowest replica", d, rep)
		}
	}
	return nil
}

// Size returns how many replicas replica d stands for: its class size
// when it represents its class, 0 when another replica does.
func (c Classes) Size(d int) int {
	if c == nil {
		return 1
	}
	if c[d] != d {
		return 0
	}
	n := 0
	for _, rep := range c {
		if rep == d {
			n++
		}
	}
	return n
}

// Merged reports whether some class holds more than one replica.
func (c Classes) Merged() bool {
	for d, rep := range c {
		if rep != d {
			return true
		}
	}
	return false
}

// Count returns the number of classes among dp replicas.
func (c Classes) Count(dp int) int {
	if c == nil {
		return dp
	}
	n := 0
	for d, rep := range c {
		if rep == d {
			n++
		}
	}
	return n
}

// Split refines c by price: two replicas stay in one class only when they
// share one in c and every pricer prices each of comms identically on
// both, with comms' replica-0 ranks shifted into each replica's block.
// Splitting nil returns nil.
func (c Classes) Split(m topology.Mapping, comms []ReplicaComm, pricers ...collective.Pricer) Classes {
	if c == nil {
		return nil
	}
	block := m.TP * m.PP
	width := len(comms) * len(pricers)
	sigs := make([]trace.Dur, len(c)*width)
	var ranks []int
	for d := range c {
		sig := sigs[d*width : (d+1)*width]
		for i, rc := range comms {
			ranks = ranks[:0]
			for _, r := range rc.Ranks {
				ranks = append(ranks, r+d*block)
			}
			for j, p := range pricers {
				sig[i*len(pricers)+j] = p.Cost(rc.Kind, rc.Bytes, ranks)
			}
		}
	}
	out := make(Classes, len(c))
	var reps []int
	for d := range c {
		out[d] = d
		sig := sigs[d*width : (d+1)*width]
		for _, r := range reps {
			if c[r] == c[d] && slices.Equal(sigs[r*width:(r+1)*width], sig) {
				out[d] = r
				break
			}
		}
		if out[d] == d {
			reps = append(reps, d)
		}
	}
	return out
}

// ReplicaComm is one collective or point-to-point transfer that DP replica
// 0 runs entirely inside its own block of ranks: a TP-group collective or
// a pipeline send or receive. Replica d runs it on the same ranks shifted
// by d·TP·PP.
type ReplicaComm struct {
	Kind  trace.CommKind
	Bytes int64
	Ranks []int
}

// ReplicaComms returns the distinct replica-local communications of a
// deployment: the ones that decide its price classes (see Classes.Split).
// DP collectives span every replica and price alike for all of them, so
// they are not listed. It runs the program builder's sizing pass once per
// pipeline stage for the stage's tensor-parallel lane 0, and copies each
// pipeline transfer to every lane.
func ReplicaComms(cfg Config) ([]ReplicaComm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := &commSet{seen: map[commKey]bool{}}
	for stage := 0; stage < cfg.Map.PP; stage++ {
		rank := cfg.Map.Rank(0, stage, 0)
		slots, err := cfg.StageSlots(stage)
		if err != nil {
			return nil, err
		}
		b := newBuilder(cfg, rank, newLayerOps(cfg.Arch.Layers))
		b.sizing = true
		b.comms = set
		b.iteration(slots)
	}
	return set.out, nil
}

// commKey identifies one replica-local communication: its kind, payload
// and rank list (a TP group by its first rank and size, a transfer by its
// source and destination).
type commKey struct {
	kind  trace.CommKind
	bytes int64
	a, b  int
}

// commSet collects the distinct replica-local communications one sizing
// pass per stage launches.
type commSet struct {
	seen map[commKey]bool
	out  []ReplicaComm
}

// add records op as the sizing builder b would launch it.
func (s *commSet) add(b *builder, op model.Op) {
	switch op.Group {
	case model.GroupTP:
		if s.put(commKey{op.Comm, op.CommBytes, b.tpRanks[0], len(b.tpRanks)}) {
			s.out = append(s.out, ReplicaComm{Kind: op.Comm, Bytes: op.CommBytes, Ranks: b.tpRanks})
		}
	case model.GroupPPNext, model.GroupPPPrev:
		_, src, dst := b.p2pEnds(op)
		for tp := 0; tp < b.cfg.Map.TP; tp++ {
			if s.put(commKey{op.Comm, op.CommBytes, src + tp, dst + tp}) {
				s.out = append(s.out, ReplicaComm{Kind: op.Comm, Bytes: op.CommBytes, Ranks: []int{src + tp, dst + tp}})
			}
		}
	}
}

// put reports whether k is new, marking it seen.
func (s *commSet) put(k commKey) bool {
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	return true
}
