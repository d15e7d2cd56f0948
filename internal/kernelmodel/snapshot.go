// Fitted-model persistence: the least-squares calibration is a pure
// function of the traces and the fabric, so its coefficients can be
// snapshotted and reloaded instead of refit per process. Coefficients are
// float64 and Go's JSON encoder emits the shortest round-trip
// representation, so a reloaded model predicts bit-identically to the one
// that was fit. Entries are sorted for deterministic encoding.

package kernelmodel

import (
	"sort"

	"lumos/internal/topology"
	"lumos/internal/trace"
)

// ComputeFitEntry is one per-class linear model in a snapshot.
type ComputeFitEntry struct {
	Class trace.KernelClass `json:"class"`
	// A, B, C are the linear model: dur = A + B*flops + C*bytes.
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
	N int     `json:"n"`
}

// CommFitEntry is one per-(kind, tier) alpha-beta model in a snapshot.
type CommFitEntry struct {
	Kind  int     `json:"kind"`
	Tier  int     `json:"tier"`
	Alpha float64 `json:"alpha"`
	InvBW float64 `json:"inv_bw"`
	N     int     `json:"n"`
}

// FittedSnapshot is the serializable form of a Fitted model, minus the
// fabric and fallback predictor (the loader re-binds both; the cache key
// already pins the fabric).
type FittedSnapshot struct {
	Compute []ComputeFitEntry `json:"compute"`
	Comm    []CommFitEntry    `json:"comm"`
}

// Snapshot extracts the fitted coefficients in deterministic (sorted)
// order.
func (f *Fitted) Snapshot() FittedSnapshot {
	s := FittedSnapshot{
		Compute: make([]ComputeFitEntry, 0, len(f.compute)),
		Comm:    make([]CommFitEntry, 0, len(f.comm)),
	}
	for class, fit := range f.compute {
		s.Compute = append(s.Compute, ComputeFitEntry{
			Class: class, A: fit.a, B: fit.b, C: fit.c, N: fit.n,
		})
	}
	sort.Slice(s.Compute, func(i, j int) bool { return s.Compute[i].Class < s.Compute[j].Class })
	for key, fit := range f.comm {
		s.Comm = append(s.Comm, CommFitEntry{
			Kind: key[0], Tier: key[1], Alpha: fit.alpha, InvBW: fit.invBW, N: fit.n,
		})
	}
	sort.Slice(s.Comm, func(i, j int) bool {
		a, b := s.Comm[i], s.Comm[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Tier < b.Tier
	})
	return s
}

// FittedFromSnapshot reconstructs a Fitted model over the given fabric and
// fallback predictor. The fabric must structurally match the one the
// snapshot was fit against (tier classification feeds comm keys);
// content-addressed cache keys enforce that by construction.
func FittedFromSnapshot(s FittedSnapshot, fabric topology.Fabric, fallback Predictor) *Fitted {
	f := &Fitted{
		fabric:   fabric,
		compute:  make(map[trace.KernelClass]*computeFit, len(s.Compute)),
		comm:     make(map[[2]int]*commFit, len(s.Comm)),
		fallback: fallback,
	}
	for _, e := range s.Compute {
		f.compute[e.Class] = &computeFit{a: e.A, b: e.B, c: e.C, n: e.N}
	}
	for _, e := range s.Comm {
		f.comm[[2]int{e.Kind, e.Tier}] = &commFit{alpha: e.Alpha, invBW: e.InvBW, n: e.N}
	}
	return f
}
