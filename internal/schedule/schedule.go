// Package schedule is the pipeline-schedule subsystem: pluggable generators
// that turn a (policy, stages, microbatches) triple into the per-stage slot
// sequence every other layer consumes. The slot sequence is the single
// source of truth for a schedule — the program builder (internal/parallel)
// lowers it to instructions the cluster simulator executes, the memory
// model (internal/memcost) charges its peak in-flight activation pressure,
// and the planner's analytic bound uses the generator's bubble term to rank
// candidate deployments before any simulation is spent.
//
// Four schedules are built in:
//
//   - GPipe: all forwards, then all backwards. Peak in-flight activation
//     count equals the microbatch count; bubble is (p−1) slots.
//   - 1F1B (Narayanan et al. 2021): warmup / steady one-forward-one-backward
//     / cooldown. Same bubble as GPipe but peak in-flight drops to
//     min(p−stage, m).
//   - Interleaved 1F1B: each rank hosts v model chunks (virtual pipeline
//     stages), shrinking the bubble by ~1/v at the cost of extra in-flight
//     chunk activations and v× more P2P boundary traffic.
//   - ZB-H1 (Qi et al., zero bubble): backward splits into an input-gradient
//     pass B (the only part on the inter-stage critical path) and a deferred
//     weight-gradient pass W that fills the cooldown bubble, at 1F1B-level
//     activation memory.
package schedule

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Policy enumerates the built-in pipeline schedules. The first two values
// mirror the historical parallel.SchedulePolicy constants bit-for-bit.
type Policy uint8

const (
	// OneFOneB is the memory-efficient 1F1B schedule from Narayanan et al.
	// 2021, used throughout the paper.
	OneFOneB Policy = iota
	// GPipe runs all forwards then all backwards.
	GPipe
	// Interleaved is interleaved 1F1B: v model chunks per rank (virtual
	// pipeline stages) shrink the fill/drain bubble by ~1/v.
	Interleaved
	// ZBH1 is the zero-bubble ZB-H1 schedule: backward splits into an
	// input-gradient pass and a deferred weight-gradient pass that fills
	// the cooldown bubble at 1F1B-level activation memory.
	ZBH1
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case OneFOneB:
		return "1F1B"
	case GPipe:
		return "GPipe"
	case Interleaved:
		return "Interleaved"
	case ZBH1:
		return "ZB-H1"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Typed schedule errors. Callers (the planner in particular) classify
// infeasible-schedule points with errors.Is against these sentinels, the
// same way OOM points are classified by the memory model.
var (
	// ErrStage marks a stage index outside [0, stages).
	ErrStage = errors.New("schedule: stage out of range")
	// ErrMicrobatches marks an invalid microbatch count for the schedule.
	ErrMicrobatches = errors.New("schedule: invalid microbatch count")
	// ErrPolicy marks an unknown schedule policy or spec name.
	ErrPolicy = errors.New("schedule: unknown policy")
	// ErrIncompatible marks a (stages, virtual, microbatches) combination
	// the schedule cannot run (e.g. interleaved with one stage).
	ErrIncompatible = errors.New("schedule: incompatible configuration")
)

// IsScheduleError reports whether err is one of the typed schedule errors,
// so search layers can bucket infeasible-schedule points separately from
// generic scope rejections.
func IsScheduleError(err error) bool {
	return errors.Is(err, ErrStage) || errors.Is(err, ErrMicrobatches) ||
		errors.Is(err, ErrPolicy) || errors.Is(err, ErrIncompatible)
}

// Kind is a schedule slot type.
type Kind uint8

const (
	// Forward runs a microbatch's forward pass for one model chunk.
	Forward Kind = iota
	// Backward runs the backward pass — the full fused backward under
	// GPipe/1F1B/interleaved, or only the input-gradient half (the B pass)
	// under zero-bubble schedules.
	Backward
	// Weight runs a deferred weight-gradient pass (the zero-bubble W pass).
	Weight
)

// String names the slot kind.
func (k Kind) String() string {
	switch k {
	case Forward:
		return "F"
	case Backward:
		return "B"
	case Weight:
		return "W"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Slot is one schedule entry: run the given pass of a microbatch for one
// model chunk on this stage. Chunk is always 0 for non-interleaved
// schedules.
type Slot struct {
	Kind       Kind
	Microbatch int
	Chunk      int
}

// Generator produces per-stage slot sequences for one schedule.
// Implementations must be pure: the same inputs always yield the same
// slots, so schedules can be regenerated anywhere (program builder, memory
// model, tests) without coordination.
type Generator interface {
	// Name is the canonical spec name ("1f1b", "gpipe", "interleaved2",
	// "zb-h1") used by CLIs, scenario names and sweep axes.
	Name() string
	// Policy returns the generator's policy constant.
	Policy() Policy
	// Chunks is the number of model chunks each rank hosts (v for
	// interleaved, 1 otherwise).
	Chunks() int
	// Check reports whether the schedule can run with the given stage and
	// microbatch counts: nil, or a typed error. With explain false the
	// error is the bare sentinel (ErrStage, ErrMicrobatches,
	// ErrIncompatible) and no message is formatted: search layers screen
	// thousands of points and keep the messages of only a few.
	Check(stages, microbatches int, explain bool) error
	// Slots returns the slot sequence for one pipeline stage.
	Slots(stage, stages, microbatches int) ([]Slot, error)
	// BubbleCost returns the analytic fill/drain bubble term the planner's
	// bound charges on top of the m·(fwd+bwd) steady-state work, in the
	// same (time) unit as its arguments. fwd and bwd are one microbatch's
	// per-stage forward and full backward cost; wgrad is the weight-gradient
	// share of bwd (zero-bubble schedules fill the bubble with it).
	BubbleCost(fwd, bwd, wgrad int64, stages int) int64
	// P2PFactor is the pipeline boundary-tensor traffic multiplier relative
	// to a flat schedule: v for interleaved (each microbatch crosses every
	// rank v times), 1 otherwise.
	P2PFactor() int
}

// New returns the generator for a policy. virtual is the model-chunk count
// per rank and only meaningful for Interleaved (where it must be >= 2);
// other policies accept 0 or 1.
func New(p Policy, virtual int) (Generator, error) {
	switch p {
	case OneFOneB:
		return oneFOneB{}, nil
	case GPipe:
		return gpipe{}, nil
	case Interleaved:
		if virtual < 2 {
			return nil, fmt.Errorf("%w: interleaved needs >= 2 virtual stages per rank, got %d", ErrIncompatible, virtual)
		}
		return interleaved{v: virtual}, nil
	case ZBH1:
		return zbh1{}, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrPolicy, p)
}

// Spec is a parseable schedule choice: a policy plus its virtual-stage
// parameter. The zero value is plain 1F1B.
type Spec struct {
	Policy Policy
	// Virtual is the model-chunk count per rank (interleaved only).
	Virtual int
}

// Name returns the canonical spec name ("interleaved2", "zb-h1", ...).
func (s Spec) Name() string {
	if s.Policy == Interleaved {
		v := s.Virtual
		if v < 2 {
			v = 2
		}
		return fmt.Sprintf("interleaved%d", v)
	}
	return strings.ToLower(s.Policy.String())
}

// Generator resolves the spec.
func (s Spec) Generator() (Generator, error) { return New(s.Policy, s.Virtual) }

// Names lists every valid spec name pattern, for CLI menus and error
// messages.
func Names() []string {
	return []string{"1f1b", "gpipe", "interleaved[V] (V >= 2 model chunks per rank, e.g. interleaved2)", "zb-h1"}
}

// Parse resolves a spec name: "1f1b", "gpipe", "zb-h1" (alias "zbh1"), or
// "interleaved[V]" with V >= 2 (bare "interleaved" selects V=2). Unknown
// names return ErrPolicy with the full menu of valid options.
func Parse(name string) (Spec, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "1f1b":
		return Spec{Policy: OneFOneB}, nil
	case "gpipe":
		return Spec{Policy: GPipe}, nil
	case "zb-h1", "zbh1":
		return Spec{Policy: ZBH1}, nil
	}
	if rest, ok := strings.CutPrefix(n, "interleaved"); ok {
		if rest == "" {
			return Spec{Policy: Interleaved, Virtual: 2}, nil
		}
		v, err := strconv.Atoi(rest)
		if err != nil || v < 2 {
			return Spec{}, fmt.Errorf("%w: bad virtual-stage count in %q (want interleaved[V] with V >= 2, e.g. interleaved2)", ErrPolicy, name)
		}
		return Spec{Policy: Interleaved, Virtual: v}, nil
	}
	return Spec{}, fmt.Errorf("%w: %q; valid schedules: %s", ErrPolicy, name, strings.Join(Names(), ", "))
}

// checkArgs validates the shared (stage, stages, microbatches) domain,
// returning bare sentinels unless explain is set.
func checkArgs(stage, stages, microbatches int, explain bool) error {
	if stages < 1 || stage < 0 || stage >= stages {
		if !explain {
			return ErrStage
		}
		return fmt.Errorf("%w: stage %d of %d", ErrStage, stage, stages)
	}
	if microbatches < 1 {
		if !explain {
			return ErrMicrobatches
		}
		return fmt.Errorf("%w: must be >= 1, got %d", ErrMicrobatches, microbatches)
	}
	return nil
}

// --- GPipe ------------------------------------------------------------------

type gpipe struct{}

func (gpipe) Name() string   { return "gpipe" }
func (gpipe) Policy() Policy { return GPipe }
func (gpipe) Chunks() int    { return 1 }
func (gpipe) P2PFactor() int { return 1 }

func (gpipe) Check(stages, microbatches int, explain bool) error {
	return checkArgs(0, stages, microbatches, explain)
}

func (gpipe) Slots(stage, stages, microbatches int) ([]Slot, error) {
	if err := checkArgs(stage, stages, microbatches, true); err != nil {
		return nil, err
	}
	slots := make([]Slot, 0, 2*microbatches)
	for m := 0; m < microbatches; m++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: m})
	}
	for m := 0; m < microbatches; m++ {
		slots = append(slots, Slot{Kind: Backward, Microbatch: m})
	}
	return slots, nil
}

func (gpipe) BubbleCost(fwd, bwd, _ int64, stages int) int64 {
	return int64(stages-1) * (fwd + bwd)
}

// --- 1F1B -------------------------------------------------------------------

type oneFOneB struct{}

func (oneFOneB) Name() string   { return "1f1b" }
func (oneFOneB) Policy() Policy { return OneFOneB }
func (oneFOneB) Chunks() int    { return 1 }
func (oneFOneB) P2PFactor() int { return 1 }

func (oneFOneB) Check(stages, microbatches int, explain bool) error {
	if err := checkArgs(0, stages, microbatches, explain); err != nil {
		return err
	}
	if microbatches < stages {
		if !explain {
			return ErrMicrobatches
		}
		return fmt.Errorf("%w: 1F1B needs microbatches (%d) >= stages (%d) to fill the pipeline",
			ErrMicrobatches, microbatches, stages)
	}
	return nil
}

// Slots emits the standard warmup / steady 1F1B / cooldown structure;
// Figure 4 of the paper is exactly this sequence for stage 0. The output is
// bit-identical to the 1F1B builder that predates this package
// (TestOneFOneBBitIdenticalToLegacy).
func (oneFOneB) Slots(stage, stages, microbatches int) ([]Slot, error) {
	if err := checkArgs(stage, stages, microbatches, true); err != nil {
		return nil, err
	}
	slots := make([]Slot, 0, 2*microbatches)
	warmup := stages - stage - 1
	if warmup > microbatches {
		warmup = microbatches
	}
	steady := microbatches - warmup
	for m := 0; m < warmup; m++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: m})
	}
	for i := 0; i < steady; i++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: warmup + i})
		slots = append(slots, Slot{Kind: Backward, Microbatch: i})
	}
	for m := steady; m < microbatches; m++ {
		slots = append(slots, Slot{Kind: Backward, Microbatch: m})
	}
	return slots, nil
}

func (oneFOneB) BubbleCost(fwd, bwd, _ int64, stages int) int64 {
	return int64(stages-1) * (fwd + bwd)
}

// --- Interleaved 1F1B -------------------------------------------------------

// interleaved is the Narayanan et al. interleaved schedule: each rank hosts
// v model chunks, so stage s executes global stages s, s+p, ..., s+(v−1)p
// and every microbatch crosses every rank v times. Forward order follows
// Megatron's chunk-major grouping: within each group of p·v virtual
// microbatches, p consecutive microbatches run chunk 0, then chunk 1, and
// so on; backward mirrors it with chunks reversed.
type interleaved struct{ v int }

func (g interleaved) Name() string   { return fmt.Sprintf("interleaved%d", g.v) }
func (interleaved) Policy() Policy   { return Interleaved }
func (g interleaved) Chunks() int    { return g.v }
func (g interleaved) P2PFactor() int { return g.v }

func (g interleaved) Check(stages, microbatches int, explain bool) error {
	if err := checkArgs(0, stages, microbatches, explain); err != nil {
		return err
	}
	if stages < 2 {
		if !explain {
			return ErrIncompatible
		}
		return fmt.Errorf("%w: interleaved needs >= 2 pipeline stages, got %d", ErrIncompatible, stages)
	}
	if microbatches%stages != 0 {
		if !explain {
			return ErrMicrobatches
		}
		return fmt.Errorf("%w: interleaved needs microbatches (%d) divisible by pipeline stages (%d)",
			ErrMicrobatches, microbatches, stages)
	}
	return nil
}

// order maps the k-th virtual microbatch of the rank's forward (or, with
// chunks reversed, backward) sequence to its (chunk, microbatch) pair.
func (g interleaved) order(k, stages int, backward bool) (chunk, mb int) {
	group := stages * g.v
	idx := k % group
	chunk = idx / stages
	if backward {
		chunk = g.v - 1 - chunk
	}
	mb = (k/group)*stages + idx%stages
	return chunk, mb
}

func (g interleaved) Slots(stage, stages, microbatches int) ([]Slot, error) {
	if err := checkArgs(stage, stages, microbatches, true); err != nil {
		return nil, err
	}
	if err := g.Check(stages, microbatches, true); err != nil {
		return nil, err
	}
	total := microbatches * g.v
	// Megatron's warmup count: each chunk boundary adds a pipeline's worth
	// of fill, and deeper stages start later.
	warmup := (stages-stage-1)*2 + (g.v-1)*stages
	if warmup > total {
		warmup = total
	}
	slots := make([]Slot, 0, 2*total)
	for k := 0; k < warmup; k++ {
		c, m := g.order(k, stages, false)
		slots = append(slots, Slot{Kind: Forward, Microbatch: m, Chunk: c})
	}
	for j := 0; j < total-warmup; j++ {
		c, m := g.order(warmup+j, stages, false)
		slots = append(slots, Slot{Kind: Forward, Microbatch: m, Chunk: c})
		c, m = g.order(j, stages, true)
		slots = append(slots, Slot{Kind: Backward, Microbatch: m, Chunk: c})
	}
	for k := total - warmup; k < total; k++ {
		c, m := g.order(k, stages, true)
		slots = append(slots, Slot{Kind: Backward, Microbatch: m, Chunk: c})
	}
	return slots, nil
}

func (g interleaved) BubbleCost(fwd, bwd, _ int64, stages int) int64 {
	return int64(stages-1) * (fwd + bwd) / int64(g.v)
}

// --- ZB-H1 ------------------------------------------------------------------

// zbh1 is the handcrafted zero-bubble H1 schedule: the 1F1B skeleton with
// every backward split into an input-gradient pass B (emitted in the 1F1B
// backward position, so the upstream gradient send leaves as early as
// possible) and a weight-gradient pass W emitted immediately after it. W has
// no cross-stage dependencies, so under the simulator's dataflow execution
// it fills the cooldown gaps 1F1B spends waiting for downstream gradients —
// while the peak in-flight forward count (and therefore activation memory)
// stays exactly 1F1B's.
type zbh1 struct{}

func (zbh1) Name() string   { return "zb-h1" }
func (zbh1) Policy() Policy { return ZBH1 }
func (zbh1) Chunks() int    { return 1 }
func (zbh1) P2PFactor() int { return 1 }

func (zbh1) Check(stages, microbatches int, explain bool) error {
	if err := checkArgs(0, stages, microbatches, explain); err != nil {
		return err
	}
	if microbatches < stages {
		if !explain {
			return ErrMicrobatches
		}
		return fmt.Errorf("%w: ZB-H1 needs microbatches (%d) >= stages (%d) to fill the pipeline",
			ErrMicrobatches, microbatches, stages)
	}
	return nil
}

func (zbh1) Slots(stage, stages, microbatches int) ([]Slot, error) {
	if err := checkArgs(stage, stages, microbatches, true); err != nil {
		return nil, err
	}
	slots := make([]Slot, 0, 3*microbatches)
	warmup := stages - stage - 1
	if warmup > microbatches {
		warmup = microbatches
	}
	steady := microbatches - warmup
	for m := 0; m < warmup; m++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: m})
	}
	for i := 0; i < steady; i++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: warmup + i})
		slots = append(slots, Slot{Kind: Backward, Microbatch: i})
		slots = append(slots, Slot{Kind: Weight, Microbatch: i})
	}
	for m := steady; m < microbatches; m++ {
		slots = append(slots, Slot{Kind: Backward, Microbatch: m})
		slots = append(slots, Slot{Kind: Weight, Microbatch: m})
	}
	return slots, nil
}

func (zbh1) BubbleCost(fwd, bwd, wgrad int64, stages int) int64 {
	// The W pass fills the drain bubble: only the input-gradient share of
	// backward stays on the fill/drain critical path.
	b := fwd + bwd - wgrad
	if b < 0 {
		b = 0
	}
	return int64(stages-1) * b
}

// --- Shared slot analysis ---------------------------------------------------

// ValidateSlots checks the invariants every correct pipeline schedule must
// satisfy, generalized over model chunks: each (chunk, microbatch) pair has
// exactly one forward and one backward with the backward after the forward,
// and at most one weight pass, after its backward. chunks <= 1 validates a
// flat schedule.
func ValidateSlots(slots []Slot, microbatches, chunks int) error {
	if chunks < 1 {
		chunks = 1
	}
	n := microbatches * chunks
	fwdAt := make([]int, n)
	bwdAt := make([]int, n)
	wAt := make([]int, n)
	for i := range fwdAt {
		fwdAt[i], bwdAt[i], wAt[i] = -1, -1, -1
	}
	for i, s := range slots {
		if s.Microbatch < 0 || s.Microbatch >= microbatches {
			return fmt.Errorf("schedule: slot %d references microbatch %d outside [0,%d)", i, s.Microbatch, microbatches)
		}
		if s.Chunk < 0 || s.Chunk >= chunks {
			return fmt.Errorf("schedule: slot %d references chunk %d outside [0,%d)", i, s.Chunk, chunks)
		}
		key := s.Chunk*microbatches + s.Microbatch
		switch s.Kind {
		case Forward:
			if fwdAt[key] != -1 {
				return fmt.Errorf("schedule: duplicate forward for chunk %d microbatch %d", s.Chunk, s.Microbatch)
			}
			fwdAt[key] = i
		case Backward:
			if bwdAt[key] != -1 {
				return fmt.Errorf("schedule: duplicate backward for chunk %d microbatch %d", s.Chunk, s.Microbatch)
			}
			bwdAt[key] = i
		case Weight:
			if wAt[key] != -1 {
				return fmt.Errorf("schedule: duplicate weight pass for chunk %d microbatch %d", s.Chunk, s.Microbatch)
			}
			wAt[key] = i
		}
	}
	for c := 0; c < chunks; c++ {
		for m := 0; m < microbatches; m++ {
			key := c*microbatches + m
			if fwdAt[key] == -1 {
				return fmt.Errorf("schedule: missing forward for chunk %d microbatch %d", c, m)
			}
			if bwdAt[key] == -1 {
				return fmt.Errorf("schedule: missing backward for chunk %d microbatch %d", c, m)
			}
			if bwdAt[key] < fwdAt[key] {
				return fmt.Errorf("schedule: backward of chunk %d microbatch %d at slot %d precedes its forward at %d",
					c, m, bwdAt[key], fwdAt[key])
			}
			if wAt[key] != -1 && wAt[key] < bwdAt[key] {
				return fmt.Errorf("schedule: weight pass of chunk %d microbatch %d at slot %d precedes its backward at %d",
					c, m, wAt[key], bwdAt[key])
			}
		}
	}
	return nil
}

// InFlight returns the peak number of chunk-microbatches whose forward has
// run but whose backward has not — the activation-memory pressure the
// memory model charges, in units of one chunk's layer activations. Weight
// passes do not hold the bulk activations (the B pass releases them), which
// is exactly ZB-H1's memory story.
func InFlight(slots []Slot) int {
	cur, peak := 0, 0
	for _, s := range slots {
		switch s.Kind {
		case Forward:
			cur++
			if cur > peak {
				peak = cur
			}
		case Backward:
			cur--
		}
	}
	return peak
}
