// Package parallel composes model ops into per-rank training programs under
// 3D parallelism: tensor-parallel shapes (delegated to model), pipeline
// schedules (delegated to internal/schedule: GPipe, 1F1B per the paper's
// Figure 4, interleaved 1F1B and zero-bubble ZB-H1), data-parallel gradient
// bucketing, and the CPU-thread / CUDA-stream / event-sync structure that
// the ground-truth cluster simulator executes.
package parallel

import (
	"fmt"

	"lumos/internal/schedule"
)

// SchedulePolicy selects the pipeline schedule. It is an alias of the
// schedule subsystem's Policy; the historical OneFOneB/GPipe constants keep
// their values.
type SchedulePolicy = schedule.Policy

const (
	// OneFOneB is the memory-efficient interleaving from Narayanan et al.
	// 2021, used throughout the paper.
	OneFOneB = schedule.OneFOneB
	// GPipe runs all forwards then all backwards.
	GPipe = schedule.GPipe
	// Interleaved is interleaved 1F1B with Config.VirtualStages model
	// chunks per rank (virtual pipeline stages).
	Interleaved = schedule.Interleaved
	// ZBH1 is the zero-bubble ZB-H1 schedule (split B/W backward).
	ZBH1 = schedule.ZBH1
)

// SlotKind is a schedule slot type (alias of schedule.Kind).
type SlotKind = schedule.Kind

const (
	SlotForward  = schedule.Forward
	SlotBackward = schedule.Backward
	// SlotWeight is the zero-bubble deferred weight-gradient pass.
	SlotWeight = schedule.Weight
)

// Slot is one schedule entry: run the given pass of a microbatch (and model
// chunk) on this stage.
type Slot = schedule.Slot

// ScheduleSpec returns the deployment's schedule choice as a parseable
// spec (policy + virtual-stage count).
func (c Config) ScheduleSpec() schedule.Spec {
	return schedule.Spec{Policy: c.Schedule, Virtual: c.VirtualStages}
}

// generator resolves the deployment's schedule generator.
func (c Config) generator() (schedule.Generator, error) {
	gen, err := schedule.New(c.Schedule, c.VirtualStages)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return gen, nil
}

// VirtualChunks returns the number of model chunks each rank hosts: the
// interleaved schedule's virtual-stage count, 1 for flat schedules.
func (c Config) VirtualChunks() int {
	if c.Schedule == Interleaved && c.VirtualStages > 1 {
		return c.VirtualStages
	}
	return 1
}

// GlobalStages returns the virtual pipeline depth PP × chunks.
func (c Config) GlobalStages() int { return c.Map.PP * c.VirtualChunks() }

// LayersPerChunk returns the layer count of one model chunk — the
// activation granularity one in-flight schedule slot holds resident.
func (c Config) LayersPerChunk() int { return c.Arch.Layers / c.GlobalStages() }

// ChunkLayers returns the global layer index range [lo, hi) hosted by the
// given (stage, chunk): chunk c on stage s is virtual pipeline stage
// c·PP + s.
func (c Config) ChunkLayers(stage, chunk int) (lo, hi int) {
	lpc := c.LayersPerChunk()
	g := chunk*c.Map.PP + stage
	return g * lpc, (g + 1) * lpc
}

// StageSlots returns the deployment's slot sequence for one pipeline stage
// under its configured schedule.
func (c Config) StageSlots(stage int) ([]Slot, error) {
	gen, err := c.generator()
	if err != nil {
		return nil, err
	}
	slots, err := gen.Slots(stage, c.Map.PP, c.Microbatches)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return slots, nil
}

// PeakInFlight returns the peak number of in-flight chunk-microbatches on
// the given pipeline stage under the config's schedule — the
// activation-memory pressure the memory model charges, in units of one
// model chunk's layer activations (LayersPerChunk layers each). For 1F1B
// this is min(PP-stage, microbatches); GPipe holds the full microbatch
// count; interleaved holds the deeper virtual warmup; ZB-H1 matches 1F1B
// (the B pass releases the bulk activations, only the W pass's small
// weight-gradient inputs outlive it).
func (c Config) PeakInFlight(stage int) (int, error) {
	slots, err := c.StageSlots(stage)
	if err != nil {
		return 0, err
	}
	return schedule.InFlight(slots), nil
}
