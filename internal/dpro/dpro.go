// Package dpro re-implements the modeling assumptions of dPRO (Hu et al.,
// MLSys 2022), the paper's baseline: a global dataflow graph replayer that
// tracks operator/kernel dependencies and cross-rank communication but does
// NOT recover event-based GPU→GPU inter-stream dependencies. Without them,
// communication kernels are free to run as soon as they are launched,
// which over-estimates computation/communication overlap and under-
// estimates iteration time — the exact failure mode Figure 1 and Figure 5
// of the Lumos paper demonstrate.
//
// The baseline is two option sets for the shared graph builder and replay
// engine: build with BuildOptions, replay with ReplayOptions
// (Toolkit.ReplayDPRO composes them).
package dpro

import (
	"lumos/internal/execgraph"
	"lumos/internal/replay"
)

// BuildOptions returns dPRO's graph-construction settings: identical to
// Lumos except that only compute→comm inter-stream dependencies survive
// (dPRO's operator-level dataflow knows a collective consumes a produced
// tensor) while comm→compute event dependencies are lost, which is the
// source of its overlap over-estimation.
func BuildOptions() execgraph.BuildOptions {
	opts := execgraph.DefaultOptions()
	opts.InterStream = execgraph.InterStreamComputeToComm
	return opts
}

// ReplayOptions returns dPRO's replay settings. dPRO replays every kernel
// with its recorded duration — including the rendezvous wait baked into
// communication kernels — and does not re-derive collective timing from
// cross-rank readiness, so collective coupling is disabled.
func ReplayOptions() replay.Options {
	opts := replay.DefaultOptions()
	opts.CoupleCollectives = false
	return opts
}
