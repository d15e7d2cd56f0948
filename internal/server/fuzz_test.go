package server

import (
	"bytes"
	"testing"

	"lumos/internal/execgraph"
	"lumos/internal/replay"
)

// FuzzRequestBuilders decodes arbitrary bytes strictly, as lumosd decodes
// a request body, both as a PlanRequest and as a SweepRequest, and runs
// the campaign builders against the fig7 base. No body may panic them, and
// every campaign they accept is within the admission limits.
//
// The seed corpus in testdata/fuzz/FuzzRequestBuilders holds the README
// quickstart plan body, a serve-plan-shaped body (131,072 points) and a
// plan body with 600 values on each axis, so plain go test replays them;
// make fuzz-smoke explores beyond them.
func FuzzRequestBuilders(f *testing.F) {
	f.Add([]byte(`{"profile":"fig7","pp_range":[1,2],"dp_range":[1,2],"schedules":["1f1b","gpipe"],"fabrics":["nvl72"],"degrade":[1,0.5],"whatif":true,"top":3}`))
	base, err := testDeployment().config()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var plan PlanRequest
		if decodeStrict(bytes.NewReader(body), &plan) == nil {
			if space, err := plan.Space(base); err == nil {
				if n := space.Size(base); n > MaxPlanPoints {
					t.Fatalf("accepted a %d-point space, over the limit of %d", n, MaxPlanPoints)
				}
			}
			plan.Options()
		}
		var sweep SweepRequest
		if decodeStrict(bytes.NewReader(body), &sweep) == nil {
			if scenarios, err := sweep.Scenarios(base); err == nil && len(scenarios) > MaxSweepScenarios {
				t.Fatalf("accepted %d scenarios, over the limit of %d", len(scenarios), MaxSweepScenarios)
			}
		}
	})
}

// FuzzDecodeTrace feeds arbitrary bytes down lumosd's inline Kineto path:
// the bytes are one rank of a POST /v1/profiles "traces" list, decoded by
// the handler's own loader, built into an execution graph, and replayed on
// the compiled engine lumosd runs and on the reference simulator. No input
// may panic any of them; a malformed trace is an error.
//
// The seed corpus in testdata/fuzz/FuzzDecodeTrace holds a trimmed
// `lumos tracegen` rank (GPT-3 15B, TP2, one microbatch: the opening
// forward events, a backward stretch on the autograd thread and the
// closing events), so plain go test replays it; make fuzz-smoke explores
// beyond it.
func FuzzDecodeTrace(f *testing.F) {
	s := New(Config{})
	base, err := testDeployment().config()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := s.loadProfileTraces(t.Context(), &ProfileRequest{Traces: []rawTrace{data}}, base)
		if err != nil {
			return
		}
		g, err := execgraph.Build(m, execgraph.DefaultOptions())
		if err != nil {
			return
		}
		replay.Compile(g, replay.DefaultOptions()).Run(replay.Timings{}, replay.NewScratch())
		replay.Run(g, replay.DefaultOptions())
	})
}
