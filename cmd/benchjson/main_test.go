package main

import (
	"reflect"
	"testing"
)

func TestParseLineLabels(t *testing.T) {
	cases := []struct {
		line   string
		labels map[string]string
	}{
		{
			line:   "BenchmarkPlan_Strategies/strategy=exhaustive-8 	      20	  52047619 ns/op	       374.2 best-ms",
			labels: map[string]string{"strategy": "exhaustive"},
		},
		{
			// Composite label: the strategy segment is followed by a space
			// segment, and only the last segment carries the proc suffix.
			line:   "BenchmarkPlan_BranchAndBound/strategy=bnb/space=131072-8 	       1	1167756151 ns/op	        65.00 simulated-points",
			labels: map[string]string{"strategy": "bnb", "space": "131072"},
		},
		{
			line:   "BenchmarkSweep_FabricCampaign/fabric=nvl72-8 	      20	  1000000 ns/op",
			labels: map[string]string{"fabric": "nvl72"},
		},
		{
			// A value that itself contains a dash keeps it.
			line:   "BenchmarkSweep_ScheduleCampaign/schedule=zb-h1-8 	      20	  1000000 ns/op",
			labels: map[string]string{"schedule": "zb-h1"},
		},
		{
			line:   "BenchmarkSweep_DiskCacheWarmStart/cache=warm-8 	      20	  1000000 ns/op",
			labels: map[string]string{"cache": "warm"},
		},
		{
			// Without a GOMAXPROCS suffix (GOMAXPROCS=1) nothing is stripped.
			line:   "BenchmarkSynthesize/schedule=interleaved2 	      20	  1000000 ns/op",
			labels: map[string]string{"schedule": "interleaved2"},
		},
		{
			// Segments without "=" are not labels.
			line:   "BenchmarkReplayEngine-8 	      20	  1000000 ns/op",
			labels: nil,
		},
		{
			line:   "BenchmarkFig5/lumos/model=15b-8 	      20	  1000000 ns/op",
			labels: map[string]string{"model": "15b"},
		},
	}
	for _, c := range cases {
		r, ok := parseLine(c.line)
		if !ok {
			t.Errorf("parseLine rejected %q", c.line)
			continue
		}
		if !reflect.DeepEqual(r.Labels, c.labels) {
			t.Errorf("%s: labels = %v, want %v", r.Name, r.Labels, c.labels)
		}
	}
}
