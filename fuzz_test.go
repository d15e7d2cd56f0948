package lumos

import (
	"testing"

	"lumos/internal/collective"
	"lumos/internal/trace"
)

// FuzzFabricPricing checks that no fabric the presets and DegradeFabric
// accept can price a collective outside trace.Dur's range. Whenever both
// accept the inputs, the fabric validates, and the default pricer's cost
// of any primitive between two of its ranks, for a payload of at most
// 1 TiB, is at least the launch overhead: it never wraps negative.
//
// The seed corpus in testdata/fuzz/FuzzFabricPricing holds the
// reproductions — spines oversubscribed by inf, +Inf, NaN and 1e12, and a
// 1e-12 network degrade of the flat preset — so plain go test replays
// them; make fuzz-smoke explores beyond it.
func FuzzFabricPricing(f *testing.F) {
	f.Add("flat", 16, 0.5, uint8(trace.CommAllReduce), int64(1<<30), 0, 8)
	f.Add("nvl72", 1152, 0.75, uint8(trace.CommSend), int64(64<<20), 0, 576)
	f.Fuzz(func(t *testing.T, name string, world int, factor float64, kind uint8, bytes int64, a, b int) {
		fab, err := FabricPreset(name, world)
		if err != nil {
			return
		}
		if fab, err = DegradeFabric(fab, NetworkDegradeFactors(factor)...); err != nil {
			return
		}
		if err := fab.Validate(); err != nil {
			t.Fatalf("accepted fabric %s fails Validate: %v", fab.FabricName(), err)
		}
		const maxBytes = 1 << 40
		if bytes %= maxBytes + 1; bytes < 0 {
			bytes = -bytes
		}
		ranks := []int{nonNegMod(a, fab.Capacity()), nonNegMod(b, fab.Capacity())}
		k := trace.CommKind(int(kind) % (int(trace.CommAllToAll) + 1))
		p := collective.NewPricer(fab)
		if d := p.Cost(k, bytes, ranks); float64(d) < p.LaunchOverhead {
			t.Fatalf("%s: %v of %d bytes over ranks %v prices at %d ns, below the %g ns launch overhead",
				fab.FabricName(), k, bytes, ranks, d, p.LaunchOverhead)
		}
	})
}

// nonNegMod is x mod n in [0, n).
func nonNegMod(x, n int) int {
	if x %= n; x < 0 {
		x += n
	}
	return x
}
