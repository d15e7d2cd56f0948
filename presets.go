// Named presets: one resolver for every surface that accepts an
// architecture or fabric by name (the lumos CLI, the lumosd planning
// service, config files), so the menus and error messages stay in lockstep.
package lumos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ArchPresetNames lists every valid architecture preset name.
func ArchPresetNames() []string {
	return []string{"15b", "44b", "117b", "175b", "v1", "v2", "v3", "v4"}
}

// ArchPreset resolves an architecture preset by name (case-insensitive):
// the paper's Table 1 GPT-3 sizes ("15b", "44b", "117b", "175b") and
// Table 2 variants ("v1".."v4").
func ArchPreset(name string) (Arch, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "15b":
		return GPT3_15B(), nil
	case "44b":
		return GPT3_44B(), nil
	case "117b":
		return GPT3_117B(), nil
	case "175b":
		return GPT3_175B(), nil
	case "v1":
		return GPT3_V1(), nil
	case "v2":
		return GPT3_V2(), nil
	case "v3":
		return GPT3_V3(), nil
	case "v4":
		return GPT3_V4(), nil
	}
	return Arch{}, fmt.Errorf("unknown model %q (want %s)", name, strings.Join(ArchPresetNames(), "|"))
}

// FabricPresetNames lists every valid fabric preset, with a one-line
// description each, for CLI and API error menus.
func FabricPresetNames() []string {
	return []string{
		"flat (alias h100) — the paper's two-tier H100/RoCE testbed",
		"nvl72 — rack-scale 72-GPU NVLink domains under a rail/spine fabric",
		"spine[N] — 8-GPU NVLink servers under a leaf/spine network with an N:1 oversubscribed spine (e.g. spine4)",
	}
}

// FabricPreset resolves a fabric preset for the given world size:
// "flat"/"h100" (the two-tier H100 cluster), "nvl72" (rack-scale NVLink
// domains), or "spineN" (leaf/spine with a finite N:1 oversubscribed
// spine, e.g. spine4). It returns only fabrics that pass Validate: an N
// that slows the spine below the link-bandwidth floor is rejected with
// the preset menu, like an unknown name.
func FabricPreset(name string, world int) (Fabric, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	var f Fabric
	switch {
	case n == "flat" || n == "h100":
		f = H100Cluster(world)
	case n == "nvl72":
		f = NVLDomainFabric(world)
	case strings.HasPrefix(n, "spine"):
		factor := 1.0
		if rest := strings.TrimPrefix(n, "spine"); rest != "" {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil || !(v >= 1) || math.IsInf(v, 1) { // NaN-rejecting
				return nil, fabricPresetError(name, "bad oversubscription factor (want spine[N] with finite N >= 1, e.g. spine4)")
			}
			factor = v
		}
		f = OversubscribedFabric(world, factor)
	default:
		return nil, fabricPresetError(name, "unknown preset")
	}
	if err := f.Validate(); err != nil {
		return nil, fabricPresetError(name, err.Error())
	}
	return f, nil
}

// fabricPresetError reports a rejected preset name with the preset menu.
func fabricPresetError(name, why string) error {
	return fmt.Errorf("fabric %q: %s; valid presets:\n  %s", name, why, strings.Join(FabricPresetNames(), "\n  "))
}
