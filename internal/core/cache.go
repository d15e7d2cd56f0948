// Disk-cache integration: the persistence layer that makes campaigns
// warm-start across processes, users and deploys.
//
// Two artifact families are cached, both content-addressed in an
// internal/scache store:
//
//   - Calibration (kernel library + fitted model), keyed by the trace-set
//     fingerprint and the fabric. BuildLibrary and Fit are pure functions
//     of those inputs, so identical trace dirs stop paying for
//     re-calibration on every sweep/plan invocation.
//
//   - Scenario results, keyed by hash(profile fingerprint ‖ scenario
//     fingerprint ‖ cache-schema version) and layered *under* the
//     in-memory memo: the memo serves within-process repeats, the disk
//     serves cross-process ones, and a disk hit seeds the memo.
//
// Every key embeds CacheSchemaVersion, so a prediction-semantics change
// invalidates old entries by construction — stale cross-process hits are
// impossible, not merely unlikely. Cache reads and writes put their
// instant events on the tracer of the calling context.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lumos/internal/kernelmodel"
	"lumos/internal/manip"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/scache"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// CacheSchemaVersion names the semantic version of everything this package
// persists: scenario results and calibration snapshots. Bump it whenever
// prediction semantics change (graph construction, replay, calibration,
// pricing), so upgraded binaries never serve results computed under the old
// model.
// v2: planner fabric/degrade points re-time a structurally shared graph
// (replayed makespan) instead of re-synthesizing, shifting their
// predictions within ~1% of the v1 synthesis path.
// v3: sweep fabric/degrade rows and plan points share one pricing path —
// every collective scaled by target/campaign cost and the replay anchored
// to the synthesized iteration — so both kinds of answer changed.
// v4: the flat H100 preset is a two-tier HierFabric priced by HierPricer,
// so its fabric and pricer fingerprints changed; no answer did.
// v5: the graph and replay options left the toolkit, so the profile
// fingerprint no longer digests them; no answer changed.
// v6: every fabric is priced by collective.NewPricer, so calibration and
// profile keys no longer digest a pricer; no answer changed.
const CacheSchemaVersion = "lumos-cache-v6"

// WithDiskCache enables the disk-backed scenario and calibration cache
// rooted at dir (created on first use). Campaigns warm-start from
// entries written by earlier processes at the same dir; results served
// from disk are bit-identical to uncached runs.
func WithDiskCache(dir string) Option {
	return func(o *Options) { o.CacheDir = dir }
}

// WithDiskCacheCap sets the disk cache eviction size cap in bytes
// (least-recently-used entries are evicted beyond it). n <= 0 selects the
// scache default.
func WithDiskCacheCap(n int64) Option {
	return func(o *Options) { o.CacheCap = n }
}

// diskCache lazily opens the configured cache directory, once per toolkit.
// It returns (nil, nil) when no cache dir is configured.
func (tk *Toolkit) diskCache() (*scache.Cache, error) {
	if tk.opts.CacheDir == "" {
		return nil, nil
	}
	tk.cacheOnce.Do(func() {
		tk.cache, tk.cacheErr = scache.Open(tk.opts.CacheDir, tk.opts.CacheCap)
	})
	return tk.cache, tk.cacheErr
}

// DiskCacheStats reports the process-wide disk cache counters; ok is false
// when no disk cache is configured (or it failed to open).
func (tk *Toolkit) DiskCacheStats() (scache.Stats, bool) {
	c, err := tk.diskCache()
	if c == nil || err != nil {
		return scache.Stats{}, false
	}
	return c.Stats(), true
}

// calibrationKey addresses a calibration snapshot. Deliberately narrower
// than the profile fingerprint: BuildLibrary and Fit depend only on the
// traces and the fabric, not on the deployment config, so one calibration
// serves every campaign over the same profile.
func calibrationKey(traceFP string, f topology.Fabric) string {
	return fmt.Sprintf("calib|%s|%s|%s", CacheSchemaVersion, traceFP, topology.FabricID(f))
}

// profileFingerprint digests everything a scenario result depends on
// besides the scenario itself: the profiled traces, the deployment they
// were collected under, and the fabric. It is the profile half of every
// scenario disk key.
func profileFingerprint(cfg parallel.Config, traceFP string, f topology.Fabric) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%s\n", CacheSchemaVersion)
	fmt.Fprintf(h, "traces=%s\n", traceFP)
	fmt.Fprintf(h, "fabric=%s\n", topology.FabricID(f))
	fmt.Fprintf(h, "config=%+v\n", cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// calibrationSnapshot is the cached calibration payload.
type calibrationSnapshot struct {
	Library manip.LibrarySnapshot      `json:"library"`
	Fitted  kernelmodel.FittedSnapshot `json:"fitted"`
}

// calibrationFor builds (or loads) the kernel library and fitted model for
// a profile on a fabric. On a disk hit the expensive extraction and
// least-squares fit are skipped entirely — and libraryBuilds is not
// incremented, so Counters() lets callers verify reuse. traceFP may be
// empty when no disk cache is configured. The calibrate span and the disk
// cache's events go to ctx's tracer.
func (tk *Toolkit) calibrationFor(ctx context.Context, m *trace.Multi, f topology.Fabric, traceFP string) (*manip.Library, *kernelmodel.Fitted, error) {
	sp := obs.TracerFrom(ctx).Start("pipeline", "calibrate")
	defer sp.End()
	fallback := func() kernelmodel.Predictor {
		return kernelmodel.NewOracleFabric(f)
	}
	var disk *scache.Cache
	var key string
	if traceFP != "" {
		if c, err := tk.diskCache(); err != nil {
			return nil, nil, err
		} else if c != nil {
			disk = c
			key = calibrationKey(traceFP, f)
			// GetInto discards payloads that validate at the envelope level
			// but do not decode (a foreign writer at our key); we then fall
			// through and overwrite with a fresh calibration.
			var snap calibrationSnapshot
			if disk.GetInto(ctx, key, &snap) {
				sp.Annotate("disk", "hit")
				lib := manip.LibraryFromSnapshot(snap.Library, f)
				fitted := kernelmodel.FittedFromSnapshot(snap.Fitted, f, fallback())
				return lib, fitted, nil
			}
			sp.Annotate("disk", "miss")
		}
	}

	sp.Annotate("fitted", true)
	tk.libraryBuilds.Add(1)
	lib := manip.BuildLibrary(m, f)
	fitted, err := kernelmodel.Fit([]*trace.Multi{m}, f, fallback())
	if err != nil {
		return nil, nil, fmt.Errorf("core: fitting kernel model: %w", err)
	}
	if disk != nil {
		snap := calibrationSnapshot{Library: lib.Snapshot(), Fitted: fitted.Snapshot()}
		if payload, err := json.Marshal(snap); err == nil {
			// Cache write failures (full disk, permissions) cost only the
			// warm start, never the campaign.
			_ = disk.Put(ctx, key, payload)
		}
	}
	return lib, fitted, nil
}

// scenarioDiskKey addresses one scenario result under one profile. The
// scenario fingerprint is hex-encoded: a deployment's is a raw digest, and
// the entry stores its key as a JSON string, which would replace the
// digest's invalid UTF-8 and never match on read.
func scenarioDiskKey(profileFP, scenarioFP string) string {
	return fmt.Sprintf("scenario|%s|%s|%x", CacheSchemaVersion, profileFP, scenarioFP)
}

// diskLoad fetches and decodes a scenario result; ok is false on any miss,
// decode failure, or infeasible payload (only feasible results are cached).
// GetInto decodes the payload in place on a pooled read buffer, so a warm
// sweep pays one struct decode per served scenario and no payload copies.
func diskLoad(ctx context.Context, disk *scache.Cache, key string) (ScenarioResult, bool) {
	var res ScenarioResult
	if !disk.GetInto(ctx, key, &res) || !res.Feasible() {
		return ScenarioResult{}, false
	}
	return res, true
}

// diskStore encodes and persists a feasible scenario result; failures are
// deliberately silent (the memo already holds the result).
func diskStore(ctx context.Context, disk *scache.Cache, key string, res ScenarioResult) {
	if payload, err := json.Marshal(res); err == nil {
		_ = disk.Put(ctx, key, payload)
	}
}
