package experiments

import (
	"fmt"
	"math"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/stats"
)

// The ablation experiments probe the design decisions DESIGN.md calls
// out: the cluster size limit (A1), the two-block quirk (A2), the
// cluster-search fit discipline (A4), and the cross-group cluster
// search (A5). Each returns paper-style metrics so the benches can
// print comparable rows. Each study is one ageArms fan-out over file
// system variants; the workload build and any arm whose (params,
// policy) pair the Suite already aged — the maxcontig=7 point, the
// chain-aware fit, the cross-group search and the quirk baseline are
// all stock realloc aging — come straight from the cache.

// AblationResult is one ablation configuration's outcome.
type AblationResult struct {
	Label string
	// FinalLayout is the aggregate layout score after aging.
	FinalLayout float64
	// BenchLayout96 and BenchRead96 are the sequential benchmark's
	// layout and read throughput at the 96 KB point, the paper's most
	// sensitive size.
	BenchLayout96 float64
	BenchRead96   float64
	// ClusterMoves counts relocations performed during aging.
	ClusterMoves int64
}

// ageStudyArms ages a side study's arms (the ablations and the profile
// study). They run on a copy of cfg with Recovery and Obs cleared, so
// they always age through the cache, unfaulted, and publish nothing.
func ageStudyArms(cfg Config, arms []arm) error {
	cfg.Recovery, cfg.Obs = nil, nil
	_, err := ageArms(cfg, arms)
	return err
}

// variant is one arm of an A1/A4/A5 study.
type variant struct {
	label  string
	params ffs.Params
	policy ffs.Policy
}

// runAblation ages each variant of the reconstructed workload and
// benches it at 96 KB. Arms sharing a configuration age once and bench
// on private clones.
func runAblation(cfg Config, study string, vs []variant) ([]AblationResult, error) {
	_, ref, err := reconstructed(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(vs))
	arms := make([]arm, len(vs))
	for i, v := range vs {
		arms[i] = arm{label: study + " " + v.label, params: v.params, policy: v.policy, wl: ref,
			then: func(res *aging.Result) error {
				seq, err := bench.SequentialIO(res.Fs, cfg.DiskParams, 96<<10, cfg.BenchTotal, cfg.WorkloadCfg.Days)
				if err != nil {
					return fmt.Errorf("%s bench: %w", v.label, err)
				}
				out[i] = AblationResult{
					Label:         v.label,
					FinalLayout:   res.LayoutByDay.FinalOr(math.NaN()),
					BenchLayout96: seq.LayoutScore,
					BenchRead96:   seq.ReadBps,
					ClusterMoves:  res.Fs.Stats.ClusterMoves,
				}
				return nil
			}}
	}
	if err := ageStudyArms(cfg, arms); err != nil {
		return nil, err
	}
	return out, nil
}

// AblationMaxContig sweeps the cluster size limit (fs_maxcontig): the
// paper fixes it at 7 blocks (56 KB, the disk's transfer size); this
// measures what smaller and larger limits would have done.
func AblationMaxContig(cfg Config, values []int) ([]AblationResult, error) {
	vs := make([]variant, len(values))
	for i, mc := range values {
		fp := cfg.FsParams
		fp.MaxContig = mc
		vs[i] = variant{fmt.Sprintf("maxcontig=%d", mc), fp, core.Realloc{}}
	}
	return runAblation(cfg, "A1", vs)
}

// AblationQuirk compares the stock realloc policy against one that also
// engages for single-block runs, isolating the two-block-file dip the
// paper documents in Section 4. It returns the 16 KB size-bucket layout
// score of the aged images for both variants.
type QuirkResult struct {
	Label         string
	TwoBlockScore float64 // aged-image (8 KB, 16 KB] bucket
	FinalLayout   float64
}

// AblationQuirk runs the quirk ablation.
func AblationQuirk(cfg Config) ([]QuirkResult, error) {
	_, ref, err := reconstructed(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		return nil, err
	}
	pols := []core.Realloc{{}, {ReallocSingleBlocks: true}}
	out := make([]QuirkResult, len(pols))
	arms := make([]arm, len(pols))
	for i, pol := range pols {
		arms[i] = arm{label: "A2 " + pol.Name(), params: cfg.FsParams, policy: pol, wl: ref,
			then: func(res *aging.Result) error {
				buckets := layout.BySize(layout.AllFiles(res.Fs), cfg.FsParams.FragsPerBlock(),
					stats.PowerOfTwoBuckets(16<<10, 16<<20))
				out[i] = QuirkResult{
					Label:         pol.Name(),
					TwoBlockScore: buckets[0].Score,
					FinalLayout:   res.LayoutByDay.FinalOr(math.NaN()),
				}
				return nil
			}}
	}
	if err := ageStudyArms(cfg, arms); err != nil {
		return nil, err
	}
	return out, nil
}

// AblationClusterFit compares the default chain-aware cluster fit with
// the literal 4.4BSD first-fit scan (A4).
func AblationClusterFit(cfg Config) ([]AblationResult, error) {
	chain, first := cfg.FsParams, cfg.FsParams
	chain.FirstFitClusters, first.FirstFitClusters = false, true
	return runAblation(cfg, "A4", []variant{
		{"chain-aware fit", chain, core.Realloc{}},
		{"first fit (4.4BSD literal)", first, core.Realloc{}},
	})
}

// AblationCrossCg compares the stock cross-group cluster search with a
// variant restricted to the preferred group (A5).
func AblationCrossCg(cfg Config) ([]AblationResult, error) {
	return runAblation(cfg, "A5", []variant{
		{"cross-group search", cfg.FsParams, core.Realloc{}},
		{"in-group only", cfg.FsParams, core.Realloc{InGroupOnly: true}},
	})
}
