package experiments

import (
	"context"
	"fmt"
	"math"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/runner"
	"ffsage/internal/workload"
)

// ProfileResult compares the two allocation policies under one usage
// pattern — the cross-workload study the paper's §6 proposes.
type ProfileResult struct {
	Profile workload.Profile
	// Workload character actually generated.
	Ops          int
	BytesWritten int64
	EndFiles     int

	// Aged layout under each policy and the realloc advantage.
	LayoutFFS     float64
	LayoutRealloc float64
	// Hot-set read throughput under each policy (bytes/second).
	HotReadFFS     float64
	HotReadRealloc float64
}

// RunProfile ages both policies under the given usage pattern at the
// scale implied by cfg (days, fs size, groups are taken from cfg; the
// activity shape from the profile). The two policies age concurrently
// on the runner, on cached images when available.
func RunProfile(cfg Config, p workload.Profile) (ProfileResult, error) {
	if !workload.KnownProfile(p) {
		return ProfileResult{}, fmt.Errorf("experiments: unknown profile %q", p)
	}
	wc := workload.ProfileConfig(p, cfg.Seed)
	// Adopt the run's scale.
	wc.Days = cfg.WorkloadCfg.Days
	wc.NumCg = cfg.WorkloadCfg.NumCg
	wc.FsBytes = cfg.WorkloadCfg.FsBytes
	wc.RampDays = cfg.WorkloadCfg.RampDays
	scale := float64(cfg.WorkloadCfg.FsBytes) / float64(502<<20)
	wc.ChurnBytesPerDay *= scale
	wc.ShortPairsPerDay *= scale
	e, ref := reconstructed(wc, cfg.NFSCfg)
	res := ProfileResult{Profile: p}
	from := wc.Days - cfg.HotWindow
	policyArm := func(pol ffs.Policy, layout, hotRead *float64) arm {
		return arm{label: fmt.Sprintf("profile %s %s", p, pol.Name()), params: cfg.FsParams, policy: pol, wl: ref,
			then: func(aged *aging.Result) error {
				hot, err := bench.HotFiles(aged.Fs, cfg.DiskParams, from)
				if err != nil {
					return fmt.Errorf("profile %s hot bench: %w", p, err)
				}
				*layout = aged.LayoutByDay.FinalOr(math.NaN())
				*hotRead = hot.ReadBps
				return nil
			}}
	}
	if err := ageStudyArms(cfg, []arm{
		policyArm(core.Original{}, &res.LayoutFFS, &res.HotReadFFS),
		policyArm(core.Realloc{}, &res.LayoutRealloc, &res.HotReadRealloc),
	}); err != nil {
		return ProfileResult{}, err
	}
	b, err := e.wait()
	if err != nil {
		return ProfileResult{}, fmt.Errorf("profile %s: %w", p, err)
	}
	sum := b.Reconstructed.Summarize()
	res.Ops = sum.Ops
	res.BytesWritten = sum.BytesWritten
	res.EndFiles = b.Reference.EndLiveFiles
	return res, nil
}

// RunProfiles runs every supported profile, concurrently.
func RunProfiles(cfg Config) ([]ProfileResult, error) {
	profiles := workload.Profiles()
	out := make([]ProfileResult, len(profiles))
	g := runner.New(context.Background())
	for i, p := range profiles {
		g.Go(fmt.Sprintf("profile %s", p), func(context.Context) error {
			r, err := RunProfile(cfg, p)
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		})
	}
	if _, err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}
