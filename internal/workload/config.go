// Package workload generates the ten-month aging workload of the paper
// (Section 3.1) from synthetic stand-ins for its two data sources:
//
//   - a reference activity generator that simulates the day-to-day life
//     of the source file system (a research group's 502 MB home
//     directory partition) and emits both the ground-truth operation
//     stream and the nightly snapshots an observer would have taken;
//
//   - an NFS-style trace generator producing the same-day create/delete
//     pairs the snapshots cannot see.
//
// The snapshot differ (Diff) and the trace merger (Merge) then rebuild
// a replayable workload from those artifacts using exactly the paper's
// heuristics, so the reconstruction error the paper measures in Figure
// 1 has a live analogue here.
package workload

import (
	"fmt"

	"ffsage/internal/trace"
)

// Config parameterizes the reference generator. DefaultConfig matches
// the paper's published aggregates; the knobs exist for the ablation
// benches and for generating the "news/database/personal computing"
// style variants the paper's future work proposes.
type Config struct {
	// Days is the length of the simulated period (300 ≈ ten months).
	Days int
	// NumCg and InodesPerGroup describe the source file system's inode
	// geometry, which maps inode numbers to cylinder groups.
	NumCg          int
	InodesPerGroup int
	// NumDirs is the number of active directories (home and project
	// directories of "one professor and three students").
	NumDirs int
	// FsBytes is the source partition size.
	FsBytes int64
	// StartUtil is the initial utilization (the paper starts at the
	// snapshot year's low point, 9%).
	StartUtil float64
	// RampDays and CruiseUtil shape the utilization contour: linear
	// ramp from StartUtil to CruiseUtil over RampDays, then a random
	// walk between CruiseUtil and PeakUtil.
	RampDays   int
	CruiseUtil float64
	PeakUtil   float64

	// ChurnBytesPerDay is the mean volume created (and deleted) by
	// long-lived file turnover on a typical day, beyond what the
	// utilization ramp requires.
	ChurnBytesPerDay float64
	// BurstProb and BurstMul make some days much busier (builds,
	// experiment output), matching the sharp drops in the paper's
	// layout curves.
	BurstProb float64
	BurstMul  float64
	// RewriteFrac is the fraction of long-lived churn performed as
	// in-place rewrites (modify = delete + recreate) rather than
	// create/delete of distinct files.
	RewriteFrac float64
	// MeanLiveBytes is the expected mean size of a standing file; the
	// generator holds the live-file count near
	// utilization·FsBytes/MeanLiveBytes, so the population tracks the
	// utilization contour (the paper ends with ~8.8k files at ~75%).
	MeanLiveBytes float64

	// LongSize and ShortSize are the file size distributions for
	// long-lived and short-lived files.
	LongSize  SizeDist
	ShortSize SizeDist

	// ShortPairsPerDay is the mean number of same-day create/delete
	// pairs (trace studies: most files live less than a day).
	ShortPairsPerDay float64

	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the configuration calibrated to the paper's
// workload summary: ~300 days, ~800k operations, ~48.6 GB written,
// ~8.8k live files at the end, utilization 9% → 70–90%.
func DefaultConfig(seed int64) Config {
	return Config{
		Days:             300,
		NumCg:            27,
		InodesPerGroup:   4800,
		NumDirs:          40,
		FsBytes:          502 << 20,
		StartUtil:        0.09,
		RampDays:         70,
		CruiseUtil:       0.72,
		PeakUtil:         0.90,
		ChurnBytesPerDay: 80 << 20,
		BurstProb:        0.07,
		BurstMul:         3.5,
		RewriteFrac:      0.6,
		MeanLiveBytes:    40 << 10,
		LongSize:         SizeDist{MedianBytes: 12 << 10, Sigma: 2.5, MaxBytes: 4 << 20},
		ShortSize:        SizeDist{MedianBytes: 16 << 10, Sigma: 2.0, MaxBytes: 8 << 20},
		ShortPairsPerDay: 700,
		Seed:             seed,
	}
}

// Validate checks the configuration. Days and NumCg are bounded by what
// a trace.Op holds (trace.MaxDays, trace.MaxCg), so no build can emit an
// op the codecs would reject.
func (c Config) Validate() error {
	switch {
	case c.Days <= 0 || c.Days > trace.MaxDays:
		return fmt.Errorf("workload: days %d out of range [1,%d]", c.Days, trace.MaxDays)
	case c.NumCg <= 0 || c.NumCg > trace.MaxCg || c.InodesPerGroup <= 0:
		return fmt.Errorf("workload: inode geometry %d/%d", c.NumCg, c.InodesPerGroup)
	case c.NumDirs <= 0:
		return fmt.Errorf("workload: dirs %d", c.NumDirs)
	case c.FsBytes <= 0:
		return fmt.Errorf("workload: fs bytes %d", c.FsBytes)
	case c.StartUtil <= 0 || c.StartUtil >= 1 || c.CruiseUtil <= c.StartUtil || c.PeakUtil < c.CruiseUtil || c.PeakUtil >= 1:
		return fmt.Errorf("workload: utilization contour %v/%v/%v", c.StartUtil, c.CruiseUtil, c.PeakUtil)
	case c.ChurnBytesPerDay < 0 || c.ShortPairsPerDay < 0:
		return fmt.Errorf("workload: negative activity")
	case c.RewriteFrac < 0 || c.RewriteFrac > 1:
		return fmt.Errorf("workload: rewrite fraction %v", c.RewriteFrac)
	case c.MeanLiveBytes <= 0:
		return fmt.Errorf("workload: mean live bytes %v", c.MeanLiveBytes)
	}
	if err := c.LongSize.Validate(); err != nil {
		return err
	}
	return c.ShortSize.Validate()
}
