package bench

import (
	"context"
	"fmt"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/runner"
	"ffsage/internal/stats"
)

// The paper ran every benchmark ten times and reported standard
// deviations ("smaller than 1.5% of the mean" for the sequential
// benchmark, "less than 2%" for the hot files). In a deterministic
// simulation the honest analogue of run-to-run noise is the arbitrary
// rotational phase each run begins at; HotFilesRepeated sweeps the
// initial platter angle across one revolution.

// HotRepeatResult is the hot-file benchmark's repeated-run summary.
type HotRepeatResult struct {
	Runs        int
	Read, Write stats.Summary // bytes/second
	LayoutScore float64       // layout is phase-independent
}

// HotFilesRepeated runs the hot-file benchmark `runs` times. The hot
// set and everything else that depends only on the image are computed
// once; the runs are the disk passes alone, each on a fresh disk, and
// execute on the runner. Results are collected by run index, so the
// summaries see the same order at any worker count.
func HotFilesRepeated(image *ffs.FileSystem, p disk.Params, fromDay, runs int) (HotRepeatResult, error) {
	if runs < 1 {
		return HotRepeatResult{}, fmt.Errorf("bench: runs = %d", runs)
	}
	h, err := newHotSet(image, fromDay)
	if err != nil {
		return HotRepeatResult{}, err
	}
	reads := make([]float64, runs)
	writes := make([]float64, runs)
	g := runner.New(context.Background())
	for i := 0; i < runs; i++ {
		g.Go(fmt.Sprintf("hot run %d", i), func(context.Context) error {
			pp := p
			pp.InitialSpin = p.Geom.RotationPeriod() * float64(i) / float64(runs)
			r, err := h.run(pp)
			if err != nil {
				return err
			}
			reads[i], writes[i] = r.ReadBps, r.WriteBps
			return nil
		})
	}
	if _, err := g.Wait(); err != nil {
		return HotRepeatResult{}, err
	}
	return HotRepeatResult{
		Runs:        runs,
		Read:        stats.Summarize(reads),
		Write:       stats.Summarize(writes),
		LayoutScore: h.res.LayoutScore,
	}, nil
}
