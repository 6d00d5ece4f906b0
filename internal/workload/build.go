package workload

import (
	"math/rand"

	"ffsage/internal/trace"
)

// Build is the end-to-end pipeline: simulate the reference system, take
// its snapshots, reconstruct a workload from them, and merge in the
// synthetic NFS trace. It returns both the ground-truth stream (the
// paper's "Real" file system) and the reconstructed aging workload (the
// paper's "Simulated" one), which Figure 1 compares.
type Build struct {
	Config    Config
	Reference *ReferenceResult
	// Reconstructed is the snapshot-diffed workload with short-lived
	// activity merged in — the workload the paper's aging tool
	// replays.
	Reconstructed *trace.Workload
	// TraceDays is the synthetic NFS trace used for the merge.
	TraceDays []trace.TraceDay
}

// BuildWorkload runs the full pipeline with explicit configurations.
func BuildWorkload(cfg Config, nfsCfg NFSTraceConfig) (*Build, error) {
	return BuildDays(cfg, nfsCfg, nil)
}

// BuildDays runs the full pipeline one simulated day at a time, as the
// paper built its workload: simulate the day, take its snapshot, diff
// the snapshot against the night before, and merge one trace day in.
//
// Every file a generated snapshot shows changed has its ctime on the
// snapshot's own day, so once snapshot d is diffed no later snapshot
// can place an op on day d: day d of both streams is final, or sealed.
// BuildDays checks this and returns an error if an op would land on a
// day it already sealed.
//
// After each day, seal (when non-nil) receives both streams' ops
// through that day and the number of days sealed. The slices are
// prefixes of the finished streams: their elements never change,
// although later days may be appended into a new backing array.
func BuildDays(cfg Config, nfsCfg NFSTraceConfig, seal func(truth, recon []trace.Op, days int)) (*Build, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tdays, err := GenerateNFSTrace(nfsCfg)
	if err != nil {
		return nil, err
	}
	// Seed offsets keep the differ's random delete times and the
	// merger's trace-day draws independent of the generator streams.
	d, err := newDiffer(cfg.NumCg, cfg.InodesPerGroup, rand.New(rand.NewSource(cfg.Seed+101)))
	if err != nil {
		return nil, err
	}
	m, err := newMerger(tdays, cfg.NumCg, rand.New(rand.NewSource(cfg.Seed+202)))
	if err != nil {
		return nil, err
	}
	r := newReference(cfg)
	var diffed, recon []trace.Op
	var truth0, recon0 int // each stream's day-0 op count
	for day := 0; day < cfg.Days; day++ {
		if day > 0 {
			r.ops = reserve(r.ops, truth0, day, cfg.Days)
			recon = reserve(recon, recon0, day, cfg.Days)
		}
		r.advance(day)
		if diffed, err = d.day(diffed[:0], r.snaps[day]); err != nil {
			return nil, err
		}
		recon = m.day(recon, day, diffed)
		if day == 0 {
			truth0, recon0 = len(r.ops), len(recon)
		}
		if day == cfg.Days-1 {
			r.ops, recon = fit(r.ops), fit(recon)
		}
		if seal != nil {
			seal(r.ops, recon, day+1)
		}
	}
	return &Build{
		Config:        cfg,
		Reference:     r.result(),
		Reconstructed: &trace.Workload{Days: cfg.Days, Ops: recon},
		TraceDays:     tdays,
	}, nil
}

// reserve readies a stream of ops, n0 of them on day 0, for day `day`
// of `days`. After the day-0 fill a stream grows about linearly, so
// when fewer than two days' room at the mean rate since day 0 is left,
// reserve copies it once into room for every remaining day at that
// rate plus an eighth. It at most doubles the stream at a time: early
// days, still in the utilization ramp, run faster than the rest and
// would reserve far too much. Append's 1.25x steps would copy a long
// stream many times over.
func reserve(ops []trace.Op, n0, day, days int) []trace.Op {
	rate := (len(ops) - n0) / max(day-1, 1)
	left := days - day
	if cap(ops)-len(ops) >= min(left, 2)*rate {
		return ops
	}
	extra := min(left*rate+left*rate/8, max(len(ops), 2*rate))
	grown := make([]trace.Op, len(ops), len(ops)+extra)
	copy(grown, ops)
	return grown
}

// fit returns the finished stream ops in an exact-size copy when more
// than an eighth of its capacity is spare: a cached build holds its
// streams for the whole process, and a heavy last day can leave an
// append's 1.25x step unused.
func fit(ops []trace.Op) []trace.Op {
	if cap(ops)-len(ops) <= len(ops)/8 {
		return ops
	}
	return append(make([]trace.Op, 0, len(ops)), ops...)
}
