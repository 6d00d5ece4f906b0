package main

import (
	"time"

	"ffsage/internal/experiments"
	"ffsage/internal/ffs"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/workload"
)

// tournamentQuick ages, scores and benches one Quick image per
// registered policy: the policy and free-run search layer's workload.
type tournamentQuick struct {
	cfgs    []experiments.Config
	inputs  []buildInputs
	pols    []ffs.Policy
	entries []experiments.TournamentEntry
	traced  probeInput
	replays map[string]time.Duration
}

func newTournament(o *options) benchWorkload {
	cfgs := configs(o)
	return &tournamentQuick{cfgs: cfgs, inputs: make([]buildInputs, len(cfgs))}
}

func (w *tournamentQuick) inputCount() int { return len(w.cfgs) }

func (w *tournamentQuick) setup(rec *recorder, parent int, c *unitCheck) error {
	for j, cfg := range w.cfgs {
		if _, err := w.inputs[j].build(rec, parent, cfg, c); err != nil {
			return err
		}
	}
	var err error
	w.pols, err = experiments.RegisteredPolicies(policy.Names()...)
	return err
}

// arms are the tournament's aging replays of b, keyed as Tournament
// keys them.
func (w *tournamentQuick) arms(cfg experiments.Config, b *workload.Build) []arm {
	arms := make([]arm, len(w.pols))
	for i, p := range w.pols {
		arms[i] = arm{p.Name(), p, b.Reconstructed, suiteKey(cfg) + "|reconstructed"}
	}
	return arms
}

func (w *tournamentQuick) unit(rec *recorder, it, key int) (float64, error) {
	experiments.ResetCaches()
	cfg := w.cfgs[key]
	cfg.Obs = obs.NewRegistry()
	if rec != nil {
		b, err := cachedBuild(rec, it, cfg)
		if err != nil {
			return 0, err
		}
		if _, w.replays, err = fanOut(rec, it, "experiments.CachedAgedImage", w.arms(cfg, b), cachedArm(cfg.FsParams)); err != nil {
			return 0, err
		}
	}
	err := rec.do(it, 0, "experiments", "experiments.Tournament", func(int) error {
		var err error
		w.entries, err = experiments.Tournament(cfg, w.pols...)
		return err
	})
	return float64(len(w.pols) * w.inputs[key].ops), err
}

func (w *tournamentQuick) check(c *unitCheck, g *gate, key int) {
	d := newDigester()
	for _, e := range w.entries {
		d.ints("entry "+e.Name, int64(e.Seeks))
		d.series("layout", e.LayoutByDay)
		d.series("util", e.UtilByDay)
		d.sweep("seq", e.Seq)
		d.hot("hot", e.Hot)
	}
	g.digest(c, key, d.sum())
	// The build and the images stay in experiments' cache; these lookups
	// hit it.
	cfg := w.cfgs[key]
	b, err := experiments.CachedBuild(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		c.failf("workload build: %v", err)
		return
	}
	w.inputs[key].verify(c, b)
	for _, a := range w.arms(cfg, b) {
		res, err := cachedArm(cfg.FsParams)(a)
		if err != nil {
			c.failf("%s image: %v", a.name, err)
			continue
		}
		checkImage(c, a.name, res.Fs)
		if a.name == "ffs+realloc" && w.replays != nil {
			w.traced = probeInput{cfg: cfg, stream: a.wl, image: res,
				build: w.inputs[key].median(), replay: w.replays[a.name]}
		}
	}
}

func (w *tournamentQuick) release() {
	w.entries = nil
	experiments.ResetCaches()
}

func (w *tournamentQuick) probe() probeInput { return w.traced }

func (w *tournamentQuick) layerText(spans []span) []textLine {
	return armLines("policy.replay_s.", w.replays, spans)
}
