package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"

	"ffsage/internal/bench"
	"ffsage/internal/experiments"
	"ffsage/internal/stats"
)

// The gate digests an explicit list of exhibit values, never an obs
// export or a whole struct: counters and report rows may be added
// without changing any exhibit, and must not move a digest.

// digester hashes labelled values in a fixed text form.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) floats(label string, vs ...float64) {
	d.h.Write([]byte(label))
	for _, v := range vs {
		d.h.Write([]byte(" " + strconv.FormatFloat(v, 'g', -1, 64)))
	}
	d.h.Write([]byte("\n"))
}

func (d *digester) ints(label string, vs ...int64) {
	d.h.Write([]byte(label))
	for _, v := range vs {
		d.h.Write([]byte(" " + strconv.FormatInt(v, 10)))
	}
	d.h.Write([]byte("\n"))
}

func (d *digester) series(label string, s stats.Series) {
	for _, p := range s {
		d.floats(label, float64(p.Day), p.Value)
	}
}

func (d *digester) buckets(label string, bs []stats.SizeBucket) {
	for _, b := range bs {
		d.ints(label, b.Lo, b.Hi, int64(b.Files), int64(b.Blocks))
		d.floats(label, b.Score)
	}
}

func (d *digester) sweep(label string, rs []bench.SeqResult) {
	for _, r := range rs {
		d.ints(label, r.FileSize, int64(r.NFiles))
		d.floats(label, r.ReadBps, r.WriteBps, r.LayoutScore)
	}
}

func (d *digester) hot(label string, r bench.HotResult) {
	d.ints(label, int64(r.NFiles), r.TotalBytes)
	d.floats(label, r.FracFiles, r.FracBytes, r.LayoutScore, r.ReadBps, r.WriteBps)
}

func (d *digester) hotRepeat(label string, r bench.HotRepeatResult) {
	d.ints(label, int64(r.Runs))
	for _, s := range []stats.Summary{r.Read, r.Write} {
		d.ints(label, int64(s.N))
		d.floats(label, s.Mean, s.StdDev, s.Min, s.Max)
	}
	d.floats(label, r.LayoutScore)
}

func (d *digester) headlines(h experiments.HeadlineNumbers) {
	d.floats("headlines", h.Day1Orig, h.Day1Realloc, h.FinalOrig, h.FinalRealloc,
		h.NonOptimalImprovement, h.SeekReduction, h.Fig1RealFinal, h.Fig1SimFinal)
	d.ints("headlines", int64(h.SeeksOrig), int64(h.SeeksRealloc))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pinned are the committed digests: workload → seed → one digest per
// unit key. Only -update-digests rewrites the file.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

type pinFile map[string]map[string][]string

func loadPins(o *options) error {
	var pf pinFile
	if err := json.Unmarshal(pinnedJSON, &pf); err != nil {
		return fmt.Errorf("testdata/digests.json: %w", err)
	}
	o.pins = pf[o.workload][strconv.FormatInt(o.seed, 10)]
	return nil
}

// pinsPath finds testdata/digests.json from the benchmark's directory
// or from the repository root.
func pinsPath() (string, error) {
	for _, p := range []string{filepath.Join("testdata", "digests.json"), filepath.Join("benchmark", "testdata", "digests.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("testdata/digests.json not found from the working directory")
}

// updatePins records digests for workload and seed.
func updatePins(workload string, seed int64, digests []string) error {
	path, err := pinsPath()
	if err != nil {
		return err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pf := pinFile{}
	if err := json.Unmarshal(b, &pf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if pf[workload] == nil {
		pf[workload] = map[string][]string{}
	}
	pf[workload][strconv.FormatInt(seed, 10)] = digests
	out, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
