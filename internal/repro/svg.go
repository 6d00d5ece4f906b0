package repro

import (
	"fmt"
	"os"
	"path/filepath"

	"ffsage/internal/bench"
	"ffsage/internal/plot"
	"ffsage/internal/stats"
)

// writeSVGs renders the paper's six figures from suite data into the
// -svg directory.
func writeSVGs(e *env) error {
	s, dir := e.s, e.o.SVGDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seriesXY := func(label string, ser stats.Series) plot.Series {
		out := plot.Series{Label: label}
		for _, p := range ser {
			out.X = append(out.X, float64(p.Day+1))
			out.Y = append(out.Y, p.Value)
		}
		return out
	}
	bucketXY := func(label string, bs []stats.SizeBucket) plot.Series {
		out := plot.Series{Label: label}
		for _, b := range bs {
			if b.Files == 0 {
				continue
			}
			out.X = append(out.X, float64(b.Hi))
			out.Y = append(out.Y, b.Score)
		}
		return out
	}
	seqXY := func(label string, rs []bench.SeqResult, y func(bench.SeqResult) float64) plot.Series {
		out := plot.Series{Label: label}
		for _, r := range rs {
			out.X = append(out.X, float64(r.FileSize))
			out.Y = append(out.Y, y(r))
		}
		return plot.SortedByX(out)
	}
	write := func(name string, c *plot.Chart) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.WriteSVG(f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return f.Close()
	}
	realS, sim := s.Fig1()
	o2, r2 := s.Fig2()
	o3, r3 := s.Fig3()
	f4, err := s.Fig4()
	if err != nil {
		return err
	}
	o5, r5, err := s.Fig5()
	if err != nil {
		return err
	}
	h6o, h6r := s.Fig6()
	mb := func(v float64) float64 { return v / 1e6 }
	rawLine := func(label string, v float64) plot.Series {
		return plot.Series{Label: label,
			X: []float64{float64(f4.Orig[0].FileSize), float64(f4.Orig[len(f4.Orig)-1].FileSize)},
			Y: []float64{mb(v), mb(v)}}
	}
	read := func(r bench.SeqResult) float64 { return mb(r.ReadBps) }
	written := func(r bench.SeqResult) float64 { return mb(r.WriteBps) }
	layout := func(r bench.SeqResult) float64 { return r.LayoutScore }
	for _, c := range []struct {
		name  string
		chart plot.Chart
	}{
		{"fig1.svg", plot.Chart{
			Title:  "Figure 1: Aggregate Layout Score Over Time — Real vs Simulated",
			XLabel: "Time (Days)", YLabel: "Aggregate Layout Score", YMin: 0, YMax: 1,
			Series: []plot.Series{seriesXY("Real", realS), seriesXY("Simulated", sim)},
		}},
		{"fig2.svg", plot.Chart{
			Title:  "Figure 2: Aggregate Layout Score Over Time — FFS vs Realloc",
			XLabel: "Time (Days)", YLabel: "Aggregate Layout Score", YMin: 0, YMax: 1,
			Series: []plot.Series{seriesXY("FFS", o2), seriesXY("FFS + Realloc", r2)},
		}},
		{"fig3.svg", plot.Chart{
			Title:  "Figure 3: Layout Score as a Function of File Size",
			XLabel: "File Size", YLabel: "Layout Score", YMin: 0, YMax: 1, LogX: true,
			Series: []plot.Series{bucketXY("FFS", o3), bucketXY("FFS + Realloc", r3)},
		}},
		{"fig4-read.svg", plot.Chart{
			Title:  "Figure 4 (top): Read Performance",
			XLabel: "File Size", YLabel: "Throughput (MB/Sec)", LogX: true, YMin: 0, YMax: 6,
			Series: []plot.Series{
				rawLine("Raw Read", f4.RawRead), seqXY("FFS + Realloc", f4.Realloc, read), seqXY("FFS", f4.Orig, read),
			},
		}},
		{"fig4-write.svg", plot.Chart{
			Title:  "Figure 4 (bottom): Write Performance",
			XLabel: "File Size", YLabel: "Throughput (MB/Sec)", LogX: true, YMin: 0, YMax: 6,
			Series: []plot.Series{
				rawLine("Raw Write", f4.RawWrite), seqXY("FFS + Realloc", f4.Realloc, written), seqXY("FFS", f4.Orig, written),
			},
		}},
		{"fig5.svg", plot.Chart{
			Title:  "Figure 5: File Fragmentation During Sequential I/O Benchmark",
			XLabel: "File Size", YLabel: "Layout Score", YMin: 0, YMax: 1, LogX: true,
			Series: []plot.Series{seqXY("FFS + Realloc", r5, layout), seqXY("FFS", o5, layout)},
		}},
		{"fig6.svg", plot.Chart{
			Title:  "Figure 6: Layout Score of Hot Files",
			XLabel: "File Size", YLabel: "Layout Score", YMin: 0, YMax: 1, LogX: true,
			Series: []plot.Series{
				bucketXY("FFS + Realloc (Hot Files)", h6r), seqXY("FFS + Realloc (Sequential)", r5, layout),
				bucketXY("FFS (Hot Files)", h6o), seqXY("FFS (Sequential)", o5, layout),
			},
		}},
	} {
		if err := write(c.name, &c.chart); err != nil {
			return err
		}
	}
	fmt.Fprintf(e.out, "\nSVG figures written to %s\n", dir)
	return nil
}
