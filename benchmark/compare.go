package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json at the repository root, from
// the root or from the benchmark's directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found from the working directory")
}

// splitSets splits `a1 a2 -- b1 b2` into its two sets of files.
func splitSets(args []string) (a, b []string, err error) {
	for i, s := range args {
		if s == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, fmt.Errorf("-compare wants setA files -- setB files, each set non-empty")
	}
	return a, b, nil
}

// compare prints, for each workload and end-to-end metric, both sets'
// medians and quartiles and a verdict against the metric's bound. It
// reports a regression when a metric is confirmed worse or a set has
// more failures than the other's baseline.
func compare(w io.Writer, aFiles, bFiles []string) (regressed bool, err error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	a, err := readRecords(aFiles)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bFiles)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-17s %-12s %13s %27s %13s %27s %8s  %s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "change", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		if len(rb) == 0 {
			fmt.Fprintf(w, "%-17s missing from set B\n", name)
			regressed = true
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-17s %-12s missing from a set\n", name, m.Name)
				regressed = true
				continue
			}
			v := verdict(va, vb, m.Better, m.Bound)
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-17s %-12s %13.6g [%12.6g %12.6g] %13.6g [%12.6g %12.6g] %+7.1f%%  %s\n",
				name, m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*(qb[1]/qa[1]-1), v)
			if v == "worse" {
				regressed = true
			}
		}
		fa, fb := failures(ra), failures(rb)
		fmt.Fprintf(w, "%-17s %-12s %13d %27s %13d\n", name, "failures", fa, "", fb)
		if fb > fa {
			regressed = true
		}
	}
	return regressed, nil
}

// verdict judges set B against set A for one metric. When either set's
// spread exceeds the bound it is unresolved, unless every B run beats
// (or trails) every A run.
func verdict(a, b []float64, better string, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := (qb[1] - qa[1]) / qa[1]
	if better == "higher" {
		worse = -worse
	}
	spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	if spread > bound {
		switch {
		case allBetter(b, a, better):
			return "better"
		case allBetter(a, b, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within"
}

// allBetter reports whether every x beats every y.
func allBetter(x, y []float64, better string) bool {
	xs, ys := append([]float64(nil), x...), append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	if better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failures(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// readRecords loads -json files, grouped by workload.
func readRecords(files []string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var r record
		err = json.NewDecoder(fh).Decode(&r)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a -json record (no workload)", f)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}
