package main

import (
	"bytes"
	"encoding/json"
	"ffsage/internal/policy"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// smoke returns options for a smoke-size traced run of a workload: one
// set-up and one unit on each of two inputs, at Micro scale.
func smoke(t *testing.T, name string) *options {
	t.Helper()
	return &options{workload: name, seed: 7, setupReps: 1, maxUnits: 2, smoke: true, trace: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", e2e, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", bf.PerLayer, perLayer)
	}
}

// TestWorkloads runs every workload at smoke size with tracing on, which
// also runs the untraced loop, and checks the output contract.
func TestWorkloads(t *testing.T) {
	extras := map[string][]string{
		"paper-quick":      {"aging.arm_s.ffs+realloc", "experiments.critical_path_s"},
		"tournament-quick": {"experiments.critical_path_s"},
	}
	for _, p := range policy.Names() {
		extras["tournament-quick"] = append(extras["tournament-quick"], "policy.replay_s."+p)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := smoke(t, name)
			var out bytes.Buffer
			res, _, err := run(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < o.maxUnits {
				t.Fatalf("attempted %d, failed %d:\n%s", res.Attempted, res.Failed, out.String())
			}
			checkMetrics(t, res.Metrics, perLayer)
			printed := printedUnits(out.String(), name)
			for _, d := range endToEnd {
				if printed[d.Name] != d.Unit {
					t.Errorf("%s printed with unit %q, want %q", d.Name, printed[d.Name], d.Unit)
				}
			}
			for _, n := range append(extras[name], "trace.overhead_s", "ref.slices", "host.ops_per_s", "attempts", "failures") {
				if printed[n] == "" {
					t.Errorf("%s not printed", n)
				}
			}
			selfTimes := 0
			for n := range printed {
				if strings.HasPrefix(n, "self_s.") {
					selfTimes++
				}
			}
			if selfTimes == 0 {
				t.Errorf("no layer self time printed")
			}
			checkTrace(t, o.traceOut)
		})
	}
}

// checkMetrics asserts the result carries exactly defs, with their units.
func checkMetrics(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.Name, v, d.Unit)
		}
	}
}

// printedUnits maps each printed metric line's name to its unit.
func printedUnits(out, workload string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload {
			m[f[1]] = f[3]
		}
	}
	return m
}

// checkTrace decodes the Chrome trace and checks that every child span
// lies inside its parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	byID := map[float64]chromeEvent{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		byID[e.Args["id"].(float64)] = e
	}
	for _, e := range ct.TraceEvents {
		p, ok := byID[e.Args["parent"].(float64)]
		if !ok {
			continue
		}
		if e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur {
			t.Errorf("span %s [%v,+%v] outside parent %s [%v,+%v]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
	}
}

// TestTamperedDigestFails checks that a digest differing from the pin
// counts as a failure.
func TestTamperedDigestFails(t *testing.T) {
	o := smoke(t, "aged-read")
	o.trace, o.maxUnits = false, 1
	o.pins = []string{strings.Repeat("0", 64)}
	var out bytes.Buffer
	res, _, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("tampered pin: attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	checkMetrics(t, res.Metrics, endToEnd)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if got != [3]float64{3.5, 13.5, 31} {
		t.Fatalf("quartiles %v", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{1.00, 1.01, 0.99, 1.02, 0.98}, "lower", "within"},
		{[]float64{1.30, 1.31, 1.29, 1.32, 1.28}, "lower", "worse"},
		{[]float64{1.30, 1.31, 1.29, 1.32, 1.28}, "higher", "better"},
		{[]float64{0.5, 1.0, 2.0, 0.6, 1.9}, "lower", "unresolved"},
	} {
		if got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "b", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Layer: "b", Start: 30 * ms, End: 70 * ms}, // overlaps 2
		{ID: 4, Parent: 3, Layer: "c", Start: 40 * ms, End: 60 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"a": 40 * ms, "b": 80*ms - 20*ms, "c": 20 * ms}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}
