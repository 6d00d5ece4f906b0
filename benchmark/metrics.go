package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (benchmark_test.go keeps the two equal);
// the regression bounds live only there.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are what a user of each entry point waits for or pays, per
// simulated operation where the amount of work depends on the seed.
// Every workload reports all of them; times are in reference seconds
// (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},        // median of the set-up repetitions
	{"ops_per_s", "ops/s", "higher"}, // simulated operations per reference second
	{"cpu_us_per_op", "us", "lower"}, // user+sys CPU per simulated operation
	{"peak_mem_mb", "MB", "lower"},   // a unit's peak memory held
}

// perLayer are the traced run's layer probes, taken on the workload's
// own primary input: its ffs+realloc stream and the image aged from it.
var perLayer = []metricDef{
	{"workload.build_s", "s", "lower"},
	{"workload.ops_per_s", "ops/s", "higher"},
	{"aging.replay_s", "s", "lower"},
	{"aging.ops_per_s", "ops/s", "higher"},
	{"aging.op_ns.create.p50", "ns", "lower"},
	{"aging.op_ns.create.p99", "ns", "lower"},
	{"aging.op_ns.delete.p50", "ns", "lower"},
	{"aging.op_ns.delete.p99", "ns", "lower"},
	{"aging.op_ns.rewrite.p50", "ns", "lower"},
	{"aging.op_ns.rewrite.p99", "ns", "lower"},
	{"ffs.blocks_allocated", "count", "lower"},
	{"ffs.frag_allocs", "count", "lower"},
	{"ffs.ns_per_block", "ns", "lower"},
	{"ffs.pref_hit_ratio", "ratio", "higher"},
	{"ffs.cg_fallbacks", "count", "lower"},
	{"ffs.nospace_failures", "count", "lower"},
	{"ffs.clone_s", "s", "lower"},
	{"ffs.check_s", "s", "lower"},
	{"policy.cluster_attempts", "count", "lower"},
	{"policy.cluster_success_ratio", "ratio", "higher"},
	{"policy.moves_per_op", "ratio", "lower"},
	{"layout.rescan_s", "s", "lower"},
	{"layout.seeks_s", "s", "lower"},
	{"layout.bysize_s", "s", "lower"},
	{"bench.seqsweep_s", "s", "lower"},
	{"bench.hotfiles_s", "s", "lower"},
	{"disk.requests", "count", "lower"},
	{"disk.ns_per_request", "ns", "lower"},
	{"disk.buffer_hit_ratio", "ratio", "higher"},
	{"runner.jobs", "count", "lower"},
	{"runner.busy_s", "s", "lower"},
	{"runner.utilization", "ratio", "higher"},
	{"obs.publish_s", "s", "lower"},
	{"obs.export_s", "s", "lower"},
	{"obs.export_bytes", "bytes", "lower"},
	{"trace.checkpoint_encode_ms", "ms", "lower"},
	{"trace.checkpoint_bytes", "bytes", "lower"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result tagged with the run that produced it (-json).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

// fill copies the named values into a metrics map, failing on a
// definition without a value so the output can never drift from the
// catalogue. A value with no finite reading (every unit failed) is 0,
// which JSON can carry.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// textLine is one human-readable output line: <workload> <name> <value> <unit>.
type textLine struct {
	name  string
	value float64
	unit  string
}

// printLines writes the lines sorted by name.
func printLines(w io.Writer, workload string, lines []textLine) {
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, l.name, strconv.FormatFloat(l.value, 'g', 6, 64), l.unit)
	}
}

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
