// Package obs is the simulator's observability core: a deterministic
// metrics registry (counters, gauges, fixed-bucket weighted histograms)
// and bounded trace streams of events and hierarchical spans ([Tracer],
// in tracer.go) keyed on simulated time. Everything here is zero-dependency and deliberately
// free of wall-clock reads in the metric path, so two runs of the same
// simulation — on any worker count, interrupted and resumed or not —
// produce byte-identical snapshots. The one wall-clock-adjacent corner,
// the job-telemetry log the runner feeds ([Registry.AppendJobs]), is
// kept out of the snapshot entirely: it backs the stdout-only timing
// footer and never reaches a metrics or events file.
//
// Determinism contract:
//
//   - Snapshot iteration is sorted (name, then kind), never map order.
//   - Counter increments are commutative, so concurrent writers are
//     safe. Float accumulation (gauges, histogram weights) is NOT
//     order-independent; by convention each float-bearing metric has a
//     single writer — instruments scope metric names per simulation
//     arm — and publishing happens sequentially after the parallel
//     phase, in submission order.
//   - Values are formatted with strconv's shortest round-trip form, so
//     equal float64 values always print identically.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 metric. Writers must be
// deterministic (a single goroutine, or a value that does not depend on
// scheduling) for snapshots to stay byte-identical.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket weighted histogram: observations are
// bucketed by their x value (upper-bound inclusive, with an implicit
// +Inf bucket last) and each bucket accumulates a count and a weight
// sum. With weight 1 it is an ordinary histogram; the disk layer uses
// the weights to attribute seconds to request-size classes, which is
// what lets bucket sums reconcile exactly with aggregate totals.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64
	sums   []float64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		sums:   make([]float64, len(b)+1),
	}
}

// NumBuckets returns the bucket count (len(bounds)+1 for +Inf).
func (h *Histogram) NumBuckets() int { return len(h.bounds) + 1 }

// BucketIndex returns the bucket x falls into.
func (h *Histogram) BucketIndex(x float64) int {
	for i, ub := range h.bounds {
		if x <= ub {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one observation at x with weight w.
func (h *Histogram) Observe(x, w float64) { h.AddBucket(h.BucketIndex(x), 1, w) }

// AddBucket adds count observations totalling weight w directly to
// bucket i — the path instruments use to publish pre-bucketed
// attribution matrices without re-deriving x values.
func (h *Histogram) AddBucket(i int, count int64, w float64) {
	h.mu.Lock()
	h.counts[i] += count
	h.sums[i] += w
	h.mu.Unlock()
}

// Bucket returns bucket i's count and weight sum.
func (h *Histogram) Bucket(i int) (count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[i], h.sums[i]
}

// Count returns the total observation count.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum returns the total weight, accumulated in bucket order — the same
// fixed order every run, so the value is deterministic.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s float64
	for _, w := range h.sums {
		s += w
	}
	return s
}

// Registry holds named metrics and trace streams. The zero value is
// not usable; construct with NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracers  map[string]*Tracer

	jobsMu sync.Mutex
	jobsOn bool
	jobs   []JobStat
	stages []JobStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		tracers:  map[string]*Tracer{},
	}
}

// Default is the process-wide registry the commands publish into.
var Default = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's current value without
// creating it. It is the read-only probe consumers like
// internal/perfbench use to derive throughput metrics (ops/s, MB/s)
// from counters an instrumented run already published, instead of
// re-measuring the quantities themselves.
func (r *Registry) CounterValue(name string) (int64, bool) {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0, false
	}
	return c.Value(), true
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds. The bounds of an existing histogram win;
// callers are expected to use one bound set per name.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Scope returns a view of the registry that prefixes every metric and
// stream name with prefix + ".".
func (r *Registry) Scope(prefix string) *Scope { return &Scope{r: r, prefix: prefix} }

// Scope is a name-prefixed view of a Registry. Scoping is the
// convention that gives every float-bearing metric a single writer:
// each simulation arm publishes under its own prefix.
type Scope struct {
	r      *Registry
	prefix string
}

// Registry returns the underlying registry.
func (s *Scope) Registry() *Registry { return s.r }

// Scope returns a sub-scope.
func (s *Scope) Scope(sub string) *Scope { return &Scope{r: s.r, prefix: s.full(sub)} }

func (s *Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Counter returns the scoped counter.
func (s *Scope) Counter(name string) *Counter { return s.r.Counter(s.full(name)) }

// Gauge returns the scoped gauge.
func (s *Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.full(name)) }

// Histogram returns the scoped histogram.
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	return s.r.Histogram(s.full(name), bounds)
}

// formatFloat renders v in the shortest form that round-trips, the
// snapshot's canonical float syntax.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// snapshotLine is one rendered metric plus its sort key.
type snapshotLine struct {
	name, kind string
	lines      []string
}

// WriteMetrics writes the deterministic text snapshot: one block per
// metric, sorted by name then kind; histogram buckets appear in bucket
// order inside their block. Job telemetry (wall-clock domain) is
// excluded by design.
func (r *Registry) WriteMetrics(w io.Writer) error {
	r.mu.Lock()
	entries := make([]snapshotLine, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		entries = append(entries, snapshotLine{name, "counter",
			[]string{fmt.Sprintf("counter %s %d", name, c.Value())}})
	}
	for name, g := range r.gauges {
		entries = append(entries, snapshotLine{name, "gauge",
			[]string{fmt.Sprintf("gauge %s %s", name, formatFloat(g.Value()))}})
	}
	for name, h := range r.hists {
		var lines []string
		h.mu.Lock()
		for i := range h.counts {
			ub := "+Inf"
			if i < len(h.bounds) {
				ub = formatFloat(h.bounds[i])
			}
			lines = append(lines, fmt.Sprintf("hist %s le=%s count=%d sum=%s",
				name, ub, h.counts[i], formatFloat(h.sums[i])))
		}
		h.mu.Unlock()
		lines = append(lines, fmt.Sprintf("hist %s total count=%d sum=%s",
			name, h.Count(), formatFloat(h.Sum())))
		entries = append(entries, snapshotLine{name, "hist", lines})
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].kind < entries[j].kind
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# ffsage metrics snapshot v1")
	for _, e := range entries {
		for _, l := range e.lines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}

// JobStat is one finished runner job's wall-clock telemetry. It lives
// here so the runner's capture state and the metrics registry share one
// snapshot path, but it is never part of WriteMetrics: wall-clock
// readings differ run to run and belong to the stdout footer only.
type JobStat struct {
	Label string
	Wall  time.Duration
	// AllocBytes is the process-wide heap allocation delta observed
	// while the job ran. With concurrent jobs it includes their
	// allocations too, so read it as an upper bound.
	AllocBytes uint64
	Err        error
}

// CaptureJobs enables (or disables) the job-telemetry log and the stage
// log, and clears both. While disabled — the default — AppendJobs and
// AppendStage discard their input, so long-running test processes do
// not accumulate history.
func (r *Registry) CaptureJobs(on bool) {
	r.jobsMu.Lock()
	defer r.jobsMu.Unlock()
	r.jobsOn = on
	r.jobs, r.stages = nil, nil
}

// AppendStage logs one stage: timed work that ran outside any
// runner group, such as a workload build. Stages sit beside the jobs in
// the timing footer but are never counted among them.
func (r *Registry) AppendStage(st JobStat) {
	r.jobsMu.Lock()
	defer r.jobsMu.Unlock()
	if r.jobsOn {
		r.stages = append(r.stages, st)
	}
}

// Stages returns a copy of the captured stage log.
func (r *Registry) Stages() []JobStat {
	r.jobsMu.Lock()
	defer r.jobsMu.Unlock()
	return append([]JobStat(nil), r.stages...)
}

// AppendJobs appends finished-job stats in the order given (the
// runner's submission order), preserving that order in Jobs.
func (r *Registry) AppendJobs(stats []JobStat) {
	r.jobsMu.Lock()
	defer r.jobsMu.Unlock()
	if r.jobsOn {
		r.jobs = append(r.jobs, stats...)
	}
}

// Jobs returns a copy of the captured job telemetry.
func (r *Registry) Jobs() []JobStat {
	r.jobsMu.Lock()
	defer r.jobsMu.Unlock()
	return append([]JobStat(nil), r.jobs...)
}
