package aging

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/obs"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// publishPerOp is PublishResult's "days" and "spans" streams as they
// were published before per-day tallies and elision, kept as the
// reference: a map of each day's op mix, and one emission per op with
// every record going through the ring.
func publishPerOp(sc *obs.Scope, res *Result, wl *trace.Workload) {
	type mix struct{ creates, deletes, rewrites int64 }
	byDay := make(map[int]*mix, wl.Days)
	for _, op := range wl.Ops {
		m := byDay[op.Day]
		if m == nil {
			m = &mix{}
			byDay[op.Day] = m
		}
		switch op.Kind {
		case trace.OpCreate:
			m.creates++
		case trace.OpDelete:
			m.deletes++
		case trace.OpRewrite:
			m.rewrites++
		}
	}
	ev := sc.TracerCap("days", obs.EventLines, len(res.LayoutByDay)+1)
	for i, pt := range res.LayoutByDay {
		var m mix
		if p := byDay[pt.Day]; p != nil {
			m = *p
		}
		ev.Emit(float64(pt.Day), "day",
			obs.I("day", int64(pt.Day)),
			obs.F("layout", pt.Value),
			obs.F("util", res.UtilByDay[i].Value),
			obs.I("creates", m.creates),
			obs.I("deletes", m.deletes),
			obs.I("rewrites", m.rewrites))
	}
	days := res.LayoutByDay
	if len(days) == 0 {
		return
	}
	tr := sc.Tracer("spans", obs.SpanLines)
	tr.Start(float64(days[0].Day)-1, "replay",
		obs.I("days", int64(len(days))), obs.I("ops", int64(len(wl.Ops))))
	oi := 0
	for i, pt := range days {
		tr.Start(float64(pt.Day)-1, "day", obs.I("day", int64(pt.Day)))
		for oi < len(wl.Ops) && wl.Ops[oi].Day <= pt.Day {
			op := &wl.Ops[oi]
			oi++
			t := float64(op.Day) - 1 + op.Sec/86400
			var name string
			switch op.Kind {
			case trace.OpCreate:
				name = "create"
			case trace.OpDelete:
				name = "delete"
			case trace.OpRewrite:
				name = "rewrite"
			default:
				name = "op"
			}
			tr.Start(t, name, obs.I("file", op.ID), obs.I("cg", int64(op.Cg)))
			if op.Kind == trace.OpCreate || op.Kind == trace.OpRewrite {
				tr.Start(t, "alloc", obs.I("bytes", op.Size))
				tr.End(t)
			}
			tr.End(t)
		}
		tr.End(float64(pt.Day), obs.F("layout", pt.Value), obs.F("util", res.UtilByDay[i].Value))
	}
	tr.End(float64(days[len(days)-1].Day),
		obs.F("final.layout", days[len(days)-1].Value))
}

// spanRecords is the number of span records the stream of res over wl
// holds: the replay span, one per recorded day, and one per op inside a
// recorded day plus one per alloc child.
func spanRecords(res *Result, wl *trace.Workload) int {
	n := 1 + len(res.LayoutByDay)
	last := res.LayoutByDay[len(res.LayoutByDay)-1].Day
	for _, op := range wl.Ops {
		if op.Day <= last {
			n += 1 + btoi(allocates(op.Kind))
		}
	}
	return n
}

// syntheticRun builds a workload of the given per-day op counts (days
// with no ops included) and a Result recording its first recorded days,
// on a fresh file system so PublishResult's counters have a source.
// Ops are deletes when deletes is set, else of random kind, with a kind
// outside the three known ones now and then.
func syntheticRun(t *testing.T, rng *rand.Rand, perDay []int, recorded int, deletes bool) (*Result, *trace.Workload) {
	t.Helper()
	fsys, err := ffs.NewFileSystem(testParams(), core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	wl := &trace.Workload{Days: len(perDay)}
	for d, n := range perDay {
		for i := 0; i < n; i++ {
			kind := trace.OpKind(1 + rng.Intn(3))
			switch {
			case deletes:
				kind = trace.OpDelete
			case rng.Intn(50) == 0:
				kind = 9
			}
			wl.Ops = append(wl.Ops, trace.Op{
				Day: d + 1, Sec: rng.Float64() * 86400, Kind: kind,
				ID: rng.Int63n(1 << 20), Cg: rng.Intn(8), Size: rng.Int63n(1 << 20),
			})
		}
	}
	slices.SortFunc(wl.Ops, trace.Op.Compare)
	res := &Result{Fs: fsys}
	for d := 1; d <= recorded; d++ {
		res.LayoutByDay = append(res.LayoutByDay, stats.TimePoint{Day: d, Value: rng.Float64()})
		res.UtilByDay = append(res.UtilByDay, stats.TimePoint{Day: d, Value: rng.Float64()})
	}
	return res, wl
}

// deletesOnly returns per-day op counts of single-record ops (every op
// a delete) so that the span stream of days days holds exactly records
// records: the replay span, the day spans, and the ops split evenly.
func deletesOnly(days, records int) []int {
	ops := records - 1 - days
	perDay := make([]int, days)
	for d := range perDay {
		perDay[d] = ops / days
	}
	perDay[days-1] += ops % days
	return perDay
}

// TestPublishSpansMatchesPerOp requires PublishResult's event and span
// dumps to equal the per-op reference emitter's byte for byte: for
// span streams shorter than, equal to, one record over and far over
// the ring, for a run that recorded fewer days than the workload has,
// and for a scope published twice.
func TestPublishSpansMatchesPerOp(t *testing.T) {
	ring := obs.DefaultRingCap
	type tc struct {
		name     string
		perDay   []int
		recorded int  // 0: every day
		deletes  bool // every op a delete, one record each
		twice    bool
		records  int // the span records one publish holds; 0: unchecked
	}
	cases := []tc{
		{name: "short", perDay: []int{3, 0, 5, 8}},
		{name: "equal", perDay: deletesOnly(10, ring), deletes: true, records: ring},
		{name: "one over", perDay: deletesOnly(10, ring+1), deletes: true, records: ring + 1},
		// The first day holds only its own day span. With one record
		// too many it is the day elided; with none too many it stays,
		// the oldest record the ring keeps.
		{name: "equal, idle first day", perDay: append([]int{0}, deletesOnly(9, ring-1)...), deletes: true, records: ring},
		{name: "one over, idle first day", perDay: append([]int{0}, deletesOnly(9, ring)...), deletes: true, records: ring + 1},
		{name: "far over", perDay: []int{900, 1200, 0, 2000, 1500, 700, 3000, 40}},
		{name: "fewer recorded days", perDay: []int{900, 1200, 0, 2000, 1500, 700, 3000, 40}, recorded: 5},
		{name: "published twice", perDay: []int{700, 900, 1100, 800}, twice: true},
		{name: "published twice, short", perDay: []int{40, 0, 12}, twice: true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			recorded := c.recorded
			if recorded == 0 {
				recorded = len(c.perDay)
			}
			res, wl := syntheticRun(t, rng, c.perDay, recorded, c.deletes)
			if c.records > 0 {
				if got := spanRecords(res, wl); got != c.records {
					t.Fatalf("fixture holds %d span records, want %d", got, c.records)
				}
			}
			got, want := obs.NewRegistry(), obs.NewRegistry()
			for n := 0; n < 1+btoi(c.twice); n++ {
				PublishResult(got.Scope("aging.t"), res, wl)
				publishPerOp(want.Scope("aging.t"), res, wl)
			}
			for _, w := range []func(*obs.Registry, *bytes.Buffer) error{
				func(r *obs.Registry, b *bytes.Buffer) error { return r.WriteSpans(b) },
				func(r *obs.Registry, b *bytes.Buffer) error { return r.WriteEvents(b) },
				func(r *obs.Registry, b *bytes.Buffer) error { return r.WriteChromeTrace(b) },
			} {
				var g, r bytes.Buffer
				if err := w(got, &g); err != nil {
					t.Fatal(err)
				}
				if err := w(want, &r); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g.Bytes(), r.Bytes()) {
					t.Fatalf("dump differs from the per-op reference\ngot:\n%.2000s\nwant:\n%.2000s", g.String(), r.String())
				}
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTallyOpsCountsDays checks the one pass against direct counts on a
// workload whose ops are out of day order, the case where a day's op
// mix (counted by op day) and its span records (counted as the
// emission loop assigns ops) differ.
func TestTallyOpsCountsDays(t *testing.T) {
	days := stats.Series{{Day: 1}, {Day: 2}, {Day: 3}}
	ops := []trace.Op{
		{Day: 1, Kind: trace.OpCreate},
		{Day: 3, Kind: trace.OpDelete}, // ends day 1's and day 2's spans
		{Day: 2, Kind: trace.OpRewrite},
		{Day: 4, Kind: trace.OpCreate}, // past the recorded days
	}
	tl := tallyOps(days, ops)
	want := []daySpans{{records: 1 + 2, end: 1}, {records: 1, end: 1}, {records: 1 + 1 + 2, end: 3}}
	if fmt.Sprint(tl.spans) != fmt.Sprint(want) {
		t.Errorf("spans = %v, want %v", tl.spans, want)
	}
	for d, m := range map[int]opMix{1: {creates: 1}, 2: {rewrites: 1}, 3: {deletes: 1}} {
		if got := tl.mix[d-tl.lo]; got != m {
			t.Errorf("mix of day %d = %+v, want %+v", d, got, m)
		}
	}
}
