package aging

import (
	"ffsage/internal/obs"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// PublishResult publishes a completed replay into the scope. Everything
// here is derived from resume-safe state — the Result's reconstructed
// daily series and op counters, the allocator statistics persisted in
// the image, and the workload itself — so a run resumed from a
// checkpoint publishes byte-identical metrics and events to the
// uninterrupted run. (During-replay incidents live on Options.Obs's
// "run" stream instead, outside this contract.)
//
// The "days" tracer stream gets one event per recorded day carrying the
// layout score, utilization, and the day's op mix counted straight from
// the workload.
func PublishResult(sc *obs.Scope, res *Result, wl *trace.Workload) {
	sc.Counter("days").Add(int64(len(res.LayoutByDay)))
	sc.Counter("ops.total").Add(int64(len(wl.Ops)))
	sc.Counter("ops.skipped").Add(int64(res.SkippedOps))
	sc.Counter("ops.nospace").Add(int64(res.NoSpaceOps))
	sc.Counter("ops.faulted").Add(int64(res.FaultedOps))

	st := res.Fs.Stats
	al := sc.Scope("alloc")
	al.Counter("blocks").Add(st.BlocksAllocated)
	al.Counter("frags").Add(st.FragAllocs)
	al.Counter("frag_extends").Add(st.FragExtends)
	al.Counter("frag_relocations").Add(st.FragRelocations)
	al.Counter("cluster_moves").Add(st.ClusterMoves)
	al.Counter("cluster_attempts").Add(st.ClusterAttempts)
	al.Counter("section_switches").Add(st.SectionSwitches)
	al.Counter("pref_hits").Add(st.PrefHits)
	al.Counter("same_cg_fallbacks").Add(st.SameCgFallbacks)
	al.Counter("cg_fallbacks").Add(st.CgFallbacks)
	al.Counter("files_created").Add(st.FilesCreated)
	al.Counter("files_deleted").Add(st.FilesDeleted)
	al.Counter("bytes_written").Add(st.BytesWritten)
	al.Counter("nospace_failures").Add(st.NoSpaceFailures)
	al.Counter("inode_exhaustions").Add(st.InodeExhaustions)

	if n := len(res.LayoutByDay); n > 0 {
		sc.Gauge("final.layout").Set(res.LayoutByDay[n-1].Value)
		sc.Gauge("final.util").Set(res.UtilByDay[n-1].Value)
	}

	// Per-day op mix, counted purely from the workload so the stream is
	// identical no matter where a resume picked up.
	t := tallyOps(res.LayoutByDay, wl.Ops)
	tr := sc.TracerCap("days", obs.EventLines, len(res.LayoutByDay)+1)
	for i, pt := range res.LayoutByDay {
		m := t.mix[pt.Day-t.lo]
		tr.Emit(float64(pt.Day), "day",
			obs.I("day", int64(pt.Day)),
			obs.F("layout", pt.Value),
			obs.F("util", res.UtilByDay[i].Value),
			obs.I("creates", m.creates),
			obs.I("deletes", m.deletes),
			obs.I("rewrites", m.rewrites))
	}

	publishSpans(sc, res, wl, t.spans)
}

// opMix counts one workload day's operations by kind.
type opMix struct{ creates, deletes, rewrites int64 }

// daySpans is one recorded day's share of the span stream: its span
// records (the day span, one per op, one per alloc child) and the op
// index just past its last op.
type daySpans struct {
	records int64
	end     int
}

// opTally is PublishResult's one pass over the op stream.
type opTally struct {
	lo    int        // the earliest recorded day
	mix   []opMix    // mix[d-lo]: workload day d's op mix, d in the recorded range
	spans []daySpans // spans[i]: recorded day i's span records
}

// tallyOps walks the ops once. It counts each workload day's op mix
// for the days the series records, and it assigns ops to recorded days
// exactly as publishSpans's emission loop does: a day takes ops, in
// stream order, while their day is not past its own.
func tallyOps(days stats.Series, ops []trace.Op) opTally {
	var t opTally
	if len(days) == 0 {
		return t
	}
	lo, hi := days[0].Day, days[0].Day
	for _, pt := range days {
		lo, hi = min(lo, pt.Day), max(hi, pt.Day)
	}
	t.lo = lo
	t.mix = make([]opMix, hi-lo+1)
	t.spans = make([]daySpans, len(days))
	i := 0 // the recorded day taking ops
	for oi := range ops {
		op := &ops[oi]
		for i < len(days) && op.Day > days[i].Day {
			t.spans[i].end = oi
			i++
		}
		if i < len(days) {
			t.spans[i].records++
			if allocates(op.Kind) {
				t.spans[i].records++
			}
		}
		if op.Day < lo || op.Day > hi {
			continue
		}
		m := &t.mix[op.Day-lo]
		switch op.Kind {
		case trace.OpCreate:
			m.creates++
		case trace.OpDelete:
			m.deletes++
		case trace.OpRewrite:
			m.rewrites++
		}
	}
	for ; i < len(days); i++ {
		t.spans[i].end = len(ops)
	}
	for i := range t.spans {
		t.spans[i].records++ // the day span itself
	}
	return t
}

// allocates reports whether an op of kind k allocates space, so that
// its span gets an alloc child.
func allocates(k trace.OpKind) bool { return k == trace.OpCreate || k == trace.OpRewrite }

// publishSpans emits the replay's hierarchical span stream, time in
// simulated days: one root "replay" span covering the recorded period,
// one "day" span per recorded day, one span per workload operation
// inside its day, and an "alloc" child under every space-allocating op
// carrying the requested bytes. Like the rest of PublishResult the
// stream is derived purely from resume-safe state (the Result's series
// and the workload), and spans are numbered in one fixed sequential
// order, so IDs — and the whole encoded stream — are byte-identical
// across worker counts and crash/resume. The ring keeps the most
// recent Cap() completed spans and the dump's header line says exactly
// how many older ones it evicted. Leading days whose records the ring
// would evict anyway are not rendered: spans counts each day's
// records, and Tracer.Elide accounts for them, so the cost is that of
// the retained tail, not of the whole op stream.
func publishSpans(sc *obs.Scope, res *Result, wl *trace.Workload, spans []daySpans) {
	days := res.LayoutByDay
	if len(days) == 0 {
		return
	}
	tr := sc.Tracer("spans", obs.SpanLines)
	tr.Start(float64(days[0].Day)-1, "replay",
		obs.I("days", int64(len(days))), obs.I("ops", int64(len(wl.Ops))))
	// Elide day after day while the records after it (the later days'
	// and the replay span's own) still fill the ring.
	ring, tail := int64(tr.Cap()), int64(1)
	for _, d := range spans {
		tail += d.records
	}
	first, oi, elided := 0, 0, int64(0)
	for first < len(days) && tail-spans[first].records >= ring {
		tail -= spans[first].records
		elided += spans[first].records
		oi = spans[first].end
		first++
	}
	tr.Elide(elided)
	for i := first; i < len(days); i++ {
		pt := days[i]
		tr.Start(float64(pt.Day)-1, "day", obs.I("day", int64(pt.Day)))
		for ; oi < spans[i].end; oi++ {
			op := &wl.Ops[oi]
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
			// The attr is "file", not "id": the encoded span already has
			// an "id" key (its span ID) and JSONL objects must not carry
			// duplicate keys.
			tr.Start(t, name, obs.I("file", op.ID), obs.I("cg", int64(op.Cg)))
			if allocates(op.Kind) {
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
