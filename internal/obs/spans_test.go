package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanHierarchyAndIDs(t *testing.T) {
	r := NewRegistry()
	tr := r.Scope("x").Tracer("spans", SpanLines)
	root := tr.Start(0, "replay")
	day := tr.Start(0, "day", I("day", 1))
	op := tr.Start(0.25, "op", S("kind", "create"))
	tr.End(0.5)             // op
	tr.End(1)               // day
	tr.End(2, I("days", 2)) // replay, with a closing attr
	if d := tr.OpenDepth(); d != 0 {
		t.Fatalf("OpenDepth = %d after balanced start/end", d)
	}
	sps := tr.Spans()
	if len(sps) != 3 {
		t.Fatalf("got %d spans", len(sps))
	}
	// Recorded in End order: op, day, replay.
	if sps[0].Name != "op" || sps[0].ID != op || sps[0].Parent != day {
		t.Errorf("op span = %+v", sps[0])
	}
	if sps[1].Name != "day" || sps[1].ID != day || sps[1].Parent != root {
		t.Errorf("day span = %+v", sps[1])
	}
	if sps[2].Name != "replay" || sps[2].ID != root || sps[2].Parent != 0 {
		t.Errorf("root span = %+v", sps[2])
	}
	if sps[2].Attrs[0].Key != "days" {
		t.Errorf("closing attr missing: %+v", sps[2].Attrs)
	}
	if sps[0].Start != 0.25 || sps[0].End != 0.5 {
		t.Errorf("op interval = [%v, %v]", sps[0].Start, sps[0].End)
	}
}

func TestSpanRingWraparoundAndDropped(t *testing.T) {
	r := NewRegistry()
	tr := r.TracerCap("s", SpanLines, 3)
	for i := 0; i < 5; i++ {
		tr.Start(float64(i), "w", I("i", int64(i)))
		tr.End(float64(i) + 1)
	}
	if tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", tr.Len(), tr.Dropped())
	}
	sps := tr.Spans()
	// Oldest retained span is the third emitted (ID 3); IDs stay
	// absolute across eviction.
	if sps[0].ID != 3 || sps[2].ID != 5 {
		t.Errorf("ring kept wrong window: %+v", sps)
	}
	if sps[0].Start != 2 || sps[2].End != 5 {
		t.Errorf("ring intervals wrong: %+v", sps)
	}
	var buf bytes.Buffer
	if err := r.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"stream":"s","header":"spans","spans":3,"dropped":2}`) {
		t.Errorf("missing spans header: %q", buf.String())
	}
}

// TestElideMatchesEmission elides records that at least Cap() later
// records evict, on span and event streams with an empty, a partly
// filled and a wrapped ring, and requires the retained IDs, Dropped
// and the whole dump (header line included) to equal a stream that
// emitted every record.
func TestElideMatchesEmission(t *testing.T) {
	const ringCap = 4
	for _, f := range []Format{SpanLines, EventLines} {
		for _, before := range []int{0, 2, 7} {
			for _, elided := range []int{0, 1, 9} {
				emit := func(tr *Tracer, i int) {
					if f == EventLines {
						tr.Emit(float64(i), "e", I("i", int64(i)))
						return
					}
					tr.Start(float64(i), "s", I("i", int64(i)))
					tr.End(float64(i) + 0.5)
				}
				dump := func(elide bool) (string, *Tracer) {
					r := NewRegistry()
					tr := r.TracerCap("s", f, ringCap)
					i := 0
					for ; i < before; i++ {
						emit(tr, i)
					}
					if elide {
						tr.Elide(int64(elided))
						i += elided
					} else {
						for end := i + elided; i < end; i++ {
							emit(tr, i)
						}
					}
					for end := i + tr.Cap(); i < end; i++ {
						emit(tr, i)
					}
					var buf bytes.Buffer
					if err := r.writeJSONL(&buf, f); err != nil {
						t.Fatal(err)
					}
					return buf.String(), tr
				}
				want, full := dump(false)
				got, el := dump(true)
				if got != want {
					t.Errorf("%s before=%d elided=%d: dump\n%s\nwant\n%s", f.label(), before, elided, got, want)
				}
				if el.Dropped() != full.Dropped() || el.Len() != ringCap {
					t.Errorf("%s before=%d elided=%d: dropped %d len %d, want %d %d",
						f.label(), before, elided, el.Dropped(), el.Len(), full.Dropped(), ringCap)
				}
				if a, b := el.Spans(), full.Spans(); a[0].ID != b[0].ID || a[ringCap-1].ID != b[ringCap-1].ID {
					t.Errorf("%s before=%d elided=%d: IDs %d..%d, want %d..%d",
						f.label(), before, elided, a[0].ID, a[ringCap-1].ID, b[0].ID, b[ringCap-1].ID)
				}
			}
		}
	}
	if got := NewRegistry().TracerCap("c", SpanLines, 17).Cap(); got != 17 {
		t.Errorf("Cap() = %d, want 17", got)
	}
}

func TestStrayEndIsNoOp(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("s", SpanLines)
	tr.End(1)
	if tr.Len() != 0 || tr.OpenDepth() != 0 {
		t.Errorf("stray End recorded something: len=%d open=%d", tr.Len(), tr.OpenDepth())
	}
}

// TestWriteSpansValidJSONAndDeterministic decodes every line with the
// stock decoder and requires two identical emission sequences to render
// byte-identically.
func TestWriteSpansValidJSONAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		tr := r.Tracer("b.spans", SpanLines)
		tr.Start(0, "outer", S("s", "a\"b\\c\nd"))
		tr.Start(0.5, "inner", F("f", 0.125), B("ok", true))
		tr.End(1)
		tr.End(2, I("n", -7))
		r.Tracer("a.spans", SpanLines).Start(0, "solo")
		r.Tracer("a.spans", SpanLines).End(1)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteSpans(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("span dumps differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	// Streams sorted: a.spans first despite being created second.
	if !strings.Contains(lines[0], `"stream":"a.spans"`) {
		t.Errorf("streams not sorted: %q", lines[0])
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON %q: %v", line, err)
		}
	}
}

// chromeTraceDoc mirrors the trace-event JSON schema (the subset the
// exporter emits): a complete ("X") event carries name, category,
// microsecond timestamp and duration, and pid/tid; a metadata ("M")
// event names a process or thread. DisallowUnknownFields in the test
// decoder means any stray key the exporter invents fails the test.
type chromeTraceDoc struct {
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
}

type chromeTraceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts,omitempty"`
	Dur  *float64        `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

// TestChromeTraceValidatesAgainstSchema exports a small hierarchy and
// validates the document against the trace-event schema: well-formed
// JSON, only known fields, required fields per phase, non-negative
// durations, and parentage riding in args.
func TestChromeTraceValidatesAgainstSchema(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("job.spans", SpanLines)
	tr.Start(0, "replay", S("policy", "realloc"))
	tr.Start(0, "day", I("day", 1))
	tr.End(1)
	tr.End(2)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var doc chromeTraceDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("trace does not match schema: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Name == "" || ev.Cat == "" || ev.Ts == nil || ev.Dur == nil {
				t.Errorf("complete event missing required fields: %+v", ev)
			}
			if ev.Dur != nil && *ev.Dur < 0 {
				t.Errorf("negative duration: %+v", ev)
			}
			var args struct {
				ID     int64           `json:"id"`
				Parent int64           `json:"parent"`
				Extra  json.RawMessage `json:"-"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Errorf("args not an object: %v", err)
			}
			if args.ID == 0 {
				t.Errorf("complete event without span id: %s", ev.Args)
			}
		case "M":
			meta++
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("unknown metadata event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
	if meta != 2 { // process_name + one thread_name
		t.Errorf("%d metadata events, want 2", meta)
	}
	// The day span (ended first) must come before its parent and carry
	// the scaled timestamps: day [0,1] → ts 0, dur 1e6.
	first := doc.TraceEvents[2]
	if first.Name != "day" || *first.Ts != 0 || *first.Dur != 1e6 {
		t.Errorf("first complete event = %+v", first)
	}
}

// TestSpanEmitSteadyStateAllocs is the in-package half of the span.emit
// perfbench budget: once the ring and open stack are warm, Start/End
// cycles and Emit calls on a full ring must not allocate.
func TestSpanEmitSteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	spans := r.TracerCap("s", SpanLines, 64)
	events := r.TracerCap("e", EventLines, 64)
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"start/end", func() {
			spans.Start(0, "outer", I("a", 1), S("b", "x"))
			spans.Start(0.5, "inner", F("c", 2.5))
			spans.End(1, B("ok", true))
			spans.End(2)
		}},
		{"emit", func() {
			events.Emit(1, "day", I("day", 1), F("layout", 0.5), S("kind", "x"), B("ok", true))
		}},
	} {
		for i := 0; i < 128; i++ { // fill the ring, warm open stack and attr backing
			c.cycle()
		}
		if n := testing.AllocsPerRun(100, c.cycle); n != 0 {
			t.Errorf("%s: steady-state emission allocates %v allocs/op, want 0", c.name, n)
		}
	}
	if events.Dropped() == 0 {
		t.Error("emit case never wrapped the ring")
	}
}

// TestFreshRingFillAllocs: filling a fresh ring carves record
// attributes from a shared slab, so it costs a few allocations per
// slab chunk and ring growth, not one per slot.
func TestFreshRingFillAllocs(t *testing.T) {
	const records = 4096
	n := testing.AllocsPerRun(5, func() {
		tr := NewRegistry().TracerCap("s", SpanLines, records)
		for i := 0; i < records/2; i++ {
			tr.Start(float64(i), "day", I("day", int64(i)))
			tr.Emit(float64(i), "op", I("id", int64(i)), F("sec", 1.5))
			tr.End(float64(i+1), I("ops", 3))
		}
	})
	if n > 64 {
		t.Errorf("filling a %d-record ring took %v allocations, want a few per slab chunk", records, n)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`agesrv_http_requests_total{path="/jobs",code="200"}`).Add(3)
	r.Counter(`agesrv_http_requests_total{path="/jobs",code="429"}`).Add(1)
	r.Counter("agesrv_jobs_submitted_total").Add(4)
	r.Gauge("agesrv_queue_depth").Set(2)
	h := r.Histogram(`agesrv_http_request_seconds{path="/jobs"}`, []float64{0.01, 0.1})
	h.Observe(0.005, 0.005)
	h.Observe(0.05, 0.05)
	h.Observe(1, 1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE agesrv_http_request_seconds histogram
agesrv_http_request_seconds_bucket{path="/jobs",le="0.01"} 1
agesrv_http_request_seconds_bucket{path="/jobs",le="0.1"} 2
agesrv_http_request_seconds_bucket{path="/jobs",le="+Inf"} 3
agesrv_http_request_seconds_sum{path="/jobs"} 1.055
agesrv_http_request_seconds_count{path="/jobs"} 3
# TYPE agesrv_http_requests_total counter
agesrv_http_requests_total{path="/jobs",code="200"} 3
agesrv_http_requests_total{path="/jobs",code="429"} 1
# TYPE agesrv_jobs_submitted_total counter
agesrv_jobs_submitted_total 4
# TYPE agesrv_queue_depth gauge
agesrv_queue_depth 2
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpsIsOneSeparateRegistry pins the registry split: Ops() is one
// process-wide registry, and operational telemetry written there must
// not leak into a deterministic registry.
func TestOpsIsOneSeparateRegistry(t *testing.T) {
	if Ops() != Ops() {
		t.Fatal("Ops() returned two different registries")
	}
	r := NewRegistry()
	if Ops() == r {
		t.Fatal("NewRegistry returned the operational registry")
	}
	Ops().Counter("split_check_total").Inc()
	if _, found := r.CounterValue("split_check_total"); found {
		t.Error("operational counter visible in a fresh registry")
	}
}
