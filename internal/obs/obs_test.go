package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.count").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.gauge")
	g.Set(1.5)
	g.Set(-2.25)
	if got := r.Gauge("a.gauge").Value(); got != -2.25 {
		t.Errorf("gauge = %v, want -2.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 20})
	if h.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
	h.Observe(5, 0.5)   // bucket 0 (≤10)
	h.Observe(10, 1.0)  // bucket 0 (inclusive upper bound)
	h.Observe(15, 2.0)  // bucket 1
	h.Observe(100, 4.0) // +Inf bucket
	if n, s := h.Bucket(0); n != 2 || s != 1.5 {
		t.Errorf("bucket 0 = (%d, %v), want (2, 1.5)", n, s)
	}
	if n, s := h.Bucket(2); n != 1 || s != 4.0 {
		t.Errorf("bucket 2 = (%d, %v), want (1, 4)", n, s)
	}
	if h.Count() != 4 || h.Sum() != 7.5 {
		t.Errorf("totals = (%d, %v), want (4, 7.5)", h.Count(), h.Sum())
	}
	h.AddBucket(1, 3, 0.25)
	if n, s := h.Bucket(1); n != 4 || s != 2.25 {
		t.Errorf("after AddBucket: bucket 1 = (%d, %v)", n, s)
	}
}

func TestScopePrefixing(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("aging").Scope("age-ffs")
	sc.Counter("ops").Add(7)
	if got := r.Counter("aging.age-ffs.ops").Value(); got != 7 {
		t.Errorf("scoped counter = %d, want 7", got)
	}
	sc.Tracer("days", EventLines).Emit(1, "day")
	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"stream":"aging.age-ffs.days"`) {
		t.Errorf("events missing scoped stream: %q", buf.String())
	}
}

func TestWriteMetricsSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insertion order deliberately scrambled relative to name order.
		r.Gauge("z.final").Set(0.5)
		r.Counter("a.count").Add(3)
		r.Histogram("m.hist", []float64{1, 2}).Observe(1.5, 0.125)
		r.Counter("b.count").Add(1)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	want := `# ffsage metrics snapshot v1
counter a.count 3
counter b.count 1
hist m.hist le=1 count=0 sum=0
hist m.hist le=2 count=1 sum=0.125
hist m.hist le=+Inf count=0 sum=0
hist m.hist total count=1 sum=0.125
gauge z.final 0.5
`
	if a.String() != want {
		t.Errorf("snapshot:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	r := NewRegistry()
	tr := r.TracerCap("s", EventLines, 3)
	for i := 0; i < 5; i++ {
		tr.Emit(float64(i), "e", I("i", int64(i)))
	}
	if tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Spans()
	if evs[0].Start != 2 || evs[2].End != 4 || evs[0].Parent != 0 {
		t.Errorf("ring kept wrong window: %+v", evs)
	}
	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"stream":"s","header":"events","events":3,"dropped":2}
{"stream":"s","seq":2,"t":2,"event":"e","i":2}
{"stream":"s","seq":3,"t":3,"event":"e","i":3}
{"stream":"s","seq":4,"t":4,"event":"e","i":4}
`
	if buf.String() != want {
		t.Errorf("events dump:\n%s\nwant (seq absolute, header with drop count):\n%s", buf.String(), want)
	}

	// WriteFrom ships the same lines from a stream position on, skips
	// what the ring already evicted, and returns the next position.
	buf.Reset()
	next, err := tr.WriteFrom(&buf, 4)
	if err != nil || next != 5 || buf.String() != `{"stream":"s","seq":4,"t":4,"event":"e","i":4}`+"\n" {
		t.Errorf("WriteFrom(4) = %d, %v, %q", next, err, buf.String())
	}
	buf.Reset()
	if next, _ := tr.WriteFrom(&buf, 0); next != 5 || strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("WriteFrom(0) = %d, %q", next, buf.String())
	}
}

// TestEventsHeaderAlwaysPresent pins the satellite contract: every
// stream's JSONL dump leads with a header line even when nothing was
// dropped, so consumers can always distinguish "complete" from
// "truncated" without guessing. An empty stream keeps its header in the
// dump its format names, and only there.
func TestEventsHeaderAlwaysPresent(t *testing.T) {
	r := NewRegistry()
	r.Tracer("clean", EventLines).Emit(1, "e")
	r.Tracer("idle", EventLines)
	r.Tracer("idle.spans", SpanLines)
	var ev, sp bytes.Buffer
	if err := r.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSpans(&sp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ev.String(), `{"stream":"clean","header":"events","events":1,"dropped":0}`) {
		t.Errorf("missing zero-drop header: %q", ev.String())
	}
	if !strings.HasSuffix(ev.String(), `{"stream":"idle","header":"events","events":0,"dropped":0}`+"\n") {
		t.Errorf("empty event stream lost its header: %q", ev.String())
	}
	if want := `{"stream":"idle.spans","header":"spans","spans":0,"dropped":0}` + "\n"; sp.String() != want {
		t.Errorf("spans dump = %q, want only %q", sp.String(), want)
	}
}

// TestEventsAreValidJSON decodes every emitted line with the stock
// decoder, pinning the hand-rolled encoder to real JSON.
func TestEventsAreValidJSON(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("json", EventLines)
	tr.Emit(1.5, "weird", S("s", "a\"b\\c\nd\tߜ"), I("n", -3), F("f", 0.1), B("ok", true))
	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON %q: %v", line, err)
		}
		if m["header"] != nil {
			continue
		}
		if m["s"] != "a\"b\\c\nd\tߜ" {
			t.Errorf("string attr round-trip: %q", m["s"])
		}
	}
}

// TestWriteEventsHeaderMatchesRecords pins the one-lock export: a dump
// taken while a writer is still emitting into a wrapping ring must
// carry, per stream, a header whose counts describe exactly the records
// that follow — events equals the record count and the first record's
// seq equals dropped.
func TestWriteEventsHeaderMatchesRecords(t *testing.T) {
	r := NewRegistry()
	tr := r.TracerCap("live", EventLines, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			tr.Emit(float64(i), "tick", I("i", int64(i)))
		}
	}()
	defer func() { <-done }()
	check := func() {
		var buf bytes.Buffer
		if err := r.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		var hdr struct {
			Events, Dropped int64
		}
		var records []struct{ Seq int64 }
		for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if i == 0 {
				if err := json.Unmarshal([]byte(line), &hdr); err != nil {
					t.Fatalf("header %q: %v", line, err)
				}
				continue
			}
			var rec struct{ Seq int64 }
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("record %q: %v", line, err)
			}
			records = append(records, rec)
		}
		if int64(len(records)) != hdr.Events {
			t.Fatalf("header says %d events, %d records follow:\n%s", hdr.Events, len(records), buf.String())
		}
		if len(records) > 0 && records[0].Seq != hdr.Dropped {
			t.Fatalf("first seq %d, header dropped %d:\n%s", records[0].Seq, hdr.Dropped, buf.String())
		}
	}
	for {
		select {
		case <-done:
			check()
			return
		default:
			check()
		}
	}
}
