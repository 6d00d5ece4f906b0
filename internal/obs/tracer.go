package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// DefaultRingCap is the per-stream record capacity when none is given:
// large enough to hold every per-day event of a paper-scale run, small
// enough that a runaway per-operation instrument cannot exhaust memory.
const DefaultRingCap = 4096

// Attr is one typed record attribute. Attributes are an ordered list,
// not a map, so encoded records are byte-identical run to run.
type Attr struct {
	Key   string
	Value attrValue
}

// attrValue is the closed set of attribute payloads.
type attrValue struct {
	kind byte // 'i', 'f', 's', 'b'
	i    int64
	f    float64
	s    string
	b    bool
}

// I returns an int64 attribute.
func I(key string, v int64) Attr { return Attr{key, attrValue{kind: 'i', i: v}} }

// F returns a float64 attribute.
func F(key string, v float64) Attr { return Attr{key, attrValue{kind: 'f', f: v}} }

// S returns a string attribute.
func S(key, v string) Attr { return Attr{key, attrValue{kind: 's', s: v}} }

// B returns a bool attribute.
func B(key string, v bool) Attr { return Attr{key, attrValue{kind: 'b', b: v}} }

// SpanID identifies a span within its stream. IDs are assigned
// sequentially from 1 in Start (or Emit) order, so they are
// deterministic for any deterministic emission sequence; 0 means "no
// parent" (a root span).
type SpanID int64

// Span is one recorded interval of simulated time. The unit of
// Start/End is the stream's choice (the aging streams use days, the
// disk streams seconds); it is never wall-clock. Parent links spans
// into a hierarchy: a span started while another span of the same
// stream was open becomes its child. An event is a span with
// Start == End and no parent.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  float64
	End    float64
	Attrs  []Attr
}

// Format is how a stream's records are exported. It is fixed when the
// stream is created, so a stream that never records anything still
// leads with its header in the right dump.
type Format byte

const (
	// EventLines streams export through WriteEvents, one
	// {"seq","t","event"} line per record.
	EventLines Format = iota
	// SpanLines streams export through WriteSpans, one
	// {"id","parent","span","start","end"} line per record, and
	// through WriteChromeTrace.
	SpanLines
)

// label is the format's header tag and count key.
func (f Format) label() string {
	if f == SpanLines {
		return "spans"
	}
	return "events"
}

// Tracer is one bounded trace stream: a ring that keeps the most recent
// cap records and counts what it evicted, plus a stack of open spans.
// Emit records an event; Start pushes an open span (child of the
// innermost still-open one) and End closes the innermost and records
// it. Records are kept in recording order — End order for spans — and
// a retained span may reference a parent the ring has since evicted;
// Dropped says how many are missing. Streams follow the same
// single-writer convention as float metrics; recording is nevertheless
// mutex-guarded so a misbehaving caller corrupts nothing.
//
// Emit, Start and End reuse the ring's and the open stack's attribute
// storage, so steady-state emission allocates nothing — the property
// the span.emit benchmark pins.
type Tracer struct {
	name   string
	format Format

	mu      sync.Mutex
	cap     int
	nextID  int64
	dropped int64
	ring    []Span
	start   int // index of the oldest record in ring once full
	open    []Span
}

// Tracer returns (creating if needed) the named stream with the
// default ring capacity.
func (r *Registry) Tracer(name string, f Format) *Tracer {
	return r.TracerCap(name, f, DefaultRingCap)
}

// TracerCap is Tracer with an explicit ring capacity for new streams;
// an existing stream keeps its format and capacity.
func (r *Registry) TracerCap(name string, f Format, cap int) *Tracer {
	if cap < 1 {
		cap = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tracers[name]
	if t == nil {
		t = &Tracer{name: name, format: f, cap: cap}
		r.tracers[name] = t
	}
	return t
}

// Tracer returns the scoped stream.
func (s *Scope) Tracer(name string, f Format) *Tracer { return s.r.Tracer(s.full(name), f) }

// TracerCap returns the scoped stream with an explicit ring capacity.
func (s *Scope) TracerCap(name string, f Format, cap int) *Tracer {
	return s.r.TracerCap(s.full(name), f, cap)
}

// Emit records an event at simulated time simT: a closed root span
// with Start == End == simT.
func (t *Tracer) Emit(simT float64, name string, attrs ...Attr) {
	t.mu.Lock()
	t.nextID++
	dst := t.slot()
	dst.ID, dst.Parent, dst.Name, dst.Start, dst.End = SpanID(t.nextID), 0, name, simT, simT
	dst.Attrs = append(dst.Attrs[:0], attrs...)
	t.mu.Unlock()
}

// Start opens a span at simulated time simT, child of the innermost
// open span, and returns its ID.
func (t *Tracer) Start(simT float64, name string, attrs ...Attr) SpanID {
	t.mu.Lock()
	t.nextID++
	id := SpanID(t.nextID)
	var parent SpanID
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].ID
	}
	// Reuse a popped slot's attribute storage instead of appending a
	// fresh Span value over it.
	if len(t.open) < cap(t.open) {
		t.open = t.open[:len(t.open)+1]
	} else {
		t.open = append(t.open, Span{})
	}
	sp := &t.open[len(t.open)-1]
	sp.ID, sp.Parent, sp.Name, sp.Start, sp.End = id, parent, name, simT, simT
	sp.Attrs = append(sp.Attrs[:0], attrs...)
	t.mu.Unlock()
	return id
}

// End closes the innermost open span at simT, appends any extra
// attributes, and records it. A stray End with no span open is a no-op.
func (t *Tracer) End(simT float64, attrs ...Attr) {
	t.mu.Lock()
	n := len(t.open)
	if n == 0 {
		t.mu.Unlock()
		return
	}
	sp := &t.open[n-1]
	dst := t.slot()
	dst.ID, dst.Parent, dst.Name, dst.Start, dst.End = sp.ID, sp.Parent, sp.Name, sp.Start, simT
	dst.Attrs = append(append(dst.Attrs[:0], sp.Attrs...), attrs...)
	// Pop but keep the slot (and its Attrs backing) for the next Start.
	t.open = t.open[:n-1]
	t.mu.Unlock()
}

// slot returns the ring slot the next record goes to, evicting the
// oldest record when the ring is full. The slot keeps its previous
// Attrs backing for reuse.
func (t *Tracer) slot() *Span {
	if len(t.ring) < t.cap {
		if len(t.ring) < cap(t.ring) {
			t.ring = t.ring[:len(t.ring)+1]
		} else {
			t.ring = append(t.ring, Span{})
		}
		return &t.ring[len(t.ring)-1]
	}
	dst := &t.ring[t.start]
	t.start = (t.start + 1) % t.cap
	t.dropped++
	return dst
}

// Len returns the number of buffered records.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// OpenDepth returns the number of started-but-unfinished spans.
func (t *Tracer) OpenDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Dropped returns how many records the ring has evicted.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns copies of the buffered records, oldest first. The
// copies own their attribute slices, so callers may hold them across
// further emission.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	for i := range t.ring {
		sp := t.ring[(t.start+i)%len(t.ring)]
		sp.Attrs = append([]Attr(nil), sp.Attrs...)
		out = append(out, sp)
	}
	return out
}

// WriteFrom writes the buffered records at stream positions from
// onward as the same JSONL lines the registry dump emits, without a
// header, and returns the position after the last record. A record's
// position counts every record the stream ever took, evicted ones
// included — an event line's "seq" — so an incremental consumer (the
// aging daemon's follow-mode event stream) passes back what the
// previous call returned to ship each record once.
func (t *Tracer) WriteFrom(w io.Writer, from int64) (int64, error) {
	bw := bufio.NewWriter(w)
	t.mu.Lock()
	for i := range t.ring {
		if t.dropped+int64(i) >= from {
			t.writeRecord(bw, i)
		}
	}
	next := t.dropped + int64(len(t.ring))
	t.mu.Unlock()
	return next, bw.Flush()
}

// writeRecord renders the i-th oldest buffered record as one JSONL line
// in the stream's format. The caller holds t.mu.
func (t *Tracer) writeRecord(w *bufio.Writer, i int) {
	sp := &t.ring[(t.start+i)%len(t.ring)]
	if t.format == SpanLines {
		fmt.Fprintf(w, `{"stream":%s,"id":%d,"parent":%d,"span":%s,"start":%s,"end":%s`,
			jsonString(t.name), sp.ID, sp.Parent, jsonString(sp.Name),
			formatFloat(sp.Start), formatFloat(sp.End))
	} else {
		fmt.Fprintf(w, `{"stream":%s,"seq":%d,"t":%s,"event":%s`,
			jsonString(t.name), t.dropped+int64(i), formatFloat(sp.Start), jsonString(sp.Name))
	}
	writeAttrs(w, sp.Attrs)
	w.WriteString("}\n")
}

// streams returns the registry's streams of format f sorted by name.
func (r *Registry) streams(f Format) []*Tracer {
	r.mu.Lock()
	ts := make([]*Tracer, 0, len(r.tracers))
	for _, t := range r.tracers {
		if t.format == f {
			ts = append(ts, t)
		}
	}
	r.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// writeJSONL writes every stream of format f: streams in sorted name
// order, each led by one header record carrying the stream's retained
// and dropped counts, then its records oldest first with attributes in
// emission order. Each stream's header and records are read under one
// hold of its lock, so the counts always describe the records that
// follow even while a writer is still emitting.
func (r *Registry) writeJSONL(w io.Writer, f Format) error {
	bw := bufio.NewWriter(w)
	label := f.label()
	for _, t := range r.streams(f) {
		t.mu.Lock()
		fmt.Fprintf(bw, `{"stream":%s,"header":"%s","%s":%d,"dropped":%d}`+"\n",
			jsonString(t.name), label, label, len(t.ring), t.dropped)
		for i := range t.ring {
			t.writeRecord(bw, i)
		}
		t.mu.Unlock()
	}
	return bw.Flush()
}

// WriteEvents writes every EventLines stream as JSONL. The header makes
// a ring-truncated trace detectable — dropped is the exact eviction
// count, never silently omitted — and an event's seq is its position
// in the stream, counting from 0 with evictions included.
func (r *Registry) WriteEvents(w io.Writer) error { return r.writeJSONL(w, EventLines) }

// WriteSpans writes every SpanLines stream as JSONL, headers included
// as in WriteEvents. Output is deterministic for deterministic
// emission: same spans, same IDs, same bytes.
func (r *Registry) WriteSpans(w io.Writer) error { return r.writeJSONL(w, SpanLines) }

// WriteChromeTrace exports every SpanLines stream as one Chrome
// trace-event JSON document (the format chrome://tracing and Perfetto
// load): one complete ("X") event per span, one thread per stream,
// simulated time mapped microsecond-for-unit onto the trace clock. Span
// IDs, parent links, and attributes ride in args. Like WriteSpans the
// output is deterministic byte for byte.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	bw.WriteString("\n")
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"ffsage"}}`)
	for tid, t := range r.streams(SpanLines) {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}",
			tid+1, jsonString(t.name))
		t.mu.Lock()
		for i := range t.ring {
			sp := &t.ring[(t.start+i)%len(t.ring)]
			fmt.Fprintf(bw, ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d",
				jsonString(sp.Name), jsonString(t.name),
				formatFloat(sp.Start*1e6), formatFloat((sp.End-sp.Start)*1e6), tid+1, sp.ID, sp.Parent)
			writeAttrs(bw, sp.Attrs)
			bw.WriteString("}}")
		}
		t.mu.Unlock()
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeAttrs renders attributes as `,"key":value` pairs in order.
func writeAttrs(w *bufio.Writer, attrs []Attr) {
	for _, a := range attrs {
		w.WriteByte(',')
		w.WriteString(jsonString(a.Key))
		w.WriteByte(':')
		switch a.Value.kind {
		case 'i':
			w.WriteString(strconv.FormatInt(a.Value.i, 10))
		case 'f':
			w.WriteString(formatFloat(a.Value.f))
		case 's':
			w.WriteString(jsonString(a.Value.s))
		case 'b':
			w.WriteString(strconv.FormatBool(a.Value.b))
		}
	}
}

// jsonString renders s as a JSON string literal. Only the escapes JSON
// requires are applied, so output is stable and minimal.
func jsonString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for _, r := range s {
		switch {
		case r == '"':
			out = append(out, '\\', '"')
		case r == '\\':
			out = append(out, '\\', '\\')
		case r == '\n':
			out = append(out, '\\', 'n')
		case r == '\t':
			out = append(out, '\\', 't')
		case r == '\r':
			out = append(out, '\\', 'r')
		case r < 0x20:
			out = append(out, fmt.Sprintf(`\u%04x`, r)...)
		default:
			var buf [utf8.UTFMax]byte
			n := utf8.EncodeRune(buf[:], r)
			out = append(out, buf[:n]...)
		}
	}
	return string(append(out, '"'))
}
