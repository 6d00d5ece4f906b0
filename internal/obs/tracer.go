package obs

import (
	"bufio"
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
	// slab is the storage attrBuf carves slot attributes from: used
	// up to its length, free beyond it.
	slab []Attr
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
	dst.Attrs = append(t.attrBuf(dst.Attrs, len(attrs)), attrs...)
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
	sp.Attrs = append(t.attrBuf(sp.Attrs, len(attrs)), attrs...)
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
	dst.Attrs = append(append(t.attrBuf(dst.Attrs, len(sp.Attrs)+len(attrs)), sp.Attrs...), attrs...)
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

// attrBuf returns buf emptied, with room for n attributes. A buffer
// too small is replaced by n slots carved from the tracer's slab, so
// filling a fresh ring allocates once per slab chunk rather than once
// per slot. Carved buffers are capped at n: uncapped, a slot would
// take the rest of the slab for its capacity, and a later, longer
// record would overwrite its neighbours. The caller holds t.mu.
func (t *Tracer) attrBuf(buf []Attr, n int) []Attr {
	if cap(buf) >= n {
		return buf[:0]
	}
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]Attr, 0, max(n, min(2*cap(t.slab), 1024), 16))
	}
	k := len(t.slab)
	t.slab = t.slab[:k+n]
	return t.slab[k : k : k+n]
}

// Cap returns the ring's record capacity.
func (t *Tracer) Cap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cap
}

// Elide accounts for n records the ring would evict before anyone could
// read them: it consumes n span IDs and counts n records as dropped,
// and stores nothing. Precondition: at least Cap() more records follow
// before the stream is read, so every elided record would have been
// evicted by them. Then the retained records, their IDs, Dropped and
// the dump's header are exactly those of emitting the n records. A
// publisher that knows how many records precede its tail (PublishResult
// counts them per day) skips rendering what the ring cannot keep.
func (t *Tracer) Elide(n int64) {
	t.mu.Lock()
	t.nextID += n
	t.dropped += n
	t.mu.Unlock()
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
// in the stream's format. The line is appended into the writer's free
// buffer space, so rendering allocates nothing once the buffer is
// warm. The caller holds t.mu.
func (t *Tracer) writeRecord(w *bufio.Writer, i int) {
	sp := &t.ring[(t.start+i)%len(t.ring)]
	b := appendJSONString(append(w.AvailableBuffer(), `{"stream":`...), t.name)
	if t.format == SpanLines {
		b = strconv.AppendInt(append(b, `,"id":`...), int64(sp.ID), 10)
		b = strconv.AppendInt(append(b, `,"parent":`...), int64(sp.Parent), 10)
		b = appendJSONString(append(b, `,"span":`...), sp.Name)
		b = appendFloat(append(b, `,"start":`...), sp.Start)
		b = appendFloat(append(b, `,"end":`...), sp.End)
	} else {
		b = strconv.AppendInt(append(b, `,"seq":`...), t.dropped+int64(i), 10)
		b = appendFloat(append(b, `,"t":`...), sp.Start)
		b = appendJSONString(append(b, `,"event":`...), sp.Name)
	}
	b = appendAttrs(b, sp.Attrs)
	w.Write(append(b, "}\n"...))
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
		b := appendJSONString(append(bw.AvailableBuffer(), `{"stream":`...), t.name)
		b = append(append(append(b, `,"header":"`...), label...), `","`...)
		b = strconv.AppendInt(append(append(b, label...), `":`...), int64(len(t.ring)), 10)
		b = strconv.AppendInt(append(b, `,"dropped":`...), t.dropped, 10)
		bw.Write(append(b, "}\n"...))
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
		b := append(bw.AvailableBuffer(), ",\n"...)
		b = strconv.AppendInt(append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...), int64(tid+1), 10)
		b = appendJSONString(append(b, `,"args":{"name":`...), t.name)
		bw.Write(append(b, "}}"...))
		t.mu.Lock()
		for i := range t.ring {
			sp := &t.ring[(t.start+i)%len(t.ring)]
			b := appendJSONString(append(bw.AvailableBuffer(), ",\n{\"name\":"...), sp.Name)
			b = appendJSONString(append(b, `,"cat":`...), t.name)
			b = appendFloat(append(b, `,"ph":"X","ts":`...), sp.Start*1e6)
			b = appendFloat(append(b, `,"dur":`...), (sp.End-sp.Start)*1e6)
			b = strconv.AppendInt(append(b, `,"pid":1,"tid":`...), int64(tid+1), 10)
			b = strconv.AppendInt(append(b, `,"args":{"id":`...), int64(sp.ID), 10)
			b = strconv.AppendInt(append(b, `,"parent":`...), int64(sp.Parent), 10)
			b = appendAttrs(b, sp.Attrs)
			bw.Write(append(b, "}}"...))
		}
		t.mu.Unlock()
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendAttrs appends attributes as `,"key":value` pairs in order.
func appendAttrs(b []byte, attrs []Attr) []byte {
	for _, a := range attrs {
		b = append(appendJSONString(append(b, ','), a.Key), ':')
		switch a.Value.kind {
		case 'i':
			b = strconv.AppendInt(b, a.Value.i, 10)
		case 'f':
			b = appendFloat(b, a.Value.f)
		case 's':
			b = appendJSONString(b, a.Value.s)
		case 'b':
			b = strconv.AppendBool(b, a.Value.b)
		}
	}
	return b
}

// appendFloat appends v in formatFloat's shortest round-trip form.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendJSONString appends s as a JSON string literal. Only the escapes
// JSON requires are applied, so output is stable and minimal; invalid
// UTF-8 is replaced by U+FFFD. Plain printable ASCII, which every name
// the simulator emits is, is copied in one step.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			return append(appendEscaped(append(b, s[:i]...), s[i:]), '"')
		}
	}
	return append(append(b, s...), '"')
}

// appendEscaped appends s rune by rune with JSON's required escapes.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r == '\r':
			b = append(b, '\\', 'r')
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return b
}
