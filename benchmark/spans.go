package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one wall-clock interval the benchmark recorded around a call
// it made into the program. Spans of one traced run share the run's
// trace id; Parent is 0 for a root. Lane separates concurrent siblings
// (the aging arms, the HTTP clients) onto their own row in the viewer.
type span struct {
	ID, Parent int
	Name       string
	Layer      string // the module the call goes into
	Lane       int
	Start, End time.Duration // since the recorder started
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil *recorder is tracing off: every method is a no-op, so untraced
// iterations pay one nil check per call site.
type recorder struct {
	trace string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(traceID string) *recorder {
	return &recorder{trace: traceID, t0: time.Now()}
}

// start opens a span and returns its id (0 when tracing is off).
func (r *recorder) start(parent, lane int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Layer: layer, Lane: lane, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do runs fn inside a span; fn receives the span's id as the parent for
// any spans it opens.
func (r *recorder) do(parent, lane int, layer, name string, fn func(id int) error) error {
	id := r.start(parent, lane, layer, name)
	err := fn(id)
	r.end(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span's interval its children cover.
// Concurrent children can overlap, so the covered part is the length of
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals inside p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			total += curEnd - cur
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	return total + curEnd - cur
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON.
func writeChromeTrace(w io.Writer, traceID string, spans []span) error {
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"trace": traceID, "id": s.ID, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(ct); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}
