package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ffsage/internal/obs"
	"ffsage/internal/queue"
)

// maxSpecBody bounds a POST /jobs body; specs are a handful of scalars.
const maxSpecBody = 64 << 10

// followPollInterval paces follow-mode event flushes.
const followPollInterval = 50 * time.Millisecond

// Handler returns the daemon's HTTP API:
//
//	POST /jobs              submit a Spec; 201 {"id","state"} on accept,
//	                        400 invalid spec, 409 duplicate id,
//	                        429 + Retry-After when load shedding
//	GET  /jobs              list all jobs and the queue depth
//	GET  /jobs/{id}         one job's state, attempt count, and cause
//	GET  /jobs/{id}/events  JSONL event stream; ?follow=1 streams per-day
//	                        progress live until the job resolves (a job
//	                        already resolved serves its events.jsonl)
//	GET  /jobs/{id}/result  the result.json of a Done job; 404 with the
//	                        current state otherwise, 410 for dead jobs
//	GET  /jobs/{id}/spans   the span-stream JSONL of a Done job; same
//	                        404/410 semantics as /result
//	GET  /jobs/{id}/image   the aged image artifact of a Done job,
//	                        streamed as application/octet-stream with
//	                        Content-Length; same 404/410 semantics
//	GET  /metrics           operational telemetry, Prometheus text format
//	GET  /healthz           liveness: 200 "ok" while the process serves
//	GET  /readyz            readiness: 503 once the manager is shutting
//	                        down or the queue's WAL has wedged
//
// Every response carries an X-Request-Id (echoed from the request or
// generated), and every request is counted and timed per route in the
// Manager's operational registry.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", m.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", m.handleResult)
	mux.HandleFunc("GET /jobs/{id}/spans", m.handleSpans)
	mux.HandleFunc("GET /jobs/{id}/image", m.handleImage)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /readyz", m.handleReadyz)
	return m.instrument(mux)
}

// httpSecondsBounds buckets request latency from sub-millisecond cache
// hits to multi-second follow streams.
var httpSecondsBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// routeLabel maps a request path to a bounded set of metric labels —
// path parameters collapse to {id} and unknown paths to "other", so a
// scanner probing random URLs cannot blow up series cardinality.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/jobs", "/metrics", "/healthz", "/readyz":
		return p
	}
	if strings.HasPrefix(p, "/debug/pprof/") {
		return "/debug/pprof"
	}
	if rest, ok := strings.CutPrefix(p, "/jobs/"); ok {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return "/jobs/{id}"
		}
		switch sub := rest[i:]; sub {
		case "/events", "/result", "/spans", "/image":
			return "/jobs/{id}" + sub
		}
	}
	return "other"
}

// obsResponseWriter records the status code and body size while
// delegating everything — including Flush, which the follow-mode event
// stream depends on — to the wrapped writer.
type obsResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *obsResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *obsResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *obsResponseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument is the daemon's request middleware: it assigns (or echoes)
// the X-Request-Id, logs one structured line per request, and feeds the
// per-route counter and latency histogram in the operational registry.
func (m *Manager) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("req-%08d", m.reqID.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		rw := &obsResponseWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rw, r)
		if rw.status == 0 {
			rw.status = http.StatusOK
		}
		dur := time.Since(start).Seconds()
		route := routeLabel(r)
		m.ops.Counter(fmt.Sprintf(`agesrv_http_requests_total{path=%q,code="%d"}`, route, rw.status)).Inc()
		h := m.ops.Histogram(fmt.Sprintf(`agesrv_http_request_seconds{path=%q}`, route), httpSecondsBounds)
		h.Observe(dur, dur)
		m.opts.Logf("http: req_id=%s method=%s path=%s route=%s status=%d bytes=%d dur_ms=%.3f",
			id, r.Method, r.URL.Path, route, rw.status, rw.bytes, dur*1e3)
	})
}

// jobStatus is the wire form of one job's queue record.
type jobStatus struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Attempt int             `json:"attempt"`
	Cause   string          `json:"cause,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
}

func statusOf(rec queue.Record) jobStatus {
	return jobStatus{
		ID:      rec.ID,
		State:   rec.State.String(),
		Attempt: rec.Attempt,
		Cause:   rec.Cause,
		Spec:    json.RawMessage(rec.Spec),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection is the only place this error could go.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	id, err := m.Submit(&sp)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, queue.ErrExists):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusCreated, map[string]string{"id": id, "state": "pending"})
	}
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	recs := m.q.List()
	out := struct {
		Depth int         `json:"depth"`
		Jobs  []jobStatus `json:"jobs"`
	}{Depth: m.q.Depth(), Jobs: make([]jobStatus, 0, len(recs))}
	for _, rec := range recs {
		out.Jobs = append(out.Jobs, statusOf(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := m.q.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, statusOf(rec))
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := m.q.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch rec.State {
	case queue.Done:
		data, err := os.ReadFile(m.jobDir(id) + "/result.json")
		if err != nil {
			writeError(w, http.StatusInternalServerError, "result missing: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case queue.Dead:
		writeJSON(w, http.StatusGone, statusOf(rec))
	default:
		writeJSON(w, http.StatusNotFound, statusOf(rec))
	}
}

// handleSpans serves a Done job's persisted span stream (spans.jsonl)
// with the same state semantics as /result: 404 with the current status
// while unresolved, 410 for dead jobs. Spans are derived from the
// finished replay (aging.PublishResult), so there is no live form — a
// running job has events to follow, not spans.
func (m *Manager) handleSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := m.q.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch rec.State {
	case queue.Done:
		data, err := os.ReadFile(filepath.Join(m.jobDir(id), "spans.jsonl"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "spans missing: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(data)
	case queue.Dead:
		writeJSON(w, http.StatusGone, statusOf(rec))
	default:
		writeJSON(w, http.StatusNotFound, statusOf(rec))
	}
}

// handleImage streams a Done job's aged image artifact without
// buffering it: the image is the largest artifact by far, so it goes
// out as a copy from the file with an honest Content-Length. State
// semantics match /result.
func (m *Manager) handleImage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := m.q.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch rec.State {
	case queue.Done:
		f, err := os.Open(filepath.Join(m.jobDir(id), "image.ffi"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "image missing: %v", err)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "image stat: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
		// Past this point the error has nowhere to go but the connection.
		_, _ = io.Copy(w, f)
	case queue.Dead:
		writeJSON(w, http.StatusGone, statusOf(rec))
	default:
		writeJSON(w, http.StatusNotFound, statusOf(rec))
	}
}

// handleMetrics refreshes the scrape-time gauges (queue depth, jobs by
// state, WAL size and recovery facts) and renders the operational
// registry in Prometheus text exposition format. Only wall-clock
// telemetry lives here; the deterministic per-job registries are served
// by /jobs/{id}/events and friends.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m.ops.Gauge("agesrv_queue_depth").Set(float64(m.q.Depth()))
	var byState [4]int
	for _, rec := range m.q.List() {
		if int(rec.State) < len(byState) {
			byState[rec.State]++
		}
	}
	for st, n := range byState {
		m.ops.Gauge(fmt.Sprintf(`agesrv_jobs{state=%q}`, queue.State(st))).Set(float64(n))
	}
	if wal, ok := m.q.(*queue.WAL); ok {
		if fi, err := os.Stat(wal.Path()); err == nil {
			m.ops.Gauge("agesrv_wal_bytes").Set(float64(fi.Size()))
		}
		m.ops.Gauge("agesrv_wal_recovered_records").Set(float64(wal.Recovered.Records))
		m.ops.Gauge("agesrv_wal_compacted").Set(boolGauge(wal.Recovered.Compacted))
		m.ops.Gauge("agesrv_wal_truncated_tail").Set(boolGauge(wal.Recovered.TruncatedTail))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The connection is the only place a write error could go.
	_ = m.ops.WritePrometheus(w)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleHealthz is pure liveness: the process is up and serving.
func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the daemon should receive traffic: 503
// once Close began (jobs are draining, submissions would race shutdown)
// or the queue backend wedged (a WAL append/sync failure means no
// mutation can be made durable).
func (m *Manager) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := m.ctx.Err(); err != nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if err := m.q.Err(); err != nil {
		http.Error(w, fmt.Sprintf("queue unwritable: %v", err), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// liveStreams are the event streams a running job emits: one "day"
// event per completed simulated day on progress, and checkpoint /
// fault / crash / interrupted incidents on run.
var liveStreams = [...]string{"job.progress", "job.run"}

func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := m.q.Get(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	// A follow streams the job live until it resolves. A job that
	// resolved before the follower could bind a live registry gets the
	// same answer as a plain request: its persisted artifact.
	if r.URL.Query().Get("follow") == "1" && m.followEvents(w, r, id) {
		return
	}
	if reg := m.liveRegistry(id); reg != nil {
		// One-shot snapshot of everything buffered so far. The write
		// error has nowhere to go but the connection itself.
		_ = reg.WriteEvents(w)
		return
	}
	// Not running: serve the persisted artifact (empty for jobs that
	// never produced one — pending or dead).
	data, err := os.ReadFile(m.jobDir(id) + "/events.jsonl")
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(data)
}

// followEvents streams a job's live events incrementally: every new
// record on the live streams is written (and flushed) as it appears,
// until the job resolves, the client goes away, or the daemon shuts
// down. It subscribes before it reads the job's state, so it holds the
// registry of every live phase that had not ended by then, however
// short; the ticker only paces the flushes. A retry's fresh registry
// (whose sequence numbers restart) replaces the old one once the old
// one's records are written. followEvents reports false, having
// written nothing, when the job resolved before any live phase it
// could bind.
func (m *Manager) followEvents(w http.ResponseWriter, r *http.Request, id string) bool {
	reg, next, leave := m.follow(id)
	defer leave()
	if m.opts.onFollow != nil {
		m.opts.onFollow(id)
	}
	flusher, _ := w.(http.Flusher)
	lastSeq := map[string]int64{}
	emitNew := func() {
		if reg == nil {
			return
		}
		for _, stream := range liveStreams {
			// A write error has nowhere to go but the connection itself.
			lastSeq[stream], _ = reg.Tracer(stream, obs.EventLines).WriteFrom(w, lastSeq[stream])
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	bindNext := func() {
		select {
		case nr := <-next:
			emitNew()
			reg = nr
			clear(lastSeq)
		default:
		}
	}
	t := time.NewTicker(followPollInterval)
	defer t.Stop()
	for {
		bindNext()
		emitNew()
		rec, ok := m.q.Get(id)
		if !ok || (rec.State != queue.Running && rec.State != queue.Pending) {
			// setLive runs before the job resolves, so a registry it
			// installed since the last bind is waiting on next.
			bindNext()
			emitNew()
			return reg != nil
		}
		select {
		case <-r.Context().Done():
			return true
		case <-m.ctx.Done():
			return true
		case <-t.C:
		}
	}
}
