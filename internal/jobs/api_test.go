package jobs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ffsage/internal/queue"
)

// newTestServer starts a Manager on a memory queue behind httptest.
func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	if opts.Queue == nil {
		opts.Queue = queue.NewMemory()
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestAPISubmitAndResult(t *testing.T) {
	m, srv := newTestServer(t, fastOpts(t.TempDir()))

	resp := postJSON(t, srv.URL+"/jobs", `{"id":"api1","days":4,"seed":42}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var created struct{ ID, State string }
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "api1" || created.State != "pending" {
		t.Fatalf("created %+v", created)
	}

	waitState(t, m.Queue(), "api1", queue.Done)

	resp, err := http.Get(srv.URL + "/jobs/api1")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"api1"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/jobs/api1/result")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("result body: %v\n%s", err, body)
	}
	if res.ID != "api1" || res.Days != 4 {
		t.Fatalf("result %+v", res)
	}

	resp, err = http.Get(srv.URL + "/jobs/api1/events")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"stream":"job.days"`) {
		t.Fatalf("events: %d %s", resp.StatusCode, body)
	}
}

func TestAPISubmitRejections(t *testing.T) {
	_, srv := newTestServer(t, fastOpts(t.TempDir()))

	for _, tc := range []struct {
		name, body string
		wantErr    string
	}{
		{"malformed json", `{not json`, "decoding spec"},
		{"unknown field", `{"days":4,"seed":1,"bogus":true}`, "decoding spec"},
		{"bad bounds", `{"days":-1,"seed":1}`, "days"},
		{"bad fault plan", `{"days":4,"seed":1,"faults":"crash@op:nope"}`, "crash@op:nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/jobs", tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%d %s", resp.StatusCode, body)
			}
			if !strings.Contains(body, tc.wantErr) {
				t.Fatalf("error %s does not mention %q", body, tc.wantErr)
			}
		})
	}
}

func TestAPIDuplicateAndShedding(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.MaxPending = 1
	m, srv := newTestServer(t, opts)

	// Occupy the only worker — for the whole test, so the job is far
	// longer than it needs: Close interrupts it anyway.
	resp := postJSON(t, srv.URL+"/jobs", `{"id":"busy","days":365,"seed":7}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, m.Queue(), "busy", queue.Running)

	// Shedding is checked before duplicates, so probe the conflict
	// while the pending slot is still free.
	resp = postJSON(t, srv.URL+"/jobs", `{"id":"busy","days":30,"seed":7}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: %d %s", resp.StatusCode, body)
	}

	resp = postJSON(t, srv.URL+"/jobs", `{"id":"waiting","days":4,"seed":7}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/jobs", `{"id":"shed","days":4,"seed":7}`)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over the bound: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestAPIConcurrentIDlessSubmits pins that the daemon's ID assignment
// is serialized with the enqueue: concurrent POST /jobs without an id
// must all be accepted (201) under distinct IDs, never refused with a
// 409 because two of them picked the same fresh ID.
func TestAPIConcurrentIDlessSubmits(t *testing.T) {
	_, srv := newTestServer(t, fastOpts(t.TempDir()))
	const n = 16
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"days":1,"seed":3}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var created struct{ ID string }
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				t.Error(err)
			}
			codes[i], ids[i] = resp.StatusCode, created.ID
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := range codes {
		if codes[i] != http.StatusCreated {
			t.Errorf("submit %d: status %d, want 201", i, codes[i])
		}
		if ids[i] == "" || seen[ids[i]] {
			t.Errorf("submit %d: id %q empty or already assigned", i, ids[i])
		}
		seen[ids[i]] = true
	}
}

func TestAPIResultForUnresolvedJobs(t *testing.T) {
	opts := fastOpts(t.TempDir())
	m, srv := newTestServer(t, opts)

	resp, err := http.Get(srv.URL + "/jobs/ghost/result")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d %s", resp.StatusCode, body)
	}

	// A job that times out every attempt dead-letters; its result is Gone.
	resp = postJSON(t, srv.URL+"/jobs", `{"id":"doomed","days":400,"seed":7,"timeout_sec":0.001,"max_attempts":1}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, m.Queue(), "doomed", queue.Dead)
	resp, err = http.Get(srv.URL + "/jobs/doomed/result")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("dead job result: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, CauseTimeout) {
		t.Fatalf("410 body does not carry the typed cause: %s", body)
	}
}

// TestAPISpansAndImage covers the artifact endpoints added with the
// span tracer: /spans serves the persisted span stream, /image streams
// the aged image with honest headers, and both follow /result's state
// semantics (404 while unresolved, 410 once dead).
func TestAPISpansAndImage(t *testing.T) {
	m, srv := newTestServer(t, fastOpts(t.TempDir()))

	resp := postJSON(t, srv.URL+"/jobs", `{"id":"art","days":4,"seed":42}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, m.Queue(), "art", queue.Done)

	resp, err := http.Get(srv.URL + "/jobs/art/spans")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("spans Content-Type = %q", ct)
	}
	if !strings.Contains(body, `"header":"spans"`) || !strings.Contains(body, `"span":"replay"`) {
		t.Errorf("span stream incomplete:\n%.400s", body)
	}
	// The served stream is the artifact byte for byte.
	disk, err := os.ReadFile(filepath.Join(m.jobDir("art"), "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if body != string(disk) {
		t.Error("served spans differ from the spans.jsonl artifact")
	}

	resp, err = http.Get(srv.URL + "/jobs/art/image")
	if err != nil {
		t.Fatal(err)
	}
	img := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("image: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("image Content-Type = %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(img)) {
		t.Errorf("Content-Length %s, body %d bytes", cl, len(img))
	}
	wantImg, err := os.ReadFile(filepath.Join(m.jobDir("art"), "image.ffi"))
	if err != nil {
		t.Fatal(err)
	}
	if img != string(wantImg) {
		t.Error("served image differs from the image.ffi artifact")
	}

	for _, ep := range []string{"/jobs/ghost/spans", "/jobs/ghost/image"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d %s", ep, resp.StatusCode, body)
		}
	}
}

// TestAPIOperationalSurface exercises /healthz, /readyz, /metrics, and
// the request-id middleware against a serving Manager.
func TestAPIOperationalSurface(t *testing.T) {
	opts := fastOpts(t.TempDir())
	m, srv := newTestServer(t, opts)

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
			t.Fatalf("%s: %d %s", ep, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Errorf("%s response missing X-Request-Id", ep)
		}
	}

	// A caller-chosen request id is echoed back.
	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-7" {
		t.Errorf("X-Request-Id = %q, want echo", got)
	}

	resp = postJSON(t, srv.URL+"/jobs", `{"id":"opsjob","days":4,"seed":42}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, m.Queue(), "opsjob", queue.Done)

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE agesrv_jobs_submitted_total counter",
		"agesrv_jobs_submitted_total 1",
		"# TYPE agesrv_queue_depth gauge",
		`agesrv_jobs{state="done"} 1`,
		`agesrv_http_requests_total{path="/jobs",code="201"} 1`,
		"agesrv_http_request_seconds_bucket{path=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Every line must parse as exposition format: comment or
	// name{labels} value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 || i == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Readiness flips once the manager starts draining.
	m.Close()
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: %d %s", resp.StatusCode, body)
	}
	if resp2, err := http.Get(srv.URL + "/healthz"); err == nil {
		if readBody(t, resp2); resp2.StatusCode != http.StatusOK {
			t.Errorf("/healthz after Close: %d", resp2.StatusCode)
		}
	}
}

// TestAPIReadyzReportsWedgedQueue points readiness at the queue's Err:
// a WAL that can no longer append must turn the daemon unready.
func TestAPIReadyzReportsWedgedQueue(t *testing.T) {
	dir := t.TempDir()
	wal, err := queue.Open(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(dir)
	opts.Queue = wal
	_, srv := newTestServer(t, opts)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy WAL: %d", resp.StatusCode)
	}

	// Close the log file out from under the queue: the next append
	// fails and wedges it.
	wal.Close()
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged WAL: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "queue unwritable") {
		t.Errorf("503 body %q does not name the queue", body)
	}
}

// TestRouteLabelBoundsCardinality pins the label normalizer: path
// parameters collapse, junk collapses to "other".
func TestRouteLabelBoundsCardinality(t *testing.T) {
	for path, want := range map[string]string{
		"/jobs":                     "/jobs",
		"/jobs/job-000001":          "/jobs/{id}",
		"/jobs/job-000001/result":   "/jobs/{id}/result",
		"/jobs/x/spans":             "/jobs/{id}/spans",
		"/jobs/x/image":             "/jobs/{id}/image",
		"/jobs/x/events":            "/jobs/{id}/events",
		"/jobs/x/steal":             "other",
		"/metrics":                  "/metrics",
		"/healthz":                  "/healthz",
		"/readyz":                   "/readyz",
		"/debug/pprof/heap":         "/debug/pprof",
		"/totally/random/path":      "other",
		"/jobs/../../../etc/passwd": "other",
	} {
		r := httptest.NewRequest("GET", "http://x"+path, nil)
		if got := routeLabel(r); got != want {
			t.Errorf("routeLabel(%s) = %q, want %q", path, got, want)
		}
	}
}

// TestAPIEventsFollowStreamsLive attaches a follow-mode client to a
// running job and requires at least one per-day progress event to
// arrive before the job resolves, then the stream to terminate cleanly.
func TestAPIEventsFollowStreamsLive(t *testing.T) {
	m, srv := newTestServer(t, fastOpts(t.TempDir()))

	resp := postJSON(t, srv.URL+"/jobs", `{"id":"live","days":60,"seed":7}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, m.Queue(), "live", queue.Running)

	client := &http.Client{Timeout: 120 * time.Second}
	resp, err := client.Get(srv.URL + "/jobs/live/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp) // blocks until the job resolves
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"stream":"job.progress"`) {
		t.Fatalf("follow stream carried no progress events:\n%.400s", body)
	}
	rec, _ := m.Queue().Get("live")
	if rec.State != queue.Done {
		t.Fatalf("job finished %v after the stream closed", rec.State)
	}
}

// TestAPIEventsFollowKeepsRegistryPastDropLive holds a follower between
// its subscription and its first poll until the job has resolved and
// dropped its live registry — the schedule in which a poll-only
// follower binds nothing — and requires the job's progress records to
// arrive anyway.
func TestAPIEventsFollowKeepsRegistryPastDropLive(t *testing.T) {
	opts := fastOpts(t.TempDir())
	var m *Manager
	opts.onFollow = func(id string) {
		// Runs on the handler's goroutine, so it must not fail the
		// test itself; the record count below does.
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if rec, _ := m.Queue().Get(id); rec.State == queue.Done && m.liveRegistry(id) == nil {
				return
			}
		}
	}
	m, srv := newTestServer(t, opts)

	resp := postJSON(t, srv.URL+"/jobs", `{"id":"short","days":20,"seed":7}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/jobs/short/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow: %d %s", resp.StatusCode, body)
	}
	if n := strings.Count(body, `"stream":"job.progress"`); n != 20 {
		t.Fatalf("follow stream carried %d of 20 progress records:\n%.400s", n, body)
	}
}
