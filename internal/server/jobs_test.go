package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pollJob polls the job's status document until pred accepts it.
func pollJob(t *testing.T, s *Server, id string, pred func(jobView) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(s, "GET", "/v1/jobs/"+id, nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("job status = %d, body %s", rec.Code, rec.Body)
		}
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(v jobView) bool {
	return v.State == stateDone || v.State == stateFailed || v.State == stateCancelled
}

// TestJobLifecycle pins the async path end to end: submit, status,
// progress polling with cursors, and a result byte-identical to the
// sync endpoint's.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	xml := libraryXML(10)

	rec := do(s, "POST", "/v1/jobs", nil, strings.NewReader(xml))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q, want %q", loc, "/v1/jobs/"+v.ID)
	}
	if v.Links.Events == "" || v.Links.Result == "" {
		t.Errorf("status document missing links: %+v", v)
	}

	done := pollJob(t, s, v.ID, terminal)
	if done.State != stateDone {
		t.Fatalf("job finished %q (%s), want done", done.State, done.Error)
	}
	if done.Finished == "" {
		t.Error("finished job has no finish timestamp")
	}

	// The result endpoint serves the rendered bytes verbatim —
	// identical to what the sync endpoint answers for the same body.
	res := do(s, "GET", "/v1/jobs/"+v.ID+"/result", nil, nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d, body %s", res.Code, res.Body)
	}
	sync := do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
	if sync.Code != http.StatusOK {
		t.Fatalf("sync discover = %d", sync.Code)
	}
	if got, want := normalizeTimes(res.Body.Bytes()), normalizeTimes(sync.Body.Bytes()); !bytes.Equal(got, want) {
		t.Error("job result differs from the sync path for the same document")
	}

	// Progress polling: page through the feed by cursor until closed.
	var (
		cursor uint64
		kinds  []string
	)
	for {
		rec := do(s, "GET", "/v1/jobs/"+v.ID+"/events?cursor="+strconv.FormatUint(cursor, 10), nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("events = %d, body %s", rec.Code, rec.Body)
		}
		var page eventsPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Dropped {
			t.Fatal("feed dropped events for a completed small run")
		}
		for _, raw := range page.Events {
			var ev struct {
				Kind string `json:"event"`
			}
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, ev.Kind)
		}
		cursor = page.Next
		if page.Closed && len(page.Events) == 0 {
			break
		}
	}
	if len(kinds) == 0 || kinds[0] != "run_start" || kinds[len(kinds)-1] != "run_end" {
		t.Errorf("event feed not bracketed by run_start/run_end: %v", kinds)
	}
}

// TestJobSSE streams a finished job's progress as Server-Sent Events
// over a real connection: ids start at the cursor origin, events carry
// their trace kind, and the stream terminates with a done event.
func TestJobSSE(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "text/xml", strings.NewReader(libraryXML(8)))
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	stream, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(stream.Body) // the job finishes, so the stream ends
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: run_start\nid: 0\n") {
		t.Errorf("stream does not begin at cursor 0 with run_start:\n%.300s", text)
	}
	if !strings.Contains(text, "event: run_end\n") {
		t.Error("stream missing run_end")
	}
	if !strings.HasSuffix(strings.TrimSpace(text), "event: done\ndata: {}") {
		t.Errorf("stream does not terminate with the done event:\n…%s", text[max(0, len(text)-120):])
	}
}

// TestJobCancel pins DELETE /v1/jobs/{id}: a queued job is aborted and
// lands in the cancelled state, and its result endpoint replays that.
func TestJobCancel(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	release, err := s.adm.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}

	if rec := do(s, "DELETE", "/v1/jobs/"+v.ID, nil, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel = %d", rec.Code)
	}
	got := pollJob(t, s, v.ID, terminal)
	if got.State != stateCancelled {
		t.Fatalf("state = %q (%s), want cancelled", got.State, got.Error)
	}
	res := do(s, "GET", "/v1/jobs/"+v.ID+"/result", nil, nil)
	if res.Code != statusClientClosedRequest {
		t.Errorf("cancelled result = %d, want %d", res.Code, statusClientClosedRequest)
	}
}

// TestJobQueueDeadline pins a job whose wall-clock budget expires
// while it waits for admission: it fails with the 504 mapping instead
// of running over budget.
func TestJobQueueDeadline(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	release, err := s.adm.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(s, "POST", "/v1/jobs?timeout=25ms", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	got := pollJob(t, s, v.ID, terminal)
	if got.State != stateFailed {
		t.Fatalf("state = %q, want failed", got.State)
	}
	res := do(s, "GET", "/v1/jobs/"+v.ID+"/result", nil, nil)
	if res.Code != http.StatusGatewayTimeout {
		t.Errorf("result replay = %d, want 504 (body %s)", res.Code, res.Body)
	}
}

// TestJobRegistryBounded pins the registry cap: full of live jobs it
// sheds submissions with 429, and finished jobs are evicted to make
// room.
func TestJobRegistryBounded(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxJobs: 1})
	release, err := s.adm.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}

	rec := do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}

	// The only slot holds a live (queued) job: the registry is full.
	rec = do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit into full registry = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("registry-full rejection missing Retry-After")
	}

	release()
	if got := pollJob(t, s, v.ID, terminal); got.State != stateDone {
		t.Fatalf("first job finished %q, want done", got.State)
	}

	// Now terminal, the first job is evicted for a new submission.
	rec = do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit after eviction = %d, want 202", rec.Code)
	}
	var v2 jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if got := pollJob(t, s, v2.ID, terminal); got.State != stateDone {
		t.Fatalf("second job finished %q, want done", got.State)
	}
	if rec := do(s, "GET", "/v1/jobs/"+v.ID, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("evicted job status = %d, want 404", rec.Code)
	}
}

// TestJobUnknownID pins 404s for absent jobs across the job surface.
func TestJobUnknownID(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-999"},
		{"GET", "/v1/jobs/job-999/result"},
		{"GET", "/v1/jobs/job-999/events"},
		{"DELETE", "/v1/jobs/job-999"},
	} {
		if rec := do(s, c.method, c.path, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", c.method, c.path, rec.Code)
		}
	}
}

// TestJobDegradeTruncate pins graceful degradation on the async path:
// a job that outlives its budget fails by default but serves its
// partial result under ?degrade=truncate.
func TestJobDegradeTruncate(t *testing.T) {
	s := newTestServer(t, Config{Fault: sleepOnAdmit()})
	xml := libraryXML(10)
	hdr := map[string]string{"X-Test-Sleep": "80ms"}

	submit := func(target string) jobView {
		t.Helper()
		rec := do(s, "POST", target, hdr, strings.NewReader(xml))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d, body %s", rec.Code, rec.Body)
		}
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return pollJob(t, s, v.ID, terminal)
	}

	if got := submit("/v1/jobs?timeout=20ms"); got.State != stateFailed ||
		!strings.Contains(got.Error, "deadline") {
		t.Errorf("over-budget job = %q (%s), want failed with a deadline error", got.State, got.Error)
	}

	got := submit("/v1/jobs?timeout=20ms&degrade=truncate")
	if got.State != stateDone || !got.Truncated {
		t.Fatalf("degraded job = %+v, want done and truncated", got)
	}
	rec := do(s, "GET", "/v1/jobs/"+got.ID+"/result", nil, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Truncated") != "true" {
		t.Fatalf("degraded result = %d (X-Truncated %q), want 200/true",
			rec.Code, rec.Header().Get("X-Truncated"))
	}
	var res struct {
		Stats struct {
			Truncated       bool   `json:"truncated"`
			TruncatedReason string `json:"truncatedReason"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("degraded result is not valid JSON: %v", err)
	}
	if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "deadline") {
		t.Errorf("truncated=%v reason=%q, want a deadline truncation",
			res.Stats.Truncated, res.Stats.TruncatedReason)
	}
}

// TestJobSubmitShedsUnderLoad pins that 202 means "will run": with
// every slot busy and the queue full, a submission is shed up front
// with the sync path's 429 + Retry-After, and an accepted job that is
// cancelled while queued gives its queue place back.
func TestJobSubmitShedsUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	release, err := s.adm.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit into a free queue place = %d, want 202", rec.Code)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	rec = do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit into a full queue = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed job submission missing Retry-After")
	}
	if got := s.Stats().Tenants[""].Sheds["queue_full"]; got != 1 {
		t.Errorf("queue_full sheds = %d, want 1", got)
	}

	if rec := do(s, "DELETE", "/v1/jobs/"+v.ID, nil, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel = %d", rec.Code)
	}
	if got := pollJob(t, s, v.ID, terminal); got.State != stateCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
	if _, queued := s.adm.Load(); queued != 0 {
		t.Fatalf("cancelled job left %d tickets queued", queued)
	}
}
