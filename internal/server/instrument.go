package server

// instrument.go is the server's observability middleware — the
// outermost layer of every route, so sheds (429/503) and contained
// panics are observed exactly like successes. Per request it:
//
//   - joins the caller's distributed trace: an inbound W3C traceparent
//     header is parsed (malformed ones are ignored per spec — a fresh
//     trace starts instead), a span id is minted for this request, and
//     the resulting traceparent plus X-Request-Id are set on the
//     response before the handler runs, so even an early shed carries
//     them;
//   - emits a request span (request_start/request_end) to the durable
//     trace backend, stamped with the trace_id/request_id pair; runs
//     admitted by the request reuse the same pair via requestTracer,
//     so one grep by trace_id yields the request and its run;
//   - labels the goroutine for profilers (xfd_trace, xfd_request) —
//     the run layer adds xfd_run/xfd_stage on top;
//   - records RED metrics (rate, errors, duration) per route × tenant
//     × status class and the response byte count;
//   - writes one structured access-log line, and a deeper slow-request
//     report with per-stage timings when the request outlives
//     Config.SlowRun.
//
// The library path is untouched: all of this lives on the serving
// side of the Options.Trace seam, and requests that never reach a run
// pay only header parsing and two header writes.

import (
	"context"
	"net/http"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"discoverxfd/internal/trace"
)

// ctxKey keys the per-request instrumentation state in the request
// context.
type ctxKey struct{}

// instrRequest is the per-request observability state: the trace
// correlation ids, the stage recorder feeding the slow-request report,
// and the shed/decline reason writeError classifies for the access log
// and the shed counters.
type instrRequest struct {
	traceID   string
	requestID string

	mu     sync.Mutex
	reason string        // guarded by mu
	stages *stageTimings // nil unless SlowRun is configured
}

// setReason records why a request was declined (queue_full,
// tenant_quota, draining, deadline, …); first writer wins so the
// reason names the original classification.
func (in *instrRequest) setReason(reason string) {
	in.mu.Lock()
	if in.reason == "" {
		in.reason = reason
	}
	in.mu.Unlock()
}

func (in *instrRequest) getReason() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reason
}

// instrFrom returns the request's instrumentation state, or nil for a
// request that did not pass through the middleware (direct handler
// tests).
func instrFrom(ctx context.Context) *instrRequest {
	in, _ := ctx.Value(ctxKey{}).(*instrRequest)
	return in
}

// noteReason records a decline reason for the in-flight request, if it
// is instrumented. Free otherwise.
func noteReason(r *http.Request, reason string) {
	if in := instrFrom(r.Context()); in != nil {
		in.setReason(reason)
	}
}

// requestTracer returns the tracer runs admitted by this request hand
// to Options.Trace: the durable backend stamped with the request's
// correlation ids, plus the slow-run stage recorder when configured.
// Requests outside the middleware fall back to the bare backend.
func (s *Server) requestTracer(r *http.Request) trace.Tracer {
	in := instrFrom(r.Context())
	if in == nil {
		return s.cfg.Trace
	}
	var stages trace.Tracer
	if in.stages != nil {
		stages = in.stages
	}
	return trace.Multi(trace.WithIDs(s.cfg.Trace, in.traceID, in.requestID), stages)
}

// stageTimings is a Tracer that retains stage_end durations — the
// slow-request report's raw material. It keeps at most stageCap spans
// so a pathological request cannot grow it unboundedly.
type stageTimings struct {
	mu    sync.Mutex
	spans []stageSpan // guarded by mu
}

type stageSpan struct {
	run   string
	stage string
	ms    float64
}

const stageCap = 64

func (st *stageTimings) Emit(ev *trace.Event) {
	if ev.Kind != trace.KindStageEnd {
		return
	}
	st.mu.Lock()
	if len(st.spans) < stageCap {
		st.spans = append(st.spans, stageSpan{run: ev.Run, stage: ev.Stage, ms: ev.DurationMS})
	}
	st.mu.Unlock()
}

// report renders the retained spans as slog pairs ("run/stage" →
// duration), sorted for a deterministic log line.
func (st *stageTimings) report() []any {
	st.mu.Lock()
	spans := make([]stageSpan, len(st.spans))
	copy(spans, st.spans)
	st.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].run != spans[j].run {
			return spans[i].run < spans[j].run
		}
		return false // preserve emission order within a run
	})
	out := make([]any, 0, 2*len(spans))
	for _, sp := range spans {
		out = append(out, sp.run+"/"+sp.stage, time.Duration(sp.ms*float64(time.Millisecond)))
	}
	return out
}

// statusRecorder captures the response status and body size for the
// access log and metrics, forwarding Flush for the SSE route.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes += int64(n)
	return n, err
}

func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass buckets a status code for the RED counter ("2xx", …).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// instrument wraps one route with the observability middleware; route
// is the metric/log label (the pattern path, so per-id URLs do not
// explode the label space).
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.open.add(1)
		defer s.open.add(-1) // after request_end: Drain waits for it
		start := time.Now()
		flags := "01"
		var traceID string
		if tp, err := trace.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			traceID, flags = tp.TraceID, tp.Flags
		} else {
			traceID = trace.NewTraceID()
		}
		requestID := trace.NewSpanID()
		hdr := w.Header()
		hdr.Set("Traceparent", trace.Traceparent{TraceID: traceID, ParentID: requestID, Flags: flags}.String())
		hdr.Set("X-Request-Id", requestID)

		in := &instrRequest{traceID: traceID, requestID: requestID}
		if s.cfg.SlowRun > 0 {
			in.stages = &stageTimings{}
		}
		rec := &statusRecorder{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, in))

		spanTracer := trace.WithIDs(s.cfg.Trace, traceID, requestID)
		trace.Emit(spanTracer, &trace.Event{Kind: trace.KindRequestStart,
			Action: r.Method, Detail: route})

		pprof.Do(r.Context(), pprof.Labels("xfd_trace", traceID, "xfd_request", requestID),
			func(ctx context.Context) {
				h.ServeHTTP(rec, r.WithContext(ctx))
			})

		if rec.status == 0 { // handler wrote nothing: implicit 200
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		tenant := tenantOf(r)
		s.met.observeRequest(route, tenant, rec, dur)

		trace.Emit(spanTracer, &trace.Event{Kind: trace.KindRequestEnd,
			Action: r.Method, Detail: route, Status: rec.status,
			Bytes: rec.bytes, DurationMS: float64(dur) / float64(time.Millisecond)})

		attrs := []any{
			"method", r.Method,
			"route", route,
			"tenant", tenant,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", dur,
			"trace_id", traceID,
			"request_id", requestID,
		}
		if reason := in.getReason(); reason != "" {
			attrs = append(attrs, "reason", reason)
		}
		if tr := rec.Header().Get("X-Truncated"); tr != "" {
			attrs = append(attrs, "truncated", true)
		}
		s.cfg.Log.Info("request", attrs...)

		if s.cfg.SlowRun > 0 && dur >= s.cfg.SlowRun && in.stages != nil {
			slow := append(attrs, "slow_run_threshold", s.cfg.SlowRun)
			slow = append(slow, in.stages.report()...)
			s.cfg.Log.Warn("slow request", slow...)
		}
	})
}
