package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"discoverxfd"
)

// request is one decoded discovery request: the parsed document and
// schema plus the per-request options derived from the server's base
// configuration and the request's own parameters.
type request struct {
	doc    *discoverxfd.Document
	schema *discoverxfd.Schema // nil = infer from the document
	opts   discoverxfd.Options
	// degrade is true for degrade=truncate: budget exhaustion returns
	// the partial Result with 200 instead of 504.
	degrade bool
	tenant  string
	timeout time.Duration
	// fault fires the server's named fault points for this request
	// (chaos builds only; nil otherwise). decodeParams binds it to a
	// copy of the request headers so async job goroutines can fire
	// points after the HTTP exchange has ended.
	fault func(point string)
}

// fire triggers the named per-request fault point; free when no fault
// hook is configured.
func (r *request) fire(point string) {
	if r.fault != nil {
		r.fault(point)
	}
}

// envelope is the JSON request body form: the document as a string
// plus an optional schema in the nested-relational text notation and
// an optional format naming how the document string should be parsed
// ("xml" or "json"; default xml, the historical envelope payload).
// Raw document bodies skip the envelope entirely.
type envelope struct {
	Document string `json:"document"`
	Schema   string `json:"schema,omitempty"`
	Format   string `json:"format,omitempty"`
}

// httpError is an error with a fixed HTTP status, produced by the
// decode layer where the classification is known at the error site.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeParams derives a request's options from its query parameters
// and headers, before the body is touched: the degrade mode, the
// effective timeout, the limits (which may only tighten the server's
// base), and — on chaos builds — the engine-stage fault hook. The
// caller uses the returned timeout to build the request context that
// decodeBody and the run itself then honor.
func (s *Server) decodeParams(r *http.Request) (*request, error) {
	req := &request{
		opts:   s.cfg.Options,
		tenant: tenantOf(r),
	}
	req.opts.Trace = nil // per-request tracers are attached by the caller

	q := r.URL.Query()
	switch q.Get("degrade") {
	case "", "error":
	case "truncate":
		req.degrade = true
	default:
		return nil, badRequest("unknown degrade mode %q (use \"truncate\" or \"error\")", q.Get("degrade"))
	}

	var err error
	if req.timeout, err = timeoutParam(q.Get("timeout"), s.cfg.DefaultTimeout, s.cfg.MaxTimeout); err != nil {
		return nil, err
	}
	if req.opts.Limits, err = limitsParams(q, s.cfg.Limits); err != nil {
		return nil, err
	}
	if err := req.opts.Limits.Validate(); err != nil {
		return nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}

	// Fault injection (chaos builds only: the headers are inert unless
	// the server was constructed with a fault hook).
	if s.cfg.Fault != nil {
		hdr := r.Header.Clone()
		req.fault = func(point string) { s.cfg.Fault(point, hdr) }
		if substr := r.Header.Get("X-Fault-Relation"); substr != "" {
			req.opts.RelationHook = func(pivot discoverxfd.Path) {
				if strings.Contains(string(pivot), substr) {
					panic(fmt.Sprintf("server: injected fault at relation %s", pivot))
				}
			}
		}
	}
	return req, nil
}

// decodeBody reads and parses the document (and optional schema) into
// req. A body with Content-Type application/json is either an
// envelope — a top-level object whose "document" member is a string,
// parsed per its "format" member — or, failing that shape, a raw JSON
// document (schema inferred); any other content type is a raw
// document in the server's default format. Parsing runs under ctx —
// the request context bounded by the effective timeout — so a
// disconnected or out-of-budget client aborts the parse, and under
// http.MaxBytesReader, so an oversized body fails with 413. A
// deadline that fires during parse is an error even in
// degrade=truncate mode: no partial result exists yet.
func (s *Server) decodeBody(ctx context.Context, w http.ResponseWriter, r *http.Request, req *request) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// The engine only parses here, under the request's parse limits;
	// discovery builds its own.
	eng := discoverxfd.NewEngine(&req.opts)
	ct := r.Header.Get("Content-Type")
	var err error
	if ct == "application/json" || strings.HasPrefix(ct, "application/json;") {
		data, rerr := io.ReadAll(body)
		if rerr != nil {
			return decodeErr("request body", rerr)
		}
		if !isEnvelope(data) {
			req.doc, err = eng.LoadJSON(ctx, bytes.NewReader(data))
			if err != nil {
				return decodeErr("document", err)
			}
			return nil
		}
		var env envelope
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			return decodeErr("request envelope", err)
		}
		if env.Document == "" {
			return badRequest("request envelope has no document")
		}
		if env.Schema != "" {
			sch, err := discoverxfd.ParseSchema(env.Schema)
			if err != nil {
				return decodeErr("schema", err)
			}
			req.schema = sch
		}
		req.doc, err = s.loadAs(ctx, eng, env.Format, strings.NewReader(env.Document))
	} else {
		req.doc, err = s.loadAs(ctx, eng, "", body)
	}
	if err != nil {
		return decodeErr("document", err)
	}
	return nil
}

// isEnvelope reports whether a JSON body has the envelope shape: a
// top-level object whose "document" member is a string. Everything
// else — including objects with a complex "document" member — is a
// raw JSON document.
func isEnvelope(data []byte) bool {
	var probe struct {
		Document json.RawMessage `json:"document"`
	}
	if json.Unmarshal(data, &probe) != nil {
		return false
	}
	d := bytes.TrimSpace(probe.Document)
	return len(d) > 0 && d[0] == '"'
}

// loadAs parses one document in the named format with eng's parse
// limits; "" falls back to the server's default.
func (s *Server) loadAs(ctx context.Context, eng *discoverxfd.Engine, format string, r io.Reader) (*discoverxfd.Document, error) {
	if format == "" {
		format = s.cfg.DefaultFormat
	}
	switch format {
	case "xml":
		return eng.LoadDocument(ctx, r)
	case "json":
		return eng.LoadJSON(ctx, r)
	default:
		return nil, badRequest("unknown document format %q (use \"xml\" or \"json\")", format)
	}
}

// decodeErr classifies a body/parse failure: client-caused problems
// are 400s (413 for an oversized body), everything else keeps its
// error for the generic mapping in writeError.
func decodeErr(what string, err error) error {
	var httpErr *httpError
	if errors.As(err, &httpErr) {
		return httpErr // already classified at the error site
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("%s exceeds the %d-byte body limit", what, tooLarge.Limit)}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad %s: %v", what, err)}
}

// tenantOf returns the request's tenant identity (the X-Tenant
// header; absent means the anonymous tenant, which shares one quota).
func tenantOf(r *http.Request) string { return r.Header.Get("X-Tenant") }

// timeoutParam resolves the per-request wall-clock budget: the
// ?timeout= duration if given, else the server default, never more
// than the server maximum.
func timeoutParam(v string, def, max time.Duration) (time.Duration, error) {
	d := def
	if v != "" {
		var err error
		if d, err = time.ParseDuration(v); err != nil {
			return 0, badRequest("bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return 0, badRequest("bad timeout %q: must be positive", v)
		}
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d, nil
}

// limitsParams tightens the server's base limits with the request's
// query parameters. A request may only narrow the budget: when the
// server bounds a field, a larger (or unlimited) request value is
// clamped to the server's — limits are a protection, not a
// negotiation.
func limitsParams(q map[string][]string, base discoverxfd.Limits) (discoverxfd.Limits, error) {
	l := base
	for _, p := range []struct {
		name   string
		server int
		dst    *int
	}{
		{"max_tuples", base.MaxTuples, &l.MaxTuples},
		{"max_lattice_level", base.MaxLatticeLevel, &l.MaxLatticeLevel},
		{"max_nodes", base.MaxNodes, &l.MaxNodes},
		{"max_depth", base.MaxDepth, &l.MaxDepth},
	} {
		vs := q[p.name]
		if len(vs) == 0 {
			continue
		}
		n, err := strconv.Atoi(vs[0])
		if err != nil {
			return l, badRequest("bad %s %q: %v", p.name, vs[0], err)
		}
		if n < 0 {
			return l, badRequest("bad %s %d: must be non-negative", p.name, n)
		}
		// 0 asks for "unlimited", which only an unbounded server grants.
		if p.server > 0 && (n == 0 || n > p.server) {
			n = p.server
		}
		*p.dst = n
	}
	return l, nil
}
