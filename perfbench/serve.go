package main

// serve.go is the serve-mixed workload: an in-process xfdd server on
// loopback, driven by two keep-alive clients. Client A posts documents
// to the sync discover route; client B patches a resident document and
// rediscovers it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discoverxfd"
	"discoverxfd/internal/server"
	"discoverxfd/internal/telemetry"
	"discoverxfd/internal/xmlgen"
)

// Routes as the server labels them in /metrics.
const (
	routeDiscover   = "/v1/discover"
	routeDocument   = "/v1/documents/{id}"
	routeRediscover = "/v1/documents/{id}/discover"
)

// body is one client-A request class.
type body struct {
	class, ctype string
	data, ref    []byte
}

// serveInputs is what setup generates: client A's bodies, the
// resident document, and the row keys client B's patches address.
type serveInputs struct {
	bodies  []*body
	forest  *corpus
	tables  []table
	nOps    int
	corpora []corpusInfo
}

// table is one row class of the resident forest and its tuple keys.
type table struct {
	class string
	keys  []int
	attrs int
}

func newServeInputs(ctx context.Context, seed int64, smoke bool) (*serveInputs, error) {
	in := &serveInputs{}
	wp, dp, mp, cp := xmlgen.DefaultWarehouse(), xmlgen.DefaultDBLP(), xmlgen.DefaultMondial(), xmlgen.DefaultCatalog()
	wp.Seed, dp.Seed, mp.Seed, cp.Seed = seed, seed, seed, seed
	for _, g := range []struct {
		name string
		ds   xmlgen.Dataset
	}{
		{"warehouse", xmlgen.Warehouse(wp)}, {"dblp", xmlgen.DBLP(dp)},
		{"mondial", xmlgen.Mondial(mp)}, {"catalog", xmlgen.Catalog(cp)},
	} {
		c, err := newCorpus(ctx, g.name, g.ds)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies,
			&body{class: g.name + "/xml", ctype: "application/xml", data: c.xml, ref: c.ref},
			&body{class: g.name + "/json", ctype: "application/json", data: c.json, ref: c.ref})
		in.corpora = append(in.corpora, c.info...)
	}

	fp := xmlgen.WideForestParams{Tables: 8, Table: xmlgen.WideParams{Rows: 250, Attrs: 10, Domain: 6, FDEvery: 3, Seed: seed}}
	if smoke {
		fp.Table.Rows = 50
	}
	f, err := newCorpus(ctx, fmt.Sprintf("forest-%dx%dx%d", fp.Tables, fp.Table.Rows, fp.Table.Attrs), xmlgen.WideForest(fp))
	if err != nil {
		return nil, err
	}
	in.forest = f
	in.corpora = append(in.corpora, f.info[0])
	for _, r := range f.h.EssentialRelations() {
		if r.NRows() > 0 {
			in.tables = append(in.tables, table{class: string(r.Pivot), keys: append([]int(nil), r.Keys...), attrs: fp.Table.Attrs})
		}
	}
	if len(in.tables) == 0 {
		return nil, errors.New("forest has no row classes")
	}
	// About 1% of the document's tuples per batch, all in one table.
	in.nOps = max(1, f.h.TotalTuples()/100)
	return in, nil
}

// patchGen draws seeded update scripts: set ops on distinct rows of
// one table, confined to two of its columns, each writing a value from
// the column's domain. Column-localized batches are the steady state
// the warm layer is built for: partitions avoiding the touched
// columns are kept, the touched single-column ones patched.
type patchGen struct {
	rng *rand.Rand
	in  *serveInputs
}

type patchOp struct {
	Op    string `json:"op"`
	Class string `json:"class"`
	Key   int    `json:"key"`
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

func (g *patchGen) next() []byte {
	t := g.in.tables[g.rng.Intn(len(g.in.tables))]
	n := min(g.in.nOps, len(t.keys))
	cols := g.rng.Perm(t.attrs)[:2]
	ops := make([]patchOp, 0, n)
	for _, i := range g.rng.Perm(len(t.keys))[:n] {
		a := 1 + cols[g.rng.Intn(len(cols))]
		ops = append(ops, patchOp{Op: "set", Class: t.class, Key: t.keys[i],
			Attr: fmt.Sprintf("./a%d", a), Value: fmt.Sprintf("v%d_%d", a, g.rng.Intn(6))})
	}
	b, _ := json.Marshal(ops) // plain structs: cannot fail
	return b
}

// liveServer is one running in-process server with its resident
// document.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	hc     *http.Client
	base   string
	docID  string
	done   chan struct{}
	cancel context.CancelFunc
	led    *ledger
	live   float64 // heap retained by the resident document per input byte
}

// startServer starts a server (traced into a fresh ledger when asked),
// creates the resident forest document and runs its first discovery,
// checked against the reference.
func startServer(ctx context.Context, in *serveInputs, traced bool) (*liveServer, error) {
	sctx, cancel := context.WithCancel(ctx)
	cfg := server.Config{}
	ls := &liveServer{cancel: cancel, done: make(chan struct{})}
	if traced {
		ls.led = newLedger()
		cfg.Trace = ls.led
	}
	ls.srv = server.New(sctx, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	ls.hc = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	m := newMeter()
	var base uint64
	if traced {
		runtime.GC()
		base, _, _ = m.read()
	}
	x, err := ls.call(ctx, 0, http.MethodPost, "/v1/documents", "application/xml", in.forest.xml)
	if err == nil && x.status != http.StatusCreated {
		err = fmt.Errorf("creating the resident document: status %d: %s", x.status, x.body)
	}
	var info struct{ ID string }
	if err == nil {
		err = json.Unmarshal(x.body, &info)
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	ls.docID = info.ID
	if traced {
		runtime.GC()
		heap, _, _ := m.read()
		ls.live = float64(int64(heap)-int64(base)) / float64(len(in.forest.xml))
	}
	x, err = ls.call(ctx, 0, http.MethodPost, "/v1/documents/"+ls.docID+"/discover", "", nil)
	if err == nil && x.status != http.StatusOK {
		err = fmt.Errorf("first discovery of the resident document: status %d", x.status)
	}
	if err == nil {
		_, err = checkResult(in.forest.ref, x.body)
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// exchange is one request's HTTP layer as the client sees it: from
// asking the transport for a connection to the last response byte.
type exchange struct {
	status     int
	body       []byte
	start, end time.Time
}

// call issues one request carrying a traceparent whose trace id is the
// op id, so the server's spans join the client's.
func (ls *liveServer) call(ctx context.Context, op int64, method, route, ctype string, data []byte) (exchange, error) {
	var x exchange
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GetConn: func(string) { x.start = time.Now() }})
	req, err := http.NewRequestWithContext(ctx, method, ls.base+route, bytes.NewReader(data))
	if err != nil {
		return x, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("traceparent", fmt.Sprintf("00-%032x-%016x-01", op+1, op+1))
	resp, err := ls.hc.Do(req)
	if err != nil {
		return x, err
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	x.body, err = io.ReadAll(resp.Body)
	x.end = time.Now()
	return x, err
}

// close drains and stops the server and waits for it to exit.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.srv.Drain(ctx)   // every client has returned: nothing to cut short
	_ = ls.hs.Shutdown(ctx) // closes the listener; Serve returns
	ls.hc.CloseIdleConnections()
	ls.cancel()
	<-ls.done
}

// scrape reads the /metrics counters the ledger differences.
type scrape struct {
	sum, count                   map[string]float64 // request duration by route
	shed, kept, patched, dropped float64
}

func (ls *liveServer) scrape(ctx context.Context) (scrape, error) {
	sc := scrape{sum: map[string]float64{}, count: map[string]float64{}}
	x, err := ls.call(ctx, 0, http.MethodGet, "/metrics", "", nil)
	if err == nil && x.status != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", x.status)
	}
	if err != nil {
		return sc, err
	}
	samples, err := telemetry.ParseExposition(bytes.NewReader(x.body))
	if err != nil {
		return sc, fmt.Errorf("/metrics: %w", err)
	}
	for _, s := range samples {
		switch s.Name {
		case "xfd_http_request_duration_seconds_sum":
			sc.sum[s.Label("route")] += s.Value
		case "xfd_http_request_duration_seconds_count":
			sc.count[s.Label("route")] += s.Value
		case "xfd_requests_shed_total":
			sc.shed += s.Value
		case "xfd_engine_partitions_kept_total":
			sc.kept += s.Value
		case "xfd_engine_partitions_patched_total":
			sc.patched += s.Value
		case "xfd_engine_partitions_dropped_total":
			sc.dropped += s.Value
		}
	}
	return sc, nil
}

// handlerMS is a route's mean handler time between two scrapes.
func handlerMS(a, b scrape, route string) float64 {
	return 1000 * ratio(b.sum[route]-a.sum[route], b.count[route]-a.count[route])
}

// client is one issuing goroutine's share of a phase.
type client struct {
	ls      *liveServer
	ops     *atomic.Int64
	lat     map[string][]float64
	bytes   int64
	n       int
	tally   tally
	refused int
	core    []coreSample
	reuse   []coreSample
	// client B: the scripts it sent and a digest of each rediscovery.
	scripts [][]byte
	digests [][32]byte
}

func newClient(ls *liveServer, ops *atomic.Int64) *client {
	return &client{ls: ls, ops: ops, lat: map[string][]float64{}}
}

// do issues one timed op over n input bytes: the body, or for a
// rediscovery the resident document it discovers over. A traced phase
// records the op's root span and, under it, the HTTP exchange, which
// the server's request span joins by trace id.
func (c *client) do(ctx context.Context, class, method, route, ctype string, data []byte, n int64) ([]byte, error) {
	op := c.ops.Add(1)
	t0 := time.Now()
	x, err := c.ls.call(ctx, op, method, route, ctype, data)
	t1 := time.Now()
	if l := c.ls.led; l != nil {
		root := span{Name: "op", ID: l.id(), Op: op, Class: class, StartMS: l.ms(t0), EndMS: l.ms(t1), Bytes: n}
		l.add(root)
		if err == nil {
			l.add(span{Name: "http", ID: l.id(), Parent: root.ID, Op: op, StartMS: l.ms(x.start), EndMS: l.ms(x.end),
				traceID: fmt.Sprintf("%032x", op+1)})
		}
	}
	c.lat[class] = append(c.lat[class], float64(t1.Sub(t0))/float64(time.Millisecond))
	c.bytes += n
	c.n++
	if err == nil && (x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable) {
		c.refused++
	}
	if err == nil && x.status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, route, x.status, x.body)
	}
	return x.body, err
}

func (c *client) fail(class string, err error) {
	if err != nil {
		fmt.Fprintf(logOut, "perfbench: %s: %v\n", class, err)
	}
	c.tally.record(err)
}

// rotation is client A's share of a round: each body posted once to
// the sync route.
func (c *client) rotation(ctx context.Context, in *serveInputs) {
	for _, b := range in.bodies {
		resp, err := c.do(ctx, b.class, http.MethodPost, routeDiscover, b.ctype, b.data, int64(len(b.data)))
		if err == nil {
			var st resultStats
			if st, err = checkResult(b.ref, resp); err == nil {
				c.core = append(c.core, coreSampleOf(st))
			}
		}
		c.fail(b.class, err)
	}
}

// cycle is client B's share of a round: one patch of the resident
// document, then its rediscovery, which is checked after the window
// (checkReplay).
func (c *client) cycle(ctx context.Context, gen *patchGen) {
	doc := "/v1/documents/" + c.ls.docID
	script := gen.next()
	c.scripts = append(c.scripts, script)
	resp, err := c.do(ctx, "patch", http.MethodPatch, doc, "application/json", script, int64(len(script)))
	if err == nil {
		var ur struct{ Ops int }
		if err = json.Unmarshal(resp, &ur); err == nil && ur.Ops == 0 {
			err = errors.New("patch applied no ops")
		}
	}
	c.fail("patch", err)

	var digest [32]byte
	resp, err = c.do(ctx, "rediscover", http.MethodPost, doc+"/discover", "", nil, int64(len(gen.in.forest.xml)))
	if err == nil {
		var canon []byte
		var st resultStats
		if canon, st, err = canonical(resp); err == nil && st.Truncated {
			err = errors.New("result truncated")
		}
		if err == nil {
			digest = sha256.Sum256(canon)
			cs := coreSampleOf(st)
			c.core = append(c.core, cs)
			c.reuse = append(c.reuse, cs)
		}
	}
	c.digests = append(c.digests, digest)
	c.fail("rediscover", err)
}

// checkReplay replays client B's scripts through Engine.ApplyUpdate on
// a library-side copy of the resident document and, at four
// checkpoints including the last cycle, compares the served
// rediscovery with a cold discovery by a fresh engine. It returns how
// many checkpoints disagreed.
func checkReplay(ctx context.Context, in *serveInputs, scripts [][]byte, digests [][32]byte) (int, error) {
	eng := discoverxfd.NewEngine(nil)
	doc, err := eng.LoadDocument(ctx, bytes.NewReader(in.forest.xml))
	if err != nil {
		return 0, err
	}
	h, err := eng.BuildHierarchy(ctx, doc, in.forest.schema)
	if err != nil {
		return 0, err
	}
	n := len(scripts)
	check := map[int]bool{n - 1: true, n / 4: true, n / 2: true, 3 * n / 4: true}
	bad := 0
	for i, script := range scripts {
		ops, err := discoverxfd.ParseUpdates(bytes.NewReader(script))
		if err != nil {
			return 0, err
		}
		if _, err := eng.ApplyUpdate(h, ops); err != nil {
			return 0, fmt.Errorf("replaying cycle %d: %w", i, err)
		}
		if !check[i] {
			continue
		}
		cold := discoverxfd.NewEngine(nil)
		h2, err := cold.BuildHierarchy(ctx, doc, in.forest.schema)
		if err != nil {
			return 0, err
		}
		res, err := cold.DiscoverHierarchy(ctx, h2)
		if err != nil {
			return 0, err
		}
		var out bytes.Buffer
		if err := discoverxfd.WriteJSON(&out, res); err != nil {
			return 0, err
		}
		canon, _, err := canonical(out.Bytes())
		if err != nil {
			return 0, err
		}
		if sha256.Sum256(canon) != digests[i] {
			fmt.Fprintf(logOut, "perfbench: rediscover: cycle %d differs from a cold discovery of the replayed document\n", i)
			bad++
		}
	}
	return bad, nil
}

// runServePhase drives both clients for the window and folds their
// observations, the /metrics deltas and the replay check into a phase.
func runServePhase(ctx context.Context, ls *liveServer, in *serveInputs, window time.Duration, seed int64, smoke bool) (*phase, error) {
	var classes, syncClasses []string
	for _, b := range in.bodies {
		syncClasses = append(syncClasses, b.class)
	}
	classes = append(append(classes, syncClasses...), "patch", "rediscover")
	ph := newPhase(classes, syncClasses)
	ph.led = ls.led

	before, err := ls.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var ops atomic.Int64
	a, b := newClient(ls, &ops), newClient(ls, &ops)
	gen := &patchGen{rng: rand.New(rand.NewSource(seed)), in: in}
	minRounds := 1
	if smoke {
		minRounds = 2
	}
	peak := startPeakSampler()
	ph.rt0 = readRuntime()
	start := time.Now()
	// The clients run side by side in rounds and wait for each other at
	// the end of each, so the op mix is fixed: a speedup of one client
	// cannot shift the per-byte metrics toward the other's ratio.
	for round := 0; round < minRounds || time.Since(start) < window; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.rotation(ctx, in) }()
		go func() { defer wg.Done(); b.cycle(ctx, gen) }()
		wg.Wait()
	}
	ph.elapsed = time.Since(start)
	ph.rt1 = readRuntime()
	ph.peakHeap = peak.finish()
	after, err := ls.scrape(ctx)
	if err != nil {
		return nil, err
	}

	for _, c := range []*client{a, b} {
		for k, v := range c.lat {
			ph.lat[k] = append(ph.lat[k], v...)
		}
		ph.bytes += c.bytes
		ph.ops += c.n
		ph.tally.merge(c.tally)
		ph.core = append(ph.core, c.core...)
		ph.reuse = append(ph.reuse, c.reuse...)
	}
	ph.allocBytes = ph.rt1.allocBytes - ph.rt0.allocBytes

	bad, err := checkReplay(ctx, in, b.scripts, b.digests)
	if err != nil {
		return nil, fmt.Errorf("replay check: %w", err)
	}
	ph.tally.failed += bad
	// A shed the clients did not see as a refusal is a failure too.
	sheds := after.shed - before.shed
	ph.tally.failed += max(0, int(sheds)-a.refused-b.refused)

	x := ph.extra
	x["server.discover.handler_ms"] = handlerMS(before, after, routeDiscover)
	x["server.rediscover.handler_ms"] = handlerMS(before, after, routeRediscover)
	x["server.patch.handler_ms"] = handlerMS(before, after, routeDocument)
	x["server.sheds"] = sheds
	kept, patched, dropped := after.kept-before.kept, after.patched-before.patched, after.dropped-before.dropped
	x["update.warm_kept_ratio"] = ratio(kept+patched, kept+patched+dropped)
	var syncMS []float64
	for _, c := range syncClasses {
		syncMS = append(syncMS, ph.lat[c]...)
	}
	x["http.discover.overhead_ms"] = mean(syncMS) - x["server.discover.handler_ms"]
	x["patch_p50_ms"] = ph.classQuantile([]string{"patch"}, 0.5)
	x["rediscover_p50_ms"] = ph.classQuantile([]string{"rediscover"}, 0.5)
	x["rediscover_p90_ms"] = ph.classQuantile([]string{"rediscover"}, 0.9)
	if ls.led != nil {
		ph.live = []float64{ls.live}
		ls.led.resolveServer()
	}
	return ph, nil
}

// resolveServer parents the program's spans on the client ops they
// served: request spans on the HTTP exchange with their trace id, runs
// by trace id (sync route) or by falling inside a resident-document
// request (whose engine traces without request ids), stages by run id,
// and update spans inside their PATCH. Spans outside the window
// (set-up, scrapes) are dropped; a span inside it that cannot be
// placed adds its time to unplacedMS, which is reported as other.
func (l *ledger) resolveServer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	byTrace := map[string]*span{}
	winStart, winEnd := math.Inf(1), math.Inf(-1)
	for i := range l.spans {
		s := &l.spans[i]
		if s.traceID != "" {
			byTrace[s.traceID] = s
		}
		if s.Parent == 0 {
			winStart, winEnd = min(winStart, s.StartMS), max(winEnd, s.EndMS)
		}
	}
	unplaced := func(s span) {
		if s.EndMS > winStart && s.StartMS < winEnd {
			l.unplacedMS += s.dur()
		}
	}
	var requests, runs, rest []span
	for _, s := range l.pending {
		switch s.Name {
		case "server.request":
			if x := byTrace[s.traceID]; x != nil {
				s.Parent, s.Op = x.ID, x.Op
				requests = append(requests, s)
			} else {
				unplaced(s)
			}
		case "core.discover":
			runs = append(runs, s)
		default:
			rest = append(rest, s)
		}
	}
	l.pending = nil
	reqByTrace := map[string]*span{}
	for i := range requests {
		reqByTrace[requests[i].traceID] = &requests[i]
	}
	// containing finds the request on route whose interval holds s.
	containing := func(s span, route string) *span {
		for i := range requests {
			r := &requests[i]
			if r.Class == route && r.StartMS <= s.StartMS+0.05 && s.EndMS <= r.EndMS+0.05 {
				return r
			}
		}
		return nil
	}
	type parent struct{ id, op int64 }
	runParent := map[string]parent{}
	lost := map[string]bool{} // runs not placed: their stages lie inside them
	kept := requests
	for _, s := range runs {
		p := reqByTrace[s.traceID]
		if s.traceID == "" {
			p = containing(s, routeRediscover)
		}
		if p == nil {
			unplaced(s)
			lost[s.run] = true
			continue
		}
		s.Parent, s.Op = p.ID, p.Op
		kept = append(kept, s)
		runParent[s.run] = parent{s.ID, s.Op}
	}
	for _, s := range rest {
		var p parent
		ok := false
		if s.Name == "update.apply" {
			if r := containing(s, routeDocument); r != nil {
				p, ok = parent{r.ID, r.Op}, true
			}
		} else {
			p, ok = runParent[s.run]
		}
		switch {
		case ok:
			s.Parent, s.Op = p.id, p.op
			kept = append(kept, s)
		case !lost[s.run] || s.Name == "update.apply":
			unplaced(s)
		}
	}
	l.spans = append(l.spans, kept...)
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].StartMS < l.spans[j].StartMS })
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(ctx context.Context, cfg config) (*report, error) {
	type setup struct {
		in *serveInputs
		ls *liveServer
	}
	st, setupS, err := timedSetup(setupReps(cfg), func() (setup, error) {
		in, err := newServeInputs(ctx, cfg.seed, cfg.smoke)
		if err != nil {
			return setup{}, err
		}
		ls, err := startServer(ctx, in, false)
		return setup{in, ls}, err
	}, func(s setup) { s.ls.close() })
	if err != nil {
		return nil, err
	}
	defer st.ls.close()
	window := cfg.window
	if cfg.smoke {
		window = 0
	}
	rep := &report{corpora: st.in.corpora}
	if !cfg.traced {
		ph, err := runServePhase(ctx, st.ls, st.in, window, cfg.seed, cfg.smoke)
		if err != nil {
			return nil, err
		}
		rep.metrics, rep.tally = ph.endToEnd(setupS), ph.tally
		return rep, nil
	}
	plain, err := runServePhase(ctx, st.ls, st.in, window/2, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(ctx, st.in, true)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	traced, err := runServePhase(ctx, ls, st.in, window/2, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	rep.metrics = perLayerMetrics(plain, traced)
	rep.tally.merge(plain.tally)
	rep.tally.merge(traced.tally)
	err = ls.led.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	return rep, err
}
