package main

// library.go drives the library pipeline from one goroutine: the
// bulk-ingest and lattice-wide workloads.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"discoverxfd"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// path is the front end one operation takes from bytes to Result.
type path int

const (
	xmlTree   path = iota // LoadDocument → InferSchema → BuildHierarchy
	jsonTree              // LoadJSON → InferSchema → BuildHierarchy
	xmlStream             // BuildHierarchyStream with a schema inferred in setup
	prebuilt              // hierarchy built in setup: discovery only
)

var pathNames = map[path]string{xmlTree: "xml-tree", jsonTree: "json-tree", xmlStream: "xml-stream", prebuilt: "prebuilt"}

// input is one op class: a document, the path it takes, and the
// reference its Result must match.
type input struct {
	class  string
	path   path
	body   []byte
	schema *discoverxfd.Schema
	h      *discoverxfd.Hierarchy
	ref    []byte
}

// corpus is one generated dataset serialized as XML and as its JSON
// twin, with the reference computed through the XML tree path.
type corpus struct {
	name      string
	xml, json []byte
	ref       []byte
	schema    *discoverxfd.Schema
	h         *discoverxfd.Hierarchy
	info      []corpusInfo
}

// newCorpus serializes ds and computes its reference Result (stats
// removed) with a fresh engine through the XML tree path.
func newCorpus(ctx context.Context, name string, ds xmlgen.Dataset) (*corpus, error) {
	c := &corpus{name: name}
	var xb, jb bytes.Buffer
	if err := ds.Tree.WriteXML(&xb); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := jsondoc.Write(&jb, ds.Tree, ds.Schema); err != nil {
		return nil, fmt.Errorf("%s: json twin: %w", name, err)
	}
	c.xml, c.json = xb.Bytes(), jb.Bytes()

	eng := discoverxfd.NewEngine(nil)
	doc, err := eng.LoadDocument(ctx, bytes.NewReader(c.xml))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.schema, err = discoverxfd.InferSchema(doc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.h, err = eng.BuildHierarchy(ctx, doc, c.schema); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := eng.DiscoverHierarchy(ctx, c.h)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var out bytes.Buffer
	if err := discoverxfd.WriteJSON(&out, res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.ref, _, err = canonical(out.Bytes()); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", name, err)
	}
	c.info = []corpusInfo{
		{Name: name, Format: "xml", Bytes: len(c.xml), Nodes: doc.Size(), Tuples: res.Stats.Tuples},
		{Name: name, Format: "json", Bytes: len(c.json), Nodes: doc.Size(), Tuples: res.Stats.Tuples},
	}
	return c, nil
}

// input returns the op class of this corpus taking path p.
func (c *corpus) input(p path) *input {
	in := &input{class: c.name + "/" + pathNames[p], path: p, body: c.xml, schema: c.schema, ref: c.ref}
	switch p {
	case jsonTree:
		in.body = c.json
	case prebuilt:
		in.h = c.h
	}
	return in
}

// libRunner runs library ops one at a time, timing each layer call.
type libRunner struct {
	ctx    context.Context
	led    *ledger // nil when untraced
	m      *meter
	ph     *phase
	nextOp int64
}

// layer calls into one layer; a traced run records a span with the
// call's heap allocation.
func (r *libRunner) layer(parent *span, name string, n int64, fn func() error) error {
	if r.led == nil {
		return fn()
	}
	_, a0, o0 := r.m.read()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	_, a1, o1 := r.m.read()
	s := span{Name: name, ID: r.led.id(), Parent: parent.ID, Op: parent.Op,
		StartMS: r.led.ms(t0), EndMS: r.led.ms(t1), Bytes: n, AllocBytes: a1 - a0, Allocs: o1 - o0}
	if name == "core.discover" {
		r.led.adopt(&s)
	}
	r.led.add(s)
	return err
}

// runOp pushes one input from bytes to Result JSON with a fresh
// engine under default options, then checks the output.
func (r *libRunner) runOp(in *input) {
	opts := discoverxfd.Options{}
	tree := in.path == xmlTree || in.path == jsonTree
	var base uint64
	if r.led != nil {
		opts.Trace = r.led
		if tree {
			runtime.GC()
			base, _, _ = r.m.read()
		}
	}
	eng := discoverxfd.NewEngine(&opts)
	n := int64(len(in.body))
	r.nextOp++
	root := span{Name: "op", Op: r.nextOp, Class: in.class, Bytes: n}
	if r.led != nil {
		root.ID = r.led.id()
	}

	var (
		doc *discoverxfd.Document
		s   = in.schema
		h   = in.h
		res *discoverxfd.Result
		out bytes.Buffer
	)
	_, a0, _ := r.m.read()
	t0 := time.Now()
	err := func() (err error) {
		switch in.path {
		case xmlTree:
			err = r.layer(&root, "source.xml", n, func() (err error) {
				doc, err = eng.LoadDocument(r.ctx, bytes.NewReader(in.body))
				return err
			})
		case jsonTree:
			err = r.layer(&root, "source.json", n, func() (err error) {
				doc, err = eng.LoadJSON(r.ctx, bytes.NewReader(in.body))
				return err
			})
		case xmlStream:
			err = r.layer(&root, "relation.stream", n, func() (err error) {
				h, err = eng.BuildHierarchyStream(r.ctx, bytes.NewReader(in.body), s)
				return err
			})
		}
		if err != nil {
			return err
		}
		if tree {
			if err := r.layer(&root, "datatree.infer", n, func() (err error) {
				s, err = discoverxfd.InferSchema(doc)
				return err
			}); err != nil {
				return err
			}
			if err := r.layer(&root, "relation.build", n, func() (err error) {
				h, err = eng.BuildHierarchy(r.ctx, doc, s)
				return err
			}); err != nil {
				return err
			}
		}
		if err := r.layer(&root, "core.discover", n, func() (err error) {
			res, err = eng.DiscoverHierarchy(r.ctx, h)
			return err
		}); err != nil {
			return err
		}
		return r.layer(&root, "encode", n, func() error { return discoverxfd.WriteJSON(&out, res) })
	}()
	t1 := time.Now()
	_, a1, _ := r.m.read()

	if r.led != nil {
		root.StartMS, root.EndMS = r.led.ms(t0), r.led.ms(t1)
		r.led.add(root)
		if tree && err == nil {
			runtime.GC()
			heap, _, _ := r.m.read()
			r.ph.live = append(r.ph.live, float64(int64(heap)-int64(base))/float64(n))
			runtime.KeepAlive(doc)
			runtime.KeepAlive(h)
		}
	}
	ph := r.ph
	ph.lat[in.class] = append(ph.lat[in.class], float64(t1.Sub(t0))/float64(time.Millisecond))
	ph.bytes += n
	ph.ops++
	ph.allocBytes += a1 - a0
	if err == nil {
		var st resultStats
		if st, err = checkResult(in.ref, out.Bytes()); err == nil {
			cs := coreSampleOf(st)
			ph.core = append(ph.core, cs)
			ph.reuse = append(ph.reuse, cs)
		}
	}
	if err != nil {
		fmt.Fprintf(logOut, "perfbench: %s: %v\n", in.class, err)
	}
	ph.tally.record(err)
}

// runSerial runs whole rotations over inputs until the window has
// passed (at least one rotation), so the window always holds complete
// rotations and throughput is not skewed toward one input.
func runSerial(ctx context.Context, inputs []*input, window time.Duration, traced bool) *phase {
	classes := make([]string, len(inputs))
	for i, in := range inputs {
		classes[i] = in.class
	}
	ph := newPhase(classes, classes)
	r := &libRunner{ctx: ctx, m: newMeter(), ph: ph}
	if traced {
		r.led = newLedger()
		ph.led = r.led
	}
	peak := startPeakSampler()
	ph.rt0 = readRuntime()
	start := time.Now()
	for rot := 0; rot == 0 || time.Since(start) < window; rot++ {
		for _, in := range inputs {
			r.runOp(in)
		}
	}
	ph.elapsed = time.Since(start)
	ph.rt1 = readRuntime()
	ph.peakHeap = peak.finish()
	return ph
}

// runLibraryWorkload runs a serial workload: untraced for the whole
// window, or an untraced then a traced half for the per-layer ledger.
func runLibraryWorkload(ctx context.Context, cfg config, inputs []*input, setupS float64, corpora []corpusInfo) (*report, error) {
	window := cfg.window
	if cfg.smoke {
		window = 0
	}
	rep := &report{corpora: corpora}
	if !cfg.traced {
		ph := runSerial(ctx, inputs, window, false)
		rep.metrics, rep.tally = ph.endToEnd(setupS), ph.tally
		return rep, nil
	}
	plain := runSerial(ctx, inputs, window/2, false)
	traced := runSerial(ctx, inputs, window/2, true)
	rep.metrics = perLayerMetrics(plain, traced)
	rep.tally.merge(plain.tally)
	rep.tally.merge(traced.tally)
	err := traced.led.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	return rep, err
}

// runBulkIngest is the bulk-ingest workload: auction ×64 and dblp ×32,
// each through the XML tree, JSON tree and XML stream front ends.
func runBulkIngest(ctx context.Context, cfg config) (*report, error) {
	auction, dblp := 64, 32
	if cfg.smoke {
		auction, dblp = 4, 2
	}
	type setup struct {
		inputs  []*input
		corpora []corpusInfo
	}
	st, setupS, err := timedSetup(setupReps(cfg), func() (setup, error) {
		ap := xmlgen.DefaultAuction()
		ap.Factor, ap.Seed = auction, cfg.seed
		dp := xmlgen.DefaultDBLP()
		dp.Venues, dp.Seed = dp.Venues*dblp, cfg.seed
		var st setup
		for _, g := range []struct {
			name string
			ds   func() xmlgen.Dataset
		}{
			{fmt.Sprintf("auction-x%d", auction), func() xmlgen.Dataset { return xmlgen.Auction(ap) }},
			{fmt.Sprintf("dblp-x%d", dblp), func() xmlgen.Dataset { return xmlgen.DBLP(dp) }},
		} {
			c, err := newCorpus(ctx, g.name, g.ds())
			if err != nil {
				return st, err
			}
			st.inputs = append(st.inputs, c.input(xmlTree), c.input(jsonTree), c.input(xmlStream))
			st.corpora = append(st.corpora, c.info...)
		}
		return st, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return runLibraryWorkload(ctx, cfg, st.inputs, setupS, st.corpora)
}

// runLatticeWide is the lattice-wide workload: cold discovery with a
// fresh engine per op over hierarchies built in setup, alternating a
// 14-attribute wide table and an 8-table wide forest. Each comes in
// three draws from seeds derived from --seed: minimization cost grows
// with the number of FDs a draw holds, so with a single draw the seed
// rather than the code would move the figures.
func runLatticeWide(ctx context.Context, cfg config) (*report, error) {
	wp := xmlgen.DefaultWide(14)
	fp := xmlgen.WideForestParams{Tables: 8, Table: xmlgen.WideParams{Rows: 250, Attrs: 10, Domain: 6, FDEvery: 3}}
	draws := 3
	if cfg.smoke {
		wp = xmlgen.DefaultWide(8)
		fp.Table.Rows = 50
		draws = 1
	}
	type setup struct {
		inputs  []*input
		corpora []corpusInfo
	}
	st, setupS, err := timedSetup(setupReps(cfg), func() (setup, error) {
		var st setup
		rng := rand.New(rand.NewSource(cfg.seed))
		for d := range draws {
			wp.Seed, fp.Table.Seed = rng.Int63(), rng.Int63()
			for _, g := range []struct {
				name string
				ds   xmlgen.Dataset
			}{
				{fmt.Sprintf("wide-%d.%d", wp.Attrs, d), xmlgen.Wide(wp)},
				{fmt.Sprintf("forest-%dx%dx%d.%d", fp.Tables, fp.Table.Rows, fp.Table.Attrs, d), xmlgen.WideForest(fp)},
			} {
				c, err := newCorpus(ctx, g.name, g.ds)
				if err != nil {
					return st, err
				}
				st.inputs = append(st.inputs, c.input(prebuilt))
				st.corpora = append(st.corpora, c.info[0])
			}
		}
		return st, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return runLibraryWorkload(ctx, cfg, st.inputs, setupS, st.corpora)
}
