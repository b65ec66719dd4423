package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// latticeWideDraws returns the lattice-wide benchmark's six corpora:
// three draws each of the 14-attribute wide table and the 8×250×10
// wide forest, seeded from rand.NewSource(1) in the order the
// benchmark derives them.
func latticeWideDraws() []xmlgen.Dataset {
	wp := xmlgen.DefaultWide(14)
	fp := xmlgen.WideForestParams{Tables: 8, Table: xmlgen.WideParams{Rows: 250, Attrs: 10, Domain: 6, FDEvery: 3}}
	rng := rand.New(rand.NewSource(1))
	var out []xmlgen.Dataset
	for range 3 {
		wp.Seed, fp.Table.Seed = rng.Int63(), rng.Int63()
		out = append(out, xmlgen.Wide(wp), xmlgen.WideForest(fp))
	}
	return out
}

// goldenDatasets are the generated corpora behind the golden fixtures.
func goldenDatasets() []xmlgen.Dataset {
	return []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
	}
}

func buildHierarchy(t testing.TB, ds xmlgen.Dataset) *relation.Hierarchy {
	t.Helper()
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatalf("%s: %v", ds.Name, err)
	}
	return h
}

// traverseRaw runs a Run's plan and traverse stages and returns the
// run with the raw, unminimized result streams.
func traverseRaw(t testing.TB, h *relation.Hierarchy, opts Options) (*Run, gathered) {
	t.Helper()
	run := newRun(context.Background(), h, opts)
	if err := run.plan(); err != nil {
		t.Fatal(err)
	}
	top := run.traverse(context.Background(), h.Root)
	if top.err != nil {
		t.Fatal(top.err)
	}
	run.res.Stats = top.stats
	return run, top
}

// referenceResult replays the pre-coordinate pipeline on raw streams
// rendered to strings: string-slice minimization, the superkey filter,
// verification through the string evaluator, and the approximate pass.
func referenceResult(t testing.TB, h *relation.Hierarchy, rawFDs []FD, rawKeys []Key, rawApprox []FD) *Result {
	t.Helper()
	res := &Result{}
	res.Keys = refMinimizeKeys(rawKeys)
	fds := refDropSuperkeyLHS(refMinimizeFDs(rawFDs), res.Keys)
	sortKeys(res.Keys)
	for _, fd := range fds {
		ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
		if err != nil {
			t.Fatal(err)
		}
		if ev.LHSIsKey {
			continue
		}
		res.FDs = append(res.FDs, fd)
		res.Redundancies = append(res.Redundancies, Redundancy{FD: fd, RedundantValues: ev.Witnesses, Groups: ev.WitnessGroups})
	}
	sortFDs(res.FDs)
	sortRedundancies(res.Redundancies)
	if len(rawApprox) > 0 {
		res.ApproxFDs = refMinimizeApprox(rawApprox, res.FDs)
		sortFDs(res.ApproxFDs)
	}
	return res
}

// renderDeps renders raw streams the way the traversal emitted them
// before results stayed in lattice coordinates.
func renderDeps(fds, keys, approx []dep) ([]FD, []Key, []FD) {
	var f, a []FD
	var k []Key
	for i := range fds {
		f = append(f, fds[i].fd())
	}
	for i := range keys {
		k = append(k, keys[i].key())
	}
	for i := range approx {
		a = append(a, approx[i].approxFD())
	}
	return f, k, a
}

// checkAgainstReference runs the minimize, verify and assemble stages
// on one traversal's raw streams and holds the Result to the
// string-slice reference computed from the same streams. It returns
// the number of raw approximate FDs compared.
func checkAgainstReference(t *testing.T, h *relation.Hierarchy, opts Options) int {
	t.Helper()
	run, top := traverseRaw(t, h, opts)
	rawFDs, rawKeys, rawApprox := renderDeps(top.fds, top.keys, top.approx)
	want := referenceResult(t, h, rawFDs, rawKeys, rawApprox)

	fds, keys := run.minimize(&top)
	fds, evs, err := run.verify(context.Background(), fds)
	if err != nil {
		t.Fatal(err)
	}
	run.assemble(fds, evs, keys, top.approx)
	got := run.res
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"FDs", got.FDs, want.FDs},
		{"Keys", got.Keys, want.Keys},
		{"Redundancies", got.Redundancies, want.Redundancies},
		{"ApproxFDs", got.ApproxFDs, want.ApproxFDs},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ from the string-slice reference\ngot:  %v\nwant: %v", c.name, c.got, c.want)
		}
	}
	return len(rawApprox)
}

// TestMinimizeMatchesReference is the differential test of the
// lattice-coordinate minimizer: over the golden corpora (with and
// without the approximate pass and inter-relation discovery) and the
// six lattice-wide draws, the Result must equal the one the string
// path computes from the same raw streams.
func TestMinimizeMatchesReference(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{PropagatePartial: true}},
		{"approx", Options{PropagatePartial: true, ApproxError: 0.05}},
		{"intra", Options{NoInterRelation: true}},
	}
	approx := 0
	for _, ds := range goldenDatasets() {
		h := buildHierarchy(t, ds)
		for _, v := range variants {
			t.Run(ds.Name+"/"+v.name, func(t *testing.T) { approx += checkAgainstReference(t, h, v.opts) })
		}
	}
	if approx == 0 {
		t.Error("no golden corpus produced approximate candidates; the approximate pass went untested")
	}
	for _, ds := range latticeWideDraws() {
		h := buildHierarchy(t, ds)
		t.Run(ds.Name, func(t *testing.T) { checkAgainstReference(t, h, Options{PropagatePartial: true}) })
	}
}

// TestLatticeKeysNeedMinimizing pins why minimize does not skip the
// key pass for lattice-emitted keys: key pruning acts only when a node
// is enqueued, so the first lattice-wide draw emits far more raw keys
// than minimal ones.
func TestLatticeKeysNeedMinimizing(t *testing.T) {
	_, top := traverseRaw(t, buildHierarchy(t, latticeWideDraws()[0]), Options{PropagatePartial: true})
	raw := len(top.keys)
	kept := len(minimal(top.keys))
	t.Logf("%d raw keys minimize to %d", raw, kept)
	if kept >= raw {
		t.Fatalf("%d raw lattice keys minimized to %d; expected superkeys among them", raw, kept)
	}
}

// minimizeAllocsPerRecord is the committed allocation ceiling of
// Run.minimize per raw record. The coordinate minimizer sorts and
// compacts the raw streams in place and allocates nothing per record;
// the string-slice path it replaced built one map per compared pair.
const minimizeAllocsPerRecord = 0.05

// TestMinimizeAllocs gates the minimize stage's allocations on the
// first lattice-wide draw's raw stream absolutely: allocation counts
// do not depend on the machine. It also checks that the ceiling
// rejects the string-slice reference, so the gate keeps its teeth.
func TestMinimizeAllocs(t *testing.T) {
	run, top := traverseRaw(t, buildHierarchy(t, latticeWideDraws()[0]), Options{PropagatePartial: true})
	records := len(top.fds) + len(top.keys)
	ceiling := minimizeAllocsPerRecord * float64(records)
	fds := make([]dep, len(top.fds))
	keys := make([]dep, len(top.keys))
	allocs := testing.AllocsPerRun(5, func() {
		g := gathered{fds: fds[:copy(fds, top.fds)], keys: keys[:copy(keys, top.keys)]}
		run.minimize(&g)
	})
	t.Logf("minimize: %.0f allocations for %d raw records (ceiling %.0f)", allocs, records, ceiling)
	if allocs > ceiling {
		t.Fatalf("minimize made %.0f allocations for %d raw records; ceiling is %.0f", allocs, records, ceiling)
	}

	rawFDs, rawKeys, _ := renderDeps(top.fds, top.keys, nil)
	refAllocs := testing.AllocsPerRun(1, func() {
		refDropSuperkeyLHS(refMinimizeFDs(rawFDs), refMinimizeKeys(rawKeys))
	})
	if refAllocs <= ceiling {
		t.Fatalf("the string-slice reference made only %.0f allocations, within the ceiling %.0f: the gate would not catch it", refAllocs, ceiling)
	}
}

// fuzzChain is the hierarchy FuzzMinimizeLattice draws records over:
// a root class, a child, and a grandchild whose ancestor chain holds
// 30+30+20 = 80 attributes, more than one 64-bit mask could intern,
// plus a narrow sibling class.
func fuzzChain() []*relation.Relation {
	r0 := depRel("/r", 0, 30)
	r1 := depRel("/r/a", 1, 30)
	r2 := depRel("/r/a/b", 2, 20)
	r3 := depRel("/r/c", 3, 8)
	r1.Parent, r2.Parent, r3.Parent = r0, r1, r0
	return []*relation.Relation{r0, r1, r2, r3}
}

// decodeDeps turns fuzz bytes into per-class raw FD, key and
// approximate-FD streams. Each record takes a kind, an origin, an RHS,
// a level count and, per level, up to five attributes; attributes are
// drawn from a narrow band so subset relations are common.
func decodeDeps(rels []*relation.Relation, data []byte) (fds, keys, approx []dep) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	for len(data) > 0 && len(fds)+len(keys)+len(approx) < 400 {
		kind := next() % 3
		d := dep{origin: rels[next()%len(rels)], rhs: -1}
		if kind != 1 {
			d.rhs = next() % len(d.origin.Attrs)
		}
		levels := 1
		for rel := d.origin.Parent; rel != nil; rel = rel.Parent {
			levels++
		}
		levels = 1 + next()%levels
		rel := d.origin
		for u := 0; u < levels; u, rel = u+1, rel.Parent {
			var a AttrSet
			band := next()
			for n := next() % 6; n > 0; n-- {
				a = a.Add((band + next()%6) % len(rel.Attrs))
			}
			if u == 0 {
				d.lhs = a
			} else {
				d.up = append(d.up, a)
			}
		}
		for len(d.up) > 0 && d.up[len(d.up)-1] == 0 {
			d.up = d.up[:len(d.up)-1]
		}
		if len(d.up) == 0 {
			d.up = nil
		}
		switch kind {
		case 0:
			fds = append(fds, d)
		case 1:
			keys = append(keys, d)
		default:
			// The traversal emits each approximate FD once, so equal
			// coordinates always carry equal errors; keep that here.
			d.g3 = float64(d.size()) / 100
			approx = append(approx, d)
		}
	}
	return fds, keys, approx
}

// checkMinimizeLattice holds minimal and dropCovered to the
// string-slice reference on the record sets decoded from data.
func checkMinimizeLattice(t *testing.T, rels []*relation.Relation, data []byte) {
	fds, keys, approx := decodeDeps(rels, data)
	rawFDs, rawKeys, rawApprox := renderDeps(fds, keys, approx)

	wantKeys := refMinimizeKeys(rawKeys)
	wantFDs := refDropSuperkeyLHS(refMinimizeFDs(rawFDs), wantKeys)
	wantApprox := refMinimizeApprox(rawApprox, wantFDs)

	keys = minimal(keys)
	fds = dropCovered(minimal(fds), keys, (*dep).class)
	gotFDs, gotKeys, gotApprox := renderDeps(fds, keys, dropCovered(minimal(approx), fds, (*dep).goal))

	for _, s := range [][]FD{wantFDs, wantApprox, gotFDs, gotApprox} {
		sortFDs(s)
	}
	sortKeys(wantKeys)
	sortKeys(gotKeys)
	// The reference compacts in place, so "none" may be empty rather
	// than nil.
	same := func(a, b any, n int) bool { return n == 0 || reflect.DeepEqual(a, b) }
	if len(gotFDs) != len(wantFDs) || !same(gotFDs, wantFDs, len(gotFDs)) {
		t.Errorf("FDs differ\ngot:  %v\nwant: %v", gotFDs, wantFDs)
	}
	if len(gotKeys) != len(wantKeys) || !same(gotKeys, wantKeys, len(gotKeys)) {
		t.Errorf("keys differ\ngot:  %v\nwant: %v", gotKeys, wantKeys)
	}
	if len(gotApprox) != len(wantApprox) || !same(gotApprox, wantApprox, len(gotApprox)) {
		t.Errorf("approximate FDs differ\ngot:  %v\nwant: %v", gotApprox, wantApprox)
	}
}

// FuzzMinimizeLattice holds minimal and dropCovered to the string-slice
// reference on random per-class record sets, including multi-level
// inter-relation LHSs over a class whose ancestor chain has more
// attributes than one mask holds. Seeds stay short so the fuzzer's
// input minimization stays cheap; TestMinimizeLatticeWide covers the
// large record sets that reach the reference's >64-path fallback.
func FuzzMinimizeLattice(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 2, 2, 3, 1, 2, 0, 3, 0, 1, 2, 1, 3, 1, 5})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	rels := fuzzChain()
	f.Fuzz(func(t *testing.T, data []byte) { checkMinimizeLattice(t, rels, data) })
}

// TestMinimizeLatticeWide runs the fuzz check on record sets large
// enough that the deepest class uses more distinct LHS paths than a
// 64-bit mask interns, so the reference takes its string fallback.
func TestMinimizeLatticeWide(t *testing.T) {
	rels := fuzzChain()
	total := 0
	for rel := rels[2]; rel != nil; rel = rel.Parent {
		total += len(rel.Attrs)
	}
	if total <= 64 {
		t.Fatalf("fuzz chain holds %d attributes; it must exceed 64", total)
	}
	rng := rand.New(rand.NewSource(1))
	wide := 0
	for range 8 {
		b := make([]byte, 4096)
		rng.Read(b)
		fds, _, approx := decodeDeps(rels, b)
		rawFDs, _, rawApprox := renderDeps(fds, nil, approx)
		paths := map[schema.RelPath]bool{}
		for _, f := range append(rawFDs, rawApprox...) {
			if f.Class == rels[2].Pivot {
				for _, p := range f.LHS {
					paths[p] = true
				}
			}
		}
		if len(paths) > 64 {
			wide++
		}
		checkMinimizeLattice(t, rels, b)
	}
	if wide == 0 {
		t.Fatalf("no record set used more than 64 LHS paths in %s; the reference's fallback went untested", rels[2].Pivot)
	}
}
