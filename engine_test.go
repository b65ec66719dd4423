package discoverxfd_test

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

// sameConstraints reports whether two Results agree on every semantic
// field. Stats is deliberately excluded: warm engine runs hit the
// shared partition layer, so cache counters (legitimately) differ
// between a cold and a warm run of the same discovery.
func sameConstraints(a, b *discoverxfd.Result) error {
	if !reflect.DeepEqual(a.FDs, b.FDs) {
		return fmt.Errorf("FDs differ: %v vs %v", a.FDs, b.FDs)
	}
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		return fmt.Errorf("Keys differ: %v vs %v", a.Keys, b.Keys)
	}
	if !reflect.DeepEqual(a.Redundancies, b.Redundancies) {
		return fmt.Errorf("Redundancies differ: %v vs %v", a.Redundancies, b.Redundancies)
	}
	if !reflect.DeepEqual(a.ApproxFDs, b.ApproxFDs) {
		return fmt.Errorf("ApproxFDs differ: %v vs %v", a.ApproxFDs, b.ApproxFDs)
	}
	return nil
}

// TestEngineConcurrentDiscover drives one shared Engine from many
// goroutines — mixed hierarchies and repeated runs over the same
// hierarchy (the warm-partition fast path) — and checks every run
// reproduces its cold reference. Run under
// -race, this is the engine's concurrency-safety gate (a dedicated CI
// step exercises it).
func TestEngineConcurrentDiscover(t *testing.T) {
	warehouse := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	dblp := xmlgen.DBLP(xmlgen.DefaultDBLP())
	opts := &discoverxfd.Options{ApproxError: 0.05}

	eng := discoverxfd.NewEngine(opts)
	hw, err := eng.BuildHierarchy(context.Background(), warehouse.Tree, warehouse.Schema)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := eng.BuildHierarchy(context.Background(), dblp.Tree, dblp.Schema)
	if err != nil {
		t.Fatal(err)
	}

	// Cold references from one-shot engines.
	wantW, err := discoverxfd.NewEngine(opts).DiscoverHierarchy(context.Background(), hw)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := discoverxfd.NewEngine(opts).DiscoverHierarchy(context.Background(), hd)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, want := hw, wantW
			if i%3 == 1 {
				h, want = hd, wantD
			}
			// Each worker runs twice so later runs exercise the warm
			// layer seeded by earlier ones.
			for run := 0; run < 2; run++ {
				res, err := eng.DiscoverHierarchy(context.Background(), h)
				if err != nil {
					errs[i] = err
					return
				}
				if err := sameConstraints(res, want); err != nil {
					errs[i] = fmt.Errorf("worker %d run %d: %w", i, run, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestEngineReuseMatchesOneShot pins the warm path's semantics: a
// second Discover over the same untouched hierarchy (replayed from
// the warm layer's subtree memo, skipping the lattice entirely)
// returns the same constraints as the first.
func TestEngineReuseMatchesOneShot(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	eng := discoverxfd.NewEngine(nil)
	h, err := eng.BuildHierarchy(context.Background(), ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.DiscoverHierarchy(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.DiscoverHierarchy(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameConstraints(first, second); err != nil {
		t.Fatal(err)
	}
	if second.Stats.RelationsReused != first.Stats.Relations {
		t.Errorf("warm run reused %d of %d relations",
			second.Stats.RelationsReused, first.Stats.Relations)
	}
}

// TestEngineReuseMatchesOneShotIntraOnly pins the warm path of an
// IntraOnly engine (DiscoverFD per relation): a repeat over the
// untouched hierarchy replays every relation from the subtree memo and
// returns the same constraints, and after an update the incremental
// result equals a cold intra-only run over the mutated document.
func TestEngineReuseMatchesOneShotIntraOnly(t *testing.T) {
	ctx := context.Background()
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	opts := &discoverxfd.Options{IntraOnly: true}
	eng := discoverxfd.NewEngine(opts)
	h, err := eng.BuildHierarchy(ctx, ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameConstraints(first, second); err != nil {
		t.Fatal(err)
	}
	if second.Stats.RelationsReused != second.Stats.Relations {
		t.Errorf("warm run reused %d of %d relations",
			second.Stats.RelationsReused, second.Stats.Relations)
	}

	book := h.ByPivot("/warehouse/state/store/book")
	if _, err := eng.ApplyUpdate(h, []discoverxfd.Update{
		{Op: discoverxfd.OpSet, Class: book.Pivot, Key: book.Keys[0], Attr: "./title", Value: "Retitled"},
	}); err != nil {
		t.Fatal(err)
	}
	incr, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Stats.RelationsReused == 0 {
		t.Error("incremental run replayed no untouched relation")
	}
	cold, err := discoverxfd.NewEngine(opts).Discover(ctx, ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameConstraints(incr, cold); err != nil {
		t.Fatalf("incremental intra-only run differs from cold: %v", err)
	}
	for _, fd := range incr.FDs {
		if fd.Inter {
			t.Errorf("intra-only discovery reported inter-relation FD %s", fd)
		}
	}
}

// TestEngineFullPipeline drives the document-level engine methods —
// load, build, discover, evaluate, check — through one Engine value.
func TestEngineFullPipeline(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	eng := discoverxfd.NewEngine(&discoverxfd.Options{})
	ctx := context.Background()

	res, err := eng.Discover(ctx, ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) == 0 || len(res.Keys) == 0 {
		t.Fatalf("expected FDs and keys, got %d / %d", len(res.FDs), len(res.Keys))
	}

	h, err := eng.BuildHierarchy(ctx, ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fd := res.FDs[0]
	ev, err := eng.Evaluate(ctx, h, fd.Class, fd.LHS, fd.RHS)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds {
		t.Errorf("discovered FD %s does not hold under Evaluate", fd)
	}

	c, err := discoverxfd.ParseConstraint(fd.String())
	if err != nil {
		t.Fatal(err)
	}
	checks, err := eng.CheckConstraints(ctx, h, []discoverxfd.Constraint{c})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 || !checks[0].Holds {
		t.Errorf("CheckConstraints on discovered FD: %+v", checks)
	}
}

// TestEngineMetricsConcurrent drives one shared Engine from 12
// workers and checks that the Metrics snapshot agrees exactly with
// the per-run Stats the workers observed. Run under -race alongside
// TestEngineConcurrentDiscover, this is the counters' consistency and
// race-freedom gate.
func TestEngineMetricsConcurrent(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	eng := discoverxfd.NewEngine(&discoverxfd.Options{Parallel: true})
	h, err := eng.BuildHierarchy(context.Background(), ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.RunsStarted != 0 || m.Totals.NodesVisited != 0 {
		t.Fatalf("fresh engine has non-zero metrics: %+v", m)
	}

	const workers, runsPer = 12, 3
	stats := make([]discoverxfd.Stats, workers*runsPer)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				res, err := eng.DiscoverHierarchy(context.Background(), h)
				if err != nil {
					errs[i] = err
					return
				}
				stats[i*runsPer+r] = res.Stats
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := eng.Metrics()
	total := int64(workers * runsPer)
	if m.RunsStarted != total || m.RunsFinished != total || m.RunsFailed != 0 || m.RunsTruncated != 0 {
		t.Errorf("run counters = %+v, want %d started/finished, 0 failed/truncated", m, total)
	}
	if m.WarmSeeded < 1 || m.WarmSeeded > total {
		t.Errorf("WarmSeeded = %d, want within [1, %d]", m.WarmSeeded, total)
	}

	var want discoverxfd.Stats
	var peak int64
	for _, st := range stats {
		want.Relations += st.Relations
		want.Tuples += st.Tuples
		want.NodesVisited += st.NodesVisited
		want.PartitionsComputed += st.PartitionsComputed
		want.ParallelProducts += st.ParallelProducts
		want.PartitionCacheHits += st.PartitionCacheHits
		want.PartitionCacheMisses += st.PartitionCacheMisses
		want.PartitionCacheEvictions += st.PartitionCacheEvictions
		want.TargetsCreated += st.TargetsCreated
		want.TargetsPropagated += st.TargetsPropagated
		want.TargetsDropped += st.TargetsDropped
		want.TargetChecks += st.TargetChecks
		want.WallTime += st.WallTime
		if st.PartitionCachePeakBytes > peak {
			peak = st.PartitionCachePeakBytes
		}
	}
	got := m.Totals
	if got.Relations != want.Relations || got.Tuples != want.Tuples ||
		got.NodesVisited != want.NodesVisited ||
		got.PartitionsComputed != want.PartitionsComputed ||
		got.ParallelProducts != want.ParallelProducts ||
		got.PartitionCacheHits != want.PartitionCacheHits ||
		got.PartitionCacheMisses != want.PartitionCacheMisses ||
		got.PartitionCacheEvictions != want.PartitionCacheEvictions ||
		got.TargetsCreated != want.TargetsCreated ||
		got.TargetsPropagated != want.TargetsPropagated ||
		got.TargetsDropped != want.TargetsDropped ||
		got.TargetChecks != want.TargetChecks {
		t.Errorf("Totals disagree with summed run Stats:\n got %+v\nwant %+v", got, want)
	}
	if got.WallTime != want.WallTime || got.WallTime <= 0 {
		t.Errorf("Totals.WallTime = %v, want %v (> 0)", got.WallTime, want.WallTime)
	}
	if m.CacheHighWaterBytes != peak || got.PartitionCachePeakBytes != peak {
		t.Errorf("high-water = %d (totals %d), want max run peak %d",
			m.CacheHighWaterBytes, got.PartitionCachePeakBytes, peak)
	}

	// Direct evaluations count separately from runs.
	before := m.Evaluations
	if _, err := eng.Evaluate(context.Background(), h, ds.GroundTruth[0].Class,
		ds.GroundTruth[0].LHS, ds.GroundTruth[0].RHS); err != nil {
		t.Fatal(err)
	}
	if after := eng.Metrics().Evaluations; after != before+1 {
		t.Errorf("Evaluations = %d, want %d", after, before+1)
	}
}

// TestEnginePublishExpvar checks the expvar exporter renders a live
// Metrics snapshot under the published name.
func TestEnginePublishExpvar(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	eng := discoverxfd.NewEngine(nil)
	eng.PublishExpvar("xfd_engine_test")
	h, err := eng.BuildHierarchy(context.Background(), ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DiscoverHierarchy(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	v := expvar.Get("xfd_engine_test")
	if v == nil {
		t.Fatal("metrics var not published")
	}
	var m discoverxfd.Metrics
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("published metrics are not JSON: %v\n%s", err, v.String())
	}
	if m.RunsStarted != 1 || m.RunsFinished != 1 {
		t.Errorf("published snapshot = %+v, want 1 run", m)
	}
}

// TestPublishExpvarIdempotent is the duplicate-name regression: two
// engines publishing under one name in one process must not trip
// expvar's duplicate-name panic, and the later publisher must win the
// name.
func TestPublishExpvarIdempotent(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	first := discoverxfd.NewEngine(nil)
	first.PublishExpvar("xfd_engine_idempotent_test")

	second := discoverxfd.NewEngine(nil)
	second.PublishExpvar("xfd_engine_idempotent_test") // must not panic
	if _, err := second.Discover(context.Background(), ds.Tree, ds.Schema); err != nil {
		t.Fatal(err)
	}

	v := expvar.Get("xfd_engine_idempotent_test")
	if v == nil {
		t.Fatal("metrics var not published")
	}
	var m discoverxfd.Metrics
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("published metrics are not JSON: %v\n%s", err, v.String())
	}
	if m.RunsFinished != 1 {
		t.Errorf("published RunsFinished = %d, want the second engine's run", m.RunsFinished)
	}
	if got := first.Metrics().RunsFinished; got != 0 {
		t.Errorf("first engine ran %d times, want 0 — scrape must read the latest publisher", got)
	}
}
