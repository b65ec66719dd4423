package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"discoverxfd/internal/relation"
)

// TestEngineWarmLayerReuse pins the engine's warm-layer contract: a
// second run over the same untouched hierarchy replays every
// essential relation from the subtree memo (no lattice traversal, far
// fewer partition misses) and produces identical constraints.
func TestEngineWarmLayerReuse(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	eng := NewEngine(Options{PropagatePartial: true})

	cold, err := eng.Discover(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Discover(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fdStrings(cold), fdStrings(warm)) {
		t.Fatalf("warm run changed FDs:\ncold %v\nwarm %v", fdStrings(cold), fdStrings(warm))
	}
	if !reflect.DeepEqual(cold.Keys, warm.Keys) {
		t.Fatalf("warm run changed keys: %v vs %v", cold.Keys, warm.Keys)
	}
	if cold.Stats.RelationsReused != 0 {
		t.Errorf("cold run reused %d relations, want 0", cold.Stats.RelationsReused)
	}
	if warm.Stats.RelationsReused != cold.Stats.Relations {
		t.Errorf("warm run reused %d of %d relations", warm.Stats.RelationsReused, cold.Stats.Relations)
	}
	if warm.Stats.NodesVisited != 0 {
		t.Errorf("warm run visited %d lattice nodes, want 0 (full subtree reuse)", warm.Stats.NodesVisited)
	}
	if warm.Stats.PartitionCacheMisses >= cold.Stats.PartitionCacheMisses {
		t.Errorf("warm run should miss less: cold %d misses, warm %d",
			cold.Stats.PartitionCacheMisses, warm.Stats.PartitionCacheMisses)
	}
}

// TestEngineWarmEviction runs more hierarchies through one engine
// than the warm cap retains and checks the oldest entries are
// evicted while the most recent stay warm.
func TestEngineWarmEviction(t *testing.T) {
	eng := NewEngine(Options{})
	hs := make([]*relation.Hierarchy, engineWarmHierarchies+2)
	for i := range hs {
		hs[i] = buildWarehouse(t, relation.Options{})
		if _, err := eng.Discover(context.Background(), hs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(eng.warm); n != engineWarmHierarchies {
		t.Fatalf("warm layer holds %d hierarchies, cap is %d", n, engineWarmHierarchies)
	}
	for i, h := range hs {
		warmParts, _ := eng.warmFor(h)
		warm := warmParts != nil
		wantWarm := i >= len(hs)-engineWarmHierarchies
		if warm != wantWarm {
			t.Errorf("hierarchy %d: warm=%v, want %v", i, warm, wantWarm)
		}
	}
}

// TestEngineNaiveStaysCold pins the differential-baseline guarantee:
// NaivePartitions runs never publish to (or seed from) the warm
// layer, so naive results stay bit-for-bit reproducible.
func TestEngineNaiveStaysCold(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	eng := NewEngine(Options{NaivePartitions: true})
	first, err := eng.Discover(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := eng.warmFor(h); w != nil {
		t.Fatal("naive run published to the warm layer")
	}
	second, err := eng.Discover(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PartitionCacheHits != second.Stats.PartitionCacheHits ||
		first.Stats.PartitionCacheMisses != second.Stats.PartitionCacheMisses {
		t.Errorf("naive runs diverged: hits %d/%d misses %d/%d",
			first.Stats.PartitionCacheHits, second.Stats.PartitionCacheHits,
			first.Stats.PartitionCacheMisses, second.Stats.PartitionCacheMisses)
	}
}

// TestRunPlanRejectsBadIndex guards the Relation.Index invariant the
// per-run slices depend on: a hierarchy whose relations were not laid
// out by relation.Build fails plan with a clear error rather than
// corrupting depth tables.
func TestRunPlanRejectsBadIndex(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	h.Relations[1].Index = 7
	defer func() { h.Relations[1].Index = 1 }()
	_, err := NewEngine(Options{}).Discover(context.Background(), h)
	if err == nil || !strings.Contains(err.Error(), "hierarchies must come from relation.Build") {
		t.Fatalf("expected index-invariant error, got %v", err)
	}
}
