package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
)

// edge is a satisfied intra-relation FD LHS → rhs used for pruning.
type edge struct {
	lhs AttrSet
	rhs int
}

// relOutput collects what one relation's lattice traversal produced.
type relOutput struct {
	intraFDs  []edge    // satisfied minimal intra-relation FDs
	intraKeys []AttrSet // minimal intra-relation keys
	interFDs  []FD      // inter-relation FDs satisfied at this level
	interKeys []Key
	outgoing  []*target // targets for the parent relation
}

// latticeRun performs the level-wise attribute-set traversal of one
// relation (Figure 8 / Figure 9), optionally checking and generating
// partition targets.
type latticeRun struct {
	rel      *relation.Relation
	opts     *Options
	stats    *Stats
	depths   []int // hierarchy depth per relation, indexed by Relation.Index
	incoming []*target

	// gov is the run's resource governor (nil in ungoverned tests):
	// cancellation aborts the traversal with err set; an expired
	// wall-clock budget stops it early keeping the partial output.
	gov *governor
	err error

	// ni governs whether degenerate (same-ancestor) target pairs can
	// still be satisfied vacuously by a missing value at or above the
	// parent relation.
	ni nullInfo

	// cache is the run-shared partition cache; pc is this relation's
	// store within it (acquired at the start of run, retired by the
	// caller once the approximate pass is done with it too).
	cache *partitionCache
	pc    *relPartitions
	sc    *partition.Scratch

	fds  []edge
	keys []AttrSet
	out  relOutput
}

// close releases pooled resources; the latticeRun (and its partition
// store) stay readable.
func (lr *latticeRun) close() {
	partition.PutScratch(lr.sc)
	lr.sc = nil
}

// run executes the traversal: DiscoverXFD behaviour (candidateLHS2,
// partition targets) by default, exactly DiscoverFD of Figure 8 when
// Options.NoInterRelation turns targets off.
func (lr *latticeRun) run() {
	rel := lr.rel
	targets := !lr.opts.NoInterRelation
	n := rel.NRows()
	m := rel.NAttrs()
	lr.pc = lr.cache.store(rel)
	lr.sc = partition.GetScratch(n)

	intraStart := time.Now()
	interBefore := lr.stats.InterTime
	for i := 0; i < m; i++ {
		lr.getPartition(AttrSet(0).Add(i))
	}

	// Pure conversions of incoming targets (Figure 9 lines 8–10):
	// every target is offered to the parent unchanged, so ancestors
	// alone may complete it.
	if targets && rel.Parent != nil {
		ts := time.Now()
		for _, pt := range lr.incoming {
			if len(lr.out.outgoing) >= lr.opts.maxTargets() {
				targetDropped(lr.rel, lr.opts, lr.stats, "outgoing target cap reached")
				continue
			}
			if up := pt.convert(rel, nil, nil, 0, lr.ni, lr.opts, lr.stats); up != nil {
				lr.out.outgoing = append(lr.out.outgoing, up)
			}
		}
		lr.stats.InterTime += time.Since(ts)
	}

	if n < 2 || m == 0 {
		// Nothing can be violated or witnessed with fewer than two
		// tuples; incoming targets were still offered upward above.
		lr.stats.IntraTime += time.Since(intraStart) - (lr.stats.InterTime - interBefore)
		return
	}

	// The empty attribute set can itself be a candidate partial Key:
	// if every parent has at most one tuple here, ancestor attributes
	// alone may identify the tuples of this class.
	if targets && rel.Parent != nil {
		ts := time.Now()
		if pt := createKeyTarget(rel, 0, lr.getPartition(0), lr.ni, lr.opts, lr.stats); pt != nil {
			lr.out.outgoing = append(lr.out.outgoing, pt)
		}
		lr.stats.InterTime += time.Since(ts)
	}

	maxSize := m
	if lr.opts.MaxLHS > 0 && lr.opts.MaxLHS+1 < maxSize {
		maxSize = lr.opts.MaxLHS + 1
	}
	if lr.opts.MaxLatticeLevel > 0 && maxSize > lr.opts.MaxLatticeLevel {
		// Unlike MaxLHS this is a resource bound, not a language
		// choice: cutting levels that could have held results makes
		// the answer partial, so record the truncation.
		maxSize = lr.opts.MaxLatticeLevel
		lr.gov.truncate(fmt.Sprintf("lattice capped at level %d for relation %s (%d attributes)", maxSize, rel.Pivot, m))
	}

	queue := make([]AttrSet, 0, m)
	for i := 0; i < m; i++ {
		queue = append(queue, AttrSet(0).Add(i))
	}
	level := 1
	tr := lr.opts.Tracer
	var snap levelSnapshot
	if tr != nil {
		snap = lr.snapshotLevel()
	}
	for qi := 0; qi < len(queue); qi++ {
		// One check per lattice node keeps cancellation latency
		// bounded by a single node's partition work.
		if err := lr.gov.cancelled(); err != nil {
			lr.err = err
			break
		}
		if lr.gov.expired() {
			break // keep the partial traversal output
		}
		a := queue[qi]
		if sz := a.Size(); sz > level {
			// The queue is level-ordered: reaching the first set of the
			// next size means the previous level is fully processed, so
			// every product this level needs is determined. Warm them
			// in parallel when worthwhile.
			if tr != nil {
				lr.emitLevel(tr, level, &snap)
			}
			level = sz
			lr.precomputeLevel(queue[qi:])
			if lr.err != nil {
				break
			}
		}
		lr.stats.NodesVisited++

		ls := lr.candidateLHS(a)
		if len(ls) == 0 && a.Size() > 1 {
			continue
		}
		pa := lr.getPartition(a)

		if pa.IsKey() && !lr.opts.DisableKeyPruning {
			lr.keys = append(lr.keys, a)
			lr.out.intraKeys = append(lr.out.intraKeys, a)
			if targets {
				// Figure 9 lines 18–25: a key separates every
				// distinct pair, so every target is satisfied at this
				// node (degenerate pairs still need a null).
				lr.checkTargets(a, nil, lr.nullsFor(a))
				// Failed edges into a key node can still seed minimal
				// inter-relation FDs (the FD {x} -> r where {x, r} is
				// a key fails globally but may hold under each
				// parent), so targets are created before the node's
				// expansion is pruned.
				lr.seedTargets(a, pa, ls)
			}
			continue
		}

		for _, al := range ls {
			r := (a &^ al).MaxBit()
			pal := lr.getPartition(al)
			if pal.Error() == pa.Error() {
				lr.fds = append(lr.fds, edge{lhs: al, rhs: r})
				lr.out.intraFDs = append(lr.out.intraFDs, edge{lhs: al, rhs: r})
			}
		}
		if targets {
			// Failed edges seed candidate partial FDs; a itself seeds
			// a candidate partial Key (it is not a key here, but
			// ancestor attributes could complete it).
			lr.seedTargets(a, pa, ls)
			if rel.Parent != nil {
				ts := time.Now()
				if len(lr.out.outgoing) < lr.opts.maxTargets() {
					if pt := createKeyTarget(rel, a, pa, lr.ni, lr.opts, lr.stats); pt != nil {
						lr.out.outgoing = append(lr.out.outgoing, pt)
					}
				} else {
					targetDropped(rel, lr.opts, lr.stats, "outgoing target cap reached")
				}
				lr.stats.InterTime += time.Since(ts)
			}
		}

		if targets && len(lr.incoming) > 0 {
			lr.checkTargets(a, lr.groupIDs(a), lr.nullsFor(a))
		}

		if a.Size() >= maxSize {
			continue
		}
		for i := a.MaxBit() + 1; i < m; i++ {
			next := a.Add(i)
			if lr.supersetOfKey(next) {
				continue
			}
			queue = append(queue, next)
		}
	}
	if tr != nil {
		lr.emitLevel(tr, level, &snap)
	}
	lr.stats.IntraTime += time.Since(intraStart) - (lr.stats.InterTime - interBefore)
}

// levelSnapshot records the counters relevant to one lattice level at
// its start, so emitLevel can report per-level deltas. The partition
// counters come from this relation's store, not the run-wide atomics,
// so concurrent relations cannot pollute each other's rates.
type levelSnapshot struct {
	nodes, products, hits, misses int
}

func (lr *latticeRun) snapshotLevel() levelSnapshot {
	return levelSnapshot{
		nodes:    lr.stats.NodesVisited,
		products: lr.stats.PartitionsComputed,
		hits:     lr.pc.hits,
		misses:   lr.pc.misses,
	}
}

// emitLevel reports one completed lattice level — nodes visited,
// partition products computed, the level's cache hit rate, and the
// run cache's live byte gauge — then advances snap to the next
// level's baseline. Levels where nothing happened (the traversal
// stopped at a boundary) are skipped.
func (lr *latticeRun) emitLevel(tr trace.Tracer, level int, snap *levelSnapshot) {
	cur := lr.snapshotLevel()
	nodes := cur.nodes - snap.nodes
	if nodes == 0 {
		*snap = cur
		return
	}
	hits, misses := cur.hits-snap.hits, cur.misses-snap.misses
	ev := &trace.Event{
		Kind: trace.KindLevel, Relation: string(lr.rel.Pivot), Level: level,
		Nodes: nodes, Products: cur.products - snap.products,
		CacheHits: hits, CacheMisses: misses,
		CacheBytes: lr.cache.liveBytes(),
	}
	if hits+misses > 0 {
		ev.HitRate = float64(hits) / float64(hits+misses)
	}
	tr.Emit(ev)
	*snap = cur
}

// seedTargets creates candidate-partial-FD targets from the failed
// edges into node a (Figure 9 lines 34–37).
func (lr *latticeRun) seedTargets(a AttrSet, pa *partition.Partition, ls []AttrSet) {
	if lr.rel.Parent == nil {
		return
	}
	ts := time.Now()
	defer func() { lr.stats.InterTime += time.Since(ts) }()
	for _, al := range ls {
		r := (a &^ al).MaxBit()
		pal := lr.getPartition(al)
		if pal.Error() == pa.Error() {
			continue // satisfied edge, not a partial FD
		}
		if len(lr.out.outgoing) >= lr.opts.maxTargets() {
			targetDropped(lr.rel, lr.opts, lr.stats, "outgoing target cap reached")
			continue
		}
		pt := createTarget(lr.rel, al, r, pal, len(pa.Groups), lr.groupIDs(a), lr.ni, lr.opts, lr.stats)
		if pt != nil {
			lr.out.outgoing = append(lr.out.outgoing, pt)
		}
	}
}

// checkTargets tests every incoming target against the attribute set
// a (Figure 9 lines 18–33). gids == nil means a is a key of the
// relation. Satisfied targets yield inter-relation FDs or Keys;
// partially satisfied ones may propagate upward with a absorbed into
// their LHS.
func (lr *latticeRun) checkTargets(a AttrSet, gids []int32, nulls []bool) {
	ts := time.Now()
	defer func() { lr.stats.InterTime += time.Since(ts) }()
	for _, pt := range lr.incoming {
		// Superset suppression: a satisfying subset makes any
		// superset-based result non-minimal.
		skip := false
		for _, s := range pt.satisfied {
			if a.Contains(s) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		lr.stats.TargetChecks++
		if pt.satisfiedBy(gids, nulls) {
			pt.satisfied = append(pt.satisfied, a)
			if pt.keyOnly {
				lr.out.interKeys = append(lr.out.interKeys, pt.keyAt(lr.rel, a, lr.depths))
			} else {
				lr.out.interFDs = append(lr.out.interFDs, pt.fdAt(lr.rel, a, lr.depths))
			}
			continue
		}
		if lr.opts.PropagatePartial && lr.rel.Parent != nil &&
			a.Size() <= lr.opts.maxPartialAttrs() &&
			len(lr.out.outgoing) < lr.opts.maxTargets() &&
			pt.remaining(gids, nulls) < len(pt.pairs) {
			// Progress was made: carry the rest upward with a in the
			// LHS (Figure 9 lines 26–29).
			if up := pt.convert(lr.rel, gids, nulls, a, lr.ni, lr.opts, lr.stats); up != nil {
				lr.out.outgoing = append(lr.out.outgoing, up)
			}
		}
	}
}

// candidateLHS implements Figure 9's candidateLHS2 (pruning rule 1
// only — rule 2 must not suppress edges whose failures seed partition
// targets), or Figure 8's candidateLHS (rules 1 and 2) when
// Options.NoInterRelation is set.
func (lr *latticeRun) candidateLHS(a AttrSet) []AttrSet {
	out := make([]AttrSet, 0, a.Size())
	intraOnly := lr.opts.NoInterRelation
	for _, i := range a.Attrs() {
		al := a.Without(i)
		if lr.opts.DisableFDPruning {
			out = append(out, al)
			continue
		}
		skip := false
		for _, fd := range lr.fds {
			// Rule 1: X → A satisfied removes edge (XY, XYA).
			if fd.rhs == i && al.Contains(fd.lhs) {
				skip = true
				break
			}
			// Rule 2 (intra-only): X → A satisfied removes edge
			// (XYA, XYAB): an LHS containing both X and A is
			// non-minimal.
			if intraOnly && al.Has(fd.rhs) && al.Without(fd.rhs).Contains(fd.lhs) {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, al)
		}
	}
	return out
}

// getPartition returns Π_A from the run-shared cache, computing it by
// stripped products of cached sub-partitions on demand.
func (lr *latticeRun) getPartition(a AttrSet) *partition.Partition {
	return lr.cache.partitionOf(lr.pc, a, lr.sc, lr.opts.NaivePartitions, lr.stats)
}

// Parallel level precompute kicks in only when a level has enough
// products over enough rows to amortize goroutine startup; below the
// thresholds the serial lazy path wins.
const (
	parallelLevelMinNodes = 4
	parallelLevelMinRows  = 256
)

// precomputeLevel computes the partitions of one lattice level's
// pending nodes in parallel, seeding the cache the serial traversal
// then hits. pending is the queue suffix starting at the level's
// first node. Only nodes the serial traversal would materialize are
// computed — a node with no candidate LHS is skipped before its
// partition is ever built — so the cache ends up with exactly the
// entries the serial run produces and discovery output (including the
// approximate pass, which scans the cache) is bit-identical.
func (lr *latticeRun) precomputeLevel(pending []AttrSet) {
	if !lr.opts.Parallel || lr.opts.NaivePartitions {
		return
	}
	size := pending[0].Size()
	end := 0
	for end < len(pending) && pending[end].Size() == size {
		end++
	}
	work := make([]AttrSet, 0, end)
	for _, a := range pending[:end] {
		if _, ok := lr.pc.parts[a]; ok {
			continue
		}
		if len(lr.candidateLHS(a)) == 0 && size > 1 {
			continue
		}
		work = append(work, a)
	}
	if len(work) < parallelLevelMinNodes || lr.rel.NRows() < parallelLevelMinRows {
		return
	}
	// Resolve each product's operands serially first (almost always
	// cache hits from the previous level); workers then run pure
	// products with no shared state.
	type job struct {
		a            AttrSet
		rest, single *partition.Partition
	}
	jobs := make([]job, 0, len(work))
	for _, a := range work {
		b := a.MaxBit()
		jobs = append(jobs, job{a, lr.getPartition(a.Without(b)), lr.getPartition(AttrSet(0).Add(b))})
	}
	results := make([]*partition.Partition, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	// A worker panic must surface as this run's error, not a process
	// crash (same contract as subtree workers); workerGroup provides
	// the barrier.
	workers := lr.gov.productWorkers(len(jobs))
	if tr := lr.opts.Tracer; tr != nil {
		trace.Emit(tr, &trace.Event{Kind: trace.KindGovernor, Action: "worker_spawn",
			Workers: workers, Relation: string(lr.rel.Pivot),
			Detail: fmt.Sprintf("product workers for %d level-%d partitions", len(jobs), size)})
	}
	var grp workerGroup
	for w := 0; w < workers; w++ {
		grp.Go(fmt.Sprintf("parallel product worker for relation %s", lr.rel.Pivot), nil, func() {
			sc := partition.GetScratch(lr.rel.NRows())
			defer partition.PutScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := lr.gov.cancelled(); err != nil {
					errs[i] = err
					return
				}
				results[i] = jobs[i].rest.Product(jobs[i].single, sc)
			}
		})
	}
	panicErr := grp.Wait()
	for i, p := range results {
		if errs[i] != nil {
			// First failure in deterministic job order wins.
			lr.err = errs[i]
			return
		}
		if p == nil {
			continue
		}
		lr.cache.install(lr.pc, jobs[i].a, p)
		lr.stats.PartitionsComputed++
		lr.stats.ParallelProducts++
	}
	if lr.err == nil && panicErr != nil {
		lr.err = panicErr
	}
}

// groupIDs returns (and caches) the row→group lookup for Π_A.
func (lr *latticeRun) groupIDs(a AttrSet) []int32 {
	return lr.pc.gidsOf(a, func() []int32 { return lr.getPartition(a).GroupIDs() })
}

// nullsFor returns (and caches) the per-row missing-value lookup for
// attribute set a: true where any attribute of a is null. Used for
// the vacuous satisfaction of degenerate target pairs.
func (lr *latticeRun) nullsFor(a AttrSet) []bool {
	return lr.pc.nullsOf(a, func() []bool {
		nl := make([]bool, lr.rel.NRows())
		for _, i := range a.Attrs() {
			col := lr.rel.Cols[i]
			for row, code := range col {
				if relation.IsNull(code) {
					nl[row] = true
				}
			}
		}
		return nl
	})
}

// supersetOfKey reports whether a contains a discovered key (pruning
// rule 3, Figure 8 line 18).
func (lr *latticeRun) supersetOfKey(a AttrSet) bool {
	if lr.opts.DisableKeyPruning {
		return false
	}
	for _, k := range lr.keys {
		if a.Contains(k) {
			return true
		}
	}
	return false
}

// checkWidth verifies the 64-attribute bitset limit.
func checkWidth(rel *relation.Relation) error {
	if rel.NAttrs() > 64 {
		return fmt.Errorf("core: relation %s has %d attributes; at most 64 are supported", rel.Pivot, rel.NAttrs())
	}
	return nil
}
