package core

import (
	"context"
	"sort"

	"discoverxfd/internal/relation"
)

// mergeStats accumulates per-subtree instrumentation. WallTime is
// deliberately not merged: it is a run-scoped wall-clock measurement
// stamped once at the end of the pipeline, not a summable per-subtree
// quantity (summing it across parallel subtrees would recreate the
// double-counting the Stats docs rule out).
func mergeStats(dst, src *Stats) {
	dst.Relations += src.Relations
	dst.RelationsReused += src.RelationsReused
	dst.Tuples += src.Tuples
	dst.NodesVisited += src.NodesVisited
	dst.PartitionsComputed += src.PartitionsComputed
	dst.ParallelProducts += src.ParallelProducts
	dst.TargetsCreated += src.TargetsCreated
	dst.TargetsPropagated += src.TargetsPropagated
	dst.TargetsDropped += src.TargetsDropped
	dst.TargetChecks += src.TargetChecks
	dst.IntraTime += src.IntraTime
	dst.InterTime += src.InterTime
}

// Discover runs the DiscoverXFD algorithm (Figure 9) over the
// hierarchical representation of a document: a bottom-up traversal of
// the relation tree that discovers all minimal interesting
// intra-relation and inter-relation XML FDs and Keys, and derives the
// data redundancies they indicate (Definition 11). With
// opts.NoInterRelation set it is DiscoverFD (Figure 8) per relation:
// only intra-relation FDs and Keys are found.
//
// Discover runs one cold Run; callers issuing repeated runs, concurrent
// ones, or needing cancellation should construct an Engine instead and
// reuse it.
func Discover(h *relation.Hierarchy, opts Options) (*Result, error) {
	return NewEngine(opts).Discover(context.Background(), h)
}

// verifyFD checks one candidate FD for the final Definition 11 filter.
// Intra-relation FDs reuse the run's partition cache (Π_LHS groups are
// exactly the evaluator's non-null LHS-equal groups of size ≥ 2, since
// nulls carry row-unique codes and stripped partitions drop
// singletons); inter-relation FDs — and every FD when the naive
// engine is selected — go through the independent evaluator.
func verifyFD(ctx context.Context, cache *partitionCache, d *dep, naive bool) (Evaluation, error) {
	if !naive && d.up == nil {
		return evaluateIntraFast(cache, d.origin, d.lhs, d.rhs), nil
	}
	return evaluateRefs(ctx, d.origin, d.refs(), d.rhs)
}

func sortRedundancies(rs []Redundancy) {
	lhs := make([]string, len(rs))
	for i := range rs {
		lhs[i] = joinRels(rs[i].FD.LHS)
	}
	sort.Sort(&redundancySorter{rs: rs, lhs: lhs})
}

// redundancySorter orders redundancies by (class, RHS, joined LHS)
// with the joined-LHS key computed once per element; joining inside
// the comparator allocated O(n log n) strings, which dominated result
// assembly on low-domain corpora with thousands of approximate FDs
// (the same precomputation backs fdSorter).
type redundancySorter struct {
	rs  []Redundancy
	lhs []string
}

func (s *redundancySorter) Len() int { return len(s.rs) }
func (s *redundancySorter) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *redundancySorter) Less(i, j int) bool {
	a, b := s.rs[i].FD, s.rs[j].FD
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.RHS != b.RHS {
		return a.RHS < b.RHS
	}
	return s.lhs[i] < s.lhs[j]
}

func sortFDs(fds []FD) {
	lhs := make([]string, len(fds))
	for i := range fds {
		lhs[i] = joinRels(fds[i].LHS)
	}
	sort.Sort(&fdSorter{fds: fds, lhs: lhs})
}

// fdSorter: see redundancySorter for why the LHS key is precomputed.
type fdSorter struct {
	fds []FD
	lhs []string
}

func (s *fdSorter) Len() int { return len(s.fds) }
func (s *fdSorter) Swap(i, j int) {
	s.fds[i], s.fds[j] = s.fds[j], s.fds[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *fdSorter) Less(i, j int) bool {
	if s.fds[i].Class != s.fds[j].Class {
		return s.fds[i].Class < s.fds[j].Class
	}
	if s.fds[i].RHS != s.fds[j].RHS {
		return s.fds[i].RHS < s.fds[j].RHS
	}
	return s.lhs[i] < s.lhs[j]
}

func sortKeys(keys []Key) {
	lhs := make([]string, len(keys))
	for i := range keys {
		lhs[i] = joinRels(keys[i].LHS)
	}
	sort.Sort(&keySorter{keys: keys, lhs: lhs})
}

// keySorter: see redundancySorter for why the LHS key is precomputed.
type keySorter struct {
	keys []Key
	lhs  []string
}

func (s *keySorter) Len() int { return len(s.keys) }
func (s *keySorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *keySorter) Less(i, j int) bool {
	if s.keys[i].Class != s.keys[j].Class {
		return s.keys[i].Class < s.keys[j].Class
	}
	return s.lhs[i] < s.lhs[j]
}
