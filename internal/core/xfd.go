package core

import (
	"context"
	"sort"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
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
func verifyFD(cache *partitionCache, h *relation.Hierarchy, fd FD, naive bool) (Evaluation, error) {
	if !naive && !fd.Inter {
		origin := h.ByPivot(fd.Class)
		if origin != nil {
			lhsSet := AttrSet(0)
			ok := true
			for _, rp := range fd.LHS {
				r, err := resolveRef(h, origin, rp)
				if err != nil || r.ups != 0 {
					ok = false
					break
				}
				lhsSet = lhsSet.Add(r.attr)
			}
			if ok {
				if r, err := resolveRef(h, origin, fd.RHS); err == nil && r.ups == 0 {
					return evaluateIntraFast(cache, origin, lhsSet, r.attr), nil
				}
			}
		}
	}
	return Evaluate(h, fd.Class, fd.LHS, fd.RHS)
}

// lhsInterner assigns each distinct LHS path of one class a bit
// position, so a (sorted, duplicate-free) LHS list becomes a uint64
// set and subset/equality tests become single mask operations. ok is
// false when a class accumulates more than 64 distinct paths — the
// caller falls back to the string-slice comparisons for that FD's
// goal.
type lhsInterner struct {
	bits map[schema.Path]map[schema.RelPath]int
}

func (in *lhsInterner) mask(f FD) (uint64, bool) {
	m := in.bits[f.Class]
	if m == nil {
		m = make(map[schema.RelPath]int)
		in.bits[f.Class] = m
	}
	var mask uint64
	for _, p := range f.LHS {
		b, seen := m[p]
		if !seen {
			b = len(m)
			m[p] = b
		}
		if b >= 64 {
			return 0, false
		}
		mask |= 1 << uint(b)
	}
	return mask, true
}

// minimizeApprox removes approximate FDs implied by an exact FD or by
// another approximate FD with a subset LHS for the same class and
// RHS, and deduplicates. Candidates are bucketed by (class, RHS) —
// only same-goal FDs can imply each other — and LHS sets are interned
// to bitmasks, so the pairwise scan is mask arithmetic. Low-domain
// corpora produce thousands of approximate FDs, where the original
// all-pairs string-slice scan dominated whole runs.
func minimizeApprox(approx, exact []FD) []FD {
	keyOf := func(f FD) string { return string(f.Class) + "\x00" + string(f.RHS) }
	in := &lhsInterner{bits: make(map[schema.Path]map[schema.RelPath]int)}
	wide := make(map[string]bool) // goals with an FD past the 64-path intern limit
	exactByGoal := make(map[string][]int)
	exactMask := make([]uint64, len(exact))
	for i, e := range exact {
		goal := keyOf(e)
		exactByGoal[goal] = append(exactByGoal[goal], i)
		m, ok := in.mask(e)
		if !ok {
			wide[goal] = true
		}
		exactMask[i] = m
	}
	approxByGoal := make(map[string][]int)
	approxMask := make([]uint64, len(approx))
	for i, a := range approx {
		goal := keyOf(a)
		approxByGoal[goal] = append(approxByGoal[goal], i)
		m, ok := in.mask(a)
		if !ok {
			wide[goal] = true
		}
		approxMask[i] = m
	}
	// A fresh slice, not approx[:0]: the goal buckets index the input,
	// which must stay intact while it is still being compared against.
	var out []FD
	for i, a := range approx {
		goal := keyOf(a)
		slow := wide[goal]
		implied := false
		for _, ei := range exactByGoal[goal] {
			if slow {
				implied = relsSubset(exact[ei].LHS, a.LHS)
			} else {
				implied = approxMask[i]&exactMask[ei] == exactMask[ei]
			}
			if implied {
				break
			}
		}
		if !implied {
			for _, j := range approxByGoal[goal] {
				if i == j {
					continue
				}
				if !slow {
					if approxMask[j] == approxMask[i] {
						if j < i {
							implied = true
							break
						}
						continue
					}
					if approxMask[i]&approxMask[j] == approxMask[j] {
						implied = true
						break
					}
					continue
				}
				b := approx[j]
				if relsEqual(a.LHS, b.LHS) {
					if j < i {
						implied = true
						break
					}
					continue
				}
				if relsSubset(b.LHS, a.LHS) {
					implied = true
					break
				}
			}
		}
		if !implied {
			out = append(out, a)
		}
	}
	return out
}

// dropSuperkeyLHS removes FDs whose LHS contains a discovered key of
// the same class: a superkey LHS satisfies any FD trivially and
// indicates no redundancy (Definition 11).
func dropSuperkeyLHS(fds []FD, keys []Key) []FD {
	out := fds[:0]
	for _, fd := range fds {
		super := false
		for _, k := range keys {
			if k.Class == fd.Class && relsSubset(k.LHS, fd.LHS) {
				super = true
				break
			}
		}
		if !super {
			out = append(out, fd)
		}
	}
	return out
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

func intraFD(r *relation.Relation, e edge) FD {
	lhs := make([]schema.RelPath, 0, e.lhs.Size())
	for _, i := range e.lhs.Attrs() {
		lhs = append(lhs, r.Attrs[i].Rel)
	}
	sortRels(lhs)
	return FD{Class: r.Pivot, LHS: lhs, RHS: r.Attrs[e.rhs].Rel}
}

func intraKey(r *relation.Relation, k AttrSet) Key {
	lhs := make([]schema.RelPath, 0, k.Size())
	for _, i := range k.Attrs() {
		lhs = append(lhs, r.Attrs[i].Rel)
	}
	sortRels(lhs)
	return Key{Class: r.Pivot, LHS: lhs}
}

// minimizeFDs removes duplicates and FDs whose LHS strictly contains
// another FD's LHS for the same class and RHS. Partial-propagation
// targets can produce such non-minimal variants when several
// absorption orders reach the same conclusion.
func minimizeFDs(fds []FD) []FD {
	byGoal := make(map[string][]int)
	keyOf := func(f FD) string { return string(f.Class) + "\x00" + string(f.RHS) }
	for i, f := range fds {
		byGoal[keyOf(f)] = append(byGoal[keyOf(f)], i)
	}
	keep := make([]bool, len(fds))
	//lint:detorder groups write disjoint keep indices and out iterates fds in slice order, so group visit order cannot reach the output
	for _, idxs := range byGoal {
		for _, i := range idxs {
			keep[i] = true
			for _, j := range idxs {
				if i == j || !keep[i] {
					continue
				}
				if relsEqual(fds[j].LHS, fds[i].LHS) {
					// Duplicate: keep the first occurrence only.
					if j < i {
						keep[i] = false
					}
					continue
				}
				if relsSubset(fds[j].LHS, fds[i].LHS) {
					keep[i] = false
				}
			}
		}
	}
	var out []FD
	for i, f := range fds {
		if keep[i] {
			out = append(out, f)
		}
	}
	return out
}

// minimizeKeys removes duplicates and keys whose LHS strictly
// contains another key's LHS for the same class.
func minimizeKeys(keys []Key) []Key {
	byClass := make(map[schema.Path][]int)
	for i, k := range keys {
		byClass[k.Class] = append(byClass[k.Class], i)
	}
	keep := make([]bool, len(keys))
	//lint:detorder groups write disjoint keep indices and out iterates keys in slice order, so group visit order cannot reach the output
	for _, idxs := range byClass {
		for _, i := range idxs {
			keep[i] = true
			for _, j := range idxs {
				if i == j || !keep[i] {
					continue
				}
				if relsEqual(keys[j].LHS, keys[i].LHS) {
					if j < i {
						keep[i] = false
					}
					continue
				}
				if relsSubset(keys[j].LHS, keys[i].LHS) {
					keep[i] = false
				}
			}
		}
	}
	var out []Key
	for i, k := range keys {
		if keep[i] {
			out = append(out, k)
		}
	}
	return out
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
