package core

import (
	"slices"
	"sort"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/trace"
)

// The target lifecycle helpers pair each Stats counter bump with its
// trace event, so every TargetsCreated/Propagated/Dropped increment
// in this package is observable in a traced run. The nil check keeps
// the untraced path at one pointer compare per lifecycle step.

// targetCreated records a new target with its deduplicated pair count.
func targetCreated(rel *relation.Relation, opts *Options, st *Stats, pairs int) {
	st.TargetsCreated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "create", Pairs: pairs})
	}
}

// targetPropagated records a target lifted one relation level up.
func targetPropagated(rel *relation.Relation, opts *Options, st *Stats, pairs int) {
	st.TargetsPropagated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "propagate", Pairs: pairs})
	}
}

// targetDropped records a target killed or withheld, naming the cause.
func targetDropped(rel *relation.Relation, opts *Options, st *Stats, detail string) {
	st.TargetsDropped++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "drop", Detail: detail})
	}
}

// pair is one inequality t1 ≠ t2 over tuples of the relation the
// target currently lives at, normalized a ≤ b.
//
// A degenerate pair (p, p) arises when two origin tuples share the
// ancestor p: no value can distinguish them, but under strong
// satisfaction (Definition 7) a *missing* value at p or above makes
// the pair vacuous. The paper's updatePT returns NULL in this case,
// which silently assumes ancestor paths are never missing; this
// implementation keeps the degenerate pair — satisfiable only by a
// null-valued attribute — whenever some ancestor relation actually
// contains missing values, and collapses to NULL otherwise (the
// paper's fast path).
type pair struct{ a, b int32 }

func mkPair(a, b int32) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// target is a partition target (the paper's Figure 10 struct): a
// candidate partial FD — or, when keyOnly is set, a candidate partial
// Key — originating at relation origin, together with the
// inequalities (pairs) that ancestor attribute sets must satisfy for
// it to hold. Inequalities are expressed in tuple indices of the
// relation the target is currently checked at and are re-expressed on
// parent tuples as the target moves up (convert).
//
// The paper folds FDTarget and KeyTarget into one structure; this
// implementation splits them into two target kinds so that minimality
// bookkeeping (superset suppression per kind) stays correct: an
// attribute set that completes the FD must not suppress a larger set
// that would complete the Key. FDs whose LHS turns out to be a
// superkey are removed by a final filter instead (Definition 11
// excludes them from indicating redundancy).
type target struct {
	origin *relation.Relation // relation of the tuple class C
	lhs0   AttrSet            // LHS attributes at the origin relation
	rhs    int                // RHS attribute index (-1 for keyOnly targets)

	// ups counts the parent hops from the origin to the relation the
	// target is checked at; up holds the attributes absorbed at the
	// levels in between in dep form (up[u-1] at u hops, trailing
	// empty levels omitted).
	ups int
	up  []AttrSet

	// keyOnly marks candidate partial Keys: lhs0 is a key within
	// every parent but not globally.
	keyOnly bool

	pairs []pair

	// satisfied lists minimal attribute sets of the current relation
	// that already completed the target, for superset suppression.
	satisfied []AttrSet
}

// clone returns a copy safe to offer to a fresh run: the satisfied
// list is reset (the consuming relation appends to it per level), and
// the immutable pairs and parts are shared. The warm layer hands out
// clones of cached outgoing targets so that one run's minimality
// bookkeeping never leaks into the next.
func (t *target) clone() *target {
	c := *t
	c.satisfied = nil
	return &c
}

// pairSet deduplicates pairs during construction, keyed on a packed
// uint64. A map beats sort-and-compact here because duplicate pairs
// across partition groups are common: the deduplicated set is often
// far smaller than the raw pair stream, and the cap applies to the
// deduplicated size.
type pairSet struct {
	m        map[uint64]struct{}
	max      int
	overflow bool
}

func newPairSet(max int) *pairSet {
	return &pairSet{m: make(map[uint64]struct{}), max: max}
}

func (ps *pairSet) add(p pair) {
	if ps.overflow {
		return
	}
	if len(ps.m) >= ps.max {
		ps.overflow = true
		return
	}
	ps.m[uint64(uint32(p.a))<<32|uint64(uint32(p.b))] = struct{}{}
}

func (ps *pairSet) slice() []pair {
	out := make([]pair, 0, len(ps.m))
	for v := range ps.m {
		out = append(out, pair{a: int32(v >> 32), b: int32(uint32(v))})
	}
	// Deterministic order for downstream reproducibility.
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// nullInfo tells target construction whether a degenerate pair at a
// given parent tuple can ever be satisfied vacuously: the parent
// relation must have a missing value in that row, or missing values
// must exist strictly above it.
type nullInfo struct {
	parentAnyNull []bool // per parent-relation row: any column null
	aboveParent   bool   // nulls anywhere strictly above the parent
}

// keep reports whether a degenerate pair at parent tuple p is worth
// tracking.
func (ni nullInfo) keep(p int32) bool {
	if ni.aboveParent {
		return true
	}
	return ni.parentAnyNull != nil && ni.parentAnyNull[p]
}

// separated reports whether the attribute set described by gids and
// nulls satisfies the inequality p under strong satisfaction: a
// degenerate pair is vacuously satisfied iff some attribute of the
// set is missing at that tuple; a distinct pair is satisfied iff the
// partition separates the tuples. gids == nil means the attribute set
// is a key of its relation (separates every distinct pair).
func separated(p pair, gids []int32, nulls []bool) bool {
	if p.a == p.b {
		return nulls != nil && nulls[p.a]
	}
	if gids == nil {
		return true
	}
	return partition.Separates(gids, p.a, p.b)
}

// createTarget builds a candidate-partial-FD target from a failed
// intra-relation edge LHS → rhs at relation rel (Figure 10,
// creatept). plhs is Π_LHS; allIDs are the group ids of Π_{LHS∪rhs}.
// It returns nil when a violating pair shares a parent tuple and no
// ancestor relation has missing values that could satisfy it
// vacuously (Lemma 3 part 1, corrected for strong satisfaction).
func createTarget(rel *relation.Relation, lhs AttrSet, rhs int,
	plhs *partition.Partition, nAllGroups int, allIDs []int32,
	ni nullInfo, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	fdSet := newPairSet(opts.maxTargetPairs())

	// For each Π_LHS group, split tuples by their Π_{LHS∪rhs} group
	// (stripped singletons are their own subgroup). Cross-subgroup
	// tuple pairs violate the FD at this level and must be separated
	// — or vacuously excused — by their ancestors.
	for _, g := range plhs.Groups {
		buckets := make(map[int32][]int32)
		next := int32(nAllGroups)
		for _, t := range g {
			b := allIDs[t]
			if b < 0 {
				b = next
				next++
			}
			buckets[b] = append(buckets[b], t)
		}
		if len(buckets) == 1 {
			continue // no violation within this group
		}
		// Distinct parents per bucket; a parent spanning two buckets
		// yields a degenerate pair. Buckets are visited in ascending id
		// order: a spanning parent is attributed to the first bucket
		// that reaches it, so map order here would change which
		// cross-bucket pairs are enumerated below.
		bucketIDs := make([]int32, 0, len(buckets))
		for b := range buckets {
			bucketIDs = append(bucketIDs, b)
		}
		slices.Sort(bucketIDs)
		bucketParents := make(map[int32][]int32)
		parentBucket := make(map[int32]int32)
		for _, b := range bucketIDs {
			for _, t := range buckets[b] {
				p := parents[t]
				if pb, ok := parentBucket[p]; ok {
					if pb != b {
						if !ni.keep(p) {
							targetDropped(rel, opts, st, "degenerate pair unsatisfiable")
							return nil
						}
						fdSet.add(pair{p, p})
					}
					continue
				}
				parentBucket[p] = b
				bucketParents[b] = append(bucketParents[b], p)
			}
		}
		// All cross-bucket parent pairs must be separated upstream.
		// Bound the enumeration first: Σ_{i<j} |P_i|·|P_j| =
		// (T² − Σ|P_i|²)/2.
		bps := make([][]int32, 0, len(bucketParents))
		total, sq := 0, 0
		for _, b := range bucketIDs {
			ps, ok := bucketParents[b]
			if !ok {
				continue
			}
			bps = append(bps, ps)
			total += len(ps)
			sq += len(ps) * len(ps)
		}
		if (total*total-sq)/2 > opts.maxTargetPairs() {
			targetDropped(rel, opts, st, "pair bound exceeded")
			return nil
		}
		for i := 0; i < len(bps); i++ {
			for j := i + 1; j < len(bps); j++ {
				for _, p1 := range bps[i] {
					for _, p2 := range bps[j] {
						if p1 == p2 {
							continue // already recorded as degenerate
						}
						fdSet.add(mkPair(p1, p2))
					}
				}
			}
		}
	}
	if fdSet.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	ps := fdSet.slice()
	targetCreated(rel, opts, st, len(ps))
	return &target{
		origin: rel,
		lhs0:   lhs,
		rhs:    rhs,
		ups:    1,
		pairs:  ps,
	}
}

// createKeyTarget builds a candidate-partial-Key target for attribute
// set a at relation rel: a is not a key of the relation, but ancestor
// attributes could complete it into an inter-relation Key (the
// KeyTarget side of Figure 10). Two tuples agreeing on a under one
// parent yield a degenerate pair (key possible only through a missing
// ancestor value); with no nulls above, the target dies immediately.
func createKeyTarget(rel *relation.Relation, a AttrSet, pa *partition.Partition,
	ni nullInfo, opts *Options, st *Stats) *target {

	max := opts.maxTargetPairs()
	parents := rel.ParentIdx

	// Phase 1: distinct parents per group and an upper bound on the
	// pair count, so hopeless targets are dropped before any
	// quadratic enumeration.
	groupParents := make([][]int32, 0, len(pa.Groups))
	var degenerates []int32
	bound := 0
	for _, g := range pa.Groups {
		seen := make(map[int32]bool, len(g))
		ps := make([]int32, 0, len(g))
		for _, t := range g {
			p := parents[t]
			if seen[p] {
				if !ni.keep(p) {
					targetDropped(rel, opts, st, "degenerate pair unsatisfiable")
					return nil
				}
				degenerates = append(degenerates, p)
				continue
			}
			seen[p] = true
			ps = append(ps, p)
		}
		bound += len(ps) * (len(ps) - 1) / 2
		if bound > max {
			targetDropped(rel, opts, st, "pair bound exceeded")
			return nil
		}
		groupParents = append(groupParents, ps)
	}

	keySet := newPairSet(max)
	for _, p := range degenerates {
		keySet.add(pair{p, p})
	}
	for _, ps := range groupParents {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				keySet.add(mkPair(ps[i], ps[j]))
			}
		}
	}
	if keySet.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	ps := keySet.slice()
	targetCreated(rel, opts, st, len(ps))
	return &target{
		origin:  rel,
		lhs0:    a,
		rhs:     -1,
		ups:     1,
		keyOnly: true,
		pairs:   ps,
	}
}

// convert lifts the target one level up (Figure 10, updatePT):
// inequalities not already satisfied by (gids, nulls) — both nil for
// a pure conversion — are re-expressed on parent tuples of rel.
// ni tells whether a collapsing pair can still be satisfied by a
// missing value at or above the parent; otherwise it kills the
// target. The satisfied list resets: minimality bookkeeping is per
// level.
func (t *target) convert(rel *relation.Relation, gids []int32, nulls []bool,
	absorbed AttrSet, ni nullInfo, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	set := newPairSet(opts.maxTargetPairs())
	for _, p := range t.pairs {
		if (gids != nil || nulls != nil) && separated(p, gids, nulls) {
			continue
		}
		pa, pb := parents[p.a], parents[p.b]
		if pa == pb && !ni.keep(pa) {
			targetDropped(rel, opts, st, "degenerate pair unsatisfiable at parent")
			return nil
		}
		set.add(mkPair(pa, pb))
	}
	if set.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	up := t.up
	if absorbed != 0 {
		up = t.absorb(absorbed)
	}
	ps := set.slice()
	targetPropagated(rel, opts, st, len(ps))
	return &target{
		origin:  t.origin,
		lhs0:    t.lhs0,
		rhs:     t.rhs,
		ups:     t.ups + 1,
		up:      up,
		keyOnly: t.keyOnly,
		pairs:   ps,
	}
}

// satisfiedBy reports whether the attribute set described by (gids,
// nulls) satisfies every inequality. gids == nil means the set is a
// key of the relation (Figure 9 line 18); nulls must still be
// supplied for degenerate pairs.
func (t *target) satisfiedBy(gids []int32, nulls []bool) bool {
	for _, p := range t.pairs {
		if !separated(p, gids, nulls) {
			return false
		}
	}
	return true
}

// remaining counts pairs not separated by (gids, nulls).
func (t *target) remaining(gids []int32, nulls []bool) int {
	n := 0
	for _, p := range t.pairs {
		if !separated(p, gids, nulls) {
			n++
		}
	}
	return n
}

// absorb returns the target's ancestor LHS sets with a added at the
// level it is checked at.
func (t *target) absorb(a AttrSet) []AttrSet {
	up := make([]AttrSet, t.ups)
	copy(up, t.up)
	up[t.ups-1] = a
	return up
}

// at is the result of completing the target with attribute set a of
// the relation it is checked at: an inter-relation FD, or a Key for
// keyOnly targets, in lattice coordinates.
func (t *target) at(a AttrSet) dep {
	return dep{origin: t.origin, lhs: t.lhs0, up: t.absorb(a), rhs: t.rhs}
}

// liftRelPath prefixes a pivot-relative path with ups ".." steps.
func liftRelPath(r schema.RelPath, ups int) schema.RelPath {
	if ups == 0 {
		return r
	}
	prefix := ""
	for i := 0; i < ups; i++ {
		if i > 0 {
			prefix += "/"
		}
		prefix += ".."
	}
	s := string(r)
	switch {
	case s == ".":
		return schema.RelPath(prefix)
	default:
		return schema.RelPath(prefix + "/" + trimDotSlash(s))
	}
}

func trimDotSlash(s string) string {
	if len(s) >= 2 && s[0] == '.' && s[1] == '/' {
		return s[2:]
	}
	return s
}
