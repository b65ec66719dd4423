package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Evaluation is the outcome of directly checking an XML FD against a
// hierarchy, independent of the discovery machinery. Discovery
// results are cross-validated against this evaluator in the test
// suite.
type Evaluation struct {
	// Holds reports whether the FD is satisfied under strong
	// satisfaction semantics (Definition 7): pairs with a missing LHS
	// value are vacuous; agreeing pairs must have equal, non-missing
	// RHS values.
	Holds bool
	// Violations counts tuple pairs that agree on the LHS but
	// disagree (or are missing) on the RHS.
	Violations int
	// LHSIsKey reports whether the LHS uniquely identifies each tuple
	// of the class (Definition 8).
	LHSIsKey bool
	// Witnesses counts redundant RHS occurrences: over every
	// LHS-equal group, the occurrences beyond the first.
	Witnesses int
	// WitnessGroups counts LHS-equal groups of two or more tuples.
	WitnessGroups int
	// Error is the g3 measure: the minimum fraction of the class's
	// tuples to remove so the FD holds exactly (0 when Holds).
	Error float64
}

// ref locates one FD path: an attribute of the origin relation or of
// one of its ancestors.
type ref struct {
	rel  *relation.Relation
	ups  int // how many parent hops from the origin relation
	attr int
}

// resolveRef maps a pivot-relative path of the FD notation to the
// relation and attribute that encode it.
func resolveRef(h *relation.Hierarchy, origin *relation.Relation, rp schema.RelPath) (ref, error) {
	s := string(rp)
	ups := 0
	for strings.HasPrefix(s, "../") || s == ".." {
		ups++
		if s == ".." {
			s = "."
			break
		}
		s = s[3:]
	}
	rel := origin
	for i := 0; i < ups; i++ {
		if rel.Parent == nil {
			return ref{}, fmt.Errorf("core: path %s ascends above the root from class %s", rp, origin.Pivot)
		}
		rel = rel.Parent
	}
	local := schema.RelPath(s)
	if s != "." && !strings.HasPrefix(s, "./") {
		local = schema.RelPath("./" + s)
	}
	ai := rel.AttrIndex(local)
	if ai < 0 {
		return ref{}, fmt.Errorf("core: path %s (local %s) is not an attribute of relation %s", rp, local, rel.Pivot)
	}
	return ref{rel: rel, ups: ups, attr: ai}, nil
}

// Evaluate checks the XML FD ⟨C_class, lhs, rhs⟩ directly against the
// hierarchy by materializing each tuple's LHS signature (walking
// parent links for ancestor paths) and comparing RHS codes within
// LHS-equal groups.
func Evaluate(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) (Evaluation, error) {
	return evaluateContext(context.Background(), h, class, lhs, rhs)
}

// evalCheckInterval is how many tuples are processed between context
// checks in evaluateContext.
const evalCheckInterval = 4096

// evaluateContext is Evaluate with cancellation, checked periodically
// over the class's tuples.
func evaluateContext(ctx context.Context, h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) (Evaluation, error) {
	origin := h.ByPivot(class)
	if origin == nil {
		return Evaluation{}, fmt.Errorf("core: no tuple class with pivot %s", class)
	}
	refs := make([]ref, 0, len(lhs))
	for _, rp := range lhs {
		r, err := resolveRef(h, origin, rp)
		if err != nil {
			return Evaluation{}, err
		}
		refs = append(refs, r)
	}
	rref, err := resolveRef(h, origin, rhs)
	if err != nil {
		return Evaluation{}, err
	}
	if rref.ups != 0 {
		return Evaluation{}, fmt.Errorf("core: RHS %s of an interesting FD must stay within the pivot's subtree", rhs)
	}
	return evaluateRefs(ctx, origin, refs, rref.attr)
}

// evaluateRefs is the evaluator on resolved paths: refs locate the LHS
// attributes, rhsAttr is an attribute of origin.
func evaluateRefs(ctx context.Context, origin *relation.Relation, refs []ref, rhsAttr int) (Evaluation, error) {
	n := origin.NRows()
	groups := make(map[string][]int, n)
	var sig strings.Builder
	for t := 0; t < n; t++ {
		if t%evalCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return Evaluation{}, fmt.Errorf("core: evaluation cancelled: %w", err)
			}
		}
		sig.Reset()
		null := false
		for _, r := range refs {
			at, ok := ancestorTuple(origin, t, r.ups)
			if !ok {
				null = true
				break
			}
			code := r.rel.Cols[r.attr][at]
			if relation.IsNull(code) {
				null = true
				break
			}
			sig.WriteString(strconv.FormatInt(code, 10))
			sig.WriteByte('|')
		}
		if null {
			continue // vacuous under strong satisfaction
		}
		groups[sig.String()] = append(groups[sig.String()], t)
	}

	ev := Evaluation{Holds: true, LHSIsKey: true}
	removals := 0
	rcol := origin.Cols[rhsAttr]
	//lint:detorder per-group tallies only += ints and latch booleans, so group order cannot reach the Evaluation output
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		ev.LHSIsKey = false
		// Count RHS value multiplicities within the group; nulls are
		// pairwise distinct under strong satisfaction.
		counts := make(map[int64]int, len(g))
		max := 1
		agree := true
		first := rcol[g[0]]
		if relation.IsNull(first) {
			agree = false
		}
		for i, t := range g {
			code := rcol[t]
			if i > 0 && (relation.IsNull(code) || code != first) {
				agree = false
			}
			if relation.IsNull(code) {
				continue
			}
			counts[code]++
			if counts[code] > max {
				max = counts[code]
			}
		}
		removals += len(g) - max
		if agree {
			ev.WitnessGroups++
			ev.Witnesses += len(g) - 1
		} else {
			ev.Holds = false
			ev.Violations += len(g) - 1
		}
	}
	if n > 0 {
		ev.Error = float64(removals) / float64(n)
	}
	return ev, nil
}

// evaluateIntraFast is the partition-backed equivalent of Evaluate for
// intra-relation FDs: Π_LHS from the run's cache supplies the
// LHS-equal groups directly (tuples with a missing LHS value carry
// row-unique null codes, so they fall into stripped-out singletons —
// the same vacuous-pair semantics the evaluator implements by
// skipping them), and the per-group RHS counting below mirrors
// Evaluate's exactly.
func evaluateIntraFast(cache *partitionCache, origin *relation.Relation, lhsSet AttrSet, rhsAttr int) Evaluation {
	rp := cache.store(origin)
	sc := partition.GetScratch(origin.NRows())
	defer partition.PutScratch(sc)
	p := cache.partitionOf(rp, lhsSet, sc, false, nil)

	ev := Evaluation{Holds: true, LHSIsKey: len(p.Groups) == 0}
	removals := 0
	rcol := origin.Cols[rhsAttr]
	for _, g := range p.Groups {
		counts := make(map[int64]int, len(g))
		max := 1
		agree := true
		first := rcol[g[0]]
		if relation.IsNull(first) {
			agree = false
		}
		for i, t := range g {
			code := rcol[t]
			if i > 0 && (relation.IsNull(code) || code != first) {
				agree = false
			}
			if relation.IsNull(code) {
				continue
			}
			counts[code]++
			if counts[code] > max {
				max = counts[code]
			}
		}
		removals += len(g) - max
		if agree {
			ev.WitnessGroups++
			ev.Witnesses += len(g) - 1
		} else {
			ev.Holds = false
			ev.Violations += len(g) - 1
		}
	}
	if n := origin.NRows(); n > 0 {
		ev.Error = float64(removals) / float64(n)
	}
	return ev
}

// ancestorTuple walks ups parent links from tuple t of origin.
func ancestorTuple(origin *relation.Relation, t, ups int) (int, bool) {
	rel := origin
	cur := int32(t)
	for i := 0; i < ups; i++ {
		if rel.Parent == nil {
			return 0, false
		}
		cur = rel.ParentIdx[cur]
		rel = rel.Parent
		if cur < 0 {
			return 0, false
		}
	}
	return int(cur), true
}
