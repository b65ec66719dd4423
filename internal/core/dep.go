package core

import (
	"cmp"
	"math/bits"
	"slices"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// dep is one raw FD or key in lattice coordinates, the form results
// travel in from the lattice and the targets through minimize and
// verify to assemble, where they become FD and Key values.
//
// lhs holds the LHS attributes of the origin relation (the tuple
// class); up[u-1] holds those of the relation u parent hops above it.
// up is nil for intra-relation results and never ends in an empty set,
// so equal LHSs have equal coordinates. rhs is an attribute of the
// origin, or -1 for keys; g3 is the error of an approximate FD.
// checkWidth caps every relation at 64 attributes, so one AttrSet per
// step always suffices.
type dep struct {
	origin *relation.Relation
	lhs    AttrSet
	up     []AttrSet
	rhs    int
	g3     float64
}

// goal is the group a dep competes in for minimality: its class and
// RHS, so keys (rhs -1) of a class form one goal. RHS indices are
// below 64, so the packing preserves the (origin, rhs) order.
func (d *dep) goal() int { return d.origin.Index<<7 | (d.rhs + 1) }

// class groups deps by origin alone, for the superkey filter.
func (d *dep) class() int { return d.origin.Index << 7 }

func (d *dep) size() int {
	n := d.lhs.Size()
	for _, a := range d.up {
		n += a.Size()
	}
	return n
}

// subsetOf reports whether d's LHS is contained in e's.
func (d *dep) subsetOf(e *dep) bool {
	if d.lhs&^e.lhs != 0 || len(d.up) > len(e.up) {
		return false
	}
	for u, a := range d.up {
		if a&^e.up[u] != 0 {
			return false
		}
	}
	return true
}

// cmpDep orders deps by goal, then LHS size, then LHS coordinates, so
// duplicates are adjacent and every dep follows all the smaller LHSs
// of its goal.
func cmpDep(a, b dep) int {
	if c := cmp.Compare(a.goal(), b.goal()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.size(), b.size()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lhs, b.lhs); c != 0 {
		return c
	}
	return slices.Compare(a.up, b.up)
}

// minimal sorts ds with cmpDep and keeps, per goal, each distinct LHS
// that contains no other: duplicates and supersets go. The sort puts
// smaller LHSs first, so each dep is checked only against the smaller
// (or equal-sized) deps already kept. ds is reused for the result.
func minimal(ds []dep) []dep {
	slices.SortFunc(ds, cmpDep)
	out := ds[:0]
	first := 0 // first kept dep of the current goal
	for i := range ds {
		if first < len(out) && out[first].goal() != ds[i].goal() {
			first = len(out)
		}
		if !covered(&ds[i], out[first:]) {
			out = append(out, ds[i])
		}
	}
	return out
}

// dropCovered removes each dep of ds whose LHS contains the LHS of a
// dep of by in the same group, as group reports it: dep.goal to drop
// approximate FDs implied by exact ones, dep.class to drop FDs with a
// superkey LHS. Both slices must be sorted with cmpDep. ds is reused
// for the result.
func dropCovered(ds, by []dep, group func(*dep) int) []dep {
	out := ds[:0]
	lo, hi := 0, 0
	for i := range ds {
		g := group(&ds[i])
		for lo < len(by) && group(&by[lo]) < g {
			lo++
		}
		hi = max(hi, lo)
		for hi < len(by) && group(&by[hi]) == g {
			hi++
		}
		if !covered(&ds[i], by[lo:hi]) {
			out = append(out, ds[i])
		}
	}
	return out
}

// covered reports whether some dep of by has an LHS contained in d's.
func covered(d *dep, by []dep) bool {
	for k := range by {
		if by[k].subsetOf(d) {
			return true
		}
	}
	return false
}

// refs locates every LHS attribute for the evaluator.
func (d *dep) refs() []ref {
	out := make([]ref, 0, d.size())
	rel := d.origin
	for u := 0; ; u++ {
		a := d.lhs
		if u > 0 {
			a = d.up[u-1]
		}
		for ; a != 0; a &= a - 1 {
			out = append(out, ref{rel: rel, ups: u, attr: bits.TrailingZeros64(uint64(a))})
		}
		if u == len(d.up) {
			return out
		}
		rel = rel.Parent
	}
}

// lhsPaths renders the LHS as sorted pivot-relative paths, e.g.
// attribute ./contact/name of the parent becomes ../contact/name.
func (d *dep) lhsPaths() []schema.RelPath {
	rs := d.refs()
	out := make([]schema.RelPath, len(rs))
	for i, r := range rs {
		out[i] = liftRelPath(r.rel.Attrs[r.attr].Rel, r.ups)
	}
	sortRels(out)
	return out
}

func (d *dep) fd() FD {
	return FD{Class: d.origin.Pivot, LHS: d.lhsPaths(), RHS: d.origin.Attrs[d.rhs].Rel, Inter: d.up != nil}
}

func (d *dep) key() Key {
	return Key{Class: d.origin.Pivot, LHS: d.lhsPaths(), Inter: d.up != nil}
}

// approxFD renders an approximate FD with its g3 error.
func (d *dep) approxFD() FD {
	f := d.fd()
	f.Approximate, f.Error = true, d.g3
	return f
}

// appendIntra appends the relation's intra-relation FDs and keys in
// lattice coordinates. FDs with an empty LHS (constant columns) are
// kept only under Options.KeepConstantFDs.
func (lr *latticeRun) appendIntra(fds, keys []dep) ([]dep, []dep) {
	for _, e := range lr.out.intraFDs {
		if e.lhs == 0 && !lr.opts.KeepConstantFDs {
			continue
		}
		fds = append(fds, dep{origin: lr.rel, lhs: e.lhs, rhs: e.rhs})
	}
	for _, k := range lr.out.intraKeys {
		keys = append(keys, dep{origin: lr.rel, lhs: k, rhs: -1})
	}
	return fds, keys
}
