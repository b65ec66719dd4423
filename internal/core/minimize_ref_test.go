package core

import "discoverxfd/internal/schema"

// The string-slice minimizers that results went through before they
// stayed in lattice coordinates (see dep.go), kept verbatim apart from
// their names as the reference the differential tests hold minimal,
// dropCovered and the Run stages to.

// refLHSInterner assigns each distinct LHS path of one class a bit
// position, so a (sorted, duplicate-free) LHS list becomes a uint64
// set and subset/equality tests become single mask operations. ok is
// false when a class accumulates more than 64 distinct paths — the
// caller falls back to the string-slice comparisons for that FD's
// goal.
type refLHSInterner struct {
	bits map[schema.Path]map[schema.RelPath]int
}

func (in *refLHSInterner) mask(f FD) (uint64, bool) {
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

// refMinimizeApprox removes approximate FDs implied by an exact FD or by
// another approximate FD with a subset LHS for the same class and
// RHS, and deduplicates. Candidates are bucketed by (class, RHS) —
// only same-goal FDs can imply each other — and LHS sets are interned
// to bitmasks, so the pairwise scan is mask arithmetic. Low-domain
// corpora produce thousands of approximate FDs, where the original
// all-pairs string-slice scan dominated whole runs.
func refMinimizeApprox(approx, exact []FD) []FD {
	keyOf := func(f FD) string { return string(f.Class) + "\x00" + string(f.RHS) }
	in := &refLHSInterner{bits: make(map[schema.Path]map[schema.RelPath]int)}
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
				implied = refRelsSubset(exact[ei].LHS, a.LHS)
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
				if refRelsEqual(a.LHS, b.LHS) {
					if j < i {
						implied = true
						break
					}
					continue
				}
				if refRelsSubset(b.LHS, a.LHS) {
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

// refDropSuperkeyLHS removes FDs whose LHS contains a discovered key of
// the same class: a superkey LHS satisfies any FD trivially and
// indicates no redundancy (Definition 11).
func refDropSuperkeyLHS(fds []FD, keys []Key) []FD {
	out := fds[:0]
	for _, fd := range fds {
		super := false
		for _, k := range keys {
			if k.Class == fd.Class && refRelsSubset(k.LHS, fd.LHS) {
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

// refMinimizeFDs removes duplicates and FDs whose LHS strictly contains
// another FD's LHS for the same class and RHS. Partial-propagation
// targets can produce such non-minimal variants when several
// absorption orders reach the same conclusion.
func refMinimizeFDs(fds []FD) []FD {
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
				if refRelsEqual(fds[j].LHS, fds[i].LHS) {
					// Duplicate: keep the first occurrence only.
					if j < i {
						keep[i] = false
					}
					continue
				}
				if refRelsSubset(fds[j].LHS, fds[i].LHS) {
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

// refMinimizeKeys removes duplicates and keys whose LHS strictly
// contains another key's LHS for the same class.
func refMinimizeKeys(keys []Key) []Key {
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
				if refRelsEqual(keys[j].LHS, keys[i].LHS) {
					if j < i {
						keep[i] = false
					}
					continue
				}
				if refRelsSubset(keys[j].LHS, keys[i].LHS) {
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

// refRelsSubset reports whether a ⊆ b as path sets (both sorted or not).
func refRelsSubset(a, b []schema.RelPath) bool {
	if len(a) > len(b) {
		return false
	}
	set := make(map[schema.RelPath]bool, len(b))
	for _, r := range b {
		set[r] = true
	}
	for _, r := range a {
		if !set[r] {
			return false
		}
	}
	return true
}

func refRelsEqual(a, b []schema.RelPath) bool {
	return len(a) == len(b) && refRelsSubset(a, b)
}
