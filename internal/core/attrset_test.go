package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

func TestAttrSetBasics(t *testing.T) {
	var s AttrSet
	if s.Size() != 0 || s.MaxBit() != -1 || len(s.Attrs()) != 0 {
		t.Fatal("empty set wrong")
	}
	s = s.Add(3).Add(0).Add(7)
	if !s.Has(3) || !s.Has(0) || !s.Has(7) || s.Has(1) {
		t.Fatal("Has wrong")
	}
	if s.Size() != 3 || s.MaxBit() != 7 {
		t.Fatalf("Size=%d MaxBit=%d", s.Size(), s.MaxBit())
	}
	got := s.Attrs()
	want := []int{0, 3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v", got)
		}
	}
	s2 := s.Without(3)
	if s2.Has(3) || !s2.Has(0) {
		t.Fatal("Without wrong")
	}
	if !s.Contains(s2) || s2.Contains(s) {
		t.Fatal("Contains wrong")
	}
	if !s.Contains(s) || !s.Contains(0) {
		t.Fatal("Contains edge cases wrong")
	}
}

func TestAttrSetQuick(t *testing.T) {
	f := func(raw uint64, i uint8) bool {
		s := AttrSet(raw)
		b := int(i % 64)
		added := s.Add(b)
		if !added.Has(b) || added.Without(b).Has(b) {
			return false
		}
		if added.Size() < s.Size() || added.Size() > s.Size()+1 {
			return false
		}
		// Attrs round-trips.
		var back AttrSet
		for _, a := range s.Attrs() {
			back = back.Add(a)
		}
		return back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFDString(t *testing.T) {
	fd := FD{Class: "/w/s/b", LHS: []schema.RelPath{"./x", "../y"}, RHS: "./z"}
	want := "{./x, ../y} -> ./z w.r.t. C(/w/s/b)"
	if fd.String() != want {
		t.Fatalf("FD.String = %q, want %q", fd.String(), want)
	}
	k := Key{Class: "/w/s", LHS: []schema.RelPath{"./id"}}
	if k.String() != "{./id} KEY of C(/w/s)" {
		t.Fatalf("Key.String = %q", k.String())
	}
}

func TestLHSMaskHelpers(t *testing.T) {
	r := &relation.Relation{Index: 1}
	a := dep{origin: r, lhs: 0b01, rhs: -1}
	b := dep{origin: r, lhs: 0b11, up: []AttrSet{0, 0b100}, rhs: -1}
	c := dep{origin: r, lhs: 0b01, up: []AttrSet{0b10}, rhs: -1}
	if !a.subsetOf(&b) || b.subsetOf(&a) || !a.subsetOf(&a) {
		t.Fatal("subsetOf wrong at the origin level")
	}
	if c.subsetOf(&b) || b.subsetOf(&c) || !a.subsetOf(&c) {
		t.Fatal("subsetOf wrong across ancestor levels")
	}
	if a.size() != 1 || b.size() != 3 || c.size() != 2 {
		t.Fatalf("sizes %d %d %d", a.size(), b.size(), c.size())
	}
	if cmpDep(b, b) != 0 || cmpDep(a, c) >= 0 || cmpDep(c, b) >= 0 {
		t.Fatal("cmpDep must order by size first")
	}
}

// depRel is a relation with attributes ./a0, ./a1, … for the
// minimizer tests.
func depRel(pivot schema.Path, index, attrs int) *relation.Relation {
	r := &relation.Relation{Pivot: pivot, Index: index}
	for i := 0; i < attrs; i++ {
		r.Attrs = append(r.Attrs, relation.Attr{Rel: schema.RelPath(fmt.Sprintf("./a%d", i))})
	}
	return r
}

func TestMinimizeFDs(t *testing.T) {
	c, d := depRel("/c", 1, 4), depRel("/d", 2, 4)
	fds := []dep{
		{origin: c, lhs: 0b011, rhs: 3},
		{origin: c, lhs: 0b001, rhs: 3},
		{origin: c, lhs: 0b001, rhs: 3}, // duplicate
		{origin: c, lhs: 0b010, rhs: 2},
		{origin: d, lhs: 0b011, rhs: 3}, // other class: kept
	}
	out := minimal(fds)
	if len(out) != 3 {
		t.Fatalf("minimal kept %d FDs, want 3: %v", len(out), out)
	}
	for _, f := range out {
		if f.origin == c && f.rhs == 3 && f.size() != 1 {
			t.Fatalf("non-minimal FD survived: %v", f.fd())
		}
	}
}

func TestMinimizeKeys(t *testing.T) {
	c := depRel("/c", 1, 3)
	keys := []dep{
		{origin: c, lhs: 0b011, rhs: -1},
		{origin: c, lhs: 0b001, rhs: -1},
		{origin: c, lhs: 0b110, rhs: -1},
		{origin: c, lhs: 0b001, rhs: -1}, // duplicate
	}
	if out := minimal(keys); len(out) != 2 {
		t.Fatalf("minimal kept %d keys, want 2: %v", len(out), out)
	}
}

func TestDropSuperkeyLHS(t *testing.T) {
	c, d := depRel("/c", 1, 3), depRel("/d", 2, 3)
	keys := []dep{{origin: c, lhs: 0b001, rhs: -1}}
	fds := minimal([]dep{
		{origin: c, lhs: 0b011, rhs: 2}, // superkey LHS
		{origin: c, lhs: 0b010, rhs: 2},
		{origin: d, lhs: 0b001, rhs: 2}, // other class
	})
	if out := dropCovered(fds, keys, (*dep).class); len(out) != 2 {
		t.Fatalf("dropCovered kept %d FDs, want 2: %v", len(out), out)
	}
}

func TestLiftRelPath(t *testing.T) {
	cases := []struct {
		in   schema.RelPath
		ups  int
		want schema.RelPath
	}{
		{"./x/y", 0, "./x/y"},
		{"./x", 1, "../x"},
		{"./x", 2, "../../x"},
		{".", 1, ".."},
		{".", 3, "../../.."},
	}
	for _, c := range cases {
		if got := liftRelPath(c.in, c.ups); got != c.want {
			t.Errorf("liftRelPath(%q,%d) = %q, want %q", c.in, c.ups, got, c.want)
		}
	}
}
