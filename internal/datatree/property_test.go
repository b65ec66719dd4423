package datatree

import (
	"math/rand"
	"strconv"
	"testing"
)

// isoTree builds a small tree over a two-letter label alphabet and
// two values, so isomorphic subtrees are common. Some valueless nodes
// carry a stray Value, which node-value equality must ignore, and some
// complex nodes carry a value, which it must not.
func isoTree(r *rand.Rand, depth int) *Node {
	n := &Node{Label: string(rune('a' + r.Intn(2)))}
	if depth > 0 && r.Intn(3) > 0 {
		for k := r.Intn(4); k > 0; k-- {
			c := isoTree(r, depth-1)
			c.Parent = n
			n.Children = append(n.Children, c)
		}
	}
	switch r.Intn(4) {
	case 0:
		n.Value = "stray"
	case 1, 2:
		if len(n.Children) == 0 || r.Intn(4) == 0 {
			n.Value, n.HasValue = strconv.Itoa(r.Intn(2)), true
		}
	}
	return n
}

// isomorphic is Definition 3 by brute force: equal labels and value
// assignments, and a one-to-one pairing of isomorphic children found
// by trying every assignment.
func isomorphic(a, b *Node) bool {
	if a.Label != b.Label || a.HasValue != b.HasValue || a.HasValue && a.Value != b.Value ||
		len(a.Children) != len(b.Children) {
		return false
	}
	return pairUp(a.Children, b.Children, make([]bool, len(b.Children)))
}

// pairUp reports whether xs[0:] can be matched one-to-one with the
// unused members of ys under isomorphism.
func pairUp(xs, ys []*Node, used []bool) bool {
	if len(xs) == 0 {
		return true
	}
	for j, y := range ys {
		if used[j] || !isomorphic(xs[0], y) {
			continue
		}
		used[j] = true
		if pairUp(xs[1:], ys, used) {
			return true
		}
		used[j] = false
	}
	return false
}

// checkCodes asserts that e gives two of the nodes the same code
// exactly when they are isomorphic, and that multiset and list codes
// of small collections follow the brute-force definitions.
func checkCodes(t *testing.T, r *rand.Rand, e *Encoder, nodes []*Node, stage string) {
	t.Helper()
	for i, a := range nodes {
		for _, b := range nodes[i:] {
			if same, iso := e.Encode(a) == e.Encode(b), isomorphic(a, b); same != iso {
				t.Fatalf("%s: codes equal %v, isomorphic %v:\n%s\nvs\n%s", stage, same, iso, NewTree(a), NewTree(b))
			}
		}
	}
	pick := func() []*Node {
		out := make([]*Node, r.Intn(4))
		for i := range out {
			out[i] = nodes[r.Intn(len(nodes))]
		}
		return out
	}
	for k := 0; k < 50; k++ {
		xs, ys := pick(), pick()
		if k%2 == 0 { // the same members in another order
			ys = ys[:0]
			for _, i := range r.Perm(len(xs)) {
				ys = append(ys, xs[i])
			}
		}
		multiset := len(xs) == len(ys) && pairUp(xs, ys, make([]bool, len(ys)))
		if got := e.MultisetCode(xs) == e.MultisetCode(ys); got != multiset {
			t.Fatalf("%s: multiset codes equal %v, brute force %v", stage, got, multiset)
		}
		list := len(xs) == len(ys)
		for i := 0; list && i < len(xs); i++ {
			list = isomorphic(xs[i], ys[i])
		}
		if got := e.ListCode(xs) == e.ListCode(ys); got != list {
			t.Fatalf("%s: list codes equal %v, brute force %v", stage, got, list)
		}
	}
}

// TestEncodeMatchesBruteForceIsomorphism checks the encoder against
// brute-force isomorphism on random trees: with one encoder shared by
// every tree of a run, after a node is mutated and invalidated, and
// after a subtree's memo is forgotten.
func TestEncodeMatchesBruteForceIsomorphism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var e Encoder
	var nodes []*Node
	for round := 0; round < 40; round++ {
		var roots []*Node
		for i := 0; i < 3; i++ {
			root := isoTree(r, 3)
			roots = append(roots, root)
			root.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
		}
		if len(nodes) > 120 {
			nodes = nodes[len(nodes)-120:]
		}
		checkCodes(t, r, &e, nodes, "fresh")

		n := nodes[r.Intn(len(nodes))]
		if n.HasValue && r.Intn(2) == 0 {
			n.Value = strconv.Itoa(1 - r.Intn(2))
		} else {
			leaf := &Node{Label: "b", Value: "1", HasValue: true, Parent: n}
			n.Children = append(n.Children, leaf)
			nodes = append(nodes, leaf)
		}
		e.Invalidate(n)
		checkCodes(t, r, &e, nodes, "after Invalidate")

		root := roots[r.Intn(len(roots))]
		before := e.Encode(root)
		e.Forget(root)
		if after := e.Encode(root); after != before {
			t.Fatalf("re-encoding a forgotten subtree gave code %d, was %d", after, before)
		}
	}
}

// numberCases are strings at the edges of what strconv accepts.
var numberCases = []string{
	"0", "1", "-1", "+1", "007", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
	".5", "5.", "-.5", "+.5e-3", "1e5", "1E+5", "1e", "e5", ".", "-", "+", "",
	"0x1p-2", "0X1.8P3", "0x1", "0x_1p0", "0x1.p1", "-0x.8p1", "0b101", "0o17",
	"1_000", "1__0", "_1", "1_", "1_000.5", "0x1_0p0",
	"Inf", "+inf", "-Infinity", "INFINITY", "infinity", "infin", "NaN", "nan", "-nan", "+NaN", "nano",
	"1.5.5", "--1", "1-1", "1e+-5", "12abc", "abc", "John Smith", "MI", "x1", "\u0661", "1\u00a0", "ｉnf",
}

// checkNumber asserts the pre-check never rejects what strconv
// accepts, and that isInt/isFloat decide exactly as strconv does.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	_, ierr := strconv.ParseInt(s, 10, 64)
	_, ferr := strconv.ParseFloat(s, 64)
	if (ierr == nil || ferr == nil) && !mayBeNumber(s) {
		t.Fatalf("mayBeNumber(%q) = false, but strconv accepts it", s)
	}
	if isInt(s) != (ierr == nil) {
		t.Fatalf("isInt(%q) = %v, ParseInt error %v", s, isInt(s), ierr)
	}
	if isFloat(s) != (ferr == nil) {
		t.Fatalf("isFloat(%q) = %v, ParseFloat error %v", s, isFloat(s), ferr)
	}
}

func TestMayBeNumberAgreesWithStrconv(t *testing.T) {
	for _, s := range numberCases {
		checkNumber(t, s)
	}
	// The point of the filter: ordinary words never reach strconv.
	for _, s := range []string{"", "abc", "John Smith", "MI", "x1", "\u0661", "true", "ｉnf"} {
		if mayBeNumber(s) {
			t.Errorf("mayBeNumber(%q) = true, want the fast rejection", s)
		}
	}
}

// FuzzMayBeNumber holds the numeric pre-check to strconv on arbitrary
// strings.
func FuzzMayBeNumber(f *testing.F) {
	for _, s := range numberCases {
		f.Add(s)
	}
	f.Fuzz(checkNumber)
}
