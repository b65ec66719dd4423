package relation

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/partition"
)

const internDoc = `<warehouse>
  <state><name>MI</name>
    <store><name>A</name><phone>1</phone>
      <book><ISBN>x</ISBN><price>10</price><author>a1</author><author>a2</author></book>
      <book><ISBN>y</ISBN><price>10</price><author>a1</author></book>
    </store>
    <store><name>B</name>
      <book><ISBN>x</ISBN><price>10</price><author>a2</author></book>
    </store>
  </state>
  <state><name>OH</name>
    <store><name>A</name><phone>1</phone></store>
  </state>
</warehouse>`

func buildInternHierarchy(t *testing.T, opts Options) *Hierarchy {
	t.Helper()
	tree, err := datatree.ParseXMLString(internDoc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(tree, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkBounds asserts the interning invariant: every non-null code of
// a bounded column is dense in [1, bound).
func checkBounds(t *testing.T, h *Hierarchy) {
	t.Helper()
	for _, r := range h.Relations {
		if len(r.ColBound) != len(r.Attrs) {
			t.Fatalf("relation %s: ColBound len %d != %d attrs", r.Pivot, len(r.ColBound), len(r.Attrs))
		}
		for ai := range r.Attrs {
			bound := r.ColBound[ai]
			if bound <= 0 {
				t.Fatalf("relation %s attr %s: no dense bound recorded", r.Pivot, r.Attrs[ai].Name())
			}
			seen := make(map[int64]bool)
			for ti, c := range r.Cols[ai] {
				if IsNull(c) {
					continue
				}
				if c < 1 || c >= bound {
					t.Fatalf("relation %s attr %s tuple %d: code %d outside [1,%d)",
						r.Pivot, r.Attrs[ai].Name(), ti, c, bound)
				}
				seen[c] = true
			}
			// Dense means every code below the bound is used at least
			// once whenever any is.
			if len(seen) > 0 && int64(len(seen)) != bound-1 {
				t.Fatalf("relation %s attr %s: %d distinct codes but bound %d (not dense)",
					r.Pivot, r.Attrs[ai].Name(), len(seen), bound)
			}
		}
	}
}

func TestBuildInternsDenseBounds(t *testing.T) {
	checkBounds(t, buildInternHierarchy(t, Options{}))
	checkBounds(t, buildInternHierarchy(t, Options{OrderedSets: true}))
}

func TestStreamInternsDenseBounds(t *testing.T) {
	tree, err := datatree.ParseXMLString(internDoc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildStream(strings.NewReader(internDoc), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBounds(t, h)
}

// TestColumnPartitionDenseMatchesGeneric cross-checks the two
// partition build paths on every column of a built hierarchy.
func TestColumnPartitionDenseMatchesGeneric(t *testing.T) {
	h := buildInternHierarchy(t, Options{})
	for _, r := range h.Relations {
		for ai := range r.Attrs {
			fast := r.ColumnPartition(ai)
			naive := partition.FromCodes(r.Cols[ai])
			if !fast.Equal(naive) {
				t.Fatalf("relation %s attr %s: dense partition differs from generic",
					r.Pivot, r.Attrs[ai].Name())
			}
		}
	}
}

// TestDenseRemap checks the remap that codes subtree and collection
// columns: sparse encoder codes become dense codes in [1, bound) in
// order of first occurrence, and a code seen before maps back to its
// old dense code.
func TestDenseRemap(t *testing.T) {
	r := &Relation{Attrs: []Attr{{Rel: "./c", Kind: Complex}}, ColBound: []int64{1}}
	ps := &patchState{remap: [][]map[int64]int64{{make(map[int64]int64)}}}
	var got []int64
	for _, c := range []int64{42, 7, 42, 9000, 7} {
		got = append(got, ps.dense(r, 0, c))
	}
	if want := []int64{1, 2, 1, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("dense codes = %v, want %v", got, want)
	}
	if r.ColBound[0] != 4 {
		t.Fatalf("bound = %d, want 4", r.ColBound[0])
	}
}

// TestInternerColumnGrowthAmortized pins amortized O(1) interning:
// a column's id→code table must grow geometrically, so interning n
// distinct values into one column of a multi-column relation costs
// O(log n) table grows on top of what the relation-wide value map
// itself allocates (measured alongside on the same values).
func TestInternerColumnGrowthAmortized(t *testing.T) {
	const n = 100_000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = "v" + strconv.Itoa(i)
	}
	var in *interner
	total := testing.AllocsPerRun(3, func() {
		in = newInterner(3)
		for _, v := range vals {
			in.code(1, v)
		}
	})
	mapOnly := testing.AllocsPerRun(3, func() {
		ids := make(map[string]int32)
		for i, v := range vals {
			ids[v] = int32(i)
		}
	})
	if grows := total - mapOnly; grows > 64 {
		t.Fatalf("interning %d distinct values into one column made %.0f allocations beyond the value map's %.0f; want O(log n)",
			n, grows, mapOnly)
	}
	for i, v := range vals {
		if got := in.code(1, v); got != int64(i+1) {
			t.Fatalf("code(1, %q) = %d, want %d", v, got, i+1)
		}
	}
	if b := in.bound(1); b != n+1 {
		t.Fatalf("bound(1) = %d, want %d", b, n+1)
	}
}
