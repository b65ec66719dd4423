package relation

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// TestBuildStreamMatchesBuild pins the two feeds of the one builder to
// each other: on every generator corpus, under each set-attribute
// option, uncapped and under tuple caps, a tree-fed build and a build
// streamed from the tree's serialization agree exactly in column
// codes, column bounds, parent links and truncation outcome. A capped
// build keeps the same document-order prefix on both feeds.
func TestBuildStreamMatchesBuild(t *testing.T) {
	corpora := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"ordered", Options{OrderedSets: true}},
		{"nosets", Options{DisableSetAttrs: true}},
	}
	for _, ds := range corpora {
		xml := ds.Tree.XMLString()
		for _, v := range variants {
			full, err := Build(ds.Tree, ds.Schema, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			total := full.TotalTuples()
			for _, maxTuples := range []int{0, 1, 7, total / 3, total - 1} {
				opts := v.opts
				opts.MaxTuples = maxTuples
				corpus, _, _ := strings.Cut(ds.Name, "(")
				name := fmt.Sprintf("%s/%s/max=%d", corpus, v.name, maxTuples)
				t.Run(name, func(t *testing.T) {
					mem, err := Build(ds.Tree, ds.Schema, opts)
					if err != nil {
						t.Fatal(err)
					}
					str, err := BuildStream(strings.NewReader(xml), ds.Schema, opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := maxTuples > 0 && maxTuples < total; mem.Truncated != want {
						t.Fatalf("Truncated = %v with %d of %d tuples allowed", mem.Truncated, maxTuples, total)
					}
					assertSameHierarchy(t, mem, str)
				})
			}
		}
	}
}

// assertSameHierarchy fails unless the two hierarchies agree exactly
// in truncation outcome and, relation by relation, in column codes,
// column bounds and parent links (node keys may differ).
func assertSameHierarchy(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	if a.Truncated != b.Truncated || a.TruncatedReason != b.TruncatedReason {
		t.Fatalf("truncation differs: %v %q vs %v %q", a.Truncated, a.TruncatedReason, b.Truncated, b.TruncatedReason)
	}
	if len(a.Relations) != len(b.Relations) {
		t.Fatalf("relation counts differ: %d vs %d", len(a.Relations), len(b.Relations))
	}
	for i, ra := range a.Relations {
		rb := b.Relations[i]
		switch {
		case ra.Pivot != rb.Pivot:
			t.Fatalf("relation %d: pivot %s vs %s", i, ra.Pivot, rb.Pivot)
		case !reflect.DeepEqual(ra.ParentIdx, rb.ParentIdx):
			t.Fatalf("%s: parent links differ:\n%v\nvs\n%v", ra.Pivot, ra.ParentIdx, rb.ParentIdx)
		case !reflect.DeepEqual(ra.ColBound, rb.ColBound):
			t.Fatalf("%s: column bounds differ: %v vs %v", ra.Pivot, ra.ColBound, rb.ColBound)
		case len(ra.Keys) != len(rb.Keys):
			t.Fatalf("%s: %d vs %d keys", ra.Pivot, len(ra.Keys), len(rb.Keys))
		}
		for ai := range ra.Attrs {
			if !reflect.DeepEqual(ra.Cols[ai], rb.Cols[ai]) {
				t.Fatalf("%s.%s: codes differ:\n%v\nvs\n%v", ra.Pivot, ra.Attrs[ai].Rel, ra.Cols[ai], rb.Cols[ai])
			}
		}
	}
}

// TestBuildStreamNonSetRootChildren covers root leaf attributes,
// complex containers, and set elements nested below non-set
// containers.
func TestBuildStreamNonSetRootChildren(t *testing.T) {
	s := mustSchema(t, nonSetRootSchema)
	xml := nonSetRootXML
	h, err := BuildStream(strings.NewReader(xml), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := h.Root
	if root.NRows() != 1 {
		t.Fatalf("root rows = %d", root.NRows())
	}
	for _, rel := range []struct {
		attr string
		null bool
	}{{"./version", false}, {"./meta", false}, {"./meta/owner", false}, {"./meta/tag", false}, {"./item", false}} {
		ai := root.AttrIndex(schemaRel(rel.attr))
		if ai < 0 {
			t.Fatalf("missing root attr %s: %v", rel.attr, root.Attrs)
		}
		if IsNull(root.Cols[ai][0]) != rel.null {
			t.Fatalf("root attr %s null=%v", rel.attr, IsNull(root.Cols[ai][0]))
		}
	}
	tags := h.ByPivot("/doc/meta/tag")
	if tags == nil || tags.NRows() != 2 {
		t.Fatalf("R_tag missing or wrong: %+v", tags)
	}
	items := h.ByPivot("/doc/item")
	if items.NRows() != 2 {
		t.Fatalf("R_item rows = %d", items.NRows())
	}
	tr, err := datatree.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Build(tr, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameHierarchy(t, mem, h)

	// A repeated non-set root child is ignored on both feeds: the
	// first occurrence wins, as descend picks the first child.
	dup := strings.Replace(xml, "</doc>", "<version>4</version><meta><tag>c</tag></meta></doc>", 1)
	if h, err = BuildStream(strings.NewReader(dup), s, Options{}); err != nil {
		t.Fatal(err)
	}
	if tr, err = datatree.ParseXMLString(dup); err != nil {
		t.Fatal(err)
	}
	if mem, err = Build(tr, s, Options{}); err != nil {
		t.Fatal(err)
	}
	assertSameHierarchy(t, mem, h)
	if n := h.ByPivot("/doc/meta/tag").NRows(); n != 2 {
		t.Fatalf("R_tag rows = %d with a repeated meta, want 2", n)
	}
}

const nonSetRootSchema = `
doc: Rcd
  version: str
  meta: Rcd
    owner: str
    tag: SetOf str
  item: SetOf Rcd
    id: str
`

const nonSetRootXML = `
<doc>
  <version>3</version>
  <meta><owner>me</owner><tag>a</tag><tag>b</tag></meta>
  <item><id>1</id></item>
  <item><id>2</id></item>
</doc>`

// TestBuildDoesNotMutateTree checks that a tree-fed build reads its
// input without changing it: every node keeps its parent and children
// and the tree keeps its size, also when the root has non-set children
// with set elements nested below them. The hierarchy stays updatable.
func TestBuildDoesNotMutateTree(t *testing.T) {
	for _, c := range []struct {
		name, xml string
		s         *schema.Schema
	}{
		{"nonset-root", nonSetRootXML, mustSchema(t, nonSetRootSchema)},
		{"warehouse", warehouseXML, warehouseSchema},
	} {
		tr, err := datatree.ParseXMLString(c.xml)
		if err != nil {
			t.Fatal(err)
		}
		type links struct {
			parent   *datatree.Node
			children []*datatree.Node
		}
		snapshot := func() map[*datatree.Node]links {
			m := make(map[*datatree.Node]links)
			tr.Root.Walk(func(n *datatree.Node) bool {
				m[n] = links{n.Parent, slices.Clone(n.Children)}
				return true
			})
			return m
		}
		before, size := snapshot(), tr.Size()
		h, err := Build(tr, c.s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := snapshot()
		if tr.Size() != size || len(after) != len(before) {
			t.Fatalf("%s: tree size %d (%d reachable nodes), was %d (%d)", c.name, tr.Size(), len(after), size, len(before))
		}
		for n, l := range before {
			a, ok := after[n]
			if !ok || a.parent != l.parent || !slices.Equal(a.children, l.children) {
				t.Fatalf("%s: node %s (key %d) changed its links", c.name, n.Label, n.Key)
			}
		}
		if !h.Updatable() {
			t.Fatalf("%s: tree-fed hierarchy is not updatable", c.name)
		}
	}
}

// TestBuildStreamErrors covers root mismatch and undeclared children,
// which fail on both feeds.
func TestBuildStreamErrors(t *testing.T) {
	s := mustSchema(t, "doc: Rcd\n  item: SetOf Rcd\n    id: str")
	if _, err := BuildStream(strings.NewReader("<other/>"), s, Options{}); err == nil {
		t.Fatal("root mismatch should fail")
	}
	if _, err := BuildStream(strings.NewReader("<doc><bogus/></doc>"), s, Options{}); err == nil {
		t.Fatal("undeclared child should fail")
	}
	tr, err := datatree.ParseXMLString("<doc><bogus/></doc>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(tr, s, Options{}); err == nil {
		t.Fatal("undeclared child of a tree should fail")
	}
}

func mustSchema(t *testing.T, text string) *schema.Schema {
	t.Helper()
	s, err := schema.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func schemaRel(s string) schema.RelPath { return schema.RelPath(s) }
