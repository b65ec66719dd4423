package datatree

import (
	"fmt"
	"strings"
	"testing"
)

// allocDoc is a fixed document with attributes, mixed content and
// repeated element names.
func allocDoc() string {
	var b strings.Builder
	b.WriteString(`<store xmlns:x="urn:x" name="s">`)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, `<book id="%d" x:lang="en"><isbn>%d</isbn><author>A%d</author><author>B%d</author>`+
			`<title>T &amp; %d</title><note>see <ref>%d</ref> too</note><empty/></book>`, i, i, i%20, i%17, i%50, i)
	}
	b.WriteString("</store>")
	return b.String()
}

// treeCounts returns a tree's node count, its valued nodes and its
// distinct labels.
func treeCounts(t *Tree) (nodes, valued, labels int) {
	seen := map[string]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		nodes++
		if n.HasValue {
			valued++
		}
		seen[n.Label] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return nodes, valued, len(seen)
}

// TestParseXMLAllocs gates the allocations of a parse absolutely: at
// most one per node, one per valued node (its value string) and one
// per distinct label, plus a constant for the parser's own state. A
// parser that allocates per token or per name read fails it.
func TestParseXMLAllocs(t *testing.T) {
	doc := allocDoc()
	tr, err := ParseXMLString(doc)
	if err != nil {
		t.Fatal(err)
	}
	nodes, valued, labels := treeCounts(tr)
	const slack = 32
	ceiling := float64(nodes + valued + labels + slack)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseXMLString(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %d valued, %d labels: %.0f allocations, ceiling %.0f", nodes, valued, labels, allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("ParseXML made %.0f allocations for %d nodes, %d valued and %d labels; ceiling %.0f",
			allocs, nodes, valued, labels, ceiling)
	}
}
