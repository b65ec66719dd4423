package jsondoc

import (
	"fmt"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
)

// allocDoc is a fixed document with nested objects, arrays, arrays of
// arrays, nulls, escapes and repeated member names.
func allocDoc() string {
	var b strings.Builder
	b.WriteString(`{"store": {"name": "s", "books": [`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"id": %d, "isbn": "%d", "authors": ["A%d", "B%d"], "title": "T \"%d\"", `+
			`"price": %d.5, "stock": null, "tags": [[1, 2], []], "meta": {"ok": true}}`, i, i, i%20, i%17, i%50, i)
	}
	b.WriteString("]}}")
	return b.String()
}

// TestParseJSONAllocs gates the allocations of a parse absolutely: at
// most one per node, one per valued node (its value string) and one
// per distinct label, plus a constant for the parser's own state. A
// parser that allocates per token or per value path fails it.
func TestParseJSONAllocs(t *testing.T) {
	doc := allocDoc()
	tr, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	nodes, valued := 0, 0
	labels := map[string]bool{}
	var walk func(n *datatree.Node)
	walk = func(n *datatree.Node) {
		nodes++
		if n.HasValue {
			valued++
		}
		labels[n.Label] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	const slack = 32
	ceiling := float64(nodes + valued + len(labels) + slack)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %d valued, %d labels: %.0f allocations, ceiling %.0f", nodes, valued, len(labels), allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("Parse made %.0f allocations for %d nodes, %d valued and %d labels; ceiling %.0f",
			allocs, nodes, valued, len(labels), ceiling)
	}
}
