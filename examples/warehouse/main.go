// Warehouse: the paper's running example (Figure 1). The document
// stores books sold at stores grouped by state; the example walks
// through the four constraints of Section 2.2 — including the
// set-element constraints (3 and 4) that earlier XML FD notions
// cannot express, and the multi-hierarchy constraint (2) that needs
// inter-relation discovery — and shows how each is found and
// checked.
//
//	go run ./examples/warehouse
package main

import (
	"context"
	"fmt"
	"log"

	"discoverxfd"
)

const warehouseDoc = `
<warehouse>
  <state>
    <name>WA</name>
    <store>
      <contact><name>Borders</name><address>Seattle</address></contact>
      <book>
        <ISBN>0471771922</ISBN><author>Post</author>
        <title>Database Management Systems</title><price>74.99</price>
      </book>
      <book>
        <ISBN>0072465638</ISBN><author>Ramakrishnan</author><author>Gehrke</author>
        <title>DBMS</title><price>129.99</price>
      </book>
    </store>
  </state>
  <state>
    <name>KY</name>
    <store>
      <contact><name>Borders</name><address>Lexington</address></contact>
      <book>
        <ISBN>0072465638</ISBN><author>Gehrke</author><author>Ramakrishnan</author>
        <title>DBMS</title><price>129.99</price>
      </book>
      <book>
        <ISBN>0321197844</ISBN><author>Date</author>
        <title>DBMS</title><price>89.00</price>
      </book>
    </store>
    <store>
      <contact><name>WHSmith</name><address>Lexington</address></contact>
      <book>
        <ISBN>0072465638</ISBN><author>Ramakrishnan</author><author>Gehrke</author>
        <title>DBMS</title>
      </book>
      <book>
        <ISBN>0596000278</ISBN><author>Date</author>
        <title>XML in a Nutshell</title><price>39.95</price>
      </book>
    </store>
  </state>
</warehouse>`

func main() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	doc, err := discoverxfd.ParseDocument(warehouseDoc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := discoverxfd.Discover(doc, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	book := discoverxfd.Path("/warehouse/state/store/book")
	fmt.Println("The paper's four constraints, as discovered:")
	paperFDs := []struct {
		label string
		lhs   []discoverxfd.RelPath
		rhs   discoverxfd.RelPath
	}{
		{"Constraint 1 (same ISBN => same title)", []discoverxfd.RelPath{"./ISBN"}, "./title"},
		{"Constraint 2 (same store name + ISBN => same price)", []discoverxfd.RelPath{"../contact/name", "./ISBN"}, "./price"},
		{"Constraint 3 (same ISBN => same author SET)", []discoverxfd.RelPath{"./ISBN"}, "./author"},
		{"Constraint 4 (same author set + title => same ISBN)", []discoverxfd.RelPath{"./author", "./title"}, "./ISBN"},
	}
	for _, c := range paperFDs {
		found := false
		for _, fd := range res.FDs {
			if fd.Class == book && fd.RHS == c.rhs && sameLHS(fd.LHS, c.lhs) {
				found = true
				break
			}
		}
		status := "NOT FOUND"
		if found {
			status = "discovered"
		}
		fmt.Printf("  %-55s %s\n", c.label, status)
	}

	// Constraint 2 illustrates strong satisfaction of missing
	// elements: the WHSmith copy of ISBN 0072465638 has no price, yet
	// the constraint holds because no other WHSmith book shares that
	// ISBN. The plain intra-relation {./ISBN} -> ./price is violated.
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := eng.Evaluate(ctx, h, book, []discoverxfd.RelPath{"./ISBN"}, "./price")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n{./ISBN} -> ./price alone: holds=%v (violations=%d) — the missing\n", ev.Holds, ev.Violations)
	fmt.Println("price breaks it; only the inter-relation form with ../contact/name holds.")

	// Quantify the redundancy each FD witnesses (Definition 11).
	fmt.Println("\nRedundancy witnesses per discovered FD:")
	for _, r := range res.Redundancies {
		if r.FD.Class == book {
			fmt.Printf("  %-60s %d value(s)\n", fmt.Sprintf("{%s} -> %s", join(r.FD.LHS), r.FD.RHS), r.RedundantValues)
		}
	}
}

func sameLHS(a, b []discoverxfd.RelPath) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[discoverxfd.RelPath]bool{}
	for _, p := range a {
		m[p] = true
	}
	for _, p := range b {
		if !m[p] {
			return false
		}
	}
	return true
}

func join(ps []discoverxfd.RelPath) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += ", "
		}
		s += string(p)
	}
	return s
}
