// Refine: the schema-refinement workflow the paper's introduction
// motivates — discover redundancies in a casually designed document,
// rank the repairs, apply the best one, and verify by re-running
// discovery that the redundancy is gone.
//
//	go run ./examples/refine
package main

import (
	"context"
	"fmt"
	"log"

	"discoverxfd"
)

// A casually designed product feed: supplier info is repeated on
// every offer of a supplier, and product names on every offer of a
// product.
const feed = `
<feed>
  <offer><product>P1</product><pname>Espresso Machine</pname>
         <supplier>S1</supplier><scity>Turin</scity><price>120</price></offer>
  <offer><product>P1</product><pname>Espresso Machine</pname>
         <supplier>S2</supplier><scity>Lyon</scity><price>115</price></offer>
  <offer><product>P2</product><pname>Grinder</pname>
         <supplier>S1</supplier><scity>Turin</scity><price>45</price></offer>
  <offer><product>P3</product><pname>Kettle</pname>
         <supplier>S2</supplier><scity>Lyon</scity><price>30</price></offer>
  <offer><product>P2</product><pname>Grinder</pname>
         <supplier>S3</supplier><scity>Porto</scity><price>49</price></offer>
  <offer><product>P3</product><pname>Kettle</pname>
         <supplier>S1</supplier><scity>Turin</scity><price>28</price></offer>
</feed>`

func main() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	doc, err := discoverxfd.ParseDocument(feed)
	if err != nil {
		log.Fatal(err)
	}
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("suggested refinements (best first):")
	sugs := discoverxfd.SuggestRefinements(h, res)
	for _, s := range sugs {
		fmt.Printf("  %s\n", s)
	}
	if len(sugs) == 0 {
		fmt.Println("  none — the document is already redundancy-free")
		return
	}

	// Apply every applicable repair in sequence, rebuilding the
	// hierarchy after each (the document and schema change).
	applied := 0
	for {
		h, err = eng.BuildHierarchy(ctx, doc, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err = eng.DiscoverHierarchy(ctx, h)
		if err != nil {
			log.Fatal(err)
		}
		sugs = discoverxfd.SuggestRefinements(h, res)
		var next *discoverxfd.Suggestion
		for i := range sugs {
			if sugs[i].Applicable {
				next = &sugs[i]
				break
			}
		}
		if next == nil {
			break
		}
		removed, err := discoverxfd.ApplyRefinement(doc, h, next.FD)
		if err != nil {
			log.Fatal(err)
		}
		applied++
		fmt.Printf("\napplied: %s\n  removed %d redundant node(s)\n", next, removed)
	}

	fmt.Printf("\nafter %d repair(s), remaining redundancy-indicating FDs over leaf data:\n", applied)
	for _, r := range res.Redundancies {
		fmt.Printf("  %s\n", r)
	}
	fmt.Println("\nrefined document:")
	fmt.Println(doc.XMLString())
}
