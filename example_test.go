package discoverxfd_test

import (
	"context"
	"fmt"
	"log"

	"discoverxfd"
)

// The examples below double as godoc documentation and as tests:
// their Output comments are verified by `go test`.

func ExampleDiscover() {
	doc, err := discoverxfd.ParseDocument(`
<library>
  <shelf>
    <book><isbn>1</isbn><title>Go</title></book>
    <book><isbn>2</isbn><title>XML</title></book>
  </shelf>
  <shelf>
    <book><isbn>1</isbn><title>Go</title></book>
  </shelf>
</library>`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := discoverxfd.Discover(doc, nil, nil) // schema inferred
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Redundancies {
		fmt.Println(r)
	}
	// Output:
	// {./title} -> ./isbn w.r.t. C(/library/shelf/book)  [1 redundant value(s) in 1 group(s)]
	// {./isbn} -> ./title w.r.t. C(/library/shelf/book)  [1 redundant value(s) in 1 group(s)]
}

func ExampleEngine_Evaluate() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	doc, _ := discoverxfd.ParseDocument(`
<lib>
  <b><isbn>1</isbn><a>X</a><a>Y</a></b>
  <b><isbn>1</isbn><a>Y</a><a>X</a></b>
  <b><isbn>2</isbn><a>Z</a></b>
</lib>`)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	// ./a names the author SET: the reordered collections agree.
	ev, err := eng.Evaluate(ctx, h, "/lib/b",
		[]discoverxfd.RelPath{"./isbn"}, "./a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("holds=%v key=%v witnesses=%d\n", ev.Holds, ev.LHSIsKey, ev.Witnesses)
	// Output:
	// holds=true key=false witnesses=1
}

func ExampleParseConstraint() {
	c, err := discoverxfd.ParseConstraint(
		"{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.FD.Class)
	fmt.Println(c.FD.LHS)
	fmt.Println(c.IsKey)
	// Output:
	// /warehouse/state/store/book
	// [../contact/name ./ISBN]
	// false
}

func ExampleEngine_CheckConstraints() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	doc, _ := discoverxfd.ParseDocument(`
<shop>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>1</sku><name>Gel Pen</name></item>
</shop>`)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	cs, _ := discoverxfd.ParseConstraints(`{./sku} -> ./name w.r.t. C(/shop/item)`)
	results, err := eng.CheckConstraints(ctx, h, cs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(results[0].Holds, results[0].Violations)
	// Output:
	// false 1
}

func ExampleSuggestRefinements() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	doc, _ := discoverxfd.ParseDocument(`
<shop>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>2</sku><name>Pad</name></item>
</shop>`)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range discoverxfd.SuggestRefinements(h, res) {
		fmt.Println(s)
	}
	// Output:
	// move ./name of C(/shop/item) into new element <item_name_by_sku> keyed by {./sku}: saves 1 value(s)
	// move ./sku of C(/shop/item) into new element <item_sku_by_name> keyed by {./name}: saves 1 value(s)
}
