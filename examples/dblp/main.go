// DBLP: duplicate-entry detection in a bibliography. A key the data
// *fails* to satisfy while the corresponding FD holds is exactly a
// redundancy (Definition 11); here, duplicated paper entries make
// {./author, ./title} determine ./year without identifying articles,
// and the witness groups are the duplicate clusters a curator would
// merge.
//
//	go run ./examples/dblp
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

func main() {
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	// Generate a deterministic DBLP-style bibliography whose paper
	// pool is sampled with replacement — the classic duplicated-entry
	// pathology of casually curated bibliographies.
	ds := xmlgen.DBLP(xmlgen.DBLPParams{Venues: 5, ArticlesPerVenue: 30, PaperPool: 60, Seed: 11})
	doc := ds.Tree

	res, err := discoverxfd.Discover(doc, ds.Schema, nil)
	if err != nil {
		log.Fatal(err)
	}

	article := discoverxfd.Path("/dblp/venue/article")

	// 1. The entry key is a real key.
	for _, k := range res.Keys {
		if k.Class == article && len(k.LHS) == 1 && k.LHS[0] == "./key" {
			fmt.Println("entry keys are unique: {./key} is an XML Key of C_article")
		}
	}

	// 2. {./author, ./title} determines ./year but is NOT a key: the
	// witness groups are duplicate entries.
	h, err := eng.BuildHierarchy(ctx, doc, ds.Schema)
	if err != nil {
		log.Fatal(err)
	}
	lhs := []discoverxfd.RelPath{"./author", "./title"}
	ev, err := eng.Evaluate(ctx, h, article, lhs, "./year")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n{./author, ./title} -> ./year holds=%v, LHS is key=%v\n", ev.Holds, ev.LHSIsKey)
	fmt.Printf("=> %d duplicate cluster(s) storing %d redundant year value(s)\n",
		ev.WitnessGroups, ev.Witnesses)

	// 3. List the largest duplicate clusters by grouping articles on
	// (author set, title) directly from the tree.
	type cluster struct {
		title string
		keys  []string
	}
	groups := map[string]*cluster{}
	for _, v := range doc.Root.ChildrenLabeled("venue") {
		for _, a := range v.ChildrenLabeled("article") {
			var authors []string
			for _, au := range a.ChildrenLabeled("author") {
				authors = append(authors, au.Value)
			}
			sort.Strings(authors)
			title := a.Child("title").Value
			sig := fmt.Sprintf("%v|%s", authors, title)
			if groups[sig] == nil {
				groups[sig] = &cluster{title: title}
			}
			groups[sig].keys = append(groups[sig].keys, a.Child("key").Value)
		}
	}
	var dups []*cluster
	for _, c := range groups {
		if len(c.keys) > 1 {
			dups = append(dups, c)
		}
	}
	sort.Slice(dups, func(i, j int) bool { return len(dups[i].keys) > len(dups[j].keys) })
	fmt.Printf("\ntop duplicate clusters (%d total):\n", len(dups))
	for i, c := range dups {
		if i == 5 {
			break
		}
		fmt.Printf("  %q x%d: %v\n", c.title, len(c.keys), c.keys)
	}

	// 4. The inter-relation FD: within a venue, year determines
	// volume.
	for _, fd := range res.FDs {
		if fd.Class == article && fd.RHS == "./volume" && fd.Inter {
			fmt.Printf("\ninter-relation FD discovered: %s\n", fd)
		}
	}
}
