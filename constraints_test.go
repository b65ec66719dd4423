package discoverxfd_test

import (
	"context"
	"strings"
	"testing"

	"discoverxfd"
)

func TestCheckConstraints(t *testing.T) {
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(`
{./isbn} -> ./title w.r.t. C(/library/shelf/book)
{./isbn} -> ./publisher w.r.t. C(/library/shelf/book)
{../room} -> ./publisher w.r.t. C(/library/shelf/book)
{./room} KEY of C(/library/shelf)
{./isbn} KEY of C(/library/shelf/book)
`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := discoverxfd.NewEngine(nil).CheckConstraints(context.Background(), h, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true, false}
	for i, r := range results {
		if r.Holds != want[i] {
			t.Errorf("%s: holds=%v, want %v", r.Constraint, r.Holds, want[i])
		}
	}
	// The satisfied FD reports its witness; the violated one its g3.
	if results[0].Witnesses != 1 {
		t.Errorf("isbn->title witnesses = %d, want 1", results[0].Witnesses)
	}
	if results[2].G3Error <= 0 {
		t.Errorf("violated FD should carry a positive g3 error")
	}
	if !strings.Contains(results[2].String(), "VIOLATED") {
		t.Errorf("String: %q", results[2].String())
	}
}

func TestCheckConstraintsUnknownClass(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(`{./x} KEY of C(/library/nothere)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := discoverxfd.NewEngine(nil).CheckConstraints(context.Background(), h, cs); err == nil {
		t.Fatal("unknown class must error")
	}
}

// TestDiscoveredConstraintsRecheck round-trips discovery output
// through the notation parser and the checker: everything Discover
// reports must re-verify from its printed form.
func TestDiscoveredConstraintsRecheck(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverxfd.NewEngine(nil).DiscoverHierarchy(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, fd := range res.FDs {
		lines = append(lines, fd.String())
	}
	for _, k := range res.Keys {
		lines = append(lines, k.String())
	}
	cs, err := discoverxfd.ParseConstraints(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("discovery output failed to re-parse: %v", err)
	}
	results, err := discoverxfd.NewEngine(nil).CheckConstraints(context.Background(), h, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Holds {
			t.Errorf("discovered constraint fails its own recheck: %s", r.Constraint)
		}
	}
}
