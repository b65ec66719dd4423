package discoverxfd_test

import (
	"strings"
	"testing"

	"discoverxfd"
)

// The fuzz targets guard the text parsers a hostile input reaches
// first: the constraint notation (single FD, constraint file), the
// nested-relational schema notation, and the JSON document front-end.
// Each asserts the parser never panics and that successful parses are
// canonical: rendering a parsed value and reparsing it reproduces the
// value exactly, so the printed notation is always machine-readable
// again. CI runs each target briefly (-fuzz smoke step); the seed
// corpus covers every syntactic form the grammars accept.

func FuzzParseFD(f *testing.F) {
	f.Add("{./ISBN} -> ./title w.r.t. C(/warehouse/state/store/book)")
	f.Add("{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)")
	f.Add("{} -> ./title w.r.t. C(/dblp/article)")
	f.Add("{.} -> ../name w.r.t. C(/mondial/country/city)")
	f.Add("{../../name} -> ./population w.r.t. C(/mondial/country/province/city)")
	f.Add("{./ISBN} KEY of C(/warehouse/state/store/book)")
	f.Add("x")
	f.Fuzz(func(t *testing.T, s string) {
		fd, err := discoverxfd.ParseFD(s)
		if err != nil {
			return
		}
		again, err := discoverxfd.ParseFD(fd.String())
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", fd.String(), s, err)
		}
		if again.String() != fd.String() {
			t.Fatalf("round-trip not canonical for %q: %q vs %q", s, fd.String(), again.String())
		}
	})
}

func FuzzParseConstraints(f *testing.F) {
	f.Add("{./ISBN} -> ./title w.r.t. C(/warehouse/state/store/book)\n{./contact} KEY of C(/warehouse/state/store)")
	f.Add("# comment\n\n{./a} KEY of C(/r/x)\n")
	f.Add("{./a, ./b} -> ./c w.r.t. C(/r/x)")
	f.Add("not a constraint")
	f.Fuzz(func(t *testing.T, text string) {
		cs, err := discoverxfd.ParseConstraints(text)
		if err != nil {
			return
		}
		for _, c := range cs {
			again, err := discoverxfd.ParseConstraint(c.String())
			if err != nil {
				t.Fatalf("reparse of %q (from %q): %v", c.String(), text, err)
			}
			if again.String() != c.String() {
				t.Fatalf("round-trip not canonical in %q: %q vs %q", text, c.String(), again.String())
			}
		}
	})
}

// FuzzLoadJSON guards the JSON front-end: no input may panic or
// exhaust resources past the parse limits, and every accepted
// document must uphold the load-path invariants — its inferred schema
// accepts the tree it was inferred from, and that schema's text form
// is canonical (prints and reparses to itself), so a JSON-loaded
// document can flow through every downstream API that a schema
// gatekeeps.
func FuzzLoadJSON(f *testing.F) {
	f.Add(`{"warehouse": {"state": [{"name": "CA"}]}}`)
	f.Add(`{"a": 1, "b": 2}`)
	f.Add(`[{"x": 1}, {"x": 2}]`)
	f.Add(`{"r": {"xs": [1, {"a": 2}, "s"], "n": null, "o": {}, "e": []}}`)
	f.Add(`{"r": {"m": [[1, 2], [3]], "f": 1.5e10, "b": [true, false]}}`)
	f.Add(`{"r": {"@text": "mixed", "k": "v"}}`)
	f.Add(`{}`)
	f.Add(`{"document": {"item": 1}}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, text string) {
		opts := &discoverxfd.Options{Limits: discoverxfd.Limits{MaxDepth: 64, MaxNodes: 4096}}
		doc, err := discoverxfd.NewEngine(opts).LoadJSON(t.Context(), strings.NewReader(text))
		if err != nil {
			return
		}
		s, err := discoverxfd.InferSchema(doc)
		if err != nil {
			t.Fatalf("accepted document but InferSchema failed for %q: %v", text, err)
		}
		if err := discoverxfd.Conform(doc, s); err != nil {
			t.Fatalf("inferred schema rejects its own tree for %q: %v\nschema:\n%s", text, err, s)
		}
		printed := s.String()
		again, err := discoverxfd.ParseSchema(printed)
		if err != nil {
			t.Fatalf("inferred schema does not reparse (from %q):\n%s\n%v", text, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("inferred schema print not canonical for %q:\n%s\nvs\n%s", text, printed, again.String())
		}
	})
}

func FuzzParseSchema(f *testing.F) {
	f.Add("warehouse: Rcd\n  state: SetOf Rcd\n    name: str\n")
	f.Add("dblp: Rcd\n  article: SetOf Rcd\n    key: str\n    author: SetOf str\n    year: int\n")
	f.Add("r: Rcd\n  x: float\n")
	f.Add("r: Rcd")
	f.Add(": :")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := discoverxfd.ParseSchema(text)
		if err != nil {
			return
		}
		printed := s.String()
		again, err := discoverxfd.ParseSchema(printed)
		if err != nil {
			t.Fatalf("reparse of printed schema failed (from %q):\n%s\n%v", text, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("schema print not canonical for %q:\n%s\nvs\n%s", text, printed, again.String())
		}
	})
}
