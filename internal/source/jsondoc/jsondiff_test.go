package jsondoc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/window"
)

// This file pins ParseContext to a reference: the parser it replaced,
// kept as it was, which builds the same mapping one
// json.Decoder.Token at a time. ParseContext must accept and reject
// the same documents as the reference, under the same limits, and
// build the same trees and set hints, whatever sizes of reads the
// input arrives in. The one difference is on purpose: ParseContext
// refuses nesting deeper than maxNesting, as json.Unmarshal does,
// where Token streams any depth.

// refParser carries the decoding state: the token stream, the
// resource guard, and the set-element hints collected from arrays.
type refParser struct {
	ctx    context.Context
	dec    *json.Decoder
	lim    datatree.ParseLimits
	nodes  int
	tokens int
	hints  map[schema.Path]bool
}

// refParseContext is the reference ParseContext.
// Cancellation is checked periodically between decoder tokens;
// exceeding a limit, malformed JSON, or an unrepresentable member
// name aborts the parse with a "jsondoc:" error.
func refParseContext(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber() // keep number literals verbatim (and member order deterministic)
	p := &refParser{ctx: ctx, dec: dec, lim: lim, hints: make(map[schema.Path]bool)}

	tok, err := p.next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("jsondoc: document is empty")
		}
		return nil, err
	}
	var root *datatree.Node
	switch d, ok := tok.(json.Delim); {
	case ok && d == '{':
		if root, err = p.rootObject(); err != nil {
			return nil, err
		}
	case ok && d == '[':
		root = &datatree.Node{Label: SyntheticRoot}
		p.nodes++
		if err := p.array(root, ItemLabel, schema.PathOf(SyntheticRoot).Child(ItemLabel), 2); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("jsondoc: top-level value must be an object or array, got %v", tok)
	}
	if _, err := p.dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jsondoc: trailing data after the document (offset %d)", p.dec.InputOffset())
	}
	if err := p.normalizeMixed(root); err != nil {
		return nil, err
	}
	t := datatree.NewTree(root)
	paths := make([]schema.Path, 0, len(p.hints))
	for h := range p.hints {
		paths = append(paths, h)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
	for _, h := range paths {
		t.HintSet(h)
	}
	return t, nil
}

// rootObject parses the top-level object (its '{' already consumed):
// a single member holding an object names the root element, anything
// else lands under the synthetic root. The decoder has no lookahead,
// so the first member is parsed as the root candidate and demoted
// under the synthetic root if a second member follows.
func (p *refParser) rootObject() (*datatree.Node, error) {
	rootPath := schema.PathOf(SyntheticRoot)
	if !p.dec.More() { // {}
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		return &datatree.Node{Label: SyntheticRoot}, p.closeObject()
	}
	key, err := p.memberKey()
	if err != nil {
		return nil, err
	}
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); ok && d == '{' {
		// Candidate {"label": {...}}: parse the object as if it were
		// the root element, then check for a second member.
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		cand := &datatree.Node{Label: key}
		if err := p.members(cand, schema.PathOf(key), 2); err != nil {
			return nil, err
		}
		if !p.dec.More() {
			return cand, p.closeObject()
		}
		// A second member follows: demote the candidate under the
		// synthetic root, re-anchoring the hints its subtree recorded.
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		root := &datatree.Node{Label: SyntheticRoot}
		cand.Parent = root
		root.Children = append(root.Children, cand)
		p.reprefixHints(rootPath)
		return root, p.members(root, rootPath, 2)
	}
	if err := p.addNodes(1); err != nil {
		return nil, err
	}
	root := &datatree.Node{Label: SyntheticRoot}
	if err := p.member(root, key, tok, rootPath, 2); err != nil {
		return nil, err
	}
	return root, p.members(root, rootPath, 2)
}

// reprefixHints re-anchors every recorded hint path under prefix —
// needed when the root-candidate subtree turns out to live below the
// synthetic root.
func (p *refParser) reprefixHints(prefix schema.Path) {
	moved := make(map[schema.Path]bool, len(p.hints))
	for h := range p.hints {
		moved[schema.Path(string(prefix)+string(h))] = true
	}
	p.hints = moved
}

// members parses the remaining members of an object whose '{' has
// been consumed, attaching children to parent, and consumes the
// closing '}'.
func (p *refParser) members(parent *datatree.Node, path schema.Path, depth int) error {
	for p.dec.More() {
		key, err := p.memberKey()
		if err != nil {
			return err
		}
		tok, err := p.next()
		if err != nil {
			return err
		}
		if err := p.member(parent, key, tok, path, depth); err != nil {
			return err
		}
	}
	return p.closeObject()
}

// member attaches one object member (its key and first value token
// already read) to parent. Array values attach one child per array
// member directly — no wrapper node — and hint the path repeatable.
func (p *refParser) member(parent *datatree.Node, key string, tok json.Token, path schema.Path, depth int) error {
	if d, ok := tok.(json.Delim); ok && d == '[' {
		return p.array(parent, key, path.Child(key), depth)
	}
	return p.value(tok, parent, key, path.Child(key), depth)
}

// array parses the members of an array (its '[' consumed), attaching
// each as a child of parent labeled label, and hints the element path
// repeatable. An empty array attaches nothing: the element is
// missing.
func (p *refParser) array(parent *datatree.Node, label string, path schema.Path, depth int) error {
	if err := validLabel(label); err != nil {
		return err
	}
	p.hints[path] = true
	for p.dec.More() {
		tok, err := p.next()
		if err != nil {
			return err
		}
		if err := p.value(tok, parent, label, path, depth); err != nil {
			return err
		}
	}
	tok, err := p.next()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != ']' {
		return fmt.Errorf("jsondoc: offset %d: expected ']', got %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// value attaches one JSON value (its first token already read) as a
// child of parent labeled label.
func (p *refParser) value(tok json.Token, parent *datatree.Node, label string, path schema.Path, depth int) error {
	if err := validLabel(label); err != nil {
		return err
	}
	if err := p.checkDepth(depth); err != nil {
		return err
	}
	if err := p.addNodes(1); err != nil {
		return err
	}
	switch v := tok.(type) {
	case json.Delim:
		switch v {
		case '{':
			child := parent.AddChild(label)
			return p.members(child, path, depth+1)
		case '[':
			// An array directly inside an array: JSON gives its
			// members no name, so wrap them in a record of "item"s.
			child := parent.AddChild(label)
			return p.array(child, ItemLabel, path.Child(ItemLabel), depth+1)
		default:
			return fmt.Errorf("jsondoc: offset %d: unexpected %q", p.dec.InputOffset(), v.String())
		}
	case string:
		parent.AddLeaf(label, v)
	case json.Number:
		parent.AddLeaf(label, v.String())
	case bool:
		if v {
			parent.AddLeaf(label, "true")
		} else {
			parent.AddLeaf(label, "false")
		}
	case nil:
		parent.AddChild(label) // present but null: a valueless leaf
	default:
		return fmt.Errorf("jsondoc: offset %d: unexpected token %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// memberKey reads an object member key and validates it as an element
// label.
func (p *refParser) memberKey() (string, error) {
	tok, err := p.next()
	if err != nil {
		return "", err
	}
	key, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("jsondoc: offset %d: expected object key, got %v", p.dec.InputOffset(), tok)
	}
	return key, validLabel(key)
}

// closeObject consumes a '}' token.
func (p *refParser) closeObject() error {
	tok, err := p.next()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '}' {
		return fmt.Errorf("jsondoc: offset %d: expected '}', got %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// next reads one decoder token, ticking the cancellation check.
func (p *refParser) next() (json.Token, error) {
	p.tokens++
	if p.tokens%ctxCheckInterval == 0 && p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return nil, fmt.Errorf("jsondoc: parse cancelled: %w", err)
		}
	}
	tok, err := p.dec.Token()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("jsondoc: JSON parse error: %w", err)
	}
	return tok, nil
}

// checkDepth enforces ParseLimits.MaxDepth (the root node is depth 1,
// like the XML parser's element nesting).
func (p *refParser) checkDepth(depth int) error {
	if p.lim.MaxDepth > 0 && depth > p.lim.MaxDepth {
		return fmt.Errorf("jsondoc: maximum nesting depth %d exceeded", p.lim.MaxDepth)
	}
	return nil
}

// addNodes counts freshly built nodes against ParseLimits.MaxNodes.
func (p *refParser) addNodes(n int) error {
	p.nodes += n
	if p.lim.MaxNodes > 0 && p.nodes > p.lim.MaxNodes {
		return fmt.Errorf("jsondoc: maximum node count %d exceeded", p.lim.MaxNodes)
	}
	return nil
}

// normalizeMixed rewrites heterogeneous paths — paths holding both
// valued leaves and record nodes, as a mixed array like [1, {"a": 2}]
// produces — by moving each leaf's value into an "@text" child, the
// XML front-end's mixed-content convention. Without this the inferred
// schema (which must pick one payload kind per path) could not accept
// the tree. Conversions can cascade one level (the new "@text" leaf
// may itself share a path with records from the data), so the pass
// repeats until it converges; each round strictly moves values deeper
// along paths that already existed, so the depth of the original
// document bounds the rounds.
func (p *refParser) normalizeMixed(root *datatree.Node) error {
	const valued, complex_ = 1, 2
	for {
		flags := make(map[schema.Path]int)
		var scan func(n *datatree.Node, path schema.Path)
		scan = func(n *datatree.Node, path schema.Path) {
			if n.HasValue {
				flags[path] |= valued
			}
			if len(n.Children) > 0 {
				flags[path] |= complex_
			}
			for _, c := range n.Children {
				scan(c, path.Child(c.Label))
			}
		}
		rootPath := schema.PathOf(root.Label)
		scan(root, rootPath)

		converted := false
		var rewrite func(n *datatree.Node, path schema.Path) error
		rewrite = func(n *datatree.Node, path schema.Path) error {
			if n.HasValue && flags[path] == valued|complex_ {
				if err := p.addNodes(1); err != nil {
					return err
				}
				n.AddLeaf(datatree.TextLabel, n.Value)
				n.Value, n.HasValue = "", false
				converted = true
			}
			for _, c := range n.Children {
				if err := rewrite(c, path.Child(c.Label)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rewrite(root, rootPath); err != nil {
			return err
		}
		if !converted {
			return nil
		}
	}
}

// diffLimits are the limit sets every differential case runs under:
// the defaults, and bounds tight enough that small inputs hit them.
var diffLimits = []datatree.ParseLimits{datatree.DefaultLimits(), {MaxDepth: 3, MaxNodes: 12}}

// diffReaders are the shapes of input ParseContext is held to the
// reference under: whole, one byte per read, half of each read, and
// the last bytes arriving together with io.EOF. The small reads put
// every string, escape and number across a window refill.
var diffReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// sameNodes describes the first difference between two subtrees —
// label, key, value, child order, parent links — or returns "".
func sameNodes(a, b *datatree.Node, path string) string {
	path += "/" + a.Label
	switch {
	case a.Label != b.Label:
		return fmt.Sprintf("%s: label %q vs %q", path, a.Label, b.Label)
	case a.Key != b.Key:
		return fmt.Sprintf("%s: key %d vs %d", path, a.Key, b.Key)
	case a.HasValue != b.HasValue || a.Value != b.Value:
		return fmt.Sprintf("%s: value %v %q vs %v %q", path, a.HasValue, a.Value, b.HasValue, b.Value)
	case len(a.Children) != len(b.Children):
		return fmt.Sprintf("%s: %d vs %d children", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Sprintf("%s: child %d has a wrong parent link", path, i)
		}
		if d := sameNodes(a.Children[i], b.Children[i], path); d != "" {
			return d
		}
	}
	return ""
}

// checkJSONDiff runs ParseContext, through every reader of
// diffReaders, and the reference on input under each limit set.
func checkJSONDiff(t *testing.T, input string) {
	t.Helper()
	for _, lim := range diffLimits {
		want, refErr := refParseContext(context.Background(), strings.NewReader(input), lim)
		for _, rd := range diffReaders {
			got, err := ParseContext(context.Background(), rd.wrap(strings.NewReader(input)), lim)
			if refErr == nil && err != nil && strings.Contains(err.Error(), "nesting") && !json.Valid([]byte(input)) {
				continue // deeper than maxNesting: refused on purpose
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("via %s, limits %+v: err %v, reference err %v\ninput: %q", rd.name, lim, err, refErr, input)
			}
			if err != nil {
				continue
			}
			if d := sameNodes(got.Root, want.Root, ""); d != "" {
				t.Fatalf("via %s, limits %+v: %s\ninput: %q", rd.name, lim, d, input)
			}
			if got.Size() != want.Size() {
				t.Fatalf("via %s, limits %+v: size %d vs %d\ninput: %q", rd.name, lim, got.Size(), want.Size(), input)
			}
			if g, w := fmt.Sprint(got.SetHints()), fmt.Sprint(want.SetHints()); g != w {
				t.Fatalf("via %s, limits %+v: set hints %s, reference %s\ninput: %q", rd.name, lim, g, w, input)
			}
		}
	}
}

// jsonDiffSeeds covers the grammar and the decoding ParseContext
// mirrors of encoding/json — escapes, surrogates, invalid UTF-8,
// control characters, number forms, white space, trailing data — and
// the mapping: root selection and demotion, arrays, nulls, duplicate
// keys, mixed arrays and labels.
var jsonDiffSeeds = []string{
	`{"r": {"a": "x", "b": [1, 2], "c": null, "d": true, "e": false, "f": {}}}`,
	`{"a": 1, "b": 2}`, `{"a": [1, 2]}`, `[{"x": 1}, {"x": 2}]`, `{}`, `[]`, `[[]]`, `[[1, [2]], []]`,
	`{"a": {"xs": [5]}, "b": 1}`, `{"a": {"xs": [5]}, "a": {"xs": [6, {"y": [7]}]}}`, `{"a": {}, "b": {}}`,
	`{"a": {"b": 1}, "document": {"b": [2]}}`, `{"a": {"a": {"a": 1}}}`,
	`{"r": {"a": 1, "a": 2, "a": {"b": 3}}}`, `{"r": {"xs": [1, {"a": 2}, "s"]}}`,
	`{"r": {"xs": [{"@text": {"x": 1}}, "scalar"]}}`, `{"r": {"xs": [[1], 2]}}`, `{"r": {"x": 1, "x": {"y": 2}}}`,
	// Strings: escapes, surrogates, UTF-8, control characters.
	`{"r": {"s": "a\"b\\c\/d\be\ff\ng\rh\ti"}}`, `{"r": {"s": "\u0041\u00e9\u4e2d\uFFFF"}}`,
	`{"r": {"s": "\ud83d\ude00"}}`, `{"r": {"s": "\ud83d"}}`, `{"r": {"s": "\ude00x"}}`, `{"r": {"s": "\ud83d\u0041"}}`,
	`{"r": {"s": "\ud83d\ud83d\ude00"}}`, `{"r": {"s": "\ud83dx\ude00"}}`, "{\"r\": {\"s\": \"\xff\xfe\"}}",
	"{\"r\": {\"s\": \"\xed\xa0\x80\"}}", "{\"r\": {\"s\": \"\xc3\"}}", "{\"r\": {\"s\": \"\u00e9\U0001F600\"}}",
	"{\"r\": {\"s\": \"a\x01b\"}}", "{\"r\": {\"s\": \"a\tb\"}}", "{\"r\": {\"s\": \"\x7f\"}}",
	`{"r": {"s": "\x"}}`, `{"r": {"s": "\'"}}`, `{"r": {"s": "\u12"}}`, `{"r": {"s": "\u12G4"}}`, `{"r": {"s": "abc`,
	`{"r": {"\u0061": 1, "a": 2}}`, `{"r": {"\u0000": 1}}`, `{"r": {"a\u002fb": 1}}`, "{\"r\": {\"\xff\": 1}}",
	`{"r": {"\ud800": 1}}`, `{"r": {"é": 1}}`,
	// Numbers.
	`{"r": {"n": [0, -0, 1e5, 1E+5, 1e-5, -1.50, 123456789012345678901234567890, 0.0e0]}}`,
	`{"r": {"n": 01}}`, `{"r": {"n": 1.}}`, `{"r": {"n": .5}}`, `{"r": {"n": -}}`, `{"r": {"n": +1}}`,
	`{"r": {"n": 1e}}`, `{"r": {"n": 1e+}}`, `{"r": {"n": 0x1}}`, `{"r": {"n": 1.5.5}}`, `{"r": {"n": -01}}`,
	`{"r": {"n": NaN}}`, `{"r": {"n": 1 2}}`, `[1]`, `[-]`, `[1`,
	// Literals.
	`{"r": {"t": [true, false, null]}}`, `{"r": {"t": tru}}`, `{"r": {"t": nul}}`, `{"r": {"t": True}}`,
	`{"r": {"t": truex}}`, `{"r": {"t": null1}}`,
	// White space, BOM, trailing data, empty input.
	" \t\r\n{ \"r\" : { \"a\" : [ 1 , 2 ] } } \n", "\ufeff{}", "{}\f", "\v{}", "", "   ",
	`{} {}`, `{}x`, `{}}`, `[]]`, `{} `, `42`, `"x"`, `null`, `true`, `-1`,
	// Broken structure.
	`{"a": 1,}`, `[1,]`, `{,}`, `[,1]`, `{"a" 1}`, `{"a": 1 "b": 2}`, `{"a"}`, `{1: 2}`, `{"a": }`,
	`{"a": [}`, `{"a": {]}`, `[1 2]`, `{"r": {"a": 1}`, `{"r": [`, `{"r": {`, `{"r"`, `{`, `[`, `]`, `}`, `:`,
	// Labels.
	`{"": 1}`, `{"r": {".": 1}}`, `{"r": {"..": 1}}`, `{"r": {"a/b": 1}}`, `{"r": {"a:b": 1}}`,
	`{"r": {"a b": 1}}`, `{"r": {"#c": 1}}`, `{"r": {"a,b": 1}}`, `{"r": {"a{b": 1}}`, `{"r": {"a}b": 1}}`,
	"{\"r\": {\"a\u0085b\": 1}}", `{"r": {"xs": [{"": 1}]}}`, `{"#r": {"a": 1}}`,
	// Limits: depth and node counts around the tight bounds.
	`{"r": {"a": {"b": {"c": 1}}}}`, `{"r": {"a": {"b": {}}}}`, `[[[1]]]`, `[[[[1]]]]`, `[[[]]]`, `[[[[]]]]`,
	`{"r": {"xs": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}}`, `{"r": {"xs": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}}`,
	`{"a": {"b": {"c": {}}}, "d": 1}`, `{"a": 1, "b": {"c": {"d": {}}}}`,
}

func TestParseJSONMatchesTokenReference(t *testing.T) {
	for _, s := range jsonDiffSeeds {
		checkJSONDiff(t, s)
	}
}

// TestParseJSONNesting pins the nesting bound: maxNesting levels of
// arrays or objects parse as the reference parses them, with no depth
// limit and with the defaults; one more is refused under any limits.
func TestParseJSONNesting(t *testing.T) {
	nested := func(levels int, obj bool) string {
		if obj { // the outermost object names the root
			return strings.Repeat(`{"a":`, levels-1) + "{}" + strings.Repeat("}", levels-1)
		}
		return strings.Repeat("[", levels) + strings.Repeat("]", levels)
	}
	for _, obj := range []bool{false, true} {
		for _, lim := range []datatree.ParseLimits{{}, datatree.DefaultLimits()} {
			ok := nested(maxNesting, obj)
			want, refErr := refParseContext(context.Background(), strings.NewReader(ok), lim)
			got, err := ParseContext(context.Background(), strings.NewReader(ok), lim)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%d levels (objects %v), limits %+v: err %v, reference err %v", maxNesting, obj, lim, err, refErr)
			}
			if err == nil {
				if d := sameNodes(got.Root, want.Root, ""); d != "" {
					t.Fatalf("%d levels (objects %v), limits %+v: %s", maxNesting, obj, lim, d)
				}
			}
			deep := nested(maxNesting+1, obj)
			if _, err := ParseContext(context.Background(), strings.NewReader(deep), lim); err == nil ||
				!strings.Contains(err.Error(), "nesting") {
				t.Fatalf("%d levels (objects %v), limits %+v: err %v, want the nesting bound", maxNesting+1, obj, lim, err)
			}
		}
	}
}

// TestParseJSONLongTokens holds ParseContext to the reference on a
// key, a string value and a number each longer than the window, so
// the window has to grow for a single token, and on a document many
// windows long.
func TestParseJSONLongTokens(t *testing.T) {
	long := func(unit string) string { return strings.Repeat(unit, window.Size/len(unit)+7) }
	for _, input := range []string{
		`{"r": {"` + long("k") + `": 1, "` + long("é") + `": [2]}}`,
		`{"r": {"s": "` + long(`a\"\u00e9\ud83d\ude00`) + `", "t": "` + long("x") + `"}}`,
		`{"r": {"n": ` + long("9") + `, "f": 1.` + long("5") + `e-` + long("0") + `}}`,
		`{"r": {"rows": [` + strings.Repeat(`{"a": 1, "b": "two", "c": [true, null]}, `, window.Size/32) + `{}]}}`,
		`{"r": {"pad":` + long(" ") + `1}}`,
	} {
		checkJSONDiff(t, input)
	}
}

// TestParseJSONReaderErrorMidDocument checks that a read error part
// way through a document ends the parse with an error that still
// wraps the reader's.
func TestParseJSONReaderErrorMidDocument(t *testing.T) {
	errBoom := errors.New("boom")
	doc := `{"r": {"rows": [` + strings.Repeat(`{"a": 1, "b": "two"}, `, window.Size/8) + `{}]}}`
	for _, cut := range []int{0, 3, 9, len(doc) / 2, len(doc) - 1, len(doc)} {
		for _, rd := range diffReaders {
			failing := rd.wrap(io.MultiReader(strings.NewReader(doc[:cut]), iotest.ErrReader(errBoom)))
			if _, err := ParseContext(context.Background(), failing, datatree.DefaultLimits()); !errors.Is(err, errBoom) {
				t.Fatalf("via %s, cut at %d: err %v, want one wrapping %v", rd.name, cut, err, errBoom)
			}
		}
	}
}

// FuzzParseJSONDiff holds ParseContext to the Token-based reference
// on arbitrary input: the same accept/reject decision under each
// limit set, and identical trees and set hints.
func FuzzParseJSONDiff(f *testing.F) {
	for _, s := range jsonDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkJSONDiff(t, input)
	})
}
