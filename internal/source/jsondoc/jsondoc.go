// Package jsondoc is the JSON document source: it parses JSON
// documents into the same data-tree model the XML front-end produces,
// so schema inference, the hierarchical representation, and discovery
// run unchanged (the nested-dependency mapping of Mior 2021 lands
// exactly on the paper's set-element model). The mapping:
//
//	object member k: {...}   →  one child node labeled k (a singleton
//	                            record element)
//	object member k: [...]   →  one child labeled k per array member,
//	                            and the path is hinted repeatable
//	                            (arrays → set elements, even with one
//	                            member)
//	object member k: scalar  →  a leaf child labeled k carrying the
//	                            value (numbers keep their literal
//	                            spelling, booleans become "true"/
//	                            "false")
//	object member k: null    →  a valueless leaf child — present but
//	                            null, distinct from a missing member
//	                            (the key still shapes the inferred
//	                            schema; an absent key does not)
//	array inside an array    →  a wrapper record whose members are
//	                            children labeled "item" (hinted
//	                            repeatable)
//	empty array              →  no node at all (the member is missing;
//	                            sibling occurrences still shape the
//	                            schema)
//
// The document root follows the common export convention: a top-level
// object with exactly one member whose value is an object names the
// root element; any other top-level object or array becomes the
// payload of a synthetic root labeled "document".
//
// Mixed arrays such as [1, {"a": 2}] hold scalars and records at one
// path; the scalar members are normalized into records carrying their
// value under "@text" — the same convention the XML front-end uses
// for mixed content — so the inferred schema always accepts the tree.
//
// Member names become element labels and must survive the path and
// schema-text notations, so names that are empty, ".", "..", start
// with '#', or contain '/', ':', ',', '{', '}', whitespace, or
// control characters are rejected as unrepresentable.
package jsondoc

import (
	"context"
	"fmt"
	"io"
	"strings"
	"unicode"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/window"
)

// SyntheticRoot is the root label given to documents whose top level
// does not name one (a bare array, or an object with several
// members).
const SyntheticRoot = "document"

// ItemLabel is the element label given to the members of an array
// nested directly inside another array, which JSON leaves unnamed.
const ItemLabel = "item"

// Doc is the JSON source backend.
type Doc struct{}

// New returns the JSON source backend.
func New() Doc { return Doc{} }

// Format returns "json".
func (Doc) Format() string { return "json" }

// Extensions returns the file extensions the JSON format claims.
func (Doc) Extensions() []string { return []string{".json"} }

// Sniff reports whether the content prefix looks like a JSON
// document: the first non-whitespace byte opens an object or array.
func (Doc) Sniff(prefix []byte) bool {
	for _, b := range prefix {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{', '[':
			return true
		default:
			return false
		}
	}
	return false
}

// Load parses a JSON document into a data tree (ParseContext).
func (Doc) Load(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	return ParseContext(ctx, r, lim)
}

// Parse reads a JSON document from r under the parser's default
// limits; use ParseContext for explicit limits or cancellation.
func Parse(r io.Reader) (*datatree.Tree, error) {
	return ParseContext(context.Background(), r, datatree.DefaultLimits())
}

// ParseString is Parse over a string.
func ParseString(s string) (*datatree.Tree, error) {
	return Parse(strings.NewReader(s))
}

// ctxCheckInterval is how many values are parsed between
// context-cancellation checks.
const ctxCheckInterval = 1024

// maxNesting bounds how deeply arrays and objects may nest, whatever
// the limits: it is the bound json.Unmarshal applies, and it keeps
// the parser's recursion to a bounded stack when MaxDepth is 0.
const maxNesting = 10000

// parser is a recursive-descent JSON parser over a refill window. It
// accepts the grammar encoding/json accepts and decodes strings and
// numbers as json.Decoder does with UseNumber: escapes and surrogate
// pairs are decoded, invalid UTF-8 and lone surrogates become U+FFFD,
// and numbers keep their literal spelling. It builds the tree as it
// reads, with nodes and child lists from an Arena.
type parser struct {
	ctx    context.Context
	w      window.Reader
	lim    datatree.ParseLimits
	nodes  int
	values int
	arena  datatree.Arena
	// kids holds the children of the open objects, each one's above
	// its ancestors'; an object's part becomes its Children when it
	// closes.
	kids []*datatree.Node
	// unq holds a string's decoded bytes when it had escapes or
	// invalid UTF-8.
	unq []byte
	// labels maps each distinct member name to its checked label.
	labels map[string]string
	// paths are the distinct element paths of the document, a node's
	// path being an index into it.
	paths []pathEntry
}

// pathEntry is one element path: the index of its parent path (-1 for
// a root), its last label, its child paths by label, and what was
// seen at it.
type pathEntry struct {
	parent int32
	label  string
	kids   map[string]int32
	flags  uint8
}

// Flags of a pathEntry.
const (
	hinted      = 1 << iota // an array's members sit at the path
	valued                  // a node at the path holds a value
	hasChildren             // a node at the path has children
)

// ParseContext is Parse with explicit resource limits and a context.
// Cancellation is checked periodically between values; exceeding a
// limit, malformed JSON, or an unrepresentable member name aborts the
// parse with a "jsondoc:" error. A read error is wrapped into it.
func ParseContext(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	p := &parser{ctx: ctx, lim: lim, labels: make(map[string]string)}
	p.w.Init(r)
	defer p.w.Release()

	c, err := p.nonSpace()
	if err != nil {
		return nil, err
	}
	var root *datatree.Node
	switch c {
	case -1:
		return nil, fmt.Errorf("jsondoc: document is empty")
	case '{':
		p.w.Pos++
		if root, err = p.rootObject(); err != nil {
			return nil, err
		}
	case '[':
		p.w.Pos++
		root = p.rootNode(SyntheticRoot)
		p.nodes++
		path := p.newPath(-1, SyntheticRoot)
		if err := p.array(root, ItemLabel, p.child(path, ItemLabel), 2, 1); err != nil {
			return nil, err
		}
		p.close(root, 0, path)
	default:
		v, err := p.scalar(c)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("jsondoc: top-level value must be an object or array, got %s", v)
	}
	if c, err = p.nonSpace(); err != nil {
		return nil, err
	}
	if c != -1 {
		return nil, fmt.Errorf("jsondoc: trailing data after the document (offset %d)", p.w.Offset())
	}
	if p.mixed() {
		if err := p.normalizeMixed(root); err != nil {
			return nil, err
		}
	}
	t := datatree.NewTree(root)
	spelled := make([]schema.Path, len(p.paths))
	for i := range p.paths {
		if p.paths[i].flags&hinted != 0 {
			t.HintSet(p.pathOf(int32(i), spelled))
		}
	}
	return t, nil
}

// rootObject parses the top-level object (its '{' already consumed):
// a single member holding an object names the root element, anything
// else lands under the synthetic root. The first member is parsed as
// the root candidate and demoted under the synthetic root if a second
// member follows; its paths then move under the synthetic root's.
func (p *parser) rootObject() (*datatree.Node, error) {
	c, err := p.nonSpace()
	if err != nil {
		return nil, err
	}
	if c == '}' {
		p.w.Pos++
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		return p.rootNode(SyntheticRoot), nil
	}
	raw, err := p.key(c)
	if err != nil {
		return nil, err
	}
	key, err := p.label(raw)
	if err != nil {
		return nil, err
	}
	if err := p.colon(); err != nil {
		return nil, err
	}
	if c, err = p.nonSpace(); err != nil {
		return nil, err
	}
	if c == '{' {
		// Candidate {"label": {...}}: parse the object as if it were
		// the root element, then check for a second member.
		p.w.Pos++
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		cand := p.rootNode(key)
		candPath := p.newPath(-1, key)
		if err := p.members(cand, candPath, 2, 2, false); err != nil {
			return nil, err
		}
		p.close(cand, 0, candPath)
		if c, err = p.nonSpace(); err != nil {
			return nil, err
		}
		if c == '}' {
			p.w.Pos++
			return cand, nil
		}
		// A second member follows: demote the candidate under the
		// synthetic root, moving its paths with it.
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		root := p.rootNode(SyntheticRoot)
		rootPath := p.newPath(-1, SyntheticRoot)
		p.paths[candPath].parent = rootPath
		p.paths[rootPath].kids = map[string]int32{key: candPath}
		cand.Parent = root
		p.kids = append(p.kids, cand)
		if err := p.members(root, rootPath, 2, 1, true); err != nil {
			return nil, err
		}
		p.close(root, 0, rootPath)
		return root, nil
	}
	if err := p.addNodes(1); err != nil {
		return nil, err
	}
	root := p.rootNode(SyntheticRoot)
	rootPath := p.newPath(-1, SyntheticRoot)
	if err := p.member(root, key, p.child(rootPath, key), 2, 1); err != nil {
		return nil, err
	}
	if err := p.members(root, rootPath, 2, 1, true); err != nil {
		return nil, err
	}
	p.close(root, 0, rootPath)
	return root, nil
}

// members parses the members of an object whose '{' has been
// consumed, attaching children to parent, and consumes the closing
// '}'. With more set, a first member has been parsed already. level
// is the object's nesting.
func (p *parser) members(parent *datatree.Node, path int32, depth, level int, more bool) error {
	for {
		c, err := p.nonSpace()
		if err != nil {
			return err
		}
		if more {
			switch c {
			case '}':
				p.w.Pos++
				return nil
			case ',':
				p.w.Pos++
			default:
				return p.unexpected(c, "after object key:value pair")
			}
			if c, err = p.nonSpace(); err != nil {
				return err
			}
		} else if c == '}' {
			p.w.Pos++
			return nil
		}
		raw, err := p.key(c)
		if err != nil {
			return err
		}
		child, err := p.childNamed(path, raw)
		if err != nil {
			return err
		}
		if err := p.colon(); err != nil {
			return err
		}
		if err := p.member(parent, p.paths[child].label, child, depth, level); err != nil {
			return err
		}
		more = true
	}
}

// key reads an object member's name, whose first byte c has been
// peeked. The name's bytes are valid until the next read.
func (p *parser) key(c int) ([]byte, error) {
	if c != '"' {
		return nil, p.unexpected(c, "looking for beginning of object key string")
	}
	p.w.Pos++
	return p.str()
}

// colon consumes the colon after a member name.
func (p *parser) colon() error {
	c, err := p.nonSpace()
	if err != nil {
		return err
	}
	if c != ':' {
		return p.unexpected(c, "after object key")
	}
	p.w.Pos++
	return nil
}

// member attaches one object member, labeled label at path, to
// parent. Array values attach one child per array member directly —
// no wrapper node — and hint the path repeatable.
func (p *parser) member(parent *datatree.Node, label string, path int32, depth, level int) error {
	c, err := p.nonSpace()
	if err != nil {
		return err
	}
	if c == '[' {
		if err := p.open(level); err != nil {
			return err
		}
		return p.array(parent, label, path, depth, level+1)
	}
	return p.value(parent, label, path, depth, level)
}

// array parses the members of an array (its '[' consumed), attaching
// each as a child of parent labeled label, and hints the element path
// repeatable. An empty array attaches nothing: the element is
// missing. level is the array's nesting.
func (p *parser) array(parent *datatree.Node, label string, path int32, depth, level int) error {
	p.paths[path].flags |= hinted
	c, err := p.nonSpace()
	if err != nil {
		return err
	}
	if c == ']' {
		p.w.Pos++
		return nil
	}
	for {
		if err := p.value(parent, label, path, depth, level); err != nil {
			return err
		}
		if c, err = p.nonSpace(); err != nil {
			return err
		}
		switch c {
		case ']':
			p.w.Pos++
			return nil
		case ',':
			p.w.Pos++
		default:
			return p.unexpected(c, "after array element")
		}
	}
}

// value parses one JSON value as a child of parent labeled label at
// path; level is the nesting of the array or object holding it.
func (p *parser) value(parent *datatree.Node, label string, path int32, depth, level int) error {
	if err := p.tick(); err != nil {
		return err
	}
	if err := p.checkDepth(depth); err != nil {
		return err
	}
	if err := p.addNodes(1); err != nil {
		return err
	}
	c, err := p.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := p.open(level); err != nil {
			return err
		}
		child, off := p.node(parent, label), len(p.kids)
		if err := p.members(child, path, depth+1, level+1, false); err != nil {
			return err
		}
		p.close(child, off, path)
	case '[':
		// An array directly inside an array: JSON gives its members
		// no name, so wrap them in a record of "item"s.
		if err := p.open(level); err != nil {
			return err
		}
		child, off := p.node(parent, label), len(p.kids)
		if err := p.array(child, ItemLabel, p.child(path, ItemLabel), depth+1, level+1); err != nil {
			return err
		}
		p.close(child, off, path)
	case 'n':
		if err := p.literal("null"); err != nil {
			return err
		}
		p.node(parent, label) // present but null: a valueless leaf
	default:
		v, err := p.scalar(c)
		if err != nil {
			return err
		}
		n := p.node(parent, label)
		n.Value, n.HasValue = v, true
		p.paths[path].flags |= valued
	}
	return nil
}

// open consumes the '[' or '{' of an array or object nested in one at
// level, refusing to nest deeper than maxNesting.
func (p *parser) open(level int) error {
	if level+1 > maxNesting {
		return p.syntaxError(fmt.Sprintf("nesting deeper than %d arrays and objects", maxNesting))
	}
	p.w.Pos++
	return nil
}

// scalar reads a string, number, true or false whose first byte c has
// been peeked, and returns its value as the tree holds it.
func (p *parser) scalar(c int) (string, error) {
	switch {
	case c == '"':
		p.w.Pos++
		s, err := p.str()
		return string(s), err
	case c == '-' || '0' <= c && c <= '9':
		return p.number()
	case c == 't':
		return "true", p.literal("true")
	case c == 'f':
		return "false", p.literal("false")
	case c == 'n':
		return "null", p.literal("null")
	}
	return "", p.unexpected(c, "looking for beginning of value")
}

// rootNode returns a new parentless node.
func (p *parser) rootNode(label string) *datatree.Node {
	n := p.arena.New()
	n.Label = label
	return n
}

// node returns a new node labeled label under parent, pushed on the
// child stack.
func (p *parser) node(parent *datatree.Node, label string) *datatree.Node {
	n := p.arena.New()
	n.Label, n.Parent = label, parent
	p.kids = append(p.kids, n)
	return n
}

// close gives n the children pushed since the child stack held off
// nodes.
func (p *parser) close(n *datatree.Node, off int, path int32) {
	if len(p.kids) > off {
		n.Children = p.arena.Children(p.kids[off:])
		clear(p.kids[off:])
		p.kids = p.kids[:off]
		p.paths[path].flags |= hasChildren
	}
}

// newPath adds a path with no children yet.
func (p *parser) newPath(parent int32, label string) int32 {
	p.paths = append(p.paths, pathEntry{parent: parent, label: label})
	return int32(len(p.paths) - 1)
}

// child returns the path labeled label below path, adding it if new.
func (p *parser) child(path int32, label string) int32 {
	if id, ok := p.paths[path].kids[label]; ok {
		return id
	}
	id := p.newPath(path, label)
	if p.paths[path].kids == nil {
		p.paths[path].kids = make(map[string]int32)
	}
	p.paths[path].kids[label] = id
	return id
}

// childNamed is child for a member name as read, checked as a label
// the first time it is seen.
func (p *parser) childNamed(path int32, raw []byte) (int32, error) {
	if id, ok := p.paths[path].kids[string(raw)]; ok {
		return id, nil
	}
	label, err := p.label(raw)
	if err != nil {
		return 0, err
	}
	return p.child(path, label), nil
}

// label returns the label of a member name, checking each distinct
// name once.
func (p *parser) label(raw []byte) (string, error) {
	if l, ok := p.labels[string(raw)]; ok {
		return l, nil
	}
	l := string(raw)
	if err := validLabel(l); err != nil {
		return "", err
	}
	p.labels[l] = l
	return l, nil
}

// pathOf spells out a path, memoizing in spelled the paths it spells
// on the way.
func (p *parser) pathOf(id int32, spelled []schema.Path) schema.Path {
	if spelled[id] == "" {
		if e := p.paths[id]; e.parent < 0 {
			spelled[id] = schema.PathOf(e.label)
		} else {
			spelled[id] = p.pathOf(e.parent, spelled).Child(e.label)
		}
	}
	return spelled[id]
}

// mixed reports whether some path holds both valued nodes and nodes
// with children, which normalizeMixed rewrites.
func (p *parser) mixed() bool {
	for _, e := range p.paths {
		if e.flags&(valued|hasChildren) == valued|hasChildren {
			return true
		}
	}
	return false
}

// tick counts a value, checking for cancellation now and then.
func (p *parser) tick() error {
	p.values++
	if p.values%ctxCheckInterval == 0 && p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("jsondoc: parse cancelled: %w", err)
		}
	}
	return nil
}

// checkDepth enforces ParseLimits.MaxDepth (the root node is depth 1,
// like the XML parser's element nesting).
func (p *parser) checkDepth(depth int) error {
	if p.lim.MaxDepth > 0 && depth > p.lim.MaxDepth {
		return fmt.Errorf("jsondoc: maximum nesting depth %d exceeded", p.lim.MaxDepth)
	}
	return nil
}

// addNodes counts freshly built nodes against ParseLimits.MaxNodes.
func (p *parser) addNodes(n int) error {
	p.nodes += n
	if p.lim.MaxNodes > 0 && p.nodes > p.lim.MaxNodes {
		return fmt.Errorf("jsondoc: maximum node count %d exceeded", p.lim.MaxNodes)
	}
	return nil
}

// validLabel rejects member names that cannot travel through the path
// notation (/a/b, ./a, ../a) or the schema-text notation (label:
// type, '#' comments) unambiguously.
func validLabel(label string) error {
	switch label {
	case "":
		return fmt.Errorf("jsondoc: empty member name cannot be an element label")
	case ".", "..":
		return fmt.Errorf("jsondoc: member name %q collides with the relative-path notation", label)
	}
	if label[0] == '#' {
		return fmt.Errorf("jsondoc: member name %q would read as a comment in the schema notation", label)
	}
	for _, r := range label {
		if unicode.IsSpace(r) || unicode.IsControl(r) || strings.ContainsRune("/:,{}", r) {
			return fmt.Errorf("jsondoc: member name %q contains %q, which the path and schema notations cannot represent", label, r)
		}
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
func (p *parser) normalizeMixed(root *datatree.Node) error {
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
