package datatree

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// TextLabel is the label under which a single text chunk of a
// mixed-content element is stored, per the paper's Section 2.1
// convention ("we store it under a distinct new @text").
const TextLabel = "@text"

// DefaultMaxDepth is the element-nesting bound applied by ParseXML
// and StreamRootChildren when no explicit limits are given. Real
// documents sit far below it; a deep-nesting bomb hits it after a few
// kilobytes of input instead of exhausting memory.
const DefaultMaxDepth = 10000

// ParseLimits bounds resource use while parsing an XML document.
// The zero value means "no limits"; DefaultLimits returns the bounds
// the convenience entry points (ParseXML, StreamRootChildren) apply.
type ParseLimits struct {
	// MaxDepth bounds element nesting depth (the root element is depth
	// 1). Exceeding it is a parse error. 0 or negative = unlimited.
	MaxDepth int
	// MaxNodes bounds the total number of data nodes built (elements,
	// attribute leaves, and @text leaves all count). Exceeding it is a
	// parse error. 0 or negative = unlimited.
	MaxNodes int
}

// DefaultLimits returns the limits used by ParseXML and
// StreamRootChildren: DefaultMaxDepth nesting, unlimited nodes.
func DefaultLimits() ParseLimits { return ParseLimits{MaxDepth: DefaultMaxDepth} }

// ctxCheckInterval is how many decoder tokens are processed between
// context-cancellation checks in the parsing loops.
const ctxCheckInterval = 1024

// parseGuard enforces ParseLimits and periodic context checks inside
// the token loops of ParseXML and StreamRootChildren.
type parseGuard struct {
	ctx    context.Context
	lim    ParseLimits
	nodes  int
	tokens int
}

func (g *parseGuard) tick() error {
	g.tokens++
	if g.tokens%ctxCheckInterval == 0 && g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return fmt.Errorf("datatree: parse cancelled: %w", err)
		}
	}
	return nil
}

func (g *parseGuard) checkDepth(depth int) error {
	if g.lim.MaxDepth > 0 && depth > g.lim.MaxDepth {
		return fmt.Errorf("datatree: maximum element depth %d exceeded", g.lim.MaxDepth)
	}
	return nil
}

// addNodes counts n freshly built nodes against the budget.
func (g *parseGuard) addNodes(n int) error {
	g.nodes += n
	if g.lim.MaxNodes > 0 && g.nodes > g.lim.MaxNodes {
		return fmt.Errorf("datatree: maximum node count %d exceeded", g.lim.MaxNodes)
	}
	return nil
}

// ParseXML reads an XML document from r and builds the corresponding
// data tree. XML attributes become leaf children labeled "@name".
// For an element containing both child elements and character data,
// the concatenated text (whitespace-trimmed) is stored as a leaf
// child labeled @text if non-empty; an element with character data
// only becomes a leaf node carrying that value. Element order is
// preserved in the tree but carries no semantics in the data model.
// DefaultLimits applies; use ParseXMLContext for explicit limits or
// cancellation.
func ParseXML(r io.Reader) (*Tree, error) {
	return ParseXMLContext(context.Background(), r, DefaultLimits())
}

// ParseXMLContext is ParseXML with explicit resource limits and a
// context. Cancellation is checked periodically between decoder
// tokens; exceeding a limit or cancellation aborts the parse with a
// "datatree:" error.
func ParseXMLContext(ctx context.Context, r io.Reader, lim ParseLimits) (*Tree, error) {
	root, err := parseXML(ctx, r, lim, nil)
	if err != nil {
		return nil, err
	}
	return NewTree(root), nil
}

// openElement is one element whose end tag has not been read yet.
type openElement struct {
	n     *Node
	name  *qname // the start tag's name, prefix included
	kids  int    // offset of the element's children on the shared child stack
	text  int    // offset of the element's character data in the shared text buffer
	binds int    // namespace bindings in scope before the element
}

// nsBinding is one xmlns:prefix="uri" declaration in scope.
type nsBinding struct{ prefix, uri string }

// parseXML is the token loop behind ParseXMLContext and
// StreamRootChildrenContext. With emit nil it returns the root of the
// whole tree. Otherwise the root keeps no children: its attribute
// leaves and then each completed root child go to emit as soon as
// they are built, detached from the root, and root-level character
// data is dropped. The root, once read, is returned even with an
// error, for its label.
//
// The loop reads tokens from xmlScanner, which like
// xml.Decoder.RawToken neither checks that end tags match nor tracks
// namespace scopes, so it does both itself, exactly as Token would:
// an end tag must repeat its start tag's prefix and local name, and
// the namespace bindings in scope decide which attributes are
// namespace declarations. The open elements share two stacks, each
// element's part above its ancestors': one of children, copied into
// an exactly sized Children slice when the element ends, and the
// scanner's buffer of character data, trimmed into the element's
// value or @text leaf. Nodes and child lists come from an Arena.
func parseXML(ctx context.Context, r io.Reader, lim ParseLimits, emit func(*Node) error) (*Node, error) {
	sc := newXMLScanner(r)
	defer sc.w.Release()
	guard := &parseGuard{ctx: ctx, lim: lim}
	var (
		root  *Node
		open  []openElement
		kids  []*Node
		binds []nsBinding
		arena Arena
	)
	syntaxError := func(msg string) error {
		return fmt.Errorf("datatree: XML parse error: %w", sc.syntaxError(msg))
	}
	leaf := func(label string, parent *Node, value string) *Node {
		n := arena.New()
		n.Label, n.Parent, n.Value, n.HasValue = label, parent, value, true
		return n
	}
	for {
		var top *qname
		if len(open) > 0 {
			top = open[len(open)-1].name
		}
		tok, err := sc.next(len(open) > 1 || len(open) == 1 && emit == nil, top)
		if err != nil {
			return root, fmt.Errorf("datatree: XML parse error: %w", err)
		}
		if tok == tokEOF {
			break
		}
		if err := guard.tick(); err != nil {
			return root, err
		}
		switch tok {
		case tokStart:
			name := sc.name
			if len(open) == 0 && root != nil {
				return root, fmt.Errorf("datatree: multiple root elements (%q and %q)", root.Label, name.local)
			}
			if err := guard.checkDepth(len(open) + 1); err != nil {
				return root, err
			}
			n := arena.New()
			n.Label = name.local
			switch {
			case root == nil:
				root = n
			case emit == nil || len(open) > 1:
				n.Parent = open[len(open)-1].n
				kids = append(kids, n)
			}
			el := openElement{n: n, name: name, kids: len(kids), text: len(sc.text), binds: len(binds)}
			for _, a := range sc.attrs {
				if a.name.space == "xmlns" {
					binds = append(binds, nsBinding{a.name.local, a.value})
				}
			}
			for _, a := range sc.attrs {
				if !namespaceAttr(a.name, binds) {
					kids = append(kids, leaf(a.name.attrLabel(), n, a.value))
				}
			}
			nodes := 1 + len(kids) - el.kids
			if emit != nil && n == root {
				nodes = 1 + len(sc.attrs) // the streamed root counts every attribute
			}
			if err := guard.addNodes(nodes); err != nil {
				return root, err
			}
			if emit != nil && n == root {
				for _, l := range kids {
					l.Parent = nil
					if err := emit(l); err != nil {
						return root, err
					}
				}
				kids = kids[:0]
			}
			open = append(open, el)
		case tokEnd:
			end := sc.name
			if len(open) == 0 {
				return root, syntaxError("unexpected end element </" + end.local + ">")
			}
			el := open[len(open)-1]
			n := el.n
			switch {
			case el.name.local != end.local:
				return root, syntaxError("element <" + n.Label + "> closed by </" + end.local + ">")
			case el.name.space != end.space:
				space := end.space
				if space == "" {
					space = `""`
				}
				return root, syntaxError("element <" + n.Label + "> in space " + el.name.space +
					" closed by </" + end.local + "> in space " + space)
			}
			open, binds = open[:len(open)-1], binds[:el.binds]
			if v := bytes.TrimSpace(sc.text[el.text:]); len(v) > 0 {
				if len(kids) == el.kids {
					n.Value, n.HasValue = string(v), true
				} else {
					kids = append(kids, leaf(TextLabel, n, string(v)))
					if err := guard.addNodes(1); err != nil {
						return root, err
					}
				}
			}
			sc.text = sc.text[:el.text]
			if len(kids) > el.kids {
				n.Children = arena.Children(kids[el.kids:])
				clear(kids[el.kids:])
				kids = kids[:el.kids]
			}
			if emit != nil && len(open) == 1 {
				if err := emit(n); err != nil {
					return root, err
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("datatree: document has no root element")
	}
	if len(open) != 0 {
		return root, fmt.Errorf("datatree: unexpected EOF inside element %q", open[len(open)-1].n.Label)
	}
	return root, nil
}

// namespaceAttr reports whether the attribute is one the data model
// drops: a namespace declaration (xmlns or xmlns:p), or an attribute
// whose prefix is bound to the namespace name "xmlns" itself — the
// attributes namespace translation places in the "xmlns" space.
func namespaceAttr(name *qname, binds []nsBinding) bool {
	if name.space == "xmlns" || name.local == "xmlns" {
		return true
	}
	if name.space == "" || name.space == "xml" {
		return false
	}
	for i := len(binds) - 1; i >= 0; i-- {
		if binds[i].prefix == name.space {
			return binds[i].uri == "xmlns"
		}
	}
	return false
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Tree, error) {
	return ParseXML(strings.NewReader(s))
}

// WriteXML serializes the tree as an XML document. Children labeled
// "@name" are emitted as attributes of their parent; "@text" children
// are emitted as character data. Output is indented for readability.
func (t *Tree) WriteXML(w io.Writer) error {
	if t.Root == nil {
		return fmt.Errorf("datatree: empty tree")
	}
	bw := &errWriter{w: w}
	io.WriteString(bw, xml.Header)
	writeNode(bw, t.Root, 0)
	return bw.err
}

// XMLString returns the XML serialization of the tree.
func (t *Tree) XMLString() string {
	var b strings.Builder
	t.WriteXML(&b)
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func writeNode(w io.Writer, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s<%s", indent, n.Label)
	var elems []*Node
	var text *Node
	for _, c := range n.Children {
		switch {
		case c.Label == TextLabel:
			text = c
		case strings.HasPrefix(c.Label, "@"):
			fmt.Fprintf(w, " %s=\"%s\"", c.Label[1:], escapeAttr(c.Value))
		default:
			elems = append(elems, c)
		}
	}
	switch {
	case n.HasValue:
		fmt.Fprintf(w, ">%s</%s>\n", escapeText(n.Value), n.Label)
	case len(elems) == 0 && text == nil:
		fmt.Fprintf(w, "/>\n")
	default:
		fmt.Fprintf(w, ">")
		if text != nil {
			fmt.Fprintf(w, "%s", escapeText(text.Value))
		}
		fmt.Fprintf(w, "\n")
		for _, c := range elems {
			writeNode(w, c, depth+1)
		}
		fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	}
}

func escapeText(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s))
	return b.String()
}

func escapeAttr(s string) string {
	// Attribute values are emitted inside double quotes, so the
	// escaping must cover `"` as well as `&` and `<`. xml.EscapeText
	// escapes all of those, plus `\t`/`\n`/`\r` as character
	// references — which is exactly what double-quoted attribute
	// values need for a lossless ParseXML round trip (a literal
	// newline inside an attribute would otherwise be normalized to a
	// space by the XML decoder).
	return escapeText(s)
}
