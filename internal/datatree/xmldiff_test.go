package datatree

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"discoverxfd/internal/window"
)

// This file pins the scanner loop behind ParseXMLContext and
// StreamRootChildrenContext to a reference built the plain way, on
// xml.Decoder.Token: Token matches end tags and translates namespaces
// itself, and each open element gathers its text in its own
// strings.Builder. Both entry points must accept and reject the same
// documents as the reference, under the same limits, and build the
// same nodes, whatever sizes of reads the input arrives in.

// refParseXML is the reference tree parser.
func refParseXML(r io.Reader, lim ParseLimits) (*Tree, error) {
	dec := xml.NewDecoder(r)
	guard := &parseGuard{ctx: context.Background(), lim: lim}
	var root *Node
	var stack []*Node
	var texts []*strings.Builder
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := guard.tick(); err != nil {
			return nil, err
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if err := guard.checkDepth(len(stack) + 1); err != nil {
				return nil, err
			}
			n := &Node{Label: tk.Name.Local}
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.AddLeaf("@"+a.Name.Local, a.Value)
			}
			if err := guard.addNodes(1 + len(n.Children)); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("multiple roots")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
			texts = append(texts, &strings.Builder{})
		case xml.EndElement:
			n := stack[len(stack)-1]
			text := strings.TrimSpace(texts[len(texts)-1].String())
			stack, texts = stack[:len(stack)-1], texts[:len(texts)-1]
			if text != "" {
				if len(n.Children) == 0 {
					n.Value, n.HasValue = text, true
				} else {
					n.AddLeaf(TextLabel, text)
					if err := guard.addNodes(1); err != nil {
						return nil, err
					}
				}
			}
		case xml.CharData:
			if len(texts) > 0 {
				texts[len(texts)-1].Write(tk)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("no root")
	}
	return NewTree(root), nil
}

// refStreamRootChildren is the reference streaming parser; it returns
// the delivered nodes in order.
func refStreamRootChildren(r io.Reader, lim ParseLimits) (string, []*Node, error) {
	dec := xml.NewDecoder(r)
	guard := &parseGuard{ctx: context.Background(), lim: lim}
	rootLabel, sawRoot := "", false
	var out, stack []*Node
	var texts []*strings.Builder
	depth := 0 // 0 = before/after root, 1 = inside root
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rootLabel, nil, err
		}
		if err := guard.tick(); err != nil {
			return rootLabel, nil, err
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if !sawRoot {
				sawRoot, rootLabel, depth = true, tk.Name.Local, 1
				if err := guard.addNodes(1 + len(tk.Attr)); err != nil {
					return rootLabel, nil, err
				}
				for _, a := range tk.Attr {
					if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					out = append(out, &Node{Label: "@" + a.Name.Local, Value: a.Value, HasValue: true})
				}
				continue
			}
			if depth == 0 {
				return rootLabel, nil, fmt.Errorf("multiple roots")
			}
			if err := guard.checkDepth(len(stack) + 2); err != nil {
				return rootLabel, nil, err
			}
			n := &Node{Label: tk.Name.Local}
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.AddLeaf("@"+a.Name.Local, a.Value)
			}
			if err := guard.addNodes(1 + len(n.Children)); err != nil {
				return rootLabel, nil, err
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
			texts = append(texts, &strings.Builder{})
		case xml.EndElement:
			if len(stack) == 0 {
				depth = 0
				continue
			}
			n := stack[len(stack)-1]
			text := strings.TrimSpace(texts[len(texts)-1].String())
			stack, texts = stack[:len(stack)-1], texts[:len(texts)-1]
			if text != "" {
				if len(n.Children) == 0 {
					n.Value, n.HasValue = text, true
				} else {
					n.AddLeaf(TextLabel, text)
					if err := guard.addNodes(1); err != nil {
						return rootLabel, nil, err
					}
				}
			}
			if len(stack) == 0 {
				out = append(out, n)
			}
		case xml.CharData:
			if len(texts) > 0 {
				texts[len(texts)-1].Write(tk)
			}
		}
	}
	if !sawRoot {
		return rootLabel, nil, fmt.Errorf("no root")
	}
	return rootLabel, out, nil
}

// sameNodes describes the first difference between two subtrees —
// label, key, value, child order, parent links — or returns "".
func sameNodes(a, b *Node, path string) string {
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

// diffLimits are the limit sets every differential case runs under:
// the defaults, and bounds tight enough that small inputs hit them.
var diffLimits = []ParseLimits{DefaultLimits(), {MaxDepth: 3, MaxNodes: 12}}

// diffReaders are the shapes of input the scanner is held to the
// reference under: whole, one byte per read, half of each read, and
// the last bytes arriving together with io.EOF. The small reads put
// every name, entity, CDATA end and value across a window refill.
var diffReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// checkXMLDiff runs both entry points and the reference on input,
// feeding the entry points through every reader of diffReaders.
func checkXMLDiff(t *testing.T, input string) {
	t.Helper()
	for _, rd := range diffReaders {
		checkXMLDiffReader(t, input, rd.name, rd.wrap)
	}
}

func checkXMLDiffReader(t *testing.T, input, via string, wrap func(io.Reader) io.Reader) {
	t.Helper()
	for _, lim := range diffLimits {
		want, refErr := refParseXML(strings.NewReader(input), lim)
		got, err := ParseXMLContext(context.Background(), wrap(strings.NewReader(input)), lim)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("tree via %s, limits %+v: err %v, reference err %v\ninput: %q", via, lim, err, refErr, input)
		}
		if err == nil {
			if d := sameNodes(got.Root, want.Root, ""); d != "" {
				t.Fatalf("tree via %s, limits %+v: %s\ninput: %q", via, lim, d, input)
			}
			if got.Size() != want.Size() {
				t.Fatalf("tree via %s, limits %+v: size %d vs %d\ninput: %q", via, lim, got.Size(), want.Size(), input)
			}
		}

		wantLabel, wantNodes, refErr := refStreamRootChildren(strings.NewReader(input), lim)
		var gotNodes []*Node
		gotLabel, err := StreamRootChildrenContext(context.Background(), wrap(strings.NewReader(input)), lim, func(n *Node) error {
			gotNodes = append(gotNodes, n)
			return nil
		})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("stream via %s, limits %+v: err %v, reference err %v\ninput: %q", via, lim, err, refErr, input)
		}
		if err != nil {
			continue
		}
		if gotLabel != wantLabel || len(gotNodes) != len(wantNodes) {
			t.Fatalf("stream via %s, limits %+v: root %q with %d children, reference %q with %d\ninput: %q",
				via, lim, gotLabel, len(gotNodes), wantLabel, len(wantNodes), input)
		}
		for i := range gotNodes {
			if gotNodes[i].Parent != nil {
				t.Fatalf("stream via %s, limits %+v: delivered child %d is attached to a parent\ninput: %q", via, lim, i, input)
			}
			if d := sameNodes(gotNodes[i], wantNodes[i], ""); d != "" {
				t.Fatalf("stream via %s, limits %+v: child %d: %s\ninput: %q", via, lim, i, d, input)
			}
		}
	}
}

// xmlDiffSeeds covers what the loop must do by itself — end-tag
// matching, namespace declarations, EOF and multiple-root detection —
// and what the scanner mirrors of encoding/xml: entities and
// character references, line ends, the UTF-8 and Char-range checks,
// names, comments, processing instructions, CDATA and directives.
var xmlDiffSeeds = []string{
	"<a/>",
	"<a><b>1</b><b>2</b></a>",
	`<a x="1">t<b/>u</a>`,
	"<a><b></a>",
	"<a:x></b:x>",
	"<a:x></x>",
	"<x></a:x>",
	"<a:x></a:x>",
	"<r><a>1</a>",
	"<r><a>1</a></r></x>",
	"<r/></r>",
	"</x>",
	"<r/><s/>",
	"<r/>trailing text",
	"",
	"not xml",
	`<r xmlns="urn:d" xmlns:p="urn:p" p:a="1" b="2"><p:c xmlns:q="urn:q" q:d="3">v</p:c></r>`,
	`<r xmlns:p="xmlns" p:a="1" b="2"><c p:d="3" xmlns:p="urn:other"/></r>`,
	`<r p:a="1" xmlns:p="xmlns"><c p:b="2"/></r>`,
	`<r xml:lang="en" a:xmlns="1"/>`,
	"<r><![CDATA[<not> a & tag]]></r>",
	"<r>x<![CDATA[y]]>z<c/></r>",
	"<r>&lt;&#65;&amp;&#x42;&gt;</r>",
	"<r>&bogus;</r>",
	"<r>a<!--c-->b<?pi x?>c</r>",
	"<r>  <!-- only a comment -->  </r>",
	"<r> a <c> b </c> c </r>",
	"<?xml version=\"1.0\"?><r><x>&amp;</x></r>",
	"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><r/>",
	"<!DOCTYPE r><r><a>1</a></r>",
	"<a><b><c><d><e>deep</e></d></c></b></a>",
	"<a>" + strings.Repeat("<b>v</b>", 20) + "</a>",
	"<r " + strings.Repeat(`x="1" `, 2) + "/>",
	`<r a="1" b="2" c="3" d="4"><s e="5" f="6" g="7" h="8" i="9" j="10" k="11" l="12"/></r>`,
	"<a>\x00</a>",
	// The streamed root counts its namespace declarations as nodes:
	// 13 against MaxNodes 12 here, where the tree counts 10.
	`<r xmlns="u" xmlns:a="v" xmlns:b="w">` + strings.Repeat("<c>1</c>", 9) + "</r>",
	// Entities and character references.
	"<r a='&lt;&gt;&amp;&apos;&quot;'>&apos;&quot;</r>",
	"<r>&#0065;&#x000041;&#x10FFFF;&#1114112;</r>",
	"<r>&#x110000;</r>",
	"<r>&#99999999999999999999999;</r>",
	"<r>&#xD800;&#xDFFF;</r>",
	"<r>&#0;</r>",
	"<r>&#xFFFE;</r>",
	"<r>&#xD;&#13;x</r>",
	"<r>&#;</r>", "<r>&#x;</r>", "<r>&#X41;</r>", "<r>&#65</r>", "<r>&lt</r>", "<r>&;</r>", "<r>& </r>",
	"<r>&LT;</r>", "<r>&amp</r>", "<r>&", "<r>&#", "<r>&#x4", "<r>&am",
	`<r a="&bogus;"/>`, `<r a="&#65;"/>`,
	// Line ends, inside text and attribute values.
	"<r>a\r\nb\rc\r\r\nd</r>",
	"<r a=\"1\r\n2\r3\n4\t5\"/>",
	"<r>\r</r>", "<r>]\r]>x</r>",
	// "]]>" outside CDATA.
	"<r>]]></r>", "<r>]]]></r>", "<r>] ]></r>", "<r>]&#93;></r>", `<r a="]]>"/>`, "<r/>]]>",
	"<r><![CDATA[]]></r>", "<r><![CDATA[]]]]></r>", "<r><![CDATA[a]]]>b</r>", "<r><![CDATA[\r\n]]></r>",
	"<r><![CDATA[x", "<r><![CDAT[x]]></r>", "<r><![cdata[x]]></r>", "<![CDATA[]]><r/>",
	// UTF-8 and the Char range.
	"<r>\xff</r>", "<r a=\"\xc3\"/>", "<r>\x01</r>", "<r>\x7f</r>", "<r>\uFFFE</r>", "<r>\uFFFD</r>",
	"<r>\U0001F600</r>", "<r>\xed\xa0\x80</r>", "\xff<r/>", "<r/>\x01",
	// Names.
	"<é/>", "<aé/>", "<_a/>", "<:a/>", "<a:/>", "<1a/>", "<.a/>", "<-a/>", "<a1.-_/>",
	"<a:b:c/>", "<a b:c:d='1'/>", "<\u0300/>", "<a\u0300/>", "<a\xff/>", "<\u00b7/>", "<a\u00b7/>",
	"<x:r><x:a>1</x:a></x:r>", "<:r></:r>", "<r:></r:>", "<r></ r>", "<r></r >", "<r></r x>",
	// Start tags.
	`<r a="1"b="2"/>`, `<r a="1" a="2"/>`, "<r a/>", "<r a=1/>", "<r a = '1' />", "<r/ >", "<r", "<r a=\"1",
	"<r\ta\n=\r'1'/>", "< r/>", "<>", "</>",
	// Comments.
	"<r><!----></r>", "<r><!-- - --></r>", "<r><!-- -- --></r>", "<r><!-- --->", "<r><!--->--></r>",
	"<r><!-x--></r>", "<r><!--", "<!-- before --><r/><!-- after -->",
	// Processing instructions.
	"<?xml version=\"1.1\"?><r/>", "<?xml version='1.0' encoding='utf-8'?><r/>",
	"<?xml encoding=\"UTF-16\"?><r/>", "<?xml version=\"1.0\" encoding=\"Utf-8\"?><r/>",
	"<r><?xml version=\"2.0\"?></r>", "<?xmlx version=\"2.0\"?><r/>", "<?XML version=\"2.0\"?><r/>",
	"<?pi?><r/>", "<??><r/>", "<? pi?><r/>", "<?pi x><r/>", "<?pi", "<?1pi?><r/>",
	// Directives.
	"<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>1</r>",
	"<!DOCTYPE r [<!ENTITY e \"<x>\">]><r/>",
	"<!DOCTYPE r [<!-- > --><!ATTLIST r a CDATA '>'>]><r/>",
	"<!DOCTYPE r [<x>]><r/>", "<!DOCTYPE r [<<x>>]><r/>", "<!DOCTYPE r '>'><r/>", "<!>x><r/>",
	"<!DOCTYPE r [<!-- unterminated", "<!DOCTYPE",
	// A byte order mark is text before the root.
	"\ufeff<r/>", "\ufeff\ufeff<r/>",
}

func TestParseXMLMatchesTokenReference(t *testing.T) {
	for _, s := range xmlDiffSeeds {
		checkXMLDiff(t, s)
	}
}

// TestParseXMLLongTokens holds the scanner to the reference on a
// name, an attribute value and a text each longer than the window, so
// the window has to grow for a single token, on a document many
// windows long, and on more distinct names than the name table keeps.
func TestParseXMLLongTokens(t *testing.T) {
	long := func(unit string) string { return strings.Repeat(unit, window.Size/len(unit)+7) }
	name := "n" + long("é-")
	for _, input := range []string{
		"<r><" + name + ">1</" + name + "><" + name + "/></r>",
		`<r a="` + long("v&amp;\r\n") + `"><c b='` + long("é") + `'/></r>`,
		"<r><c>" + long("text &#233; ") + "</c>" + long(" ") + "<c><![CDATA[" + long("]>") + "]]></c></r>",
		"<r>" + strings.Repeat(`<c a="1">x</c><d/>`, 3*window.Size/16) + "</r>",
		"<!DOCTYPE r [" + long("<!-- c -->") + "]><r>" + long("<!-- c --><?p i?>") + "</r>",
		distinctNames(maxInterned + 100),
	} {
		checkXMLDiff(t, input)
	}
}

// distinctNames is a document with n distinct element names, more
// than the name table keeps when n > maxInterned, each closed twice.
func distinctNames(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<n%d a%d='1'/><n%d>v</n%d>", i, i, i, i)
	}
	b.WriteString("</r>")
	return b.String()
}

// TestParseXMLReaderErrorMidDocument checks that a read error part
// way through a document ends both entry points with an error that
// still wraps the reader's.
func TestParseXMLReaderErrorMidDocument(t *testing.T) {
	errBoom := errors.New("boom")
	doc := "<r>" + strings.Repeat("<c a='1'>text</c>", window.Size/8) + "</r>"
	for _, cut := range []int{0, 2, 5, len(doc) / 2, len(doc) - 2, len(doc)} {
		for _, rd := range diffReaders {
			failing := func() io.Reader {
				return rd.wrap(io.MultiReader(strings.NewReader(doc[:cut]), iotest.ErrReader(errBoom)))
			}
			if _, err := ParseXMLContext(context.Background(), failing(), DefaultLimits()); !errors.Is(err, errBoom) {
				t.Fatalf("tree via %s, cut at %d: err %v, want one wrapping %v", rd.name, cut, err, errBoom)
			}
			_, err := StreamRootChildrenContext(context.Background(), failing(), DefaultLimits(), func(*Node) error { return nil })
			if !errors.Is(err, errBoom) {
				t.Fatalf("stream via %s, cut at %d: err %v, want one wrapping %v", rd.name, cut, err, errBoom)
			}
		}
	}
}

// TestNameTablesMatchEncodingXML checks isName against encoding/xml
// for every rune of the Basic Multilingual Plane and a sample beyond,
// each as a name's first rune and as a later one.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		_, err := xml.NewDecoder(strings.NewReader(doc)).RawToken()
		return err == nil
	}
	for r := rune(0); r <= utf8.MaxRune; r++ {
		if r > 0xFFFF {
			r += 0x3FF // sample the supplementary planes
		}
		if !utf8.ValidRune(r) || r < utf8.RuneSelf && !nameByte[r] {
			continue
		}
		c := string(r)
		if got, want := isName([]byte(c)), accepts("<"+c+"/>"); got != want {
			t.Fatalf("isName(%U) as a first rune = %v, encoding/xml %v", r, got, want)
		}
		if got, want := isName([]byte("a"+c)), accepts("<a"+c+"/>"); got != want {
			t.Fatalf("isName(%U) as a later rune = %v, encoding/xml %v", r, got, want)
		}
	}
}

// FuzzParseXMLDiff holds both XML entry points to the Token-based
// reference on arbitrary input: the same accept/reject decision under
// each limit set, and identical trees and delivered subtrees.
func FuzzParseXMLDiff(f *testing.F) {
	for _, s := range xmlDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkXMLDiff(t, input)
	})
}
