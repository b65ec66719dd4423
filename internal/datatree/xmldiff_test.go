package datatree

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// This file pins the RawToken loop behind ParseXMLContext and
// StreamRootChildrenContext to a reference built the plain way, on
// xml.Decoder.Token: Token matches end tags and translates namespaces
// itself, and each open element gathers its text in its own
// strings.Builder. Both entry points must accept and reject the same
// documents as the reference, under the same limits, and build the
// same nodes.

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

// checkXMLDiff runs both entry points and the reference on input.
func checkXMLDiff(t *testing.T, input string) {
	t.Helper()
	for _, lim := range diffLimits {
		want, refErr := refParseXML(strings.NewReader(input), lim)
		got, err := ParseXMLContext(context.Background(), strings.NewReader(input), lim)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("tree, limits %+v: err %v, reference err %v\ninput: %q", lim, err, refErr, input)
		}
		if err == nil {
			if d := sameNodes(got.Root, want.Root, ""); d != "" {
				t.Fatalf("tree, limits %+v: %s\ninput: %q", lim, d, input)
			}
			if got.Size() != want.Size() {
				t.Fatalf("tree, limits %+v: size %d vs %d\ninput: %q", lim, got.Size(), want.Size(), input)
			}
		}

		wantLabel, wantNodes, refErr := refStreamRootChildren(strings.NewReader(input), lim)
		var gotNodes []*Node
		gotLabel, err := StreamRootChildrenContext(context.Background(), strings.NewReader(input), lim, func(n *Node) error {
			gotNodes = append(gotNodes, n)
			return nil
		})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("stream, limits %+v: err %v, reference err %v\ninput: %q", lim, err, refErr, input)
		}
		if err != nil {
			continue
		}
		if gotLabel != wantLabel || len(gotNodes) != len(wantNodes) {
			t.Fatalf("stream, limits %+v: root %q with %d children, reference %q with %d\ninput: %q",
				lim, gotLabel, len(gotNodes), wantLabel, len(wantNodes), input)
		}
		for i := range gotNodes {
			if gotNodes[i].Parent != nil {
				t.Fatalf("stream, limits %+v: delivered child %d is attached to a parent\ninput: %q", lim, i, input)
			}
			if d := sameNodes(gotNodes[i], wantNodes[i], ""); d != "" {
				t.Fatalf("stream, limits %+v: child %d: %s\ninput: %q", lim, i, d, input)
			}
		}
	}
}

// xmlDiffSeeds covers what the RawToken loop must do by itself —
// end-tag matching, namespace declarations, EOF and multiple-root
// detection — plus the text forms that reach it as character data.
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
}

func TestParseXMLMatchesTokenReference(t *testing.T) {
	for _, s := range xmlDiffSeeds {
		checkXMLDiff(t, s)
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
