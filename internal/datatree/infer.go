package datatree

import (
	"fmt"
	"strconv"
	"strings"

	"discoverxfd/internal/schema"
)

// InferSchema derives a schema (Definition 1) from a data tree. The
// inference follows the conventions of the paper's data model:
//
//   - an element is a set element (SetOf) if any parent node in the
//     data has two or more children with its label, or if the document
//     source declared the path repeatable (Tree.HintSet — a JSON array
//     is a set element even when observed with one member everywhere);
//   - an element that ever has element children is a record (Choice
//     types are not inferable from a single document and are inferred
//     as Rcd — a Choice instance conforms to the corresponding Rcd
//     with missing elements);
//   - a leaf element's simple type is the most specific of int, float,
//     str that all its observed values parse as; elements observed
//     only without values default to str.
//
// The resulting schema is guaranteed to accept the tree it was
// inferred from (see Conform).
func InferSchema(t *Tree) (*schema.Schema, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("datatree: cannot infer schema from empty tree")
	}
	type info struct {
		path     schema.Path
		set      bool
		complex_ bool
		sawInt   bool
		sawFloat bool
		sawStr   bool
		sawAny   bool
		// kids memoizes the info of each child label seen at this
		// path, so a node's children cost one lookup each, with no
		// path string built; order holds those labels first-seen.
		kids  map[string]*info
		order []string
		// visit is the stamp of the last node whose children included
		// this path: meeting it twice under one node makes it a set.
		visit int
	}
	infos := make(map[schema.Path]*info)
	get := func(p schema.Path) *info {
		in := infos[p]
		if in == nil {
			in = &info{path: p, kids: make(map[string]*info)}
			infos[p] = in
		}
		return in
	}

	visits := 0
	var rec func(n *Node, in *info)
	rec = func(n *Node, in *info) {
		visits++
		for _, c := range n.Children {
			k := in.kids[c.Label]
			if k == nil {
				k = get(in.path.Child(c.Label))
				in.kids[c.Label] = k
				in.order = append(in.order, c.Label)
			}
			if k.visit == visits {
				k.set = true
			}
			k.visit = visits
		}
		if len(n.Children) > 0 {
			in.complex_ = true
		}
		if n.HasValue {
			in.sawAny = true
			// Once a string is seen the type is str, and once a float
			// is seen every further number keeps it float.
			switch v := strings.TrimSpace(n.Value); {
			case in.sawStr:
			case !in.sawFloat && isInt(v):
				in.sawInt = true
			case isFloat(v):
				in.sawFloat = true
			default:
				in.sawStr = true
			}
		}
		for _, c := range n.Children {
			rec(c, in.kids[c.Label])
		}
	}
	rootPath := schema.PathOf(t.Root.Label)
	rec(t.Root, get(rootPath))

	tree := t // build's local t shadows the parameter
	var build func(p schema.Path) *schema.Type
	build = func(p schema.Path) *schema.Type {
		in := infos[p]
		var t *schema.Type
		if in.complex_ {
			fields := make([]schema.Field, 0, len(in.order))
			for _, label := range in.order {
				fields = append(fields, schema.F(label, build(in.kids[label].path)))
			}
			t = schema.Rcd(fields...)
		} else {
			switch {
			case in.sawStr || !in.sawAny:
				t = schema.Simple(schema.String)
			case in.sawFloat:
				t = schema.Simple(schema.Float)
			case in.sawInt:
				t = schema.Simple(schema.Int)
			default:
				t = schema.Simple(schema.String)
			}
		}
		if in.set || tree.SetHinted(p) {
			t = schema.SetOf(t)
		}
		return t
	}
	return schema.New(t.Root.Label, build(rootPath))
}

// Conform checks that the tree conforms to the schema: every node's
// label is declared at its path, non-set elements occur at most once
// per parent, Choice elements have at most one alternative present,
// leaf values parse as their declared simple type, and complex nodes
// do not carry direct values. It returns the first violation found,
// or nil.
func Conform(t *Tree, s *schema.Schema) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("datatree: empty tree")
	}
	if t.Root.Label != s.Root {
		return fmt.Errorf("datatree: root label %q does not match schema root %q", t.Root.Label, s.Root)
	}
	// fields indexes each record type's field labels once; counts
	// holds, per nesting depth, how often each field occurs among the
	// children of the node being checked at that depth.
	fields := make(map[*schema.Type]map[string]int)
	var counts [][]int
	var rec func(n *Node, tp *schema.Type, depth int) error
	rec = func(n *Node, tp *schema.Type, depth int) error {
		switch tp.Kind {
		case schema.String, schema.Int, schema.Float:
			if len(n.Children) > 0 {
				return fmt.Errorf("datatree: node %s[%d] declared %s but has children",
					n.Path(), n.Key, tp.Kind)
			}
			if !n.HasValue {
				// An empty element of simple type is a missing value;
				// tolerated (strong-satisfaction null).
				return nil
			}
			v := strings.TrimSpace(n.Value)
			switch tp.Kind {
			case schema.Int:
				if !isInt(v) {
					return fmt.Errorf("datatree: node %s[%d]: value %q is not an int", n.Path(), n.Key, n.Value)
				}
			case schema.Float:
				if !isFloat(v) {
					return fmt.Errorf("datatree: node %s[%d]: value %q is not a float", n.Path(), n.Key, n.Value)
				}
			}
			return nil
		case schema.Record, schema.Choice:
			if n.HasValue {
				return fmt.Errorf("datatree: complex node %s[%d] carries a direct value %q (mixed content must use %s)",
					n.Path(), n.Key, n.Value, TextLabel)
			}
			index := fields[tp]
			if index == nil {
				index = make(map[string]int, len(tp.Fields))
				for i, f := range tp.Fields {
					index[f.Label] = i
				}
				fields[tp] = index
			}
			if depth == len(counts) {
				counts = append(counts, nil)
			}
			seen := counts[depth]
			if cap(seen) < len(tp.Fields) {
				seen = make([]int, len(tp.Fields))
				counts[depth] = seen
			} else {
				seen = seen[:len(tp.Fields)]
				clear(seen)
			}
			present := 0
			for _, c := range n.Children {
				i, ok := index[c.Label]
				if !ok {
					return fmt.Errorf("datatree: node %s[%d]: undeclared child %q", n.Path(), n.Key, c.Label)
				}
				f := tp.Fields[i]
				seen[i]++
				if seen[i] == 1 {
					present++
				}
				if seen[i] > 1 && f.Type.Kind != schema.Set {
					return fmt.Errorf("datatree: node %s[%d]: non-set child %q occurs %d times",
						n.Path(), n.Key, c.Label, seen[i])
				}
				payload := f.Type
				if f.Type.Kind == schema.Set {
					payload = f.Type.Elem
				}
				if err := rec(c, payload, depth+1); err != nil {
					return err
				}
			}
			if tp.Kind == schema.Choice && present > 1 {
				return fmt.Errorf("datatree: node %s[%d]: Choice element has %d alternatives present",
					n.Path(), n.Key, present)
			}
			return nil
		default:
			return fmt.Errorf("datatree: unknown schema kind at %s", n.Path())
		}
	}
	rootEl, err := s.Resolve(schema.PathOf(s.Root))
	if err != nil {
		return err
	}
	return rec(t.Root, rootEl.Payload, 0)
}

// isInt reports whether the trimmed value is an int in the schema's
// sense: strconv.ParseInt accepts it in base 10.
func isInt(v string) bool {
	if !mayBeNumber(v) {
		return false
	}
	_, err := strconv.ParseInt(v, 10, 64)
	return err == nil
}

// isFloat reports whether the trimmed value is a float in the
// schema's sense: strconv.ParseFloat accepts it.
func isFloat(v string) bool {
	if !mayBeNumber(v) {
		return false
	}
	_, err := strconv.ParseFloat(v, 64)
	return err == nil
}

// mayBeNumber is a byte-level filter in front of strconv: it returns
// false only for strings neither ParseInt nor ParseFloat accepts,
// sparing the syntax error those would allocate. A number starts with
// a sign, a digit, '.', or the first letter of "inf", "infinity" or
// "nan" (any case), and holds only digits, signs, '.', '_', and the
// letters of hex mantissas, the 'e'/'p' exponents, the "0x" prefix and
// those words.
func mayBeNumber(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0] | 0x20; {
	case c == 'i' || c == 'n':
	case s[0] == '+' || s[0] == '-' || s[0] == '.' || '0' <= s[0] && s[0] <= '9':
	default:
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == '_':
		default:
			switch c | 0x20 {
			case 'a', 'b', 'c', 'd', 'e', 'f', 'i', 'n', 'p', 't', 'x', 'y':
			default:
				return false
			}
		}
	}
	return true
}

func pathOf(p string) schema.Path { return schema.Path(p) }
