package relation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// errBudgetExhausted aborts the streaming parse once the tuple or
// wall-clock budget runs out; BuildStream converts it into a
// truncated (but valid) hierarchy rather than an error.
var errBudgetExhausted = errors.New("relation: ingestion budget exhausted")

// Builder constructs the hierarchical representation incrementally,
// one root-child subtree at a time, so a large document never needs
// to be fully materialized: memory stays proportional to the
// representation (columns of codes) plus the largest single subtree.
//
// Differences from Build: tuples carry sequence numbers instead of
// whole-document pre-order node keys, and pivot nodes are not
// retained (Relation.Node returns nil), so witness *counting* and
// discovery work identically but node-level reporting (refine.Apply,
// anomaly occurrences) needs the in-memory Build.
type Builder struct {
	h      *Hierarchy
	opts   Options
	enc    *datatree.Encoder
	budget *buildBudget

	dicts map[*Relation][]map[string]int64
	// rootSetCodes accumulates member subtree codes for the root
	// relation's set pseudo-attributes whose members arrive one
	// AddRootChild at a time.
	rootSetCodes map[int][]int
	// rootNode accumulates the root's non-set children (leaf
	// attributes and complex containers, including any set elements
	// nested below them), processed at Finish.
	rootNode *datatree.Node
	seq      int
	finished bool
}

// NewBuilder lays out the relation tree for the schema and returns an
// empty builder.
func NewBuilder(s *schema.Schema, opts Options) (*Builder, error) {
	return NewBuilderContext(context.Background(), s, opts)
}

// NewBuilderContext is NewBuilder with cancellation and resource
// budgets: AddRootChild checks the context, and tuples beyond
// Options.MaxTuples (or past Options.Deadline) truncate the hierarchy
// instead of being ingested.
func NewBuilderContext(ctx context.Context, s *schema.Schema, opts Options) (*Builder, error) {
	h, err := layoutHierarchy(s, opts)
	if err != nil {
		return nil, err
	}
	b := &Builder{
		h:            h,
		opts:         opts,
		enc:          &datatree.Encoder{},
		dicts:        make(map[*Relation][]map[string]int64),
		rootSetCodes: make(map[int][]int),
		rootNode:     &datatree.Node{Label: s.Root},
	}
	b.budget = &buildBudget{ctx: ctx, opts: &b.opts, h: h}
	for _, r := range h.Relations {
		ds := make([]map[string]int64, len(r.Attrs))
		for i := range ds {
			ds[i] = make(map[string]int64)
		}
		b.dicts[r] = ds
		r.Cols = make([][]int64, len(r.Attrs))
	}
	// The synthetic root tuple.
	b.h.Root.Keys = []int{0}
	b.h.Root.ParentIdx = []int32{-1}
	b.h.Root.nodes = []*datatree.Node{nil}
	return b, nil
}

// AddRootChild ingests one direct child of the document root (element
// subtree or "@attr" leaf). Children of set elements are converted to
// tuples immediately and the subtree becomes garbage; non-set
// children are retained until Finish. Once the ingestion budget is
// exhausted it returns errBudgetExhausted, which BuildStream maps to
// a truncated hierarchy.
func (b *Builder) AddRootChild(n *datatree.Node) error {
	if b.finished {
		return ErrBuilderFinished
	}
	if err := b.budget.cancelled(); err != nil {
		return err
	}
	if b.h.Truncated {
		return errBudgetExhausted
	}
	// Which top-level relation (if any) does this child pivot?
	childPath := schema.PathOf(b.h.Schema.Root).Child(n.Label)
	if rel := b.h.byPivot[childPath]; rel != nil && rel.Parent == b.h.Root {
		if ai := b.h.Root.AttrIndex(schema.MustRelativize(b.h.Root.Pivot, childPath)); ai >= 0 {
			b.rootSetCodes[ai] = append(b.rootSetCodes[ai], b.enc.Encode(n))
		}
		if err := b.addTuple(rel, n, 0); err != nil {
			return err
		}
		b.enc.Forget(n)
		return nil
	}
	// Validate the label exists in the schema at all.
	if _, err := b.h.Schema.Resolve(childPath); err != nil {
		return fmt.Errorf("relation: %w", err)
	}
	n.Parent = b.rootNode
	b.rootNode.Children = append(b.rootNode.Children, n)
	return nil
}

// Finish completes the root relation (its retained non-set children,
// including set elements nested below non-set containers) and returns
// the hierarchy.
func (b *Builder) Finish() (*Hierarchy, error) {
	if b.finished {
		return nil, ErrBuilderFinished
	}
	b.finished = true
	root := b.h.Root

	// Columns of the root relation from the retained children; set
	// pseudo-attributes for top-level set elements come from the
	// accumulated codes.
	root.Cols = make([][]int64, len(root.Attrs))
	for ai, a := range root.Attrs {
		root.Cols[ai] = make([]int64, 1)
		switch a.Kind {
		case SetValue:
			if codes, ok := b.rootSetCodes[ai]; ok && len(codes) > 0 {
				root.Cols[ai][0] = int64(b.enc.MultisetOfCodes(codes))
				continue
			}
			// Set elements below non-set containers live in rootNode.
			members := collectMembers(b.rootNode, a.Rel)
			if len(members) == 0 {
				root.Cols[ai][0] = nullCode(0)
			} else if b.opts.OrderedSets {
				root.Cols[ai][0] = int64(b.enc.ListCode(members))
			} else {
				root.Cols[ai][0] = int64(b.enc.MultisetCode(members))
			}
		case Complex:
			if node := descend(b.rootNode, a.Rel); node != nil {
				root.Cols[ai][0] = int64(b.enc.Encode(node))
			} else {
				root.Cols[ai][0] = nullCode(0)
			}
		default:
			node := descend(b.rootNode, a.Rel)
			if node == nil || !node.HasValue {
				root.Cols[ai][0] = nullCode(0)
				continue
			}
			root.Cols[ai][0] = b.dictCode(root, ai, node.Value)
		}
	}

	// Tuples of child relations whose pivot sits below a non-set
	// container of the root (e.g. /root/meta/tag): their members were
	// retained in rootNode.
	for _, child := range root.Children {
		rel := schema.MustRelativize(root.Pivot, child.Pivot)
		steps := strings.Split(strings.TrimPrefix(string(rel), "./"), "/")
		if len(steps) <= 1 {
			continue // direct children were streamed
		}
		for _, m := range collectMembers(b.rootNode, rel) {
			if err := b.addTuple(child, m, 0); err != nil {
				return nil, err
			}
		}
	}

	// Finalize dense code bounds so partition builds take the
	// counting path: leaf columns are dense by construction (dictCode
	// assigns 1..len(dict)), encoder-coded columns are remapped.
	for _, r := range b.h.Relations {
		r.ColBound = make([]int64, len(r.Attrs))
		for ai, a := range r.Attrs {
			if ai >= len(r.Cols) || r.Cols[ai] == nil {
				continue
			}
			if a.Kind == Leaf {
				r.ColBound[ai] = int64(len(b.dicts[r][ai]) + 1)
			} else {
				r.ColBound[ai] = densify(r.Cols[ai])
			}
		}
	}
	return b.h, nil
}

// addTuple converts the subtree rooted at pivot into one tuple of rel
// (plus, recursively, tuples of rel's descendants). A tuple beyond
// the ingestion budget is skipped (the hierarchy is then marked
// truncated); only cancellation is an error.
func (b *Builder) addTuple(rel *Relation, pivot *datatree.Node, parentRow int32) error {
	ok, err := b.budget.admit()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	b.seq++
	row := rel.NRows()
	rel.Keys = append(rel.Keys, b.seq)
	rel.ParentIdx = append(rel.ParentIdx, parentRow)
	rel.nodes = append(rel.nodes, nil)
	if rel.Cols == nil {
		rel.Cols = make([][]int64, len(rel.Attrs))
	}
	for ai, a := range rel.Attrs {
		var code int64
		switch a.Kind {
		case SetValue:
			members := collectMembers(pivot, a.Rel)
			if len(members) == 0 {
				code = nullCode(row)
			} else if b.opts.OrderedSets {
				code = int64(b.enc.ListCode(members))
			} else {
				code = int64(b.enc.MultisetCode(members))
			}
		case Complex:
			if node := descend(pivot, a.Rel); node != nil {
				code = int64(b.enc.Encode(node))
			} else {
				code = nullCode(row)
			}
		default:
			node := descend(pivot, a.Rel)
			if node == nil || !node.HasValue {
				code = nullCode(row)
			} else {
				code = b.dictCode(rel, ai, node.Value)
			}
		}
		rel.Cols[ai] = append(rel.Cols[ai], code)
	}
	for _, child := range rel.Children {
		crel := schema.MustRelativize(rel.Pivot, child.Pivot)
		for _, m := range collectMembers(pivot, crel) {
			if err := b.addTuple(child, m, int32(row)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *Builder) dictCode(rel *Relation, ai int, value string) int64 {
	d := b.dicts[rel][ai]
	code, ok := d[value]
	if !ok {
		code = int64(len(d) + 1)
		d[value] = code
	}
	return code
}

// collectMembers returns the set-element member nodes under pivot for
// a relative path whose final step is the set label.
func collectMembers(pivot *datatree.Node, rel schema.RelPath) []*datatree.Node {
	steps := strings.TrimPrefix(string(rel), "./")
	parent := pivot
	if i := strings.LastIndexByte(steps, '/'); i >= 0 {
		parent = descendSteps(pivot, steps[:i])
		if parent == nil {
			return nil
		}
		steps = steps[i+1:]
	}
	return parent.ChildrenLabeled(steps)
}

// BuildStream constructs the hierarchical representation directly
// from an XML stream under the given schema, without materializing
// the document. The root element's label must match the schema.
func BuildStream(r io.Reader, s *schema.Schema, opts Options) (*Hierarchy, error) {
	return BuildStreamContext(context.Background(), r, s, opts)
}

// BuildStreamContext is BuildStream with cancellation and resource
// budgets. Parse-limit violations (Options.Parse) and cancellation
// are errors; exhausting Options.MaxTuples or Options.Deadline aborts
// the parse early and returns the hierarchy built so far with
// Truncated set.
func BuildStreamContext(ctx context.Context, r io.Reader, s *schema.Schema, opts Options) (*Hierarchy, error) {
	return Ingest(ctx, source.Input{
		Format: "xml",
		Stream: func(ctx context.Context, fn func(*datatree.Node) error) (string, error) {
			return datatree.StreamRootChildrenContext(ctx, r, opts.parseLimits(), fn)
		},
	}, s, opts)
}
