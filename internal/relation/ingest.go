package relation

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// Ingest is the single entry seam between document producers and the
// hierarchical representation: it builds the hierarchy from one
// source.Input, whichever shape the producer delivered. Both shapes
// feed the one builder the document root's children in document
// order; what differs follows from the shape alone. A materialized
// tree keeps pre-order node keys, the pivot nodes and the encoding
// state, so the hierarchy is updatable, and the tree is not mutated.
// A root-child stream gets sequence keys and keeps no nodes, so
// memory stays proportional to the representation plus one subtree.
// Both share the layout, the budget (MaxTuples/Deadline truncation
// keeps a document-order prefix; cancellation is an error), and the
// root-label check; BuildContext and BuildStreamContext are thin
// wrappers over this seam.
func Ingest(ctx context.Context, in source.Input, s *schema.Schema, opts Options) (*Hierarchy, error) {
	switch {
	case in.Tree != nil:
		t := in.Tree
		if t.Root == nil {
			return nil, ErrEmptyTree
		}
		if t.Root.Label != s.Root {
			return nil, &RootMismatchError{What: "tree", Root: t.Root.Label, SchemaRoot: s.Root}
		}
		b, err := newBuilder(ctx, s, opts, t)
		if err != nil {
			return nil, err
		}
		for _, c := range t.Root.Children {
			if err := b.add(c); errors.Is(err, errBudgetExhausted) {
				break
			} else if err != nil {
				return nil, err
			}
		}
		return b.finish(), nil
	case in.Stream != nil:
		b, err := newBuilder(ctx, s, opts, nil)
		if err != nil {
			return nil, err
		}
		rootLabel, err := in.Stream(ctx, b.add)
		if err != nil && !errors.Is(err, errBudgetExhausted) {
			return nil, err
		}
		if rootLabel != s.Root {
			return nil, &RootMismatchError{What: "document", Root: rootLabel, SchemaRoot: s.Root}
		}
		return b.finish(), nil
	default:
		return nil, fmt.Errorf("relation: source input carries neither a tree nor a stream")
	}
}

// builder is the one hierarchy builder. It receives the document
// root's children one at a time, in document order, and turns each
// into tuples top-down: a tuple's cells are coded before its child
// tuples are added, so every relation's rows are in document order and
// a truncated build keeps a document-order prefix.
type builder struct {
	h      *Hierarchy
	budget buildBudget
	ps     *patchState
	// keep is set for a tree feed: rows keep pivot node keys and
	// nodes, and the encoder keeps its per-node memo for updates.
	// A stream feed numbers rows in sequence and forgets each root
	// child once it is ingested.
	keep bool
	seq  int
	// view is a root node whose only child is the root child being
	// ingested, so the root relation's cells and child tuples are read
	// from one subtree at a time without reparenting it.
	view *datatree.Node
	// path holds, by Relation.Index, the relation's pivot relative to
	// its parent relation's pivot.
	path []schema.RelPath
	// rootSets maps the label of each set element directly below the
	// root to its set pseudo-attribute in the root relation (-1 when
	// set attributes are disabled).
	rootSets map[string]int
	// codes collects, by root attribute, the subtree codes of the
	// top-level set members ingested so far; finish codes the set.
	codes [][]int
	// seen records the non-set root children already ingested: as
	// with descend, the first occurrence of a label wins.
	seen map[string]bool
}

// newBuilder lays out the hierarchy and returns a builder for the
// tree feed (t non-nil) or the stream feed.
func newBuilder(ctx context.Context, s *schema.Schema, opts Options, t *datatree.Tree) (*builder, error) {
	h, err := layoutHierarchy(s, opts)
	if err != nil {
		return nil, err
	}
	root := h.Root
	b := &builder{
		h:        h,
		budget:   buildBudget{ctx: ctx, opts: &opts, h: h},
		ps:       newPatchState(h, t, opts.OrderedSets),
		keep:     t != nil,
		view:     &datatree.Node{Label: s.Root, Children: make([]*datatree.Node, 1)},
		path:     make([]schema.RelPath, len(h.Relations)),
		rootSets: make(map[string]int),
		codes:    make([][]int, len(root.Attrs)),
		seen:     make(map[string]bool),
	}
	for _, r := range h.Relations {
		r.Cols = make([][]int64, len(r.Attrs))
		r.ColBound = make([]int64, len(r.Attrs))
		for ai := range r.ColBound {
			r.ColBound[ai] = 1
		}
		if r.Parent == nil {
			continue
		}
		rel := schema.MustRelativize(r.Parent.Pivot, r.Pivot)
		b.path[r.Index] = rel
		if label := strings.TrimPrefix(string(rel), "./"); r.Parent == root && !strings.Contains(label, "/") {
			b.rootSets[label] = root.AttrIndex(rel)
		}
	}
	// The root tuple: its cells start null and are filled as the root
	// children that hold them arrive.
	root.Keys = []int{0}
	root.ParentIdx = []int32{-1}
	for ai := range root.Cols {
		root.Cols[ai] = []int64{nullCode(0)}
	}
	if t != nil {
		root.Keys[0] = t.Root.Key
		root.nodes = []*datatree.Node{t.Root}
		b.ps.enc.Reserve(t.Size()) // set columns encode nearly every node
	}
	return b, nil
}

// add ingests one direct child of the document root (element subtree
// or "@attr" leaf). Once the ingestion budget is exhausted it returns
// errBudgetExhausted, which ends the feed and leaves a truncated
// hierarchy; cancellation is an error.
func (b *builder) add(n *datatree.Node) error {
	if err := b.budget.cancelled(); err != nil {
		return err
	}
	if b.h.Truncated {
		return errBudgetExhausted
	}
	root := b.h.Root
	b.view.Children[0] = n
	if ai, ok := b.rootSets[n.Label]; ok {
		if ai >= 0 {
			b.codes[ai] = append(b.codes[ai], b.ps.enc.Encode(n))
		}
	} else {
		if _, err := b.h.Schema.Resolve(root.Pivot.Child(n.Label)); err != nil {
			return fmt.Errorf("relation: %w", err)
		}
		if b.seen[n.Label] {
			return nil
		}
		b.seen[n.Label] = true
		// Only the root's attributes beneath n are non-null in view.
		for ai := range root.Attrs {
			if code := b.ps.cell(root, ai, b.view, 0); !IsNull(code) {
				root.Cols[ai][0] = code
			}
		}
	}
	err := b.addChildren(root, b.view, 0)
	if !b.keep {
		b.ps.enc.Forget(n)
	}
	return err
}

// addTuple turns the subtree rooted at pivot into one tuple of r and,
// recursively, tuples of r's descendant relations. A tuple beyond the
// ingestion budget is skipped (the hierarchy is then marked
// truncated); only cancellation is an error.
func (b *builder) addTuple(r *Relation, pivot *datatree.Node, parentRow int32) error {
	if ok, err := b.budget.admit(); !ok {
		return err
	}
	t := r.NRows()
	if b.keep {
		r.Keys = append(r.Keys, pivot.Key)
		r.nodes = append(r.nodes, pivot)
	} else {
		b.seq++
		r.Keys = append(r.Keys, b.seq)
	}
	r.ParentIdx = append(r.ParentIdx, parentRow)
	for ai := range r.Attrs {
		r.Cols[ai] = append(r.Cols[ai], b.ps.cell(r, ai, pivot, t))
	}
	return b.addChildren(r, pivot, int32(t))
}

// addChildren adds the tuples of r's child relations found beneath
// the pivot of r's tuple row.
func (b *builder) addChildren(r *Relation, pivot *datatree.Node, row int32) error {
	for _, c := range r.Children {
		parent, label := memberParent(pivot, b.path[c.Index])
		if parent == nil {
			continue
		}
		for _, m := range parent.Children {
			if m.Label != label {
				continue
			}
			if err := b.addTuple(c, m, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish codes the root's top-level set pseudo-attributes from the
// member codes collected on the way and returns the hierarchy, which
// keeps its encoding state (and so is updatable) on a tree feed.
func (b *builder) finish() *Hierarchy {
	root := b.h.Root
	for ai, codes := range b.codes {
		if len(codes) == 0 {
			continue
		}
		var code int
		if b.ps.ordered {
			code = b.ps.enc.ListOfCodes(codes)
		} else {
			code = b.ps.enc.MultisetOfCodes(codes)
		}
		root.Cols[ai][0] = b.ps.dense(root, ai, int64(code))
	}
	if b.keep {
		b.h.upd = b.ps
	}
	return b.h
}
