package relation

import (
	"context"
	"errors"
	"fmt"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// Ingest is the single entry seam between document producers and the
// hierarchical representation: it builds the hierarchy from one
// source.Input, whichever shape the producer delivered. A
// materialized tree takes the in-memory path (pre-order node keys,
// retained pivot nodes and encoding state, so the hierarchy is
// updatable); a root-child stream takes the builder path (sequence
// keys, no retained nodes, memory proportional to the representation
// plus one subtree). Both paths share the layout, the budget
// (MaxTuples/Deadline truncation vs cancellation errors), and the
// root-label check; BuildContext and BuildStreamContext are thin
// wrappers over this seam.
func Ingest(ctx context.Context, in source.Input, s *schema.Schema, opts Options) (*Hierarchy, error) {
	switch {
	case in.Tree != nil:
		return buildFromTree(ctx, in.Tree, s, opts)
	case in.Stream != nil:
		return buildFromStream(ctx, in, s, opts)
	default:
		return nil, fmt.Errorf("relation: source input carries neither a tree nor a stream")
	}
}

// buildFromTree is the in-memory ingestion path (see BuildContext for
// the public contract).
func buildFromTree(ctx context.Context, t *datatree.Tree, s *schema.Schema, opts Options) (*Hierarchy, error) {
	if t == nil || t.Root == nil {
		return nil, ErrEmptyTree
	}
	if t.Root.Label != s.Root {
		return nil, &RootMismatchError{What: "tree", Root: t.Root.Label, SchemaRoot: s.Root}
	}

	h, err := layoutHierarchy(s, opts)
	if err != nil {
		return nil, err
	}

	// Pass 2: populate tuples top-down. The encoding state (encoder,
	// interners, densifier remaps) is retained on the hierarchy so
	// later Apply calls can re-encode mutated tuples consistently with
	// the original build — that retention is what makes an in-memory
	// hierarchy updatable.
	ps := newPatchState(t, len(h.Relations))
	ps.enc.Reserve(t.Size()) // set columns encode nearly every node
	bb := &buildBudget{ctx: ctx, opts: &opts, h: h}
	h.Root.nodes = []*datatree.Node{t.Root}
	h.Root.Keys = []int{t.Root.Key}
	h.Root.ParentIdx = []int32{-1}
	for _, r := range h.Relations {
		if r != h.Root {
			if err := populateTuples(r, bb); err != nil {
				return nil, err
			}
		}
		if err := populateColumns(bb, r, ps); err != nil {
			return nil, err
		}
	}

	// Pass 3: set pseudo-attributes need the child tuples, so fill
	// them after all relations are populated. A deadline truncation
	// does not skip this pass: the truncated snapshot must still be
	// structurally consistent (every relation's columns filled), so
	// only explicit cancellation aborts here.
	if !opts.DisableSetAttrs {
		for _, r := range h.Relations {
			if err := bb.cancelled(); err != nil {
				return nil, err
			}
			fillSetColumns(h, r, ps, opts.OrderedSets)
		}
	}
	h.upd = ps
	return h, nil
}

// buildFromStream is the streaming ingestion path (see
// BuildStreamContext for the public contract). The producer owns its
// reader and parse limits; this side owns layout, budgets, and the
// root-label check.
func buildFromStream(ctx context.Context, in source.Input, s *schema.Schema, opts Options) (*Hierarchy, error) {
	b, err := NewBuilderContext(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	rootLabel, err := in.Stream(ctx, b.AddRootChild)
	if err != nil && !errors.Is(err, errBudgetExhausted) {
		return nil, err
	}
	if rootLabel != s.Root {
		return nil, &RootMismatchError{What: "document", Root: rootLabel, SchemaRoot: s.Root}
	}
	return b.Finish()
}
