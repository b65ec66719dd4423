package datatree

import (
	"context"
	"io"
)

// StreamRootChildren parses an XML document and delivers each direct
// child of the root element — including the root's attributes, which
// the data model represents as "@name" leaf children — as a completed
// subtree to fn, in document order, without retaining the whole tree.
// Each delivered node has correct Parent/Children links within its
// subtree but no pre-order key (the caller assigns identities).
// Memory stays proportional to the largest single child subtree.
//
// It returns the root element's label. A non-nil error from fn aborts
// the parse and is returned verbatim. DefaultLimits applies; use
// StreamRootChildrenContext for explicit limits or cancellation.
func StreamRootChildren(r io.Reader, fn func(child *Node) error) (string, error) {
	return StreamRootChildrenContext(context.Background(), r, DefaultLimits(), fn)
}

// StreamRootChildrenContext is StreamRootChildren with explicit
// resource limits and a context. MaxNodes bounds the cumulative node
// count over all delivered subtrees, not just the retained one;
// cancellation is checked periodically between decoder tokens.
func StreamRootChildrenContext(ctx context.Context, r io.Reader, lim ParseLimits, fn func(child *Node) error) (string, error) {
	root, err := parseXML(ctx, r, lim, fn)
	if root == nil {
		return "", err
	}
	return root.Label, err
}
