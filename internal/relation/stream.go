package relation

import (
	"context"
	"errors"
	"io"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// errBudgetExhausted ends a root-child feed once the tuple or
// wall-clock budget runs out; Ingest converts it into a truncated (but
// valid) hierarchy rather than an error, and a streaming parse is
// abandoned instead of read to the end.
var errBudgetExhausted = errors.New("relation: ingestion budget exhausted")

// BuildStream constructs the hierarchical representation directly
// from an XML stream under the given schema, without materializing
// the document. The root element's label must match the schema.
//
// The result equals Build's on the parsed document except that tuples
// carry sequence numbers instead of pre-order node keys and pivot
// nodes are not kept (Relation.Node returns nil), so discovery works
// identically but node-level reporting (refine.Apply, anomaly
// occurrences) and updates need the in-memory Build.
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
		Stream: func(ctx context.Context, fn func(*datatree.Node) error) (string, error) {
			return datatree.StreamRootChildrenContext(ctx, r, opts.parseLimits(), fn)
		},
	}, s, opts)
}
