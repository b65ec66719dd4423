// Package discoverxfd is a library for discovering XML functional
// dependencies (XML FDs), XML keys, and the data redundancies they
// indicate, directly from XML data. It implements the DiscoverXFD
// system of Yu & Jagadish, "Efficient Discovery of XML Data
// Redundancies", VLDB 2006.
//
// # Quickstart
//
//	eng := discoverxfd.NewEngine(nil) // default options
//	doc, err := eng.LoadDocumentFile(ctx, "warehouse.xml")
//	if err != nil { ... }
//	res, err := eng.Discover(ctx, doc, nil) // schema inferred
//	if err != nil { ... }
//	for _, r := range res.Redundancies {
//		fmt.Println(r)
//	}
//
// Every operation — loading, building hierarchies, discovery,
// evaluation, constraint checks, updates — is a method of Engine.
// The one shortcut is Discover(doc, s, opts), which runs a one-shot
// Engine without a context.
//
// Discovered constraints are reported in the paper's notation: an FD
// such as
//
//	{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)
//
// reads "for any two books (generalized tree tuples of the class
// pivoted at /warehouse/state/store/book), if they agree on their
// store's name and on their ISBN, they agree on their price". Paths
// are relative to the pivot; a path naming a set element (such as
// ./author) compares the whole unordered collection, which is the
// paper's generalization beyond earlier XML FD notions.
//
// The underlying machinery — schema model, data trees, hierarchical
// representation, partitions, the lattice algorithms — lives in the
// internal packages; this package re-exports the types a client
// needs.
package discoverxfd

import (
	"context"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
	"discoverxfd/internal/trace"
)

// Re-exported model types.
type (
	// Document is a parsed XML document in the paper's data-tree
	// model (Definition 2).
	Document = datatree.Tree
	// Node is one data node of a Document.
	Node = datatree.Node
	// Schema is the nested-relational schema model (Definition 1).
	Schema = schema.Schema
	// Path is an absolute element path such as
	// /warehouse/state/store.
	Path = schema.Path
	// RelPath is a pivot-relative path such as ./ISBN or
	// ../contact/name.
	RelPath = schema.RelPath
	// FD is a discovered XML functional dependency (Definition 7).
	FD = core.FD
	// Key is a discovered XML key (Definition 8).
	Key = core.Key
	// Redundancy is a satisfied interesting FD whose LHS is not a
	// key, with witness counts (Definition 11).
	Redundancy = core.Redundancy
	// Result is the output of Discover.
	Result = core.Result
	// Stats carries discovery instrumentation.
	Stats = core.Stats
	// Evaluation is the outcome of checking one FD directly against
	// the data (Engine.Evaluate).
	Evaluation = core.Evaluation
	// Hierarchy is the hierarchical representation of a document (one
	// relation per essential tuple class).
	Hierarchy = relation.Hierarchy
	// RootMismatchError reports input whose root label does not match
	// the schema root; classify with errors.As.
	RootMismatchError = relation.RootMismatchError
	// Metrics is an Engine's cumulative counter snapshot (see
	// Engine.Metrics).
	Metrics = core.Metrics
	// Tracer receives a run's trace events (see Options.Trace). Use
	// NewJSONLTracer or NewProgressTracer for the built-in backends,
	// or implement the one-method interface; implementations must be
	// safe for concurrent use under Options.Parallel.
	Tracer = trace.Tracer
	// TraceEvent is one typed trace event; see internal/trace for the
	// schema (also documented in docs/INTERNALS.md §12).
	TraceEvent = trace.Event
)

// Re-exported sentinel errors, for classification with errors.Is
// through any wrapping the call path adds.
var (
	// ErrEmptyTree is returned when a document has no root node.
	ErrEmptyTree = relation.ErrEmptyTree
	// ErrUnknownFormat is returned by Engine.LoadDocumentFile when
	// neither the file extension nor the content matches a registered
	// document format (XML, JSON).
	ErrUnknownFormat = source.ErrUnknownFormat
)

// Options configures an Engine (and the one-shot Discover).
type Options struct {
	// MaxLHS bounds the number of attributes drawn from one hierarchy
	// level into an FD's LHS; 0 means unbounded.
	MaxLHS int
	// IntraOnly restricts discovery to intra-relation FDs (no
	// partition targets), i.e. DiscoverFD per relation.
	IntraOnly bool
	// NoSetElements omits set pseudo-attributes, restricting the FD
	// language to the earlier tuple-based notion (no FDs over set
	// elements such as ./author).
	NoSetElements bool
	// OrderedSets compares set elements as ordered lists instead of
	// unordered collections (the Section 4.5 ablation). Off by
	// default, matching the paper's design choice.
	OrderedSets bool
	// KeepConstantFDs reports FDs with an empty LHS (document-wide
	// constant elements); usually noise, off by default.
	KeepConstantFDs bool
	// ApproxError, when positive, additionally reports approximate
	// intra-relation FDs: constraints that hold after removing at
	// most this fraction of a class's tuples (TANE's g3 measure).
	// Useful on dirty data, where a near-constraint still marks a
	// redundancy worth refining. Results land in Result.ApproxFDs.
	ApproxError float64
	// Parallel discovers independent relation subtrees concurrently;
	// results are identical to the serial run. Workers are
	// panic-safe: a panic in one subtree surfaces as an error from
	// Discover, not a process crash.
	Parallel bool
	// Limits bounds the resources the call may consume (input size,
	// search depth, wall-clock time). See the Limits type for the
	// error-versus-graceful-truncation contract. The zero value
	// applies only the parser's default nesting bound.
	Limits Limits
	// Trace receives the run's trace events: pipeline stage spans,
	// per-relation traversal spans, per-lattice-level progress,
	// partition-target lifecycle, governor decisions, and constraint
	// checks. nil (the default) disables tracing at no measurable
	// cost. Combine backends with trace.Multi via NewJSONLTracer and
	// NewProgressTracer; traced and untraced runs produce identical
	// Results.
	Trace Tracer
	// RelationHook, when non-nil, is invoked just before each
	// relation's lattice traversal with the relation's pivot path. It
	// is a testing and fault-injection seam (the chaos suite uses it
	// to panic inside a chosen engine stage); production callers leave
	// it nil. The hook runs on discovery worker goroutines and must be
	// safe for concurrent use under Parallel.
	RelationHook func(pivot Path)
}

// coreOptions maps the public options onto the engine's. The
// wall-clock deadline is left zero: each Engine call computes its own
// (see Limits.deadlineFor).
func (o *Options) coreOptions() core.Options {
	return core.Options{
		MaxLHS:            o.MaxLHS,
		NoInterRelation:   o.IntraOnly,
		PropagatePartial:  true,
		KeepConstantFDs:   o.KeepConstantFDs,
		ApproxError:       o.ApproxError,
		Parallel:          o.Parallel,
		MaxLatticeLevel:   o.Limits.MaxLatticeLevel,
		MaxPartitionBytes: o.Limits.MaxPartitionBytes,
		Tracer:            o.Trace,
		RelationHook:      o.RelationHook,
	}
}

func (o *Options) relationOptions(deadline time.Time) relation.Options {
	return relation.Options{
		OrderedSets:     o.OrderedSets,
		DisableSetAttrs: o.NoSetElements,
		MaxTuples:       o.Limits.MaxTuples,
		Deadline:        deadline,
		Parse:           o.Limits.parseLimits(),
	}
}

// ParseDocument parses an XML document from a string.
func ParseDocument(s string) (*Document, error) {
	return datatree.ParseXMLString(s)
}

// ParseSchema reads a schema in the nested-relational text notation
// (see internal/schema.Parse for the grammar):
//
//	warehouse: Rcd
//	  state: SetOf Rcd
//	    name: str
//	    ...
func ParseSchema(text string) (*Schema, error) {
	return schema.Parse(text)
}

// InferSchema derives a schema from a document: elements repeated
// under one parent become set elements, leaf types are the most
// specific of int/float/str their values admit.
func InferSchema(doc *Document) (*Schema, error) {
	return datatree.InferSchema(doc)
}

// Conform checks that a document conforms to a schema and returns the
// first violation, or nil.
func Conform(doc *Document, s *Schema) error {
	return datatree.Conform(doc, s)
}

// Discover runs DiscoverXFD on the document with a one-shot Engine:
// it finds all minimal interesting XML FDs and Keys and derives the
// redundancies the FDs indicate. If s is nil the schema is inferred
// from the data; opts may be nil for defaults. Discover is the one
// convenience outside the Engine: for cancellation, repeated runs or
// any other operation, construct an Engine with NewEngine and call
// its methods.
func Discover(doc *Document, s *Schema, opts *Options) (*Result, error) {
	return NewEngine(opts).Discover(context.Background(), doc, s)
}
