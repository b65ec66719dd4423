// Package discoverxfd is a library for discovering XML functional
// dependencies (XML FDs), XML keys, and the data redundancies they
// indicate, directly from XML data. It implements the DiscoverXFD
// system of Yu & Jagadish, "Efficient Discovery of XML Data
// Redundancies", VLDB 2006.
//
// # Quickstart
//
//	doc, err := discoverxfd.LoadDocumentFile("warehouse.xml")
//	if err != nil { ... }
//	res, err := discoverxfd.Discover(doc, nil, nil) // schema inferred
//	if err != nil { ... }
//	for _, r := range res.Redundancies {
//		fmt.Println(r)
//	}
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
	"fmt"
	"io"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
	"discoverxfd/internal/source/jsondoc"
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
	// the data (Evaluate).
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
	// ErrUnknownFormat is returned by LoadDocumentFile when neither
	// the file extension nor the content matches a registered document
	// format (XML, JSON).
	ErrUnknownFormat = source.ErrUnknownFormat
)

// Options configures Discover.
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

// coreOptions maps the public options onto the engine's, carrying the
// absolute wall-clock deadline computed at the call boundary.
func (o *Options) coreOptions(deadline time.Time) core.Options {
	if o == nil {
		o = &Options{}
	}
	return core.Options{
		MaxLHS:            o.MaxLHS,
		NoInterRelation:   o.IntraOnly,
		PropagatePartial:  true,
		KeepConstantFDs:   o.KeepConstantFDs,
		ApproxError:       o.ApproxError,
		Parallel:          o.Parallel,
		MaxLatticeLevel:   o.Limits.MaxLatticeLevel,
		MaxPartitionBytes: o.Limits.MaxPartitionBytes,
		Deadline:          deadline,
		Tracer:            o.Trace,
		RelationHook:      o.RelationHook,
	}
}

func (o *Options) relationOptions(deadline time.Time) relation.Options {
	if o == nil {
		o = &Options{}
	}
	return relation.Options{
		OrderedSets:     o.OrderedSets,
		DisableSetAttrs: o.NoSetElements,
		MaxTuples:       o.Limits.MaxTuples,
		Deadline:        deadline,
		Parse:           o.Limits.parseLimits(),
	}
}

// LoadDocument parses an XML document from r under the parser's
// default limits. Use LoadDocumentContext for explicit limits or
// cancellation.
func LoadDocument(r io.Reader) (*Document, error) {
	return datatree.ParseXML(r)
}

// LoadDocumentContext parses an XML document from r under the parse
// limits of opts (MaxDepth, MaxNodes), checking ctx periodically.
// Documents exceeding a parse limit fail fast with a "datatree:"
// error — a deep-nesting or entity-bloat bomb never exhausts memory.
func LoadDocumentContext(ctx context.Context, r io.Reader, opts *Options) (*Document, error) {
	return NewEngine(opts).LoadDocument(ctx, r)
}

// LoadDocumentFile parses a document from a file, detecting the
// format from the file extension (.xml, .json) or — when the
// extension is not registered — from the first bytes of the content.
// Unrecognized input fails with ErrUnknownFormat.
func LoadDocumentFile(path string) (*Document, error) {
	return LoadDocumentFileContext(context.Background(), path, nil)
}

// LoadDocumentFileContext is LoadDocumentFile with parse limits and
// cancellation (see LoadDocumentContext).
func LoadDocumentFileContext(ctx context.Context, path string, opts *Options) (*Document, error) {
	return NewEngine(opts).LoadDocumentFile(ctx, path)
}

// LoadJSON parses a JSON document from r into the same data-tree
// model as LoadDocument, so everything downstream — schema inference,
// hierarchy construction, discovery — is format-agnostic. Arrays
// become set elements (declared repeatable even with one member),
// nested objects become singleton records, scalars become leaves with
// their literal spelling preserved, and explicit null stays
// distinguishable from a missing member. See internal/source/jsondoc
// for the full mapping.
func LoadJSON(r io.Reader) (*Document, error) {
	return jsondoc.Parse(r)
}

// LoadJSONContext is LoadJSON with parse limits and cancellation (see
// LoadDocumentContext).
func LoadJSONContext(ctx context.Context, r io.Reader, opts *Options) (*Document, error) {
	return NewEngine(opts).LoadJSON(ctx, r)
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

// BuildHierarchy constructs the hierarchical representation of the
// document (one relation per essential tuple class). Most callers
// can use Discover directly; the hierarchy is exposed for Evaluate
// and for inspecting tuple classes.
func BuildHierarchy(doc *Document, s *Schema, opts *Options) (*Hierarchy, error) {
	return BuildHierarchyContext(context.Background(), doc, s, opts)
}

// BuildHierarchyContext is BuildHierarchy with cancellation and
// resource budgets: cancelling ctx aborts with an error, while
// exhausting Limits.MaxTuples or Limits.Deadline stops ingestion
// early and returns a consistent hierarchy marked truncated.
func BuildHierarchyContext(ctx context.Context, doc *Document, s *Schema, opts *Options) (*Hierarchy, error) {
	return NewEngine(opts).BuildHierarchy(ctx, doc, s)
}

// buildHierarchyAt carries the absolute deadline computed at whichever
// public entry point owns the whole-call budget.
func buildHierarchyAt(ctx context.Context, doc *Document, s *Schema, opts *Options, deadline time.Time) (*Hierarchy, error) {
	if s == nil {
		inferred, err := datatree.InferSchema(doc)
		if err != nil {
			return nil, err
		}
		s = inferred
	} else if err := datatree.Conform(doc, s); err != nil {
		// Surface a mismatched root as the typed sentinel so callers
		// (and the CLI exit-code classification) can errors.As it;
		// conformance reports it first, with an untyped error.
		if doc != nil && doc.Root != nil && doc.Root.Label != s.Root {
			return nil, &relation.RootMismatchError{What: "tree", Root: doc.Root.Label, SchemaRoot: s.Root}
		}
		return nil, err
	}
	return relation.BuildContext(ctx, doc, s, opts.relationOptions(deadline))
}

// BuildHierarchyStream constructs the hierarchical representation
// directly from an XML stream without materializing the document:
// memory stays proportional to the representation plus the largest
// single root-child subtree. The schema is required (inference needs
// the whole document). Streamed hierarchies drop node-level detail,
// so discovery and Evaluate work identically but ApplyRefinement and
// DetectAnomalies need the in-memory BuildHierarchy.
func BuildHierarchyStream(r io.Reader, s *Schema, opts *Options) (*Hierarchy, error) {
	return BuildHierarchyStreamContext(context.Background(), r, s, opts)
}

// BuildHierarchyStreamContext is BuildHierarchyStream with
// cancellation and resource budgets (see BuildHierarchyContext; parse
// limits apply to the stream as it is read).
func BuildHierarchyStreamContext(ctx context.Context, r io.Reader, s *Schema, opts *Options) (*Hierarchy, error) {
	return NewEngine(opts).BuildHierarchyStream(ctx, r, s)
}

func buildHierarchyStreamAt(ctx context.Context, r io.Reader, s *Schema, opts *Options, deadline time.Time) (*Hierarchy, error) {
	if s == nil {
		return nil, fmt.Errorf("discoverxfd: streaming requires an explicit schema")
	}
	return relation.BuildStreamContext(ctx, r, s, opts.relationOptions(deadline))
}

// DiscoverStream runs DiscoverXFD over an XML stream (see
// BuildHierarchyStream).
func DiscoverStream(r io.Reader, s *Schema, opts *Options) (*Result, error) {
	return DiscoverStreamContext(context.Background(), r, s, opts)
}

// DiscoverStreamContext is DiscoverStream with cancellation and
// resource budgets. The Limits.Deadline budget covers the whole call:
// streaming ingestion and discovery share it.
func DiscoverStreamContext(ctx context.Context, r io.Reader, s *Schema, opts *Options) (*Result, error) {
	return NewEngine(opts).DiscoverStream(ctx, r, s)
}

// Discover runs DiscoverXFD on the document: it finds all minimal
// interesting XML FDs and Keys and derives the redundancies the FDs
// indicate. If s is nil the schema is inferred from the data; opts
// may be nil for defaults.
func Discover(doc *Document, s *Schema, opts *Options) (*Result, error) {
	return DiscoverContext(context.Background(), doc, s, opts)
}

// DiscoverContext is Discover with cancellation and resource budgets.
// Cancelling ctx aborts with an error; exhausting a Limits budget
// (deadline, tuple cap, lattice cap) instead returns the partial
// Result found so far with Stats.Truncated and Stats.TruncatedReason
// set. The Limits.Deadline budget covers hierarchy construction and
// discovery together.
func DiscoverContext(ctx context.Context, doc *Document, s *Schema, opts *Options) (*Result, error) {
	return NewEngine(opts).Discover(ctx, doc, s)
}

// DiscoverHierarchy runs DiscoverXFD on a prebuilt hierarchy.
func DiscoverHierarchy(h *Hierarchy, opts *Options) (*Result, error) {
	return DiscoverHierarchyContext(context.Background(), h, opts)
}

// DiscoverHierarchyContext is DiscoverHierarchy with cancellation and
// resource budgets (see DiscoverContext).
func DiscoverHierarchyContext(ctx context.Context, h *Hierarchy, opts *Options) (*Result, error) {
	return NewEngine(opts).DiscoverHierarchy(ctx, h)
}

// Evaluate checks a single XML FD ⟨class, lhs, rhs⟩ directly against
// a hierarchy, independent of discovery: whether it holds (strong
// satisfaction), whether its LHS is a key, and how many redundant
// values it witnesses.
func Evaluate(h *Hierarchy, class Path, lhs []RelPath, rhs RelPath) (Evaluation, error) {
	return EvaluateContext(context.Background(), h, class, lhs, rhs)
}

// EvaluateContext is Evaluate with cancellation, checked periodically
// over the class's tuples.
func EvaluateContext(ctx context.Context, h *Hierarchy, class Path, lhs []RelPath, rhs RelPath) (Evaluation, error) {
	return NewEngine(nil).Evaluate(ctx, h, class, lhs, rhs)
}
