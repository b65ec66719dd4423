// Package source defines the pluggable document-producer layer: the
// seam between concrete document formats (XML, JSON) and the
// format-agnostic engine. A Source turns a byte stream into the data
// tree of Yu & Jagadish's model (internal/datatree), and an Input
// hands relation.Ingest either that tree or a stream of root-child
// subtrees, which it converts into tuples without materializing the
// document. Everything above this seam — schema inference,
// hierarchical representation, partition discovery — is unchanged
// across formats; that is the point of the layer.
package source

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"discoverxfd/internal/datatree"
)

// ErrUnknownFormat is returned when neither the file extension nor
// the content prefix identifies a registered document format.
// Classify with errors.Is through any wrapping the call path adds.
var ErrUnknownFormat = errors.New("source: unknown document format")

// Source is one document-format backend: it names the format,
// declares how to recognize it, and loads a document into the shared
// data-tree model.
type Source interface {
	// Format is the backend's canonical name ("xml", "json"), the
	// value -format flags carry.
	Format() string
	// Extensions lists the file extensions (with leading dot, lower
	// case) the format claims for extension-based detection.
	Extensions() []string
	// Sniff reports whether the given content prefix looks like this
	// format (first non-whitespace byte heuristics).
	Sniff(prefix []byte) bool
	// Load parses one document from r into a data tree under the
	// parse limits, checking ctx periodically.
	Load(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error)
}

// Input is one document handed to relation.Ingest: either a
// materialized tree or a stream of root-child subtrees. Exactly one
// of Tree and Stream must be set.
type Input struct {
	// Tree is the materialized document.
	Tree *datatree.Tree
	// Stream delivers the document root's direct children to fn one
	// subtree at a time and returns the root element's label. The
	// producer owns its reader and parse limits; fn's error aborts
	// the stream and is returned unchanged.
	Stream func(ctx context.Context, fn func(*datatree.Node) error) (string, error)
}

// sniffLen is how many leading bytes Detect peeks at to classify
// content whose extension is unknown.
const sniffLen = 512

// Detect resolves the source for a named input: the file extension
// decides when a registered format claims it, otherwise the first
// bytes of r are peeked. It returns the chosen source and a reader
// that replays the peeked bytes (use it in place of r). An input no
// format claims fails with ErrUnknownFormat.
func Detect(name string, r io.Reader) (Source, io.Reader, error) {
	if s, ok := ByExtension(name); ok {
		return s, r, nil
	}
	br := bufio.NewReaderSize(r, sniffLen)
	prefix, err := br.Peek(sniffLen)
	if err != nil && err != io.EOF {
		return nil, br, err
	}
	for _, s := range All() {
		if s.Sniff(prefix) {
			return s, br, nil
		}
	}
	return nil, br, fmt.Errorf("%w: %q has no recognized extension and its content matches no registered format", ErrUnknownFormat, name)
}
