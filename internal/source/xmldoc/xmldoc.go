// Package xmldoc is the XML document source: the original front-end
// of the system, repackaged behind the source seam. The parser itself
// lives in internal/datatree (it is the data model's native
// serialization, shared by WriteXML and the golden corpora); this
// package adapts it to the source.Source contract so the engine
// reaches XML the same way it reaches every other format.
package xmldoc

import (
	"context"
	"io"

	"discoverxfd/internal/datatree"
)

// Doc is the XML source backend.
type Doc struct{}

// New returns the XML source backend.
func New() Doc { return Doc{} }

// Format returns "xml".
func (Doc) Format() string { return "xml" }

// Extensions returns the file extensions the XML format claims.
func (Doc) Extensions() []string { return []string{".xml"} }

// Sniff reports whether the content prefix looks like an XML
// document: the first non-whitespace byte is '<'.
func (Doc) Sniff(prefix []byte) bool {
	for _, b := range prefix {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '<':
			return true
		default:
			return false
		}
	}
	return false
}

// Load parses an XML document into a data tree (see
// datatree.ParseXMLContext for the attribute and mixed-content
// conventions).
func (Doc) Load(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	return datatree.ParseXMLContext(ctx, r, lim)
}
