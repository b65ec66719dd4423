package relation

import (
	"errors"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

const errSchemaText = `warehouse: Rcd
  name: str
`

// TestSentinelErrors pins the errors.Is/errors.As contract the CLIs
// rely on for exit-code classification.
func TestSentinelErrors(t *testing.T) {
	s, err := schema.Parse(errSchemaText)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Build(nil, s, Options{}); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("Build(nil) = %v, want ErrEmptyTree", err)
	}

	doc, err := datatree.ParseXMLString("<store><name>x</name></store>")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(doc, s, Options{})
	var rm *RootMismatchError
	if !errors.As(err, &rm) {
		t.Fatalf("Build with wrong root = %v, want RootMismatchError", err)
	}
	if rm.What != "tree" || rm.Root != "store" || rm.SchemaRoot != "warehouse" {
		t.Fatalf("RootMismatchError fields = %+v", rm)
	}
	if !strings.Contains(rm.Error(), `tree root "store"`) {
		t.Fatalf("unexpected message: %s", rm.Error())
	}

	_, err = BuildStream(strings.NewReader("<store><name>x</name></store>"), s, Options{})
	rm = nil
	if !errors.As(err, &rm) || rm.What != "document" {
		t.Fatalf("BuildStream with wrong root = %v, want document RootMismatchError", err)
	}
}
