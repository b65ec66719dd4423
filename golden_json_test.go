package discoverxfd_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// jsonTwinPath is the committed JSON spelling of the warehouse golden
// corpus; -update regenerates it from the XML generator through the
// jsondoc serializer.
const jsonTwinPath = "testdata/json/warehouse.json"

// TestJSONTwinGolden is the source-layer differential harness: the
// committed JSON twin of the warehouse corpus, loaded through the
// JSON front-end and discovered through the unchanged engine, must
// emit byte-identical Result JSON to the committed XML-derived golden
// fixture. Result JSON names no document or node keys, so the two
// spellings can and must collide exactly — any divergence means the
// JSON mapping changed the data the engine sees.
func TestJSONTwinGolden(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())

	// The twin is itself pinned: serializing the generated tree must
	// reproduce the committed bytes, so silent drift in the serializer
	// (or generator) cannot masquerade as source parity.
	var twin bytes.Buffer
	if err := jsondoc.Write(&twin, ds.Tree, ds.Schema); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(jsonTwinPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonTwinPath, twin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(jsonTwinPath)
	if err != nil {
		t.Fatalf("missing JSON twin fixture (run with -update): %v", err)
	}
	if !bytes.Equal(committed, twin.Bytes()) {
		t.Fatalf("serialized twin drifted from committed %s\n%s", jsonTwinPath, diffHint(committed, twin.Bytes()))
	}

	// The JSON front-end must reconstruct the XML-generated tree
	// exactly — labels, values, document order.
	doc, err := discoverxfd.NewEngine(nil).LoadJSON(context.Background(), bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc.String(), ds.Tree.String(); got != want {
		t.Fatalf("JSON twin parses to a different tree than the XML original")
	}
	if err := discoverxfd.Conform(doc, ds.Schema); err != nil {
		t.Fatalf("JSON twin does not conform to the warehouse schema: %v", err)
	}

	// The acceptance criterion: discovery over the JSON twin is
	// byte-identical to the committed XML golden.
	res, err := discoverxfd.Discover(doc, ds.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	zeroTimes(res)
	var got bytes.Buffer
	if err := discoverxfd.WriteJSON(&got, res); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "warehouse.json"))
	if err != nil {
		t.Fatalf("missing XML golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("JSON twin Result JSON differs from the XML golden\n%s", diffHint(want, got.Bytes()))
	}

	// With no declared schema both spellings must also infer the same
	// schema (the JSON set hints recover what XML repetition implies
	// on this corpus), keeping the schemaless quickstart path on
	// parity too.
	jsonInferred, err := discoverxfd.InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	xmlInferred, err := discoverxfd.InferSchema(ds.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if jsonInferred.String() != xmlInferred.String() {
		t.Errorf("inferred schemas diverge\njson:\n%s\nxml:\n%s", jsonInferred, xmlInferred)
	}
}
