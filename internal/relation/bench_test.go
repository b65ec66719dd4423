package relation_test

import (
	"bytes"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// auctionDoc serializes the auction corpus at scale factor 8 (about
// 450 KB of XML) and infers its schema.
func auctionDoc(b *testing.B) []byte {
	b.Helper()
	p := xmlgen.DefaultAuction()
	p.Factor = 8
	var buf bytes.Buffer
	if err := xmlgen.Auction(p).Tree.WriteXML(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBuildHierarchyTree measures the in-memory front end from
// document bytes: parse the XML tree, infer its schema, and build the
// hierarchical representation. Run with -benchmem for allocations.
func BenchmarkBuildHierarchyTree(b *testing.B) {
	doc := auctionDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := datatree.ParseXML(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		s, err := datatree.InferSchema(t)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relation.Build(t, s, relation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildHierarchyStream measures the streaming front end from
// document bytes to the hierarchical representation, under the schema
// inferred once beforehand.
func BenchmarkBuildHierarchyStream(b *testing.B) {
	doc := auctionDoc(b)
	t, err := datatree.ParseXML(bytes.NewReader(doc))
	if err != nil {
		b.Fatal(err)
	}
	s, err := datatree.InferSchema(t)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.BuildStream(bytes.NewReader(doc), s, relation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
