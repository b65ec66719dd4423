package jsondoc

import (
	"bytes"
	"testing"

	"discoverxfd/internal/xmlgen"
)

// BenchmarkParseJSONAuction parses the JSON twin of the auction corpus
// at scale factor 8, the document family the repository benchmark
// ingests at ×64.
func BenchmarkParseJSONAuction(b *testing.B) {
	p := xmlgen.DefaultAuction()
	p.Factor = 8
	ds := xmlgen.Auction(p)
	var doc bytes.Buffer
	if err := Write(&doc, ds.Tree, ds.Schema); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
