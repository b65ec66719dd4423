package datatree_test

import (
	"bytes"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/xmlgen"
)

// BenchmarkParseXMLAuction parses the auction corpus at scale factor
// 8 (about 0.45 MB of XML), the document family the repository
// benchmark ingests at ×64.
func BenchmarkParseXMLAuction(b *testing.B) {
	p := xmlgen.DefaultAuction()
	p.Factor = 8
	var doc bytes.Buffer
	if err := xmlgen.Auction(p).Tree.WriteXML(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datatree.ParseXML(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
