// Benchmarks regenerating every table and figure of the paper's
// evaluation (reconstructed as experiments E1–E11; see DESIGN.md and
// EXPERIMENTS.md). Each benchmark measures the discovery work of one
// experiment's configurations; `go run ./cmd/xfdbench` prints the
// full tables with derived columns.
package discoverxfd_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"discoverxfd"

	"discoverxfd/internal/core"
	"discoverxfd/internal/depminer"
	"discoverxfd/internal/flat"
	"discoverxfd/internal/fun"
	"discoverxfd/internal/notions"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

func mustHierarchy(b *testing.B, ds xmlgen.Dataset, opts relation.Options) *relation.Hierarchy {
	b.Helper()
	h, err := relation.Build(ds.Tree, ds.Schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func runDiscover(b *testing.B, h *relation.Hierarchy, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Discover(h, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Datasets — Table 1: full DiscoverXFD on each dataset at
// its default size.
func BenchmarkE1Datasets(b *testing.B) {
	sets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
	}
	for _, ds := range sets {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			h := mustHierarchy(b, ds, relation.Options{})
			runDiscover(b, h, core.Options{PropagatePartial: true})
		})
	}
}

// BenchmarkE2Scalability — time-vs-size figure: DiscoverXFD on the
// auction benchmark across scale factors. Near-linear ns/op growth
// down the series is the reproduction target.
func BenchmarkE2Scalability(b *testing.B) {
	for _, factor := range []int{1, 2, 4, 8} {
		factor := factor
		b.Run(fmt.Sprintf("auction/x%d", factor), func(b *testing.B) {
			ds := xmlgen.Auction(xmlgen.AuctionParams{Factor: factor, Seed: 4})
			h := mustHierarchy(b, ds, relation.Options{})
			b.ReportMetric(float64(h.TotalTuples()), "tuples")
			runDiscover(b, h, core.Options{PropagatePartial: true})
		})
	}
	for _, scale := range []int{1, 2, 4, 8} {
		scale := scale
		b.Run(fmt.Sprintf("psd/x%d", scale), func(b *testing.B) {
			p := xmlgen.DefaultPSD()
			p.Entries *= scale
			p.ProteinPool *= scale
			ds := xmlgen.PSD(p)
			h := mustHierarchy(b, ds, relation.Options{})
			b.ReportMetric(float64(h.TotalTuples()), "tuples")
			runDiscover(b, h, core.Options{PropagatePartial: true})
		})
	}
}

// BenchmarkE3FlatVsHier — hierarchical-vs-flat figure: DiscoverXFD on
// the hierarchical representation against TANE on the flat one, as
// the number of unrelated set elements grows.
func BenchmarkE3FlatVsHier(b *testing.B) {
	for k := 1; k <= 4; k++ {
		k := k
		ds := xmlgen.PSD(xmlgen.PSDParams{Entries: 40, ProteinPool: 20, UnrelatedSets: k, MembersPerSet: 3, Seed: 3})
		b.Run(fmt.Sprintf("hier/sets=%d", k), func(b *testing.B) {
			h := mustHierarchy(b, ds, relation.Options{})
			runDiscover(b, h, core.Options{PropagatePartial: true})
		})
		b.Run(fmt.Sprintf("flat/sets=%d", k), func(b *testing.B) {
			tbl, err := flat.Build(ds.Tree, ds.Schema, 1<<20)
			if err != nil {
				b.Skipf("flat representation too large: %v", err)
			}
			b.ReportMetric(float64(tbl.NRows), "flat-tuples")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := tbl.Discover(core.Options{MaxLHS: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4SchemaWidth — schema-width figure: DiscoverFD on a
// single relation as the attribute count grows; cost is exponential
// in width.
func BenchmarkE4SchemaWidth(b *testing.B) {
	for _, w := range []int{4, 6, 8, 10, 12} {
		w := w
		b.Run(fmt.Sprintf("attrs=%d", w), func(b *testing.B) {
			ds := xmlgen.Wide(xmlgen.DefaultWide(w))
			h := mustHierarchy(b, ds, relation.Options{})
			rels := h.EssentialRelations()
			rel := rels[len(rels)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := core.DiscoverRelation(rel, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5IntraInter — cost-split table: intra-relation-only
// discovery against full DiscoverXFD on the same document.
func BenchmarkE5IntraInter(b *testing.B) {
	ds := xmlgen.DBLP(xmlgen.DefaultDBLP())
	h := mustHierarchy(b, ds, relation.Options{})
	b.Run("intra-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Discover(h, core.Options{NoInterRelation: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-xfd", func(b *testing.B) {
		runDiscover(b, h, core.Options{PropagatePartial: true})
	})
}

// BenchmarkE6Pruning — pruning-ablation table: DiscoverXFD with the
// paper's pruning rules individually disabled (LHS capped so the
// unpruned lattice stays finite).
func BenchmarkE6Pruning(b *testing.B) {
	ds := xmlgen.PSD(xmlgen.DefaultPSD())
	h := mustHierarchy(b, ds, relation.Options{})
	variants := []struct {
		name string
		opts core.Options
	}{
		{"all-pruning", core.Options{PropagatePartial: true, MaxLHS: 4}},
		{"no-key-pruning", core.Options{PropagatePartial: true, MaxLHS: 4, DisableKeyPruning: true}},
		{"no-fd-pruning", core.Options{PropagatePartial: true, MaxLHS: 4, DisableFDPruning: true}},
		{"no-pruning", core.Options{PropagatePartial: true, MaxLHS: 4, DisableKeyPruning: true, DisableFDPruning: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			runDiscover(b, h, v.opts)
		})
	}
}

// BenchmarkE7SetVsList — Section 4.5 order remark: building and
// discovering under unordered-set versus ordered-list semantics for
// set elements.
func BenchmarkE7SetVsList(b *testing.B) {
	ds := xmlgen.DBLP(xmlgen.DefaultDBLP())
	for _, ordered := range []bool{false, true} {
		ordered := ordered
		name := "set"
		if ordered {
			name = "list"
		}
		b.Run(name, func(b *testing.B) {
			h := mustHierarchy(b, ds, relation.Options{OrderedSets: ordered})
			runDiscover(b, h, core.Options{PropagatePartial: true})
		})
	}
}

// BenchmarkE8Approx — approximate-FD extension: discovery with a g3
// budget over a noisy relation.
func BenchmarkE8Approx(b *testing.B) {
	p := xmlgen.DefaultWide(8)
	p.NoisePermille = 10
	ds := xmlgen.Wide(p)
	h := mustHierarchy(b, ds, relation.Options{})
	runDiscover(b, h, core.Options{PropagatePartial: true, ApproxError: 0.02})
}

// BenchmarkE10Notions — Section 2.3 evaluators on the warehouse
// constraints (path-based is quadratic in RHS nodes; tree-tuple pays
// the unnesting).
func BenchmarkE10Notions(b *testing.B) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	fd := notions.PathFD{
		LHS: []schema.Path{"/warehouse/state/store/book/ISBN"},
		RHS: "/warehouse/state/store/book/author",
	}
	b.Run("path-based", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := notions.PathBasedHolds(ds.Tree, fd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := notions.TreeTupleHolds(ds.Tree, ds.Schema, fd, 1<<21); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Baselines — the three relational discoverers on one
// identical relation.
func BenchmarkE11Baselines(b *testing.B) {
	p := xmlgen.DefaultWide(7)
	p.Rows = 800
	ds := xmlgen.Wide(p)
	h := mustHierarchy(b, ds, relation.Options{})
	rels := h.EssentialRelations()
	rel := rels[len(rels)-1]
	b.Run("tane-lattice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := core.DiscoverRelation(rel, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("depminer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := depminer.Discover(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fun", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fun.Discover(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamVsMemory — the streaming builder against the
// in-memory path on a serialized document; allocs/op shows the
// memory gap.
func BenchmarkStreamVsMemory(b *testing.B) {
	ds := xmlgen.Auction(xmlgen.AuctionParams{Factor: 4, Seed: 4})
	xml := ds.Tree.XMLString()
	b.Run("in-memory", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc, err := discoverxfd.ParseDocument(xml)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := discoverxfd.Discover(doc, ds.Schema, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := discoverxfd.NewEngine(nil).DiscoverStream(context.Background(), strings.NewReader(xml), ds.Schema); err != nil {
				b.Fatal(err)
			}
		}
	})
}
