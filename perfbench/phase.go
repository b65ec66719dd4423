package main

// phase.go holds one measured window's raw observations and turns them
// into the reported metrics.

import (
	"time"
)

// phase is one measured window.
type phase struct {
	classes []string
	// discover lists the classes the discover_* quantiles cover.
	discover []string
	lat      map[string][]float64 // class → op latencies (ms)

	bytes      int64 // input bytes processed in the window
	ops        int
	allocBytes uint64 // heap bytes allocated by the measured operations
	elapsed    time.Duration
	tally      tally
	peakHeap   uint64
	rt0, rt1   runtimeStats

	led   *ledger
	core  []coreSample
	reuse []coreSample // discoveries whose relation reuse is reported
	live  []float64    // heap retained per input byte
	extra map[string]float64
}

func newPhase(classes, discover []string) *phase {
	return &phase{classes: classes, discover: discover,
		lat: map[string][]float64{}, extra: map[string]float64{}}
}

// classQuantile averages the per-class q-quantiles of op latency over
// classes. Each class is one input and path, so a quantile never falls
// in the gap between two inputs of different cost.
func (p *phase) classQuantile(classes []string, q float64) float64 {
	var sum float64
	n := 0
	for _, c := range classes {
		xs := append([]float64(nil), p.lat[c]...)
		if len(xs) == 0 {
			continue
		}
		sum += quantile(xs, q)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// opTimeMS is the summed per-class median op time, a mix-independent
// op cost used to compare the traced and untraced halves.
func (p *phase) opTimeMS() float64 {
	return p.classQuantile(p.classes, 0.5) * float64(len(p.classes))
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(setupS float64) map[string]float64 {
	m := map[string]float64{"setup_s": setupS}
	sec := p.elapsed.Seconds()
	m["mb_per_s"] = float64(p.bytes) / 1e6 / sec
	m["ops_per_s"] = float64(p.ops) / sec
	m["alloc_bytes_per_byte"] = ratio(float64(p.allocBytes), float64(p.bytes))
	m["peak_heap_mb"] = float64(p.peakHeap) / 1e6
	m["discover_p50_ms"] = p.classQuantile(p.discover, 0.5)
	m["discover_p90_ms"] = p.classQuantile(p.discover, 0.9)
	return m
}

// perLayerMetrics computes the ledger from a run's two halves: self
// times and per-layer allocation from the traced half's spans, and
// everything that tracing would perturb (engine counters and times,
// GC share, server-reported handler times, latencies) from the
// untraced half.
func perLayerMetrics(plain, traced *phase) map[string]float64 {
	tot, rootMS := selfTimes(traced.led.spans)
	get := func(name string) *layerTotals {
		if t := tot[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	m := map[string]float64{}
	perByte := func(prefix, layer string, allocsPerKB bool) {
		t := get(layer)
		m[prefix+".ns_per_byte"] = ratio(t.selfMS*1e6, float64(t.bytes))
		m[prefix+".alloc_bytes_per_byte"] = ratio(float64(t.allocBytes), float64(t.bytes))
		if allocsPerKB {
			m[prefix+".allocs_per_kb"] = ratio(float64(t.allocs), float64(t.bytes)/1024)
		}
	}
	perByte("source.xml", "source.xml", true)
	perByte("source.json", "source.json", true)
	perByte("datatree.infer", "datatree.infer", false)
	perByte("relation.build", "relation.build", true)
	perByte("relation.stream", "relation.stream", false)
	m["relation.live_bytes_per_byte"] = mean(traced.live)

	runs := float64(get("core.discover").count)
	m["core.discover.ms"] = ratio(get("core.discover").selfMS, runs)
	m["core.alloc_bytes_per_op"] = ratio(float64(get("core.discover").allocBytes), runs)
	for _, st := range []string{"plan", "traverse", "minimize", "verify", "assemble"} {
		m["core."+st+".ms"] = ratio(get("core."+st).selfMS, runs)
	}
	var c coreSample
	for _, s := range plain.core {
		c.nodes += s.nodes
		c.partitions += s.partitions
		c.hits += s.hits
		c.misses += s.misses
		c.created += s.created
		c.dropped += s.dropped
		c.intraMS += s.intraMS
		c.interMS += s.interMS
	}
	n := float64(len(plain.core))
	m["core.intra_ms"] = ratio(c.intraMS, n)
	m["core.inter_ms"] = ratio(c.interMS, n)
	m["core.lattice_nodes"] = ratio(float64(c.nodes), n)
	m["core.partitions_computed"] = ratio(float64(c.partitions), n)
	m["core.partition_cache_hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["core.targets_created"] = ratio(float64(c.created), n)
	m["core.targets_dropped"] = ratio(float64(c.dropped), n)
	var reused, rels int
	for _, s := range plain.reuse {
		reused += s.reused
		rels += s.relations
	}
	m["core.relations_reused_ratio"] = ratio(float64(reused), float64(rels))

	enc := get("encode")
	m["encode.ms_per_op"] = ratio(enc.selfMS, float64(enc.count))
	m["encode.alloc_bytes_per_op"] = ratio(float64(enc.allocBytes), float64(enc.count))

	for _, k := range []string{"update.warm_kept_ratio", "server.patch.handler_ms",
		"server.discover.handler_ms", "server.rediscover.handler_ms", "server.sheds",
		"http.discover.overhead_ms", "patch_p50_ms", "rediscover_p50_ms", "rediscover_p90_ms"} {
		m[k] = plain.extra[k]
	}

	m["runtime.gc_cpu_fraction"] = ratio(plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.totalCPU-plain.rt0.totalCPU)
	m["runtime.gc_cycles_per_op"] = ratio(float64(plain.rt1.gcCycles-plain.rt0.gcCycles), float64(plain.ops))

	var all tally
	all.merge(plain.tally)
	all.merge(traced.tally)
	m["fail_ratio"] = ratio(float64(all.failed), float64(all.attempted))
	// Unplaced program spans also sit inside some layer's self time, so
	// counting them here errs toward less coverage, never more.
	m["other.share"] = ratio(get("other").selfMS+traced.led.unplacedMS, rootMS)
	m["trace.overhead_ratio"] = ratio(traced.opTimeMS(), plain.opTimeMS())
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
