// Command perfbench is the repository benchmark: it drives the
// discovery pipeline end to end on generated inputs and reports the
// end-to-end metrics a user sees plus a per-layer ledger from parse to
// HTTP. See NOTES.md for why each workload exists and which layer
// should move which metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload bulk-ingest --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 the run is split into an
// untraced and a traced half and the metrics are the per-layer ledger.
// A line before it records the environment and the generated corpora.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mb_per_s", "MB/s"},
	{"ops_per_s", "1/s"},
	{"alloc_bytes_per_byte", "B/B"},
	{"peak_heap_mb", "MB"},
	{"discover_p50_ms", "ms"},
	{"discover_p90_ms", "ms"},
}

// perLayer lists the metrics every workload reports with --trace 1.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"source.xml.ns_per_byte", "ns/B"},
	{"source.xml.alloc_bytes_per_byte", "B/B"},
	{"source.xml.allocs_per_kb", "1/KB"},
	{"source.json.ns_per_byte", "ns/B"},
	{"source.json.alloc_bytes_per_byte", "B/B"},
	{"source.json.allocs_per_kb", "1/KB"},
	{"datatree.infer.ns_per_byte", "ns/B"},
	{"datatree.infer.alloc_bytes_per_byte", "B/B"},
	{"relation.build.ns_per_byte", "ns/B"},
	{"relation.build.alloc_bytes_per_byte", "B/B"},
	{"relation.build.allocs_per_kb", "1/KB"},
	{"relation.stream.ns_per_byte", "ns/B"},
	{"relation.stream.alloc_bytes_per_byte", "B/B"},
	{"relation.live_bytes_per_byte", "B/B"},
	{"core.discover.ms", "ms"},
	{"core.intra_ms", "ms"},
	{"core.inter_ms", "ms"},
	{"core.plan.ms", "ms"},
	{"core.traverse.ms", "ms"},
	{"core.minimize.ms", "ms"},
	{"core.verify.ms", "ms"},
	{"core.assemble.ms", "ms"},
	{"core.lattice_nodes", "count"},
	{"core.partitions_computed", "count"},
	{"core.partition_cache_hit_ratio", "ratio"},
	{"core.targets_created", "count"},
	{"core.targets_dropped", "count"},
	{"core.alloc_bytes_per_op", "B"},
	{"core.relations_reused_ratio", "ratio"},
	{"update.warm_kept_ratio", "ratio"},
	{"server.patch.handler_ms", "ms"},
	{"encode.ms_per_op", "ms"},
	{"encode.alloc_bytes_per_op", "B"},
	{"server.discover.handler_ms", "ms"},
	{"server.rediscover.handler_ms", "ms"},
	{"server.sheds", "count"},
	{"http.discover.overhead_ms", "ms"},
	{"patch_p50_ms", "ms"},
	{"rediscover_p50_ms", "ms"},
	{"rediscover_p90_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"other.share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	smoke    bool
}

// spansDir is where a traced run writes its spans, under the working
// directory.
const spansDir = ".bench_build/spans"

// report is what a workload hands back: its metric values, the
// operation tally, and the corpora it generated.
type report struct {
	metrics map[string]float64
	tally   tally
	corpora []corpusInfo
}

// corpusInfo describes one generated input.
type corpusInfo struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Bytes  int    `json:"bytes"`
	Nodes  int    `json:"nodes"`
	Tuples int    `json:"tuples"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config) (*report, error){
	"bulk-ingest":  runBulkIngest,
	"lattice-wide": runLatticeWide,
	"serve-mixed":  runServeMixed,
}

// logOut receives per-operation failure diagnostics.
var logOut io.Writer = os.Stderr

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, "|"))
	fs.Int64Var(&cfg.seed, "seed", 1, "input-generation seed")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run a few ops per workload on small inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.traced = *traceFlag == 1

	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	out, err := resultJSON(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	env, _ := json.Marshal(map[string]any{
		"env": map[string]any{
			"workload": cfg.workload, "seed": cfg.seed, "trace": *traceFlag,
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
		"corpora": rep.corpora,
	})
	fmt.Fprintln(stdout, string(env))
	fmt.Fprintln(stdout, string(out))
	return 0
}

// resultJSON renders the final line: every metric of defs, by name
// with its unit. A metric the workload failed to produce, or one that
// is not finite, is an error rather than a silent gap.
func resultJSON(rep *report, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		ms[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.tally.failed == 0 && rep.tally.attempted > 0, rep.tally.attempted, rep.tally.failed, ms})
}

// timedSetup runs setup reps times and returns the last result with
// the median duration in seconds, so set-up cost is a steady metric.
// Each rep starts from a collected heap; earlier results are handed to
// discard (when non-nil) untimed.
func timedSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// setupReps is how many times a run sets up: five for a steady
// median, once in smoke mode.
func setupReps(cfg config) int {
	if cfg.smoke {
		return 1
	}
	return 5
}
