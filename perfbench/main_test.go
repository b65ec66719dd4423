package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile pins the reported metric tables
// to BENCHMARK.json, both ways.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.file), len(c.code))
		}
		for i := range min(len(c.file), len(c.code)) {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					c.what, i, c.file[i].Name, c.file[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the benchmark runs %d", names, len(workloads))
	}
}

// TestSmoke runs every workload for a few ops on small inputs, plain
// and traced, and checks that every metric BENCHMARK.json names is
// emitted, finite and carries its unit, with no failed operation.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", traced, "--smoke"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d; stderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := bf.EndToEnd
				if traced == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s not emitted", m.Name)
					case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("metric %s = %v, not finite", m.Name, *got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if traced == "1" && *res.Metrics["fail_ratio"].Value != 0 {
					t.Errorf("fail_ratio = %v", *res.Metrics["fail_ratio"].Value)
				}
				if traced == "1" && *res.Metrics["other.share"].Value > 0.1 {
					t.Errorf("per-layer self times cover only %.1f%% of op time", 100*(1-*res.Metrics["other.share"].Value))
				}
			})
		}
	}
}

// TestCorruptedResultCountsAsFailure runs one clean op, then feeds
// the output check a corrupted copy of a real Result and expects the
// tally to count it as failed.
func TestCorruptedResultCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	c, err := newCorpus(ctx, "warehouse", ds)
	if err != nil {
		t.Fatal(err)
	}
	ph := newPhase(nil, nil)
	r := &libRunner{ctx: ctx, m: newMeter(), ph: ph}
	r.runOp(c.input(jsonTree))
	if ph.tally != (tally{attempted: 1}) {
		t.Fatalf("clean op: tally %+v, want one attempted, none failed", ph.tally)
	}

	res, err := discoverxfd.Discover(ds.Tree, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := discoverxfd.WriteJSON(&out, res); err != nil {
		t.Fatal(err)
	}
	if _, err := checkResult(c.ref, out.Bytes()); err != nil {
		t.Fatalf("uncorrupted result fails the check: %v", err)
	}
	corrupted := bytes.Replace(out.Bytes(), []byte(`"rhs": "./`), []byte(`"rhs": "./corrupted`), 1)
	if bytes.Equal(corrupted, out.Bytes()) {
		t.Fatal("result has no FD to corrupt")
	}
	_, err = checkResult(c.ref, corrupted)
	ph.tally.record(err)
	if ph.tally != (tally{attempted: 2, failed: 1}) {
		t.Fatalf("corrupted result: tally %+v, want 2 attempted, 1 failed", ph.tally)
	}
}

// TestReplayCountsWrongRediscovery checks that a served rediscovery
// disagreeing with the replayed cold discovery counts as a failure at
// every checkpoint.
func TestReplayCountsWrongRediscovery(t *testing.T) {
	ctx := context.Background()
	in, err := newServeInputs(ctx, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	gen := &patchGen{rng: rand.New(rand.NewSource(1)), in: in}
	scripts := [][]byte{gen.next(), gen.next()}
	bad, err := checkReplay(ctx, in, scripts, make([][32]byte, len(scripts)))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Fatalf("%d wrong rediscoveries counted, want 2 (checkpoints at cycles 0 and 1)", bad)
	}
}
