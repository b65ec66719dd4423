package main

// check.go verifies outputs. Every operation's Result JSON is compared
// with a reference computed in setup through the XML tree path; the
// stats member (timings, cache counters) is removed from both sides
// first, so the comparison covers exactly the discovered FDs, keys and
// redundancy witnesses.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// resultStats is the subset of the Result JSON stats member the
// per-layer ledger reads.
type resultStats struct {
	Relations          int    `json:"relations"`
	RelationsReused    int    `json:"relationsReused"`
	LatticeNodes       int    `json:"latticeNodes"`
	PartitionsComputed int    `json:"partitionsComputed"`
	CacheHits          int    `json:"partitionCacheHits"`
	CacheMisses        int    `json:"partitionCacheMisses"`
	TargetsCreated     int    `json:"targetsCreated"`
	TargetsDropped     int    `json:"targetsDropped"`
	IntraTime          string `json:"intraTime"`
	InterTime          string `json:"interTime"`
	Truncated          bool   `json:"truncated"`
}

// canonical splits a Result JSON document into its compact form
// without the stats member and the decoded stats.
func canonical(out []byte) ([]byte, resultStats, error) {
	var m map[string]json.RawMessage
	var st resultStats
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, st, fmt.Errorf("result is not JSON: %w", err)
	}
	raw, ok := m["stats"]
	if !ok {
		return nil, st, fmt.Errorf("result has no stats member")
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, st, fmt.Errorf("result stats: %w", err)
	}
	delete(m, "stats")
	c, err := json.Marshal(m)
	return c, st, err
}

// checkResult compares one operation's Result JSON with the reference
// (already canonical) and returns the decoded stats. A truncated run
// is a failure too: no workload sets a budget.
func checkResult(ref, out []byte) (resultStats, error) {
	got, st, err := canonical(out)
	if err != nil {
		return st, err
	}
	if st.Truncated {
		return st, fmt.Errorf("result truncated")
	}
	if !bytes.Equal(got, ref) {
		return st, fmt.Errorf("result differs from the reference (%d vs %d bytes)", len(got), len(ref))
	}
	return st, nil
}

// coreSample is one discovery's engine counters.
type coreSample struct {
	relations, reused, nodes, partitions int
	hits, misses, created, dropped       int
	intraMS, interMS                     float64
}

func coreSampleOf(st resultStats) coreSample {
	intra, _ := time.ParseDuration(st.IntraTime)
	inter, _ := time.ParseDuration(st.InterTime)
	return coreSample{
		relations: st.Relations, reused: st.RelationsReused, nodes: st.LatticeNodes,
		partitions: st.PartitionsComputed, hits: st.CacheHits, misses: st.CacheMisses,
		created: st.TargetsCreated, dropped: st.TargetsDropped,
		intraMS: float64(intra) / float64(time.Millisecond),
		interMS: float64(inter) / float64(time.Millisecond),
	}
}
