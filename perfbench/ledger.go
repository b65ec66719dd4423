package main

// ledger.go records the traced run: spans the benchmark opens around
// its own calls into each layer, plus the stage, run, request and
// update spans the program already emits through its Tracer seam.
// Spans stay in memory and are written as JSONL when the run ends;
// the per-layer metrics are self times computed from them.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discoverxfd/internal/trace"
)

// span is one timed interval of one operation. Parent is the id of
// the span that caused it (0 for an operation's root span). Class is
// the op's input class on a root span and the route on a server
// request span.
type span struct {
	Name       string  `json:"name"`
	ID         int64   `json:"id"`
	Parent     int64   `json:"parent"`
	Op         int64   `json:"op"`
	Class      string  `json:"class,omitempty"`
	StartMS    float64 `json:"start_ms"`
	EndMS      float64 `json:"end_ms"`
	Bytes      int64   `json:"bytes,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	Allocs     uint64  `json:"allocs,omitempty"`

	// Correlation keys for program-emitted spans, resolved to Parent
	// when the run is analysed.
	traceID string
	run     string
}

func (s *span) dur() float64 { return s.EndMS - s.StartMS }

// ledger is the in-memory span store of one traced phase. It is also
// the trace.Tracer handed to the program, keeping only the span-closing
// events it needs. A nil *ledger records nothing.
type ledger struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// pending holds program spans emitted during the library call in
	// flight (single-goroutine workloads), adopted by the caller.
	pending []span
	// unplacedMS is the time of program spans inside the window that
	// could not be parented on an op.
	unplacedMS float64
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

func (l *ledger) ms(t time.Time) float64 { return float64(t.Sub(l.epoch)) / float64(time.Millisecond) }

func (l *ledger) id() int64 { return l.nextID.Add(1) }

func (l *ledger) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Emit implements trace.Tracer. Closing events carry their duration,
// so a span is rebuilt from the emission time alone.
func (l *ledger) Emit(ev *trace.Event) {
	var name string
	switch ev.Kind {
	case trace.KindStageEnd:
		name = "core." + ev.Stage
	case trace.KindRunEnd:
		name = "core.discover"
	case trace.KindRequestEnd:
		name = "server.request"
	case trace.KindUpdateApply:
		name = "update.apply"
	default:
		return
	}
	end := l.ms(time.Now())
	s := span{Name: name, ID: l.id(), StartMS: end - ev.DurationMS, EndMS: end,
		Class: ev.Detail, traceID: ev.TraceID, run: ev.Run}
	l.mu.Lock()
	l.pending = append(l.pending, s)
	l.mu.Unlock()
}

// adopt moves the program spans emitted since the last call under
// parent. Used by the single-goroutine library workloads, where every
// pending span belongs to the call that just returned; the engine's
// own run span is dropped because the benchmark times that call.
func (l *ledger) adopt(parent *span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.pending {
		if s.Name == "core.discover" {
			continue
		}
		s.Parent, s.Op = parent.ID, parent.Op
		l.spans = append(l.spans, s)
	}
	l.pending = l.pending[:0]
}

// write stores every span as one JSON object per line.
func (l *ledger) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals is one span name's aggregate over a phase.
type layerTotals struct {
	selfMS     float64
	count      int
	bytes      int64
	allocBytes uint64
	allocs     uint64
}

// selfTimes attributes every span's duration minus its children's to
// the span's name; the root op span's own remainder, the op time no
// layer span covers, is reported as "other". It returns the totals and
// the summed root time.
func selfTimes(spans []span) (map[string]*layerTotals, float64) {
	children := make(map[int64]float64, len(spans))
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] += spans[i].dur()
		}
	}
	out := map[string]*layerTotals{}
	var rootMS float64
	for i := range spans {
		s := &spans[i]
		name := s.Name
		if s.Parent == 0 {
			name = "other"
			rootMS += s.dur()
		}
		t := out[name]
		if t == nil {
			t = &layerTotals{}
			out[name] = t
		}
		t.selfMS += s.dur() - children[s.ID]
		t.count++
		t.bytes += s.Bytes
		t.allocBytes += s.AllocBytes
		t.allocs += s.Allocs
	}
	return out, rootMS
}

// meter reads the runtime counters sampled at layer boundaries: the
// heap in use by objects, and cumulative allocation. Not safe for
// concurrent use; each issuing goroutine owns one.
type meter struct {
	s []metrics.Sample
}

func newMeter() *meter {
	return &meter{s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read samples the counters.
func (m *meter) read() (heap, allocBytes, allocs uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64()
}

// peakSampler polls the heap in use by objects every millisecond and
// keeps the maximum. Samples taken only at layer boundaries miss the
// peak inside a layer and land at a random point of the GC cycle, so
// their maximum wanders from run to run.
type peakSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startPeakSampler() *peakSampler {
	runtime.GC() // start from the live heap, not from set-up garbage
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		m := newMeter()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if heap, _, _ := m.read(); heap > p.peak {
				p.peak = heap
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the peak in bytes.
func (p *peakSampler) finish() uint64 {
	close(p.stop)
	<-p.done
	return p.peak
}

// runtimeStats is the process-wide state at a window edge.
type runtimeStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
