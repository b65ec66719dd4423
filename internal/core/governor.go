package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"discoverxfd/internal/trace"
)

// governor is the resource-governance state shared by one discovery
// run. It distinguishes two ways a run can end early:
//
//   - cancellation (the context fired): the run aborts with an error;
//   - budget exhaustion (the wall-clock deadline passed, or a search
//     bound such as MaxLatticeLevel cut the traversal): the run keeps
//     whatever it has found and reports a partial Result with
//     Stats.Truncated set — graceful degradation, never an error.
//
// All methods are safe for concurrent use by parallel discovery
// workers and are no-ops on a nil receiver, so ungoverned entry
// points need no special casing.
type governor struct {
	ctx      context.Context
	deadline time.Time // zero = no wall-clock budget

	// tr is the run-stamped tracer (nil = untraced). Governor events
	// are emitted outside mu: a slow tracing backend must never hold
	// up the workers polling expired/cancelled.
	tr trace.Tracer

	mu        sync.Mutex
	truncated bool   // guarded by mu
	reason    string // guarded by mu
}

func newGovernor(ctx context.Context, opts *Options) *governor {
	return &governor{ctx: ctx, deadline: opts.Deadline, tr: opts.Tracer}
}

// cancelled returns a wrapped context error once the context fires.
//
// One carve-out keeps deadline composition deterministic: when the
// context died of its own *deadline* and the run's wall-clock budget
// is also spent, the exhaustion is treated as budget truncation — the
// run winds down through the expired() checks and returns the partial
// Result found so far, never an error. The public layer composes the
// governor deadline as min(Limits.Deadline, ctx deadline), so a fired
// context deadline always implies an expired budget; without the
// carve-out the two checks would race and the outcome (partial result
// versus error) would depend on which poll site ran first. Explicit
// cancellation (context.Canceled) always aborts with an error.
func (g *governor) cancelled() error {
	if g == nil {
		return nil
	}
	select {
	case <-g.ctx.Done():
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) && g.expired() {
			return nil
		}
		return fmt.Errorf("core: discovery cancelled: %w", g.ctx.Err())
	default:
		return nil
	}
}

// expired reports whether the wall-clock budget is spent, recording
// the truncation on first observation.
func (g *governor) expired() bool {
	if g == nil || g.deadline.IsZero() {
		return false
	}
	g.mu.Lock()
	if g.truncated {
		g.mu.Unlock()
		return true
	}
	if !time.Now().After(g.deadline) {
		g.mu.Unlock()
		return false
	}
	const reason = "deadline exceeded"
	g.truncated = true
	g.reason = reason
	g.mu.Unlock()
	g.emitTruncate(reason)
	return true
}

// emitTruncate reports a budget truncation to the trace. Called once
// per run (first observation wins), after the mutex is released.
func (g *governor) emitTruncate(reason string) {
	if g.tr != nil {
		trace.Emit(g.tr, &trace.Event{Kind: trace.KindGovernor, Action: "truncate", Detail: reason})
	}
}

// productWorkers returns how many goroutines a parallel partition
// product batch may use: the job count, capped at the machine's
// parallelism. Subtree workers each run their own batches; the Go
// scheduler multiplexes the short-lived product goroutines, and the
// cap keeps any single batch from flooding it. Nil-safe like every
// governor method (ungoverned tests run serial batches of one).
func (g *governor) productWorkers(jobs int) int {
	if g == nil {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); jobs > p {
		return p
	}
	return jobs
}

// workerGroup launches the engine's parallel workers. It is the only
// place in the library allowed to start goroutines: every worker it
// spawns is joined by Wait, and a panic inside a worker is converted
// into an ordinary error carrying the worker's stack, so a bug in one
// worker surfaces as the run's error instead of crashing the process.
// The xfdlint govdiscipline analyzer enforces that bare `go`
// statements and raw sync.WaitGroup fan-out stay out of the rest of
// the engine (see docs/INTERNALS.md §10).
type workerGroup struct {
	//lint:governed workerGroup is the engine-wide spawn point; its WaitGroup is joined by Wait and guarded by the panic barrier in Go.
	wg sync.WaitGroup

	mu  sync.Mutex
	err error // guarded by mu
}

// Go runs fn on a new goroutine. A panic in fn is converted into an
// error naming what (e.g. "parallel product worker for relation R")
// and handed to catch; a nil catch retains the first such error for
// Wait to return. fn must do its own cancellation checks — the group
// guarantees only the join and the panic barrier.
func (g *workerGroup) Go(what string, catch func(error), fn func()) {
	g.wg.Add(1)
	//lint:governed this is the one sanctioned spawn: Wait joins the goroutine and the deferred recover below turns its panics into errors.
	go func() {
		defer g.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				err := fmt.Errorf("core: panic in %s: %v\n%s", what, p, debug.Stack())
				if catch != nil {
					catch(err)
					return
				}
				g.mu.Lock()
				if g.err == nil {
					g.err = err
				}
				g.mu.Unlock()
			}
		}()
		fn()
	}()
}

// Wait joins every spawned worker and returns the first panic error
// recorded by a nil-catch Go, if any.
func (g *workerGroup) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// truncate records a budget exhaustion; the first reason wins.
func (g *governor) truncate(reason string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	first := !g.truncated
	if first {
		g.truncated = true
		g.reason = reason
	}
	g.mu.Unlock()
	if first {
		g.emitTruncate(reason)
	}
}

// status returns the truncation flag and reason for Stats.
func (g *governor) status() (bool, string) {
	if g == nil {
		return false, ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.truncated, g.reason
}
