package server

import (
	"context"
	"errors"
	"sync"
)

// Admission sentinel errors. Enqueue returns them synchronously; the
// handler layer maps ErrQueueFull and ErrTenantOverQuota to
// 429 + Retry-After, and ErrDraining to 503.
var (
	// ErrQueueFull means every run slot is busy and the admission
	// queue is at capacity — the server is overloaded and sheds the
	// request rather than buffering unboundedly.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrTenantOverQuota means this tenant already has its full quota
	// of requests running or queued.
	ErrTenantOverQuota = errors.New("server: tenant concurrency quota exhausted")
	// ErrDraining means the server is shutting down and admits no new
	// work.
	ErrDraining = errors.New("server: draining, not accepting new work")
)

// admission is the server's bounded admission controller: at most
// `slots` discovery runs execute concurrently, at most `depth` more
// wait in FIFO order, and no tenant may hold more than `quota` of the
// running+queued total. Everything beyond those bounds is rejected
// immediately — the queue is the only buffering the server does, so
// overload turns into fast 429s instead of unbounded latency.
//
// Admission is two-phase so that waiting is cancellable: reserve
// either grants a slot, enqueues a ticket, or fails fast with a typed
// error; wait blocks on the ticket (honoring ctx). Acquire is both in
// one call. Release hands the slot to the head of the queue,
// preserving arrival order.
type admission struct {
	mu       sync.Mutex
	slots    int            // concurrent run capacity
	depth    int            // max queued beyond running
	quota    int            // per-tenant running+queued cap; 0 = uncapped
	running  int            // guarded by mu
	queue    []*ticket      // guarded by mu
	tenants  map[string]int // running+queued per tenant; guarded by mu
	draining bool           // guarded by mu
	idle     chan struct{}  // closed when draining and running hits 0
}

// ticket is one queued admission request. ready is closed exactly
// once — either by promote (granted=true) or by drain/cancel removal.
type ticket struct {
	tenant  string
	granted bool
	err     error
	ready   chan struct{}
}

func newAdmission(slots, depth, quota int) *admission {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &admission{
		slots:   slots,
		depth:   depth,
		quota:   quota,
		tenants: make(map[string]int),
		idle:    make(chan struct{}),
	}
}

// Acquire admits one run for the tenant, blocking in FIFO order while
// the server is saturated: reserve, then wait. It returns a release
// function to defer, or a typed error: ErrQueueFull /
// ErrTenantOverQuota (shed, retry later), ErrDraining (shutting down),
// or ctx.Err() if the caller gave up while queued.
func (a *admission) Acquire(ctx context.Context, tenant string) (release func(), err error) {
	res, err := a.reserve(tenant)
	if err != nil {
		return nil, err
	}
	return res.wait(ctx)
}

// reservation is a claim reserve granted: a run slot already held, or
// a ticket queued for the next free one. Exactly one of wait or cancel
// must follow, or the slot or ticket leaks.
type reservation struct {
	a      *admission
	tenant string
	t      *ticket // nil when the slot was granted at reserve time
}

// reserve is the fast, non-blocking half of admission: it grants a
// slot, enqueues a ticket, or fails with ErrDraining,
// ErrTenantOverQuota or ErrQueueFull. The async job path reserves
// before it answers 202, so an accepted job has a place to run.
func (a *admission) reserve(tenant string) (*reservation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return nil, ErrDraining
	}
	if a.quota > 0 && a.tenants[tenant] >= a.quota {
		return nil, ErrTenantOverQuota
	}
	res := &reservation{a: a, tenant: tenant}
	if a.running < a.slots && len(a.queue) == 0 {
		a.running++
	} else {
		if len(a.queue) >= a.depth {
			return nil, ErrQueueFull
		}
		res.t = &ticket{tenant: tenant, ready: make(chan struct{})}
		a.queue = append(a.queue, res.t)
	}
	a.tenants[tenant]++
	return res, nil
}

// wait blocks until the reservation holds a slot and returns its
// release. On error — the drain's ErrDraining, or ctx.Err() if the
// caller gave up while queued — the reservation holds nothing.
func (r *reservation) wait(ctx context.Context) (release func(), err error) {
	if r.t == nil {
		return r.a.releaseFunc(r.tenant), nil
	}
	select {
	case <-r.t.ready:
		if r.t.err != nil {
			return nil, r.t.err
		}
		return r.a.releaseFunc(r.tenant), nil
	case <-ctx.Done():
		r.cancel()
		return nil, ctx.Err()
	}
}

// cancel gives the reservation up without running: a queued ticket
// leaves the queue, a granted slot is released.
func (r *reservation) cancel() {
	if r.t != nil {
		r.a.mu.Lock()
		for i, q := range r.a.queue {
			if q == r.t {
				r.a.queue = append(r.a.queue[:i], r.a.queue[i+1:]...)
				r.a.decTenant(r.tenant)
				r.a.mu.Unlock()
				return
			}
		}
		r.a.mu.Unlock()
		// Promoted or drained in the race: a drained ticket holds
		// nothing, a promoted one holds a slot to release.
		<-r.t.ready
		if r.t.err != nil {
			return
		}
	}
	r.a.releaseFunc(r.tenant)()
}

// releaseFunc returns the idempotent release for one granted slot.
func (a *admission) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.running--
			a.decTenant(tenant)
			for len(a.queue) > 0 && a.running < a.slots {
				head := a.queue[0]
				a.queue = a.queue[1:]
				a.running++
				head.granted = true
				close(head.ready)
			}
			if a.draining && a.running == 0 {
				select {
				case <-a.idle:
				default:
					close(a.idle)
				}
			}
			a.mu.Unlock()
		})
	}
}

// decTenant drops one running-or-queued count for the tenant,
// forgetting tenants that reach zero. Caller must hold a.mu.
func (a *admission) decTenant(tenant string) {
	if a.tenants[tenant]--; a.tenants[tenant] <= 0 {
		delete(a.tenants, tenant)
	}
}

// Drain stops admitting: every future Acquire fails with ErrDraining,
// and every ticket still queued is failed the same way — queued work
// has not started, so a drain sheds it rather than racing the
// shutdown clock. Running work keeps its slots; Idle reports when the
// last one releases.
func (a *admission) Drain() {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return
	}
	a.draining = true
	for _, t := range a.queue {
		t.err = ErrDraining
		a.decTenant(t.tenant)
		close(t.ready)
	}
	a.queue = nil
	if a.running == 0 {
		close(a.idle)
	}
	a.mu.Unlock()
}

// Idle returns a channel closed once Drain has been called and the
// last running slot has been released.
func (a *admission) Idle() <-chan struct{} { return a.idle }

// Load reports the current running and queued counts (for readyz and
// the stats snapshot).
func (a *admission) Load() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, len(a.queue)
}

// tenantLoad is one tenant's share of the admission state.
type tenantLoad struct {
	Running int
	Queued  int
}

// PerTenant reports each live tenant's running and queued counts (for
// the stats snapshot and the per-tenant metrics gauges). The tenants
// map counts running+queued combined, so the split is derived by
// counting the queue.
func (a *admission) PerTenant() map[string]tenantLoad {
	a.mu.Lock()
	defer a.mu.Unlock()
	queued := make(map[string]int, len(a.tenants))
	for _, t := range a.queue {
		queued[t.tenant]++
	}
	out := make(map[string]tenantLoad, len(a.tenants))
	for tenant, n := range a.tenants {
		q := queued[tenant]
		out[tenant] = tenantLoad{Running: n - q, Queued: q}
	}
	return out
}
