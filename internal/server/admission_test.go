package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"discoverxfd"
	"discoverxfd/internal/faultinject"
)

func mustAcquire(t *testing.T, a *admission, tenant string) func() {
	t.Helper()
	release, err := a.Acquire(context.Background(), tenant)
	if err != nil {
		t.Fatalf("acquire(%q): %v", tenant, err)
	}
	return release
}

// TestAdmissionBounds pins the three rejection modes and FIFO handoff.
func TestAdmissionBounds(t *testing.T) {
	a := newAdmission(1, 1, 0)
	r1 := mustAcquire(t, a, "a")

	// One waiter fits in the queue.
	got := make(chan error, 1)
	ready := make(chan struct{})
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		close(ready)
		release, err := a.Acquire(context.Background(), "b")
		if err == nil {
			defer release()
		}
		got <- err
	}()
	<-ready
	// Wait for the waiter to actually enqueue.
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next request is shed synchronously.
	if _, err := a.Acquire(context.Background(), "c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	// Release hands the slot to the queued waiter.
	r1()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

// TestAdmissionTenantQuota pins the per-tenant cap: a tenant at quota
// is shed even with capacity free, and its count is released with its
// slots.
func TestAdmissionTenantQuota(t *testing.T) {
	a := newAdmission(4, 4, 1)
	r1 := mustAcquire(t, a, "hog")
	if _, err := a.Acquire(context.Background(), "hog"); !errors.Is(err, ErrTenantOverQuota) {
		t.Fatalf("err = %v, want ErrTenantOverQuota", err)
	}
	r2 := mustAcquire(t, a, "polite") // capacity remains for others
	r1()
	r3 := mustAcquire(t, a, "hog") // quota freed with the slot
	r2()
	r3()
}

// TestAdmissionCancelWhileQueued pins cancellable waiting: a waiter
// that gives up leaves no residue (its tenant count and queue entry
// are reclaimed).
func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, 1)
	r1 := mustAcquire(t, a, "a")

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		_, err := a.Acquire(ctx, "b")
		got <- err
	}()
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, queued := a.Load(); queued != 0 {
		t.Fatal("cancelled waiter left a queue entry")
	}
	// Tenant b's quota count was reclaimed with the ticket.
	a.mu.Lock()
	residue := a.tenants["b"]
	a.mu.Unlock()
	if residue != 0 {
		t.Errorf("cancelled waiter left tenant count %d", residue)
	}
	r1()
}

// TestAdmissionDrain pins the drain contract: queued waiters fail with
// ErrDraining, new arrivals fail fast, and Idle closes when the last
// running slot releases.
func TestAdmissionDrain(t *testing.T) {
	a := newAdmission(1, 4, 0)
	r1 := mustAcquire(t, a, "a")

	got := make(chan error, 1)
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		_, err := a.Acquire(context.Background(), "b")
		got <- err
	}()
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	a.Drain()
	if err := <-got; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter err = %v, want ErrDraining", err)
	}
	if _, err := a.Acquire(context.Background(), "c"); !errors.Is(err, ErrDraining) {
		t.Fatalf("new acquire err = %v, want ErrDraining", err)
	}
	select {
	case <-a.Idle():
		t.Fatal("idle closed while a slot is still held")
	default:
	}
	r1()
	select {
	case <-a.Idle():
	case <-time.After(time.Second):
		t.Fatal("idle never closed after the last release")
	}
	a.Drain() // idempotent
}

// TestAdmissionConcurrent hammers the controller with -race: many
// goroutines acquiring, holding briefly, and releasing; the invariant
// running <= slots and queued <= depth must hold throughout, and
// everything must terminate with the controller empty.
func TestAdmissionConcurrent(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	const slots, depth = 3, 5
	a := newAdmission(slots, depth, 2)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		//lint:governed test goroutines, joined by the WaitGroup below.
		go func(i int) {
			defer wg.Done()
			tenant := string(rune('a' + i%6))
			for j := 0; j < 20; j++ {
				release, err := a.Acquire(context.Background(), tenant)
				if err != nil {
					continue // shed: fine under load
				}
				running, queued := a.Load()
				if running > slots || queued > depth {
					t.Errorf("bounds violated: running=%d queued=%d", running, queued)
				}
				release()
				release() // double release must be harmless
			}
		}(i)
	}
	wg.Wait()
	if running, queued := a.Load(); running != 0 || queued != 0 {
		t.Errorf("controller not empty after load: running=%d queued=%d", running, queued)
	}
}

// TestStatusOf pins the error → HTTP status mapping.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrQueueFull, 429},
		{ErrTenantOverQuota, 429},
		{ErrDraining, 503},
		{discoverxfd.ErrBadLimits, 400},
		{context.DeadlineExceeded, 504},
		{context.Canceled, statusClientClosedRequest},
		{badRequest("x"), 400},
		{&httpError{status: 413, msg: "big"}, 413},
		{errors.New("mystery"), 500},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestReservationCancelReleases pins that a reservation given up
// without running holds nothing afterwards, whether it was granted at
// reserve time, still queued, or promoted in the meantime.
func TestReservationCancelReleases(t *testing.T) {
	a := newAdmission(1, 2, 0)
	granted, err := a.reserve("a")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := a.reserve("b")
	if err != nil {
		t.Fatal(err)
	}
	promoted, err := a.reserve("c")
	if err != nil {
		t.Fatal(err)
	}
	if running, q := a.Load(); running != 1 || q != 2 {
		t.Fatalf("load = %d running, %d queued; want 1, 2", running, q)
	}

	queued.cancel() // leaves the queue
	if running, q := a.Load(); running != 1 || q != 1 {
		t.Fatalf("after queued cancel: %d running, %d queued; want 1, 1", running, q)
	}
	granted.cancel() // hands the slot to "c"
	if running, q := a.Load(); running != 1 || q != 0 {
		t.Fatalf("after granted cancel: %d running, %d queued; want 1, 0", running, q)
	}
	promoted.cancel() // releases the slot it was promoted into
	if running, q := a.Load(); running != 0 || q != 0 {
		t.Fatalf("after promoted cancel: %d running, %d queued; want 0, 0", running, q)
	}
	if per := a.PerTenant(); len(per) != 0 {
		t.Fatalf("tenants still counted after every cancel: %v", per)
	}
}

// TestReserveFailsFast pins that reserve never blocks: with the slot
// held and the queue full it sheds at once, and a reservation's wait
// honours its context without leaking the ticket.
func TestReserveFailsFast(t *testing.T) {
	a := newAdmission(1, 1, 0)
	release := mustAcquire(t, a, "a")
	defer release()
	res, err := a.reserve("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.reserve("c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := res.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait err = %v, want context.Canceled", err)
	}
	if _, q := a.Load(); q != 0 {
		t.Fatalf("cancelled wait left %d queued", q)
	}
}
