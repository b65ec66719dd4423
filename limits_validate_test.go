package discoverxfd_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"discoverxfd"
)

// TestLimitsValidate pins the usage-error contract: every negative
// field fails with ErrBadLimits naming the field, and the zero value
// (all budgets off) is always valid.
func TestLimitsValidate(t *testing.T) {
	if err := (discoverxfd.Limits{}).Validate(); err != nil {
		t.Fatalf("zero Limits must validate, got %v", err)
	}
	if err := (discoverxfd.Limits{
		MaxDepth: 100, MaxNodes: 1000, MaxTuples: 50,
		MaxLatticeLevel: 3, Deadline: time.Second, MaxPartitionBytes: 1 << 20,
	}).Validate(); err != nil {
		t.Fatalf("positive Limits must validate, got %v", err)
	}
	cases := []struct {
		field string
		l     discoverxfd.Limits
	}{
		{"MaxDepth", discoverxfd.Limits{MaxDepth: -1}},
		{"MaxNodes", discoverxfd.Limits{MaxNodes: -1}},
		{"MaxTuples", discoverxfd.Limits{MaxTuples: -7}},
		{"MaxLatticeLevel", discoverxfd.Limits{MaxLatticeLevel: -2}},
		{"Deadline", discoverxfd.Limits{Deadline: -time.Second}},
		{"MaxPartitionBytes", discoverxfd.Limits{MaxPartitionBytes: -1}},
	}
	for _, c := range cases {
		err := c.l.Validate()
		if !errors.Is(err, discoverxfd.ErrBadLimits) {
			t.Errorf("%s: err = %v, want ErrBadLimits", c.field, err)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name the offending field", c.field, err)
		}
	}
}

// TestBadLimitsFailFastAtEntryPoints checks that a nonsensical Limits
// value fails fast with ErrBadLimits at every Engine entry point,
// before any work (no silent reinterpretation as "unlimited").
func TestBadLimitsFailFastAtEntryPoints(t *testing.T) {
	xml := bigLibraryXML(2)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	s := librarySchema(t, xml)
	opts := &discoverxfd.Options{Limits: discoverxfd.Limits{MaxTuples: -1}}
	ctx := context.Background()

	eng := discoverxfd.NewEngine(opts)
	if _, err := eng.Discover(ctx, doc, s); !errors.Is(err, discoverxfd.ErrBadLimits) {
		t.Errorf("Discover err = %v, want ErrBadLimits", err)
	}
	if _, err := eng.DiscoverStream(ctx, strings.NewReader(xml), s); !errors.Is(err, discoverxfd.ErrBadLimits) {
		t.Errorf("DiscoverStream err = %v, want ErrBadLimits", err)
	}
	if _, err := eng.BuildHierarchy(ctx, doc, s); !errors.Is(err, discoverxfd.ErrBadLimits) {
		t.Errorf("BuildHierarchy err = %v, want ErrBadLimits", err)
	}
	if _, err := eng.LoadDocument(ctx, strings.NewReader(xml)); !errors.Is(err, discoverxfd.ErrBadLimits) {
		t.Errorf("LoadDocument err = %v, want ErrBadLimits", err)
	}
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(ctx, doc, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DiscoverHierarchy(ctx, h); !errors.Is(err, discoverxfd.ErrBadLimits) {
		t.Errorf("DiscoverHierarchy err = %v, want ErrBadLimits", err)
	}
}

// TestContextDeadlineComposesWithLimits is the regression test for
// deadline composition: the run honors the earlier of the context
// deadline and Limits.Deadline, and a fired *deadline* — whichever
// side it came from — degrades gracefully into a partial Result,
// while explicit cancellation stays an error.
func TestContextDeadlineComposesWithLimits(t *testing.T) {
	xml := bigLibraryXML(40)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	s := librarySchema(t, xml)
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(context.Background(), doc, s)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("ctx deadline earlier than generous Limits.Deadline", func(t *testing.T) {
		// The context deadline has already passed; Limits.Deadline is an
		// hour out. The composed budget is the context's, so the run
		// must truncate gracefully — not die with DeadlineExceeded.
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := discoverxfd.NewEngine(&discoverxfd.Options{
			Limits: discoverxfd.Limits{Deadline: time.Hour},
		}).DiscoverHierarchy(ctx, h)
		if err != nil {
			t.Fatalf("expired ctx deadline must degrade gracefully, got error: %v", err)
		}
		if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "deadline") {
			t.Fatalf("Truncated=%v reason=%q, want a deadline truncation", res.Stats.Truncated, res.Stats.TruncatedReason)
		}
	})

	t.Run("ctx deadline bounds the whole document path", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := discoverxfd.NewEngine(&discoverxfd.Options{
			Limits: discoverxfd.Limits{Deadline: time.Hour},
		}).Discover(ctx, doc, s)
		if err != nil {
			t.Fatalf("expired ctx deadline must degrade gracefully, got error: %v", err)
		}
		if !res.Stats.Truncated {
			t.Fatal("expired ctx deadline did not mark the result truncated")
		}
	})

	t.Run("Limits.Deadline earlier than generous ctx deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		res, err := discoverxfd.NewEngine(&discoverxfd.Options{
			Limits: discoverxfd.Limits{Deadline: time.Nanosecond},
		}).DiscoverHierarchy(ctx, h)
		if err != nil {
			t.Fatalf("Limits.Deadline must degrade gracefully, got error: %v", err)
		}
		if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "deadline") {
			t.Fatalf("Truncated=%v reason=%q, want a deadline truncation", res.Stats.Truncated, res.Stats.TruncatedReason)
		}
	})

	t.Run("explicit cancellation stays an error", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := discoverxfd.NewEngine(&discoverxfd.Options{
			Limits: discoverxfd.Limits{Deadline: time.Hour},
		}).DiscoverHierarchy(ctx, h)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatal("cancelled run returned a Result")
		}
	})
}
