// Package relation is a cut-down fixture mirror of the real
// internal/relation: it only declares the sentinel errors, so the
// errfix fixture can exercise errwrap's cross-package comparison
// rule.
package relation

import "errors"

// ErrEmptyTree mirrors the real sentinel of the same name.
var ErrEmptyTree = errors.New("relation: document has no tuples")

// ErrNotUpdatable mirrors the real sentinel of the same name.
var ErrNotUpdatable = errors.New("relation: hierarchy is not updatable (streamed or hand-assembled)")
