package discoverxfd

import (
	"fmt"

	"discoverxfd/internal/core"
)

// Constraint is a parsed FD or Key specification in the paper's
// notation (see ParseConstraint).
type Constraint = core.Constraint

// ParseFD parses an XML FD written in the paper's notation, e.g.
//
//	{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)
func ParseFD(s string) (FD, error) { return core.ParseFD(s) }

// ParseConstraint parses an FD or a Key specification, e.g.
//
//	{./ISBN} KEY of C(/warehouse/state/store/book)
func ParseConstraint(s string) (Constraint, error) { return core.ParseConstraint(s) }

// ParseConstraints parses a multi-line constraint file: one
// constraint per line, blank lines and '#' comments ignored.
func ParseConstraints(text string) ([]Constraint, error) { return core.ParseConstraints(text) }

// CheckResult is the outcome of checking one constraint against a
// document (see Engine.CheckConstraints).
type CheckResult struct {
	Constraint Constraint
	// Holds reports whether the constraint is satisfied (for Keys:
	// whether the LHS uniquely identifies each tuple).
	Holds bool
	// Violations counts violating tuples (FDs) or duplicated tuples
	// (Keys).
	Violations int
	// Witnesses counts redundant values an FD witnesses (0 for Keys).
	Witnesses int
	// G3Error is the fraction of tuples to remove for an FD to hold
	// exactly (0 for Keys and satisfied FDs).
	G3Error float64
}

func (r CheckResult) String() string {
	status := "OK"
	if !r.Holds {
		status = fmt.Sprintf("VIOLATED (%d tuple(s), g3=%.4f)", r.Violations, r.G3Error)
	} else if r.Witnesses > 0 {
		status = fmt.Sprintf("OK (%d redundant value(s))", r.Witnesses)
	}
	return fmt.Sprintf("%-8s %s", status, r.Constraint)
}
