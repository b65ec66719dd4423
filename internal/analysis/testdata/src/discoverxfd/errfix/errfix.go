// Package errfix exercises the errwrap analyzer: module sentinels from
// other packages must be matched with errors.Is (wrapping breaks ==),
// and fmt.Errorf must wrap error operands with %w, not flatten them
// with %v or %s.
package errfix

import (
	"errors"
	"fmt"
	"io"

	"discoverxfd/internal/relation"
)

// ErrLocal is this package's own sentinel; comparing it directly is
// the package's own business.
var ErrLocal = errors.New("errfix: local")

func classify(err error) int {
	if err == relation.ErrEmptyTree { // want "sentinel relation.ErrEmptyTree compared with =="
		return 2
	}
	if errors.Is(err, relation.ErrNotUpdatable) {
		return 3
	}
	return 1
}

func notEqualBad(err error) bool {
	return err != relation.ErrEmptyTree // want "sentinel relation.ErrEmptyTree compared with !="
}

func localCompareGood(err error) bool {
	return err == ErrLocal
}

func stdlibCompareGood(err error) bool {
	return err == io.EOF
}

func flattenBadV(err error) error {
	return fmt.Errorf("load failed: %v", err) // want "error err formatted with %v"
}

func flattenBadS(err error) error {
	return fmt.Errorf("stage %d: %s", 4, err) // want "error err formatted with %s"
}

func wrapGood(err error) error {
	return fmt.Errorf("load failed: %w", err)
}

func nonErrorOperandsGood(n int) error {
	return fmt.Errorf("bad count: %d rows (%s)", n, "detail")
}
