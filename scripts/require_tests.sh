#!/usr/bin/env bash
# require_tests.sh — guard a `go test -run PATTERN` step against
# silently becoming a no-op. PATTERN is an alternation of test names
# (e.g. 'TestA|TestB'); the script fails unless every alternative
# matches at least one test, fuzz target or example that
# `go test -list` reports in the given packages. Run it before the
# step it guards, so a renamed or deleted test fails CI instead of
# leaving the step green with nothing run.
#
# Usage: scripts/require_tests.sh PATTERN [PACKAGE...]   (default: .)
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 PATTERN [PACKAGE...]" >&2
  exit 2
fi
pattern=$1
shift
[ $# -gt 0 ] || set -- .

listed="$(go test -list "$pattern" "$@" | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)"
status=0
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
  if ! grep -qE -- "$alt" <<< "$listed"; then
    echo "require_tests: no test matches '$alt' (from -run '$pattern') in $*" >&2
    status=1
  fi
done
[ "$status" -ne 0 ] || echo "require_tests: every alternative of '$pattern' matches:" $listed
exit "$status"
