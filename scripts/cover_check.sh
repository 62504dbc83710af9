#!/usr/bin/env bash
# cover_check.sh — run `go test -cover` and enforce per-package coverage
# floors on the packages that carry the correctness-critical logic.
#
# Usage: scripts/cover_check.sh
#
# The floors are intentionally a few points below the measured coverage at
# the time they were set: they trip when a meaningful amount of new code
# lands untested (or tests are deleted), not on single-line drift. Raise
# them when coverage improves; never lower them to make a PR pass without
# discussing why the new code cannot be tested.
set -euo pipefail

cd "$(dirname "$0")/.."

# package → minimum acceptable coverage (percent of statements).
declare -A floors=(
  ["dcluster/internal/sinr"]=92  # measured 95.7% when raised (one sparse grid path)
  ["dcluster/internal/sim"]=87   # measured 90.8% when raised (package-local tests only)
  ["dcluster/internal/fault"]=85 # measured 88.4% when raised
  ["dcluster/internal/geom"]=88  # measured 93.5% when added (one grid for both engines)
)

report="$(go test -cover ./... | tee /dev/stderr)"

fail=0
for pkg in "${!floors[@]}"; do
  floor="${floors[$pkg]}"
  line="$(grep -E "^ok[[:space:]]+${pkg}[[:space:]]" <<<"$report" || true)"
  if [ -z "$line" ]; then
    echo "cover_check: no coverage line for ${pkg}" >&2
    fail=1
    continue
  fi
  pct="$(sed -E 's/.*coverage: ([0-9]+)\.[0-9]+% of statements.*/\1/' <<<"$line")"
  if ! [[ "$pct" =~ ^[0-9]+$ ]]; then
    echo "cover_check: could not parse coverage for ${pkg}: ${line}" >&2
    fail=1
    continue
  fi
  if [ "$pct" -lt "$floor" ]; then
    echo "cover_check: ${pkg} coverage ${pct}% is below the ${floor}% floor" >&2
    fail=1
  else
    echo "cover_check: ${pkg} ${pct}% >= ${floor}% ok"
  fi
done
exit "$fail"
