#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — per (metric, workload) row: both
# medians and quartiles, the ratio with its base, and worse / unchanged /
# unresolved / better against the metric's bound, or missing when only
# one file has the row.  Exit 1 if any row is worse or missing.
set -euo pipefail
for f in "$@"; do
  [[ "$f" = /* ]] || f="$PWD/$f"
  files+=("$f")
done
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "${files[@]}"
