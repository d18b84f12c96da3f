#!/usr/bin/env bash
# Build the harness if it is missing or older than any source, then run it.
#
#   bench/run.sh                      every workload, untraced then traced, seeds 11 and 12
#   bench/run.sh --quick              the same in about 20 s: one seed, one second per run
#   bench/run.sh --selfcheck          two sets of untraced runs must agree within the bounds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; the last line of output is the result
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
bin=bench/out/xdmod-bench

stale() {
  [ -x "$bin" ] || return 0
  [ -n "$(find bench/build.sh bench/harness crates/gateway/src crates/warehouse/src \
            crates/telemetry/src crates/chaos/src crates/check/src crates/alerts/src \
            -newer "$bin" -type f -print -quit 2>/dev/null)" ]
}

if stale; then
  bash bench/build.sh
fi
exec "$bin" "$@"
