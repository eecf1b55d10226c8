#!/usr/bin/env bash
# Solve-pipeline unwrap gate.
#
# Every module on the supervised solve path — and the serve daemon's
# request/worker path — opts into `deny(clippy::unwrap_used)` via an inner
# attribute, so any unwrap there fails the workspace clippy pass. This
# script keeps the gate honest: it fails if a module drops its attribute,
# so the lint cannot be silently disarmed.
#
# Usage:
#   tools/unwrap_gate.sh          # check every enrolled file
#   tools/unwrap_gate.sh --list   # print the enrolled files, one per line
#
# Invoked by both CI (.github/workflows/ci.yml, lint job) and the unit test
# tests/unwrap_gate.rs, so `cargo test` catches a disarmed gate locally
# before CI does.

set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(
  crates/core/src/solver/mod.rs
  crates/core/src/solver/aggregate.rs
  crates/core/src/solver/continuation.rs
  crates/core/src/solver/memo.rs
  crates/core/src/solver/policy.rs
  crates/core/src/solver/report.rs
  crates/core/src/solver/workspace.rs
  crates/core/src/subgame/connected.rs
  crates/core/src/subgame/standalone.rs
  crates/core/src/subgame/dynamic.rs
  crates/core/src/subgame/homogeneous.rs
  crates/core/src/subgame/mod.rs
  crates/core/src/error.rs
  crates/core/src/params.rs
  crates/core/src/market.rs
  crates/core/src/stackelberg.rs
  crates/core/src/scenario.rs
  crates/core/src/algorithms.rs
  crates/core/src/sp/mixed.rs
  crates/core/src/sp/stage.rs
  crates/store/src/lib.rs
  crates/numerics/src/vi.rs
  crates/numerics/src/roots.rs
  crates/numerics/src/supervision.rs
  crates/numerics/src/projection.rs
  crates/numerics/src/quadrature.rs
  crates/game/src/gnep.rs
  crates/game/src/nash/br.rs
  crates/exp/src/executor.rs
  crates/exp/src/engine.rs
  crates/exp/src/runner.rs
  crates/exp/src/task.rs
  crates/par/src/lib.rs
  crates/faults/src/lib.rs
  crates/serve/src/protocol.rs
  crates/serve/src/worker.rs
  crates/serve/src/server.rs
  crates/serve/src/metrics.rs
)

if [[ "${1:-}" == "--list" ]]; then
  printf '%s\n' "${FILES[@]}"
  exit 0
fi

status=0
for f in "${FILES[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "::error::$f is enrolled in the unwrap gate but does not exist" >&2
    status=1
  elif ! grep -q 'deny(clippy::unwrap_used)' "$f"; then
    echo "::error::$f lost its clippy::unwrap_used deny attribute" >&2
    status=1
  fi
done

exit "$status"
