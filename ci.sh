#!/usr/bin/env bash
# Repo CI gate: build, test, lint, format — what .github/workflows/ci.yml
# runs. Keep this green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo test -q --workspace --features check-invariants
cargo run --release -q -p compass-simcheck -- --soak 30
# report_obs self-validates its artifacts (counters, JSONL + Chrome trace,
# BENCH_obs.json) and exits nonzero on any malformed or silent output.
cargo run --release -q -p compass-bench --bin report_obs -- target/obs-smoke >/dev/null
# Fleet smoke: the design-space runner sweeps every knob family across
# four workloads (frontend depth/filter, OS-port batch, disk wake,
# checkpoint record/resume), dedupes shared baselines, re-runs a sampled
# subset at the transport baseline and requires bit-identical
# BackendStats, and gates on zero neutrality violations in the per-axis
# sensitivity deltas. This subsumes the old quickstart filter diff and
# the report_ckpt smoke.
cargo run --release -q -p compass-fleet -- --smoke --out target/BENCH_fleet_smoke.json
# OS-server-wall smoke: httplite BackendStats must be bit-identical
# across frontend and OS-port batching, reference filtering and the
# disk-wake path (exits nonzero on any divergence), and the median
# short-scale batching speedup of 5 BASELINE/TUNED pairs (alternating
# which runs first) must stay within 20% of the committed
# BENCH_http.json headline (override the baseline artifact with
# BENCH_HTTP_BASELINE). Then a short measured sweep records the
# kernel-path speedup artifact.
cargo run --release -q -p compass-bench --bin report_http -- --smoke
cargo run --release -q -p compass-bench --bin report_http -- --short >target/BENCH_http_short.json
# Clippy over both feature combinations: default and with the per-step
# invariant layer (which adds the mirror/epoch assertions).
cargo clippy --all-targets --workspace -- -D warnings
cargo clippy --all-targets --workspace --features check-invariants -- -D warnings
cargo fmt --all --check
