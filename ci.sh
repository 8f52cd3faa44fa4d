#!/usr/bin/env bash
# The repository's CI gate, runnable locally and from the GitHub Actions
# workflow (.github/workflows/ci.yml). Fails fast on the first red step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --workspace --locked (release)"
# --locked: a stale Cargo.lock fails the build instead of being rewritten.
cargo build --workspace --release --locked

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --quiet

step "cargo test -q --workspace"
cargo test -q --workspace

step "perfbench build + tests against this tree"
# The repository benchmark calls the workspace's public entry points
# (README "Entry points"); building it here turns a break of one into a
# red CI run instead of a broken benchmark. Its lockfile is path-only.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "nn golden-reference suite (vectorized kernels bit-identical to scalar)"
# Run the property suite by name so a red kernel is impossible to miss in
# the CI log even though the workspace run above already covers it.
cargo test -q -p tensordash-nn --test reference

step "tensordash CLI smoke test"
./target/release/tensordash --help >/dev/null
./target/release/tensordash list >/dev/null
smoke_config="$(mktemp -t tensordash-smoke-XXXXXX.toml)"
smoke_report="$(mktemp -t tensordash-smoke-XXXXXX.json)"
trap 'rm -f "$smoke_config" "$smoke_report"' EXIT
cat > "$smoke_config" <<'EOF'
name = "ci-smoke"
models = ["AlexNet"]
[chip]
tiles = 2
[eval]
progress = 0.45
[eval.sample]
max_windows = 4
max_rows = 32
EOF
./target/release/tensordash --config "$smoke_config" --out "$smoke_report" >/dev/null
grep -q '"ci-smoke"' "$smoke_report"

step "tensordash train smoke + record->replay byte identity"
train_dir="$(mktemp -d -t tensordash-train-XXXXXX)"
trap 'rm -f "$smoke_config" "$smoke_report"; rm -rf "$train_dir"' EXIT
# Live run: 2 real training epochs, per-epoch speedup report, recorded
# trace artifact.
./target/release/tensordash train --smoke \
  --record "$train_dir/run.trace.json" --out "$train_dir/live.json" >/dev/null
grep -q '"total_speedup"' "$train_dir/live.json"
grep -q '"tensordash-trace/1"' "$train_dir/run.trace.json"
# Replaying the artifact must rebuild the report byte-identically.
./target/release/tensordash train \
  --replay "$train_dir/run.trace.json" --out "$train_dir/replay.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/replay.json"
# The pipelined path (epoch N+1 trains while epoch N simulates) must
# produce the same bytes as the serial run above.
./target/release/tensordash train --smoke --workers 2 \
  --out "$train_dir/pipelined.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/pipelined.json"
# ...and the same artifact replays through the declarative --config path.
cat > "$train_dir/replay.toml" <<REPLAY_TOML
name = "ci-train-replay"
[eval]
progress = 1.0
[eval.source]
recorded = "$train_dir/run.trace.json"
REPLAY_TOML
./target/release/tensordash --config "$train_dir/replay.toml" \
  --out "$train_dir/replay-config.json" >/dev/null
grep -q '"small-cnn"' "$train_dir/replay-config.json"

step "tensordash scheduler-family comparison smoke"
# The four family members priced side by side over the recorded trace
# from the train step — one shared trace cache, one document with a full
# report per scheduler — and `list` naming the family.
./target/release/tensordash list > "$train_dir/list.out"
grep -q 'tstd' "$train_dir/list.out"
cat > "$train_dir/compare.toml" <<COMPARE_TOML
name = "ci-schedulers"
[eval]
progress = 1.0
[eval.source]
recorded = "$train_dir/run.trace.json"
COMPARE_TOML
# Capture stdout to a file (grep -q would close the pipe mid-table).
./target/release/tensordash --config "$train_dir/compare.toml" \
  --scheduler tensordash,2to4,tstd,dense \
  --out "$train_dir/schedulers.json" > "$train_dir/schedulers.out"
grep -q 'dense' "$train_dir/schedulers.out"
grep -q '"scheduler": "2to4"' "$train_dir/schedulers.json"
grep -q '"scheduler": "tstd"' "$train_dir/schedulers.json"
grep -q '"scheduler": "dense"' "$train_dir/schedulers.json"

step "tensordash trace pack/inspect round-trip (v1 <-> v2, same digest)"
# v1 JSON -> v2 binary -> v1 JSON must be byte-identical (the lossless
# property), and the binary artifact must replay the live report
# byte-identically too.
./target/release/tensordash trace pack \
  "$train_dir/run.trace.json" "$train_dir/run.trace.bin" >/dev/null
./target/release/tensordash trace inspect "$train_dir/run.trace.bin" \
  > "$train_dir/inspect.txt"
grep -q 'tensordash-trace/2' "$train_dir/inspect.txt"
digest="$(sed -n 's/^digest: *//p' "$train_dir/inspect.txt")"
[ -n "$digest" ] || { echo "trace inspect printed no digest"; exit 1; }
./target/release/tensordash trace pack \
  "$train_dir/run.trace.bin" "$train_dir/roundtrip.trace.json" >/dev/null
cmp "$train_dir/run.trace.json" "$train_dir/roundtrip.trace.json"
./target/release/tensordash train \
  --replay "$train_dir/run.trace.bin" --out "$train_dir/replay-bin.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/replay-bin.json"

step "tensordash serve smoke (boot, health, one experiment, SIGTERM)"
serve_log="$(mktemp -t tensordash-serve-XXXXXX.log)"
trap 'rm -f "$smoke_config" "$smoke_report" "$serve_log"; rm -rf "$train_dir"' EXIT
# Ephemeral port: the server prints its bound address on the first line.
# The trace store lives with the other train artifacts and is swept by
# the gc smoke below.
./target/release/tensordash serve --port 0 --workers 2 \
  --trace-dir "$train_dir/store" >"$serve_log" &
serve_pid=$!
# If any later step aborts, take the server down with the shell.
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log"; rm -rf "$train_dir"' EXIT
serve_url=""
for _ in $(seq 1 100); do
  serve_url="$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$serve_log" | head -n1)"
  [ -n "$serve_url" ] && break
  sleep 0.1
done
[ -n "$serve_url" ] || { echo "serve never reported its address"; cat "$serve_log"; exit 1; }
curl -sf "$serve_url/healthz" | grep -q '"ok"'
# One experiment through the full request path, fetched with one GET.
# The spec pins a non-default scheduler — the family flows through the
# service face, and the job's report records which member priced it.
# Its sample runs for a few hundred ms, so the report GET below arrives
# while the job is still pending.
job_url="$(curl -sf -X POST "$serve_url/v1/experiments" -d \
  '{"name": "ci-serve", "models": ["AlexNet"],
    "chip": {"tiles": 1, "scheduler": "2to4"},
    "eval": {"sample": {"max_windows": 1024, "max_rows": 4096}}}' \
  | sed -n 's/.*"report_url": "\([^"]*\)".*/\1/p')"
[ -n "$job_url" ] || { echo "submit returned no report_url"; exit 1; }
# The report GET waits on the job queue until the job finishes (up to
# 5 s), so the first GET, with no sleep before it, must return the
# report, and /metrics must count the wait: a silent fallback to an
# immediate 202 fails here.
report="$(curl -s "$serve_url$job_url")"
echo "$report" | grep -q '"ci-serve"' \
  || { echo "first report GET did not wait for the job: $report"; exit 1; }
echo "$report" | grep -q '"scheduler": "2to4"' || { echo "served report lost its scheduler"; exit 1; }
curl -sf "$serve_url/metrics" > "$train_dir/metrics.json"
grep -q '"evictions"' "$train_dir/metrics.json"
grep -Eq '"waits": [1-9]' "$train_dir/metrics.json" \
  || { echo "the report GET did not park"; cat "$train_dir/metrics.json"; exit 1; }
# Upload the binary artifact end-to-end verified (?digest= -> 409 on
# mismatch) and replay it by content digest through the full job path.
curl -sf -X POST --data-binary @"$train_dir/run.trace.bin" \
  "$serve_url/v1/traces?digest=$digest" | grep -q "\"$digest\""
stored_url="$(curl -sf -X POST "$serve_url/v1/experiments" -d \
  "{\"name\": \"ci-stored\", \"eval\": {\"source\": {\"stored\": \"$digest\"}}}" \
  | sed -n 's/.*"report_url": "\([^"]*\)".*/\1/p')"
[ -n "$stored_url" ] || { echo "stored submit returned no report_url"; exit 1; }
stored=""
for _ in $(seq 1 100); do
  stored="$(curl -s "$serve_url$stored_url")"
  echo "$stored" | grep -q '"small-cnn"' && break
  sleep 0.1
done
echo "$stored" | grep -q '"small-cnn"' || { echo "stored replay never finished: $stored"; exit 1; }
curl -sf "$serve_url/metrics" | grep -q '"dedup_hits"'
# A short load test against the same live server...
./target/release/tensordash loadtest "$serve_url" --smoke
# ...then assert the SIGTERM path drains and exits cleanly. The accept
# loop blocks, so a lost wake would hang it: fail after 5 s instead.
kill -TERM "$serve_pid"
timeout 5 tail --pid="$serve_pid" -f /dev/null \
  || { echo "serve still running 5 s after SIGTERM"; exit 1; }
wait "$serve_pid" || { echo "serve did not exit cleanly after SIGTERM"; exit 1; }
grep -q "shut down cleanly" "$serve_log"

step "tensordash trace gc smoke"
# The uploaded object survives a keep-listed sweep and falls to a bare one.
./target/release/tensordash trace gc --trace-dir "$train_dir/store" \
  --keep "$digest" | grep -q 'kept 1'
./target/release/tensordash trace gc --trace-dir "$train_dir/store" \
  | grep -q 'removed 1 object'

step "tensordash chaos smoke (fault-injected serve survives the adversarial mix)"
chaos_log="$(mktemp -t tensordash-chaos-XXXXXX.log)"
chaos_dir="$(mktemp -d -t tensordash-chaos-store-XXXXXX)"
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log" "$chaos_log"; rm -rf "$train_dir" "$chaos_dir"' EXIT
# A server that injects deterministic faults into its own connection
# handling and store I/O, bombarded by the adversarial loadtest: resets,
# slow-loris drips, oversized bodies, corrupt uploads, tiny deadlines.
# `loadtest --chaos` exits nonzero unless the server survives with every
# leg in a typed outcome and every surviving report byte-identical to a
# fault-free run.
./target/release/tensordash serve --port 0 --workers 2 \
  --trace-dir "$chaos_dir" --fault-seed 7 >"$chaos_log" &
chaos_pid=$!
trap 'kill "$serve_pid" "$chaos_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log" "$chaos_log"; rm -rf "$train_dir" "$chaos_dir"' EXIT
chaos_url=""
for _ in $(seq 1 100); do
  chaos_url="$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$chaos_log" | head -n1)"
  [ -n "$chaos_url" ] && break
  sleep 0.1
done
[ -n "$chaos_url" ] || { echo "chaos serve never reported its address"; cat "$chaos_log"; exit 1; }
./target/release/tensordash loadtest "$chaos_url" --chaos 7 --smoke
# Even a fault-injected server must drain cleanly on SIGTERM.
kill -TERM "$chaos_pid"
timeout 5 tail --pid="$chaos_pid" -f /dev/null \
  || { echo "chaos serve still running 5 s after SIGTERM"; exit 1; }
wait "$chaos_pid" || { echo "chaos serve did not exit cleanly after SIGTERM"; exit 1; }
grep -q "shut down cleanly" "$chaos_log"

step "tensordash bench --smoke --baseline BENCH_13.json"
bench_report="$(mktemp -t tensordash-bench-XXXXXX.json)"
trap 'kill "$serve_pid" "$chaos_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log" "$chaos_log" "$bench_report"; rm -rf "$train_dir" "$chaos_dir"' EXIT
# The committed baseline gates kernel + source + store + service
# throughput: >20% regression on any comparable in-process metric fails
# the build (trace/model throughput only compares between same-variant
# runs, so the smoke run skips them against the full baseline — as do
# the per-scheduler family rates, whose masks/s scale with the variant's
# stream length; the loadtest-driven service rate fires the same
# per-request workload in both variants, so it gates cross-variant like
# the kernel rates, at a wider >50% tolerance — end-to-end socket
# loadtests swing ±25% run-to-run). Every leg reports its fastest sample
# over a 20 s round-robin wall, longer than a busy host's speed regimes,
# so an unchanged tree passes whatever regime the run starts in. The
# baseline's absolute rates reflect the machine that committed it — on
# substantially slower hardware, commit a fresh full `tensordash bench`
# run as the next BENCH_<n>.json rather than loosening the gate.
./target/release/tensordash bench --smoke --baseline BENCH_13.json --out "$bench_report"
grep -q '"step_speedup"' "$bench_report"
grep -q '"nproc"' "$bench_report"
# Four row-groups in flight per kernel call must beat one group per
# call on the same streams, so a silent fallback to one group in flight
# fails here. The margin holds on the release build (1.53-2.20x over 20
# smoke runs on a 2-core x86-64 host, 2.04 or more in all but one, where
# one group in flight reads 0.8-1.1x) but not in the debug profile
# `cargo test` uses (0.85-1.03x), so the bench smoke test only checks
# that both legs are measured.
grep -q '"group_masks_per_sec_one_group"' "$bench_report"
in_flight="$(sed -n 's/.*"in_flight_speedup": *\([0-9.eE+-]*\).*/\1/p' "$bench_report")"
awk -v r="$in_flight" 'BEGIN { exit !(r >= 1.25) }' \
  || { echo "four groups in flight read ${in_flight}x one group per call (need >= 1.25x)"; exit 1; }
grep -q '"parallel_speedup"' "$bench_report"
grep -q '"extraction_speedup"' "$bench_report"
grep -q '"cycles_per_second"' "$bench_report"
grep -q '"requests_per_sec"' "$bench_report"
grep -q '"live_masks_per_sec"' "$bench_report"
grep -q '"load_masks_per_sec"' "$bench_report"
grep -q '"pack_bytes_per_sec"' "$bench_report"

step "all green"
