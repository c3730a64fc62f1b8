#!/bin/bash
# Tier-1 verification for the dynawave workspace.
#
# The workspace is hermetic: zero external crate dependencies, so every
# step below runs with the network disabled. --offline makes any
# accidental reintroduction of a registry dependency a hard failure
# rather than a silent download.
set -euo pipefail
cd "$(dirname "$0")"

# --chaos adds the deterministic fault-injection pass: every `chaos_`
# test (seeded FaultPlan runs exercising the recovery ladder) plus the
# campaign checkpoint/resume suite.
# --obs adds the observability pass: a traced quickstart run whose
# JSON-lines event stream must validate with zero invalid lines and
# cover all five pipeline stages, and whose derived `obs_report` render
# must be byte-identical at 1 and 4 worker threads.
# --par adds the parallel-determinism pass: the concurrency test battery
# plus a byte-for-byte comparison of the full-space demo's report at 1
# and 4 worker threads — the report must not depend on thread count.
# --perf adds the perf-trajectory ratchet: a quick microbench subset
# (wavelet, simulator/run, workloads/generate) diffed against the
# committed BENCH_seed.json baseline with compare_bench. Soft by default
# (regressions warn, like the lint baseline); --strict-perf turns
# flagged regressions into failures.
# --serve adds the daemon chaos gate: the serve test battery (replay
# byte-identity, 12k-case fuzz corpus, deadline/backpressure), a
# kill-and-replay determinism check across DYNAWAVE_THREADS 1 and 4
# with a `stats` introspection probe mid-battery (the transcript itself
# must pass the dual-schema validator), a seeded journal-fault chaos
# run, a traced daemon session whose obs stream must validate with the
# `serve` stage present, and a chaos-forced flight-recorder dump that
# must itself be a valid obs stream.
CHAOS=0
OBS=0
PAR=0
PERF=0
STRICT_PERF=0
SERVE=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --obs) OBS=1 ;;
    --par) PAR=1 ;;
    --perf) PERF=1 ;;
    --strict-perf) PERF=1; STRICT_PERF=1 ;;
    --serve) SERVE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# One scratch dir for every optional pass; traps replace, so a single
# EXIT trap owning a single tree is the robust shape.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

echo "=== cargo build --release --offline ==="
cargo build --release --offline --workspace

echo "=== cargo test -q --offline ==="
cargo test -q --offline --workspace

if [ "$CHAOS" = 1 ]; then
  echo "=== chaos: deterministic fault-injection suite ==="
  cargo test -q --offline -p dynawave-core chaos
  cargo test -q --offline -p dynawave-core --test campaign
fi

if [ "$OBS" = 1 ]; then
  echo "=== obs: traced quickstart through schema validator ==="
  # The quickstart writes its event stream to stderr (stdout stays
  # human-readable), so capture stderr alone and feed it to the
  # validator: zero invalid lines, all five pipeline stages present,
  # per-kind/per-stage counts in the CI log.
  DYNAWAVE_TRACE=1 DYNAWAVE_THREADS=1 cargo run -q --release --offline \
    -p dynawave-core --example quickstart > /dev/null 2> "$CI_TMP/obs_t1.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --stats --require-stages sim,wavelet,neural,predictor,campaign \
    < "$CI_TMP/obs_t1.jsonl"
  # Thread-count gate: the raw stream and its derived obs_report
  # (self/inclusive time, unit latencies, rollups) must both be
  # byte-identical across worker thread counts.
  DYNAWAVE_TRACE=1 DYNAWAVE_THREADS=4 cargo run -q --release --offline \
    -p dynawave-core --example quickstart > /dev/null 2> "$CI_TMP/obs_t4.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_report \
    < "$CI_TMP/obs_t1.jsonl" > "$CI_TMP/obs_report_t1.md"
  cargo run -q --release --offline -p dynawave-obs --bin obs_report \
    < "$CI_TMP/obs_t4.jsonl" > "$CI_TMP/obs_report_t4.md"
  cmp "$CI_TMP/obs_t1.jsonl" "$CI_TMP/obs_t4.jsonl"
  cmp "$CI_TMP/obs_report_t1.md" "$CI_TMP/obs_report_t4.md"
  echo "obs stream and obs_report byte-identical across thread counts"
fi

if [ "$PAR" = 1 ]; then
  echo "=== par: thread-count determinism matrix ==="
  # The dedicated concurrency battery: byte-identical reports and
  # journals across thread counts, kill-and-resume under 4 threads,
  # chaos degradation independence, and the seeded interleaving
  # stress harness against the sequential oracle.
  cargo test -q --offline -p dynawave-core --test parallel
  # Hard gate: the full-space demo's stdout (the report document) must
  # be byte-identical at 1 and 4 worker threads. Small scale keeps the
  # matrix cheap; stderr (timings) is machine-dependent and discarded.
  for t in 1 4; do
    DYNAWAVE_THREADS=$t DYNAWAVE_TRAIN=8 DYNAWAVE_TEST=3 \
      DYNAWAVE_SAMPLES=8 DYNAWAVE_INTERVAL=400 \
      cargo run -q --release --offline -p dynawave-core \
      --example parallel_campaign > "$CI_TMP/par_t$t.txt" 2> /dev/null
  done
  cmp "$CI_TMP/par_t1.txt" "$CI_TMP/par_t4.txt"
  echo "parallel reports byte-identical across thread counts"
fi

if [ "$SERVE" = 1 ]; then
  echo "=== serve: crash-safe daemon chaos gate ==="
  # The dedicated battery first: kill-and-replay byte-identity, chaos
  # determinism, the fuzz corpus (one well-formed response per request,
  # always), deadline budgets and backpressure.
  cargo test -q --offline -p dynawave-core --test serve
  # End-to-end kill-and-replay at small scale. A live run journals its
  # responses; the journal is torn mid-line (simulated kill -9) and the
  # daemon must rebuild it byte-for-byte from the request log — and the
  # transcript must not depend on DYNAWAVE_THREADS.
  SERVE_SCALE="DYNAWAVE_TRAIN=12 DYNAWAVE_TEST=2 DYNAWAVE_SAMPLES=16 DYNAWAVE_INTERVAL=300"
  {
    P1="[2,3,4,5,6,7,8,9,10]"; P2="[3.5,4,5,6,7,8,9,10,11]"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c1\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[$P1,$P2]}"
    echo "not json at all"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c2\",\"kind\":\"sweep\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"base\":$P1,\"axis\":0,\"values\":[2,4,8]}"
    # gcc's power and avf models train from the training sets stashed by
    # the cpi miss above, so the byte-identity gates cover that path too.
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c4\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"power\",\"points\":[$P1]}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c5\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"avf\",\"points\":[$P2]}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c-stats\",\"kind\":\"stats\"}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c3\",\"kind\":\"predict\",\"benchmark\":\"nope\"}"
  } > "$CI_TMP/serve_requests.jsonl"
  for t in 1 4; do
    env $SERVE_SCALE DYNAWAVE_THREADS=$t \
      cargo run -q --release --offline -p dynawave-core --bin serve -- \
      --journal "$CI_TMP/serve_t$t.journal" \
      < "$CI_TMP/serve_requests.jsonl" > "$CI_TMP/serve_t$t.out" 2> /dev/null
  done
  cmp "$CI_TMP/serve_t1.out" "$CI_TMP/serve_t4.out"
  # The transcript (including the mid-battery stats snapshot) is itself
  # a valid dynawave-serve stream under the dual-schema validator.
  grep -q '"kind":"stats"' "$CI_TMP/serve_t1.out"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_t1.out"
  # Tear the t1 journal inside its final line, then replay.
  head -c "$(($(wc -c < "$CI_TMP/serve_t1.journal") - 23))" \
    "$CI_TMP/serve_t1.journal" > "$CI_TMP/serve_torn.journal"
  cp "$CI_TMP/serve_t1.journal" "$CI_TMP/serve_reference.journal"
  mv "$CI_TMP/serve_torn.journal" "$CI_TMP/serve_t1.journal"
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --journal "$CI_TMP/serve_t1.journal" \
    --replay "$CI_TMP/serve_requests.jsonl" > "$CI_TMP/serve_replay.out" 2> /dev/null
  cmp "$CI_TMP/serve_t1.journal" "$CI_TMP/serve_reference.journal"
  cmp "$CI_TMP/serve_replay.out" "$CI_TMP/serve_t1.out"
  echo "serve replay byte-identical across kill and thread counts"
  # Journal-fault chaos: rate-1.0 injected append faults must freeze the
  # journal at its header while every request still gets a response.
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --journal "$CI_TMP/serve_chaos.journal" --chaos-seed 3 --chaos-rate 1.0 \
    --chaos-journal < "$CI_TMP/serve_requests.jsonl" \
    > "$CI_TMP/serve_chaos.out" 2> /dev/null
  [ "$(wc -l < "$CI_TMP/serve_chaos.out")" = \
    "$(wc -l < "$CI_TMP/serve_requests.jsonl")" ]
  [ "$(wc -l < "$CI_TMP/serve_chaos.journal")" = 2 ]
  echo "serve chaos: journal degraded, service uninterrupted"
  # Observability: a traced daemon session's stderr is a pure obs stream
  # that must validate with the `serve` stage present.
  env $SERVE_SCALE DYNAWAVE_TRACE=1 \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    < "$CI_TMP/serve_requests.jsonl" > /dev/null 2> "$CI_TMP/serve_trace.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_trace.jsonl"
  # SLO soft gate: the traced session's predict tail latency, checked by
  # obs_report --slo. Soft like the perf ratchet — a violation warns.
  cargo run -q --release --offline -p dynawave-obs --bin obs_report -- \
    --slo 'predict:p99<=65536' "$CI_TMP/serve_trace.jsonl" \
    || echo "WARN: serve SLO violated (soft gate)"
  # Flight recorder: solver chaos at rate 1.0 under --strict-recovery
  # forces a train-failed internal error; the armed ring must dump once,
  # and the dump must itself be a valid obs stream with the serve stage.
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --flight-recorder 64 --strict-recovery --chaos-seed 7 --chaos-rate 1.0 \
    < "$CI_TMP/serve_requests.jsonl" \
    > /dev/null 2> "$CI_TMP/serve_flight.jsonl"
  grep -q 'reason=internal-error' "$CI_TMP/serve_flight.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_flight.jsonl"
  echo "serve flight-recorder dump validates"
  mkdir -p results
  cp "$CI_TMP/serve_t1.journal" results/serve_replay.jsonl
fi

if [ "$PERF" = 1 ]; then
  echo "=== perf: trajectory ratchet vs BENCH_seed.json ==="
  # A quick microbench subset at reduced sampling, diffed against the
  # committed seed baseline: the wavelet stage (cheap, stable) plus the
  # timing engine and trace generation, the layers where simulation
  # time goes. Only noise-aware flags count: a delta must beat the
  # relative threshold AND escape the baseline's min/max band. Benches
  # outside the subset show up as "Removed" in the report, which is
  # informational.
  for filter in wavelet simulator/run workloads/generate; do
    DYNAWAVE_BENCH_SAMPLES=7 DYNAWAVE_BENCH_MIN_BATCH_MS=5 \
      cargo bench --offline -q -p dynawave-bench --bench microbench -- "$filter"
  done > "$CI_TMP/bench_now.json"
  STRICT_FLAG=""
  [ "$STRICT_PERF" = 1 ] && STRICT_FLAG="--strict"
  cargo run -q --release --offline -p dynawave-obs --bin compare_bench -- \
    $STRICT_FLAG BENCH_seed.json "$CI_TMP/bench_now.json"
fi

echo "=== dynawave-lint ==="
# Static analysis gate: determinism, panic-freedom, hermetic deps,
# panic-reachability, concurrency containment and schema drift (rules
# D001-D013, see DESIGN.md). Exits nonzero on any finding not covered
# by lint-baseline.toml. --json emits the findings as a dynawave-obs
# event stream; the stream itself must pass the schema validator, and
# the archived copy in results/ is the machine-readable lint record.
cargo run -q --release --offline -p dynawave-lint -- --json \
  > "$CI_TMP/lint_findings.jsonl"
cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
  --require-stages lint < "$CI_TMP/lint_findings.jsonl"
mkdir -p results
cp "$CI_TMP/lint_findings.jsonl" results/lint_findings.jsonl

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "CI_OK"
