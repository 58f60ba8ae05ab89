#!/usr/bin/env sh
# Staged offline CI harness. Run from anywhere; it cds to the repo root.
#
#   scripts/ci.sh               full pipeline: fmt -> builds -> tests ->
#                               clippy -> bench -> gates
#   scripts/ci.sh --stage NAME  run only the named stage(s); repeatable,
#                               e.g. --stage serve --stage reload-soak.
#                               Unselected stages are recorded as skipped
#   scripts/ci.sh --gate-test   dry-run: doctor the bench baseline and
#                               assert the regression gates FAIL against it
#
# Every stage is timed; the run (pass or fail) is recorded to
# results/ci-summary.json as machine-readable
# {format, schema_version, status, stages:[{name, status, seconds}]}.
# The first failing stage stops the pipeline, but the summary is still
# written so the driver can see exactly where it died and how long each
# stage before it took.
#
# Bench regression baseline: results/BENCH_baseline.json, compared
# against the fresh results/BENCH_scan.json at a 20% docs/sec tolerance.
# After an intentional perf change, refresh it with:
#
#   scripts/refresh-baseline.sh

set -u

cd "$(dirname "$0")/.."
. scripts/lib.sh

SUMMARY=results/ci-summary.json
BENCH=results/BENCH_scan.json
BASELINE=results/BENCH_baseline.json
CACHE_BENCH=results/BENCH_cache.json
RELOAD_BENCH=results/BENCH_reload.json
FEATURES_BENCH=results/BENCH_features.json
FEATURES_BASELINE=results/BENCH_features_baseline.json
STAGES=""
OVERALL=ok

# Every stage the pipeline knows, in run order — the --stage validator
# and the skip logic both key off this list.
KNOWN_STAGES="fmt build build-faultpoints test test-faultpoints test-determinism \
cache isolation serve serve-soak reload-soak clippy clippy-faultpoints \
bench bench-features bench-cache bench-reload gates"

GATE_TEST=0
ONLY=""
while [ $# -gt 0 ]; do
    case "$1" in
        --gate-test) GATE_TEST=1 ;;
        --stage)
            if [ $# -lt 2 ]; then
                echo "ci: --stage needs a stage name" >&2
                exit 2
            fi
            shift
            ONLY="$ONLY $1"
            ;;
        --stage=*) ONLY="$ONLY ${1#--stage=}" ;;
        *)
            echo "ci: unknown argument: $1 (supported: --stage NAME, --gate-test)" >&2
            exit 2
            ;;
    esac
    shift
done
for selected in $ONLY; do
    case " $KNOWN_STAGES " in
        *" $selected "*) ;;
        *)
            echo "ci: unknown stage: $selected" >&2
            echo "ci: known stages: $KNOWN_STAGES" >&2
            exit 2
            ;;
    esac
done

write_summary() {
    mkdir -p results
    printf '{\n  "format": "vbadet-ci-summary",\n  "schema_version": 2,\n  "status": "%s",\n  "stages": [%s]\n}\n' \
        "$OVERALL" "$STAGES" >"$SUMMARY"
}

# stage NAME COMMAND [ARGS...] — run one pipeline stage, timed. A failing
# stage finalizes the summary and exits non-zero. With a --stage
# selection, unselected stages are recorded as skipped and cost nothing.
stage() {
    stage_name=$1
    shift
    if [ -n "$ONLY" ]; then
        case " $ONLY " in
            *" $stage_name "*) ;;
            *)
                STAGES="${STAGES}${STAGES:+, }{\"name\":\"$stage_name\",\"status\":\"skipped\",\"seconds\":0}"
                return 0
                ;;
        esac
    fi
    echo "ci: stage $stage_name"
    stage_start=$(date +%s.%N)
    if "$@"; then
        stage_status=ok
    else
        stage_status=fail
    fi
    stage_secs=$(awk -v a="$stage_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
    STAGES="${STAGES}${STAGES:+, }{\"name\":\"$stage_name\",\"status\":\"$stage_status\",\"seconds\":$stage_secs}"
    if [ "$stage_status" = fail ]; then
        OVERALL=fail
        write_summary
        echo "ci: FAIL at stage $stage_name (after ${stage_secs}s); summary in $SUMMARY" >&2
        exit 1
    fi
    echo "ci: stage $stage_name ok (${stage_secs}s)"
}

# The parallel determinism suites rerun explicitly (beyond the workspace
# pass) so a future test-harness filter can never silently drop them: the
# worker-pool engine being observationally identical to the sequential one
# is this repo's load-bearing invariant.
determinism_tests() {
    cargo test -q --offline --test parallel_scan --test metrics &&
        cargo test -q --offline --features faultpoints --test parallel_scan --test fault_injection
}

# The resident-service suites: protocol/breaker/drain unit coverage, then
# a wall-clock chaos soak. The soak hammers a live `vbadet serve` daemon
# with concurrent clients while faultpoints crash-loop its workers, and
# asserts the service's core contract from the outside: exactly one
# terminal response per request, typed shedding under overload, the
# breaker opening AND recovering, drain exiting 3, and zero orphaned
# workers left behind.
serve_tests() {
    cargo test -q --offline --test serve &&
        cargo test -q --offline --features faultpoints --test serve
}

serve_soak() {
    cargo build -q --offline -p vbadet-cli --features faultpoints &&
        cargo run -q --offline --features faultpoints --bin serve_soak -- \
            target/debug/vbadet "${CI_SOAK_SECS:-6}" &&
        assert_no_orphan_workers
}

# The hot-reload chaos soak: six concurrent clients scan a live daemon
# while an operator connection drives >= CI_RELOADS successful model
# hot-swaps — alternating two detectors, with a garbage model file and
# faultpoint-injected corrupt loads mixed in. The harness asserts zero
# dropped or misrouted responses, a valid monotone generation stamp on
# every response, generation conservation (final = 1 + successes), a
# cache miss for warm documents after a swap, and an orphan-free drain.
reload_soak() {
    cargo build -q --offline -p vbadet-cli --features faultpoints &&
        cargo run -q --offline --features faultpoints --bin reload_soak -- \
            target/debug/vbadet "${CI_RELOADS:-100}" &&
        assert_no_orphan_workers
}

# The scan-cache suites: the cache-off/cold/warm equivalence proofs and
# invalidation rules, the crash-composition and single-flight tests
# (faultpoints build), and the on-disk store mutation fuzz. Rerun
# explicitly — like the determinism suites — because "a cache hit is
# observationally identical to a scan" is a correctness invariant, not a
# perf nicety.
cache_tests() {
    cargo test -q --offline --test cache --test hostile_inputs &&
        cargo test -q --offline --features faultpoints --test cache
}

# The process-isolation suite, then an outside-the-process check of the
# supervisor's no-orphans guarantee: every worker is reaped on every exit
# path (clean shutdown, heartbeat kill, supervisor panic), so after the
# suite no isolation worker may still be running.
isolation_tests() {
    cargo test -q --offline --test isolation &&
        cargo test -q --offline --features faultpoints --test isolation &&
        assert_no_orphan_workers
}

assert_no_orphan_workers() {
    # Bracketed patterns so the grep's own ps line never matches itself.
    orphans=$(ps -eo args 2>/dev/null | grep -e '[i]solation_worker' -e '[_][_]worker' | wc -l)
    if [ "$orphans" -ne 0 ]; then
        echo "ci: FAIL — $orphans orphaned isolation worker(s) survived the suite:" >&2
        ps -eo pid,args 2>/dev/null | grep -e '[i]solation_worker' -e '[_][_]worker' >&2
        return 1
    fi
    echo "ci: no orphaned isolation workers"
}

# gate_check VALUE OP BOUND LABEL — one comparison, with a uniform
# failure message. OP is ge or le.
gate_check() {
    if [ -z "$1" ]; then
        echo "ci: gate FAIL — $4: value missing from bench output" >&2
        return 1
    fi
    if ! "num_$2" "$1" "$3"; then
        echo "ci: gate FAIL — $4 ($1 violates $2 $3)" >&2
        return 1
    fi
    echo "ci: gate ok — $4 ($1 within $2 $3)"
}

# The acceptance gates over the fresh bench results:
#   1. core-aware parallel speedup floor (2x on 4+ cores, parity on 2-3,
#      0.5x on a single core where the pool is pure overhead),
#   2. metrics overhead <= 5%,
#   3. isolate throughput at least 0.6x the thread pool at the same job
#      count (process isolation must stay cheap enough to default to in
#      hostile-input triage; since isolate slots send a whole claim's
#      requests ahead, the lowest of ten bench runs read 0.75 on 2 cores,
#      so the floor sits below that spread — absolute isolate regressions
#      are caught by the baseline loop in gate 4),
#   4. no >20% docs/sec regression — overall or per stage — against the
#      committed baseline. A stage key missing from the fresh results
#      means it dropped below the bench's noise floor (i.e. got faster)
#      and is skipped; a key missing from the baseline is a new stage
#      with nothing to regress from.
run_gates() {
    gates_baseline=${CI_BASELINE:-$BASELINE}
    if [ ! -f "$BENCH" ]; then
        echo "ci: gate FAIL — $BENCH missing" >&2
        return 1
    fi
    gates_cores=$(json_num "$BENCH" cores)
    if [ -z "$gates_cores" ]; then
        echo "ci: gate FAIL — $BENCH lacks a cores field" >&2
        return 1
    fi
    floor=0.5
    [ "$gates_cores" -ge 2 ] && floor=1.0
    [ "$gates_cores" -ge 4 ] && floor=2.0
    gate_check "$(json_num "$BENCH" speedup)" ge "$floor" \
        "parallel speedup floor for $gates_cores core(s)" || return 1
    gate_check "$(json_num "$BENCH" metrics_overhead_pct)" le 5.0 \
        "metrics overhead pct" || return 1
    gates_par=$(json_num "$BENCH" parallel_docs_per_sec)
    gate_check "$(json_num "$BENCH" isolate_docs_per_sec)" ge "$(num_mul "$gates_par" 0.6)" \
        "isolate throughput >= 0.6x --jobs N ($gates_par docs/s)" || return 1

    gates_cache_bench=${CI_CACHE_BENCH:-$CACHE_BENCH}
    if [ ! -f "$gates_cache_bench" ]; then
        echo "ci: gate FAIL — $gates_cache_bench missing" >&2
        return 1
    fi
    gates_uncached=$(json_num "$gates_cache_bench" uncached_docs_per_sec)
    gate_check "$(json_num "$gates_cache_bench" warm_docs_per_sec)" ge \
        "$(num_mul "$gates_uncached" 3.0)" \
        "warm-cache throughput >= 3x uncached ($gates_uncached docs/s)" || return 1

    # Zero-downtime means the model swap may not stall traffic: under a
    # reload every 500ms, the p99 request latency must stay within 2x the
    # steady-state p99 measured moments earlier on the same machine.
    gates_reload_bench=${CI_RELOAD_BENCH:-$RELOAD_BENCH}
    if [ ! -f "$gates_reload_bench" ]; then
        echo "ci: gate FAIL — $gates_reload_bench missing" >&2
        return 1
    fi
    gates_steady=$(json_num "$gates_reload_bench" steady_p99_ms)
    gate_check "$(json_num "$gates_reload_bench" churn_p99_ms)" le \
        "$(num_mul "$gates_steady" 2.0)" \
        "reload-churn p99 <= 2x steady p99 ($gates_steady ms)" || return 1

    # The allocation-free scoring hot path must stay decisively ahead of
    # the historical extractors it replaced: fused throughput >= 1.5x the
    # reference path, measured fresh every run (the two are proven
    # bit-identical by tests/feature_equivalence.rs, so this is pure cost).
    gates_features_bench=${CI_FEATURES_BENCH:-$FEATURES_BENCH}
    if [ ! -f "$gates_features_bench" ]; then
        echo "ci: gate FAIL — $gates_features_bench missing" >&2
        return 1
    fi
    gate_check "$(json_num "$gates_features_bench" speedup_vs_reference)" ge 1.5 \
        "fused feature extraction >= 1.5x reference" || return 1
    if [ -f "$FEATURES_BASELINE" ]; then
        for key in $(json_num_keys "$FEATURES_BASELINE" | grep '_docs_per_sec$'); do
            base=$(json_num "$FEATURES_BASELINE" "$key")
            fresh=$(json_num "$gates_features_bench" "$key")
            [ -n "$fresh" ] || continue
            min=$(num_mul "$base" 0.8)
            gate_check "$fresh" ge "$min" \
                "$key vs features baseline $base (>20% regression)" || return 1
        done
    fi

    if [ ! -f "$gates_baseline" ]; then
        echo "ci: note — $gates_baseline missing; regression gate skipped." >&2
        echo "ci: note — refresh with: scripts/refresh-baseline.sh" >&2
        return 0
    fi
    for key in $(json_num_keys "$gates_baseline" | grep '_docs_per_sec$'); do
        base=$(json_num "$gates_baseline" "$key")
        fresh=$(json_num "$BENCH" "$key")
        [ -n "$fresh" ] || continue
        min=$(num_mul "$base" 0.8)
        gate_check "$fresh" ge "$min" \
            "$key vs baseline $base (>20% regression)" || return 1
    done
}

if [ "$GATE_TEST" = 1 ]; then
    # Prove the regression gate has teeth: double every docs/sec figure in
    # a copy of the fresh results and use that as the baseline — every
    # throughput then reads as a 50% regression, and the gate must FAIL.
    if [ ! -f "$BENCH" ] || [ ! -f "$CACHE_BENCH" ] || [ ! -f "$RELOAD_BENCH" ] ||
        [ ! -f "$FEATURES_BENCH" ]; then
        echo "ci: --gate-test needs $BENCH, $CACHE_BENCH, $RELOAD_BENCH and $FEATURES_BENCH; run the benches first:" >&2
        echo "ci:   cargo bench --offline -p vbadet-bench --bench scan_parallel --bench features --bench cache --bench reload" >&2
        exit 1
    fi
    doctored=$(mktemp)
    doctored_cache=$(mktemp)
    doctored_reload=$(mktemp)
    doctored_features=$(mktemp)
    trap 'rm -f "$doctored" "$doctored_cache" "$doctored_reload" "$doctored_features"' EXIT
    awk '
        /"[A-Za-z0-9_]*docs_per_sec"[ \t]*:/ {
            split($0, half, ":")
            value = half[2]
            trail = (value ~ /,[ \t]*$/) ? "," : ""
            gsub(/[ \t,]/, "", value)
            printf "%s: %.2f%s\n", half[1], value * 2, trail
            next
        }
        { print }
    ' "$BENCH" >"$doctored"
    if (CI_BASELINE="$doctored" run_gates); then
        echo "ci: --gate-test FAIL — the gate passed against a doctored baseline" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the regression gate fails against a doctored baseline"

    # And the cache gate specifically: inflate the uncached throughput in
    # a copy of the cache results until no real warm pass could be 3x it.
    # (Halving the warm figure would not do — the measured warm speedup is
    # far above 3x, so the halved ratio could still clear the bar.)
    awk '
        /"uncached_docs_per_sec"[ \t]*:/ {
            split($0, half, ":")
            value = half[2]
            trail = (value ~ /,[ \t]*$/) ? "," : ""
            gsub(/[ \t,]/, "", value)
            printf "%s: %.2f%s\n", half[1], value * 1000, trail
            next
        }
        { print }
    ' "$CACHE_BENCH" >"$doctored_cache"
    if (CI_CACHE_BENCH="$doctored_cache" run_gates); then
        echo "ci: --gate-test FAIL — the cache gate passed against doctored results" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the warm-cache gate fails against doctored results"

    # And the reload-latency gate: inflate the churn p99 in a copy of the
    # reload results past any real 2x-of-steady bound — a hot swap that
    # stalled traffic would look exactly like this, and must FAIL.
    awk '
        /"churn_p99_ms"[ \t]*:/ {
            split($0, half, ":")
            value = half[2]
            trail = (value ~ /,[ \t]*$/) ? "," : ""
            gsub(/[ \t,]/, "", value)
            printf "%s: %.3f%s\n", half[1], value * 100, trail
            next
        }
        { print }
    ' "$RELOAD_BENCH" >"$doctored_reload"
    if (CI_RELOAD_BENCH="$doctored_reload" run_gates); then
        echo "ci: --gate-test FAIL — the reload gate passed against doctored results" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the reload-churn p99 gate fails against doctored results"

    # And the fused-extraction gate: shrink the measured speedup in a copy
    # of the features results to a tenth — a hot path that lost its edge
    # over the reference extractors would look like this, and must FAIL.
    awk '
        /"speedup_vs_reference"[ \t]*:/ {
            split($0, half, ":")
            value = half[2]
            trail = (value ~ /,[ \t]*$/) ? "," : ""
            gsub(/[ \t,]/, "", value)
            printf "%s: %.4f%s\n", half[1], value * 0.1, trail
            next
        }
        { print }
    ' "$FEATURES_BENCH" >"$doctored_features"
    if (CI_FEATURES_BENCH="$doctored_features" run_gates); then
        echo "ci: --gate-test FAIL — the fused-extraction gate passed against doctored results" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the fused-extraction speedup gate fails against doctored results"
    exit 0
fi

stage fmt cargo fmt --all --check
stage build cargo build --release --offline --workspace
stage build-faultpoints cargo build --offline --features faultpoints
stage test cargo test -q --offline --workspace
stage test-faultpoints cargo test -q --offline --features faultpoints
stage test-determinism determinism_tests
stage cache cache_tests
stage isolation isolation_tests
stage serve serve_tests
stage serve-soak serve_soak
stage reload-soak reload_soak
stage clippy cargo clippy --offline --workspace --all-targets -- -D warnings
stage clippy-faultpoints cargo clippy --offline -p vbadet-faultpoint --features faultpoints --all-targets -- -D warnings
stage bench cargo bench --offline -p vbadet-bench --bench scan_parallel
stage bench-features cargo bench --offline -p vbadet-bench --bench features
stage bench-cache cargo bench --offline -p vbadet-bench --bench cache
stage bench-reload cargo bench --offline -p vbadet-bench --bench reload
stage gates run_gates

write_summary
echo "ci: OK — summary in $SUMMARY"
