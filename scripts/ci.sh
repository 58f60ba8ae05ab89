#!/usr/bin/env sh
# Staged offline CI harness. Run from anywhere; it cds to the repo root.
#
#   scripts/ci.sh               full pipeline: fmt -> builds -> tests ->
#                               paper -> clippy -> bench -> gates
#   scripts/ci.sh --stage NAME  run only the named stage(s); repeatable,
#                               e.g. --stage serve --stage reload-soak.
#                               Unselected stages are recorded as skipped
#   scripts/ci.sh --gate-test   dry-run: doctor the bench baselines and
#                               results (and a Table V) and assert the
#                               gates FAIL on them
#
# Every stage is timed; the run (pass or fail) is recorded to
# results/ci-summary.json as machine-readable
# {format, schema_version, status, stages:[{name, status, seconds}]}.
# The first failing stage stops the pipeline, but the summary is still
# written so the driver can see exactly where it died and how long each
# stage before it took.
#
# Bench regression baselines: results/BENCH_baseline.json and
# results/BENCH_features_baseline.json, compared against the fresh
# results/BENCH_scan.json and results/BENCH_features.json at a 20%
# docs/sec tolerance. After an intentional perf change, refresh them with:
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
PAPER_TABLE=results/table5.txt
STAGES=""
OVERALL=ok

# Every stage the pipeline knows, in run order — the --stage validator
# and the skip logic both key off this list.
KNOWN_STAGES="fmt build doc benchmark-build build-faultpoints test test-faultpoints test-determinism \
cache isolation serve serve-soak reload-soak paper clippy clippy-faultpoints \
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

# Rustdoc with warnings denied, so a deleted or private item cannot leave
# a broken intra-doc link behind.
doc_stage() {
    RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --lib
}

# `benchmark/` is its own cargo workspace, so no workspace stage compiles
# it. Build it and run its tests against this checkout, so a change to a
# public function the benchmark calls fails here and not in a later run.
benchmark_build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
        cargo test -q --offline --manifest-path benchmark/Cargo.toml
}

# The parallel determinism suites rerun explicitly (beyond the workspace
# pass) so a future test-harness filter can never silently drop them: the
# worker-pool engine being observationally identical to the sequential one
# is this repo's load-bearing invariant. The container golden fixture is
# the extraction oracle (inflate, OLE, MS-OVBA outputs and failure text)
# and the feature golden fixture the scoring oracle (V/J bit patterns and
# token digests), so both rerun here too, with and without faultpoints
# compiled in. So do the allocation-free scoring check, which covers the
# V-only lex pass as well as the full one, and the per-thread memory
# ceiling check. So do, by name, the two checks that a document's counters
# reach the report only at the in-order seam: the drain test, whose
# counters must match across engine shapes, and the cold-cache timing
# test.
determinism_tests() {
    cargo test -q --offline --test parallel_scan --test metrics --test container_fixture \
        --test feature_fixture --test steady_state_alloc --test memory_ceiling &&
        cargo test -q --offline --features faultpoints --test parallel_scan --test fault_injection \
            --test container_fixture --test feature_fixture --test steady_state_alloc \
            --test memory_ceiling &&
        cargo test -q --offline --test cache a_cold_cached_scan_times_every_document_it_scans &&
        cargo test -q --offline --features faultpoints --test isolation \
            an_injected_drain_leaves_the_same_prefix_and_journal_under_every_engine_shape
}

# The resident-service suites: protocol/breaker/drain unit coverage, then
# a wall-clock chaos soak. The soak hammers a live `vbadet serve` daemon
# with concurrent clients while faultpoints crash-loop its workers, and
# asserts the service's core contract from the outside: exactly one
# terminal response per request, typed shedding under overload, the
# breaker opening AND recovering, drain exiting 3, and zero orphaned
# workers left behind. The suite's isolated services spawn workers, so
# the orphan check runs after it too.
serve_tests() {
    cargo test -q --offline --test serve &&
        cargo test -q --offline --features faultpoints --test serve &&
        assert_no_orphan_workers
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
# perf nicety. The cache's disk segments and the scan journal are one
# JSONL log (`jsonl.rs`), so the journal's resume suite and the unit
# tests of the journal, the cache and the log rerun with them. The cache
# suite's isolated batches spawn workers, so the orphan check runs after
# it too.
cache_tests() {
    cargo test -q --offline --test cache --test hostile_inputs --test resilience &&
        cargo test -q --offline -p vbadet --lib -- journal:: scan::cache:: jsonl:: &&
        cargo test -q --offline --features faultpoints --test cache &&
        assert_no_orphan_workers
}

# The process-isolation suite and, by name, the unit tests of the
# supervisor and of its wire (framing, every frame's layout, the hello's
# version check), then an outside-the-process check of the supervisor's
# no-orphans guarantee: every worker is reaped on every exit path (clean
# shutdown, heartbeat kill, supervisor panic), so after the suite no
# isolation worker may still be running.
isolation_tests() {
    cargo test -q --offline --test isolation &&
        cargo test -q --offline -p vbadet --lib -- scan::isolate:: &&
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

# The paper's headline result (DESIGN §1), checked on Table V: on F2,
# V1-V15 beats J1-J20 for each of the five classifiers, and each of MLP,
# RF and SVM on V1-V15 beats both LDA and BNB on V1-V15. A classifier
# missing from the table fails the check.
check_paper_shape() {
    awk '
        ($1 == "V1-V15" || $1 == "J1-J20") && NF >= 7 { f2[$1, $2] = $6 }
        function need(set, clf) {
            if (!((set, clf) in f2)) {
                printf "ci: paper FAIL — no %s %s row in the table\n", set, clf
                bad = 1
                return 0
            }
            return 1
        }
        function above(a_set, a, b_set, b) {
            if (!need(a_set, a) || !need(b_set, b)) return
            if (f2[a_set, a] + 0 > f2[b_set, b] + 0) {
                printf "ci: paper ok — F2 %s %s %s > %s %s %s\n", a_set, a, f2[a_set, a], b_set, b, f2[b_set, b]
            } else {
                printf "ci: paper FAIL — F2 %s %s %s <= %s %s %s\n", a_set, a, f2[a_set, a], b_set, b, f2[b_set, b]
                bad = 1
            }
        }
        END {
            split("SVM RF MLP LDA BNB", all, " ")
            for (i = 1; i <= 5; i++) above("V1-V15", all[i], "J1-J20", all[i])
            split("MLP RF SVM", strong, " ")
            split("LDA BNB", weak, " ")
            for (i = 1; i <= 3; i++)
                for (j = 1; j <= 2; j++) above("V1-V15", strong[i], "V1-V15", weak[j])
            exit bad
        }
    ' "$1" >&2
}

# Regenerates Table V at scale 0.1 (the committed results/table5.txt) and
# checks its shape.
paper_stage() {
    VBADET_SCALE=0.1 cargo run -q --release --offline -p vbadet-bench --bin table5_classification \
        >"$PAPER_TABLE" &&
        check_paper_shape "$PAPER_TABLE"
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

# baseline_gate BASELINE FRESH LABEL — no >20% docs/sec regression: every
# *_docs_per_sec key of BASELINE must read at least 0.8x its baseline
# value in FRESH. A key missing from FRESH fails: the bench no longer
# measures it (renamed, retired, or for a stage, under the bench's noise
# floor), so the baseline must be refreshed rather than quietly gate
# less. A key missing from BASELINE is new, with nothing to regress from.
baseline_gate() {
    for key in $(json_num_keys "$1" | grep '_docs_per_sec$'); do
        base=$(json_num "$1" "$key")
        fresh=$(json_num "$2" "$key")
        if [ -z "$fresh" ]; then
            echo "ci: gate FAIL — $key is in the $3 but missing from $2;" \
                "refresh with scripts/refresh-baseline.sh" >&2
            return 1
        fi
        min=$(num_mul "$base" 0.8)
        gate_check "$fresh" ge "$min" \
            "$key vs $3 $base (>20% regression)" || return 1
    done
}

# need_file FILE — a gate input that is missing fails the gate.
need_file() {
    if [ ! -f "$1" ]; then
        echo "ci: gate FAIL — $1 missing" >&2
        return 1
    fi
}

# The acceptance gates over the fresh bench results, one function each so
# --gate-test can prove each one trips on its own. run_gates runs them in
# order and stops at the first failure.
run_gates() {
    scan_gates && cache_gate && reload_gate && features_speedup_gate &&
        features_baseline_gate && scan_baseline_gate
}

# The scan_parallel gates:
#   1. core-aware parallel speedup floor (2x on 4+ cores, parity on 2-3,
#      0.5x on a single core where the pool is pure overhead),
#   2. metrics overhead <= 5%,
#   3. isolate throughput at least 0.6x the thread pool at the same job
#      count (process isolation must stay cheap enough to default to in
#      hostile-input triage; since isolate slots send a whole claim's
#      requests ahead, the lowest of ten bench runs read 0.75 on 2 cores,
#      so the floor sits below that spread — absolute isolate regressions
#      are caught by scan_baseline_gate).
scan_gates() {
    need_file "$BENCH" || return 1
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
        "isolate throughput >= 0.6x --jobs N ($gates_par docs/s)"
}

cache_gate() {
    gates_cache_bench=${CI_CACHE_BENCH:-$CACHE_BENCH}
    need_file "$gates_cache_bench" || return 1
    gates_uncached=$(json_num "$gates_cache_bench" uncached_docs_per_sec)
    gate_check "$(json_num "$gates_cache_bench" warm_docs_per_sec)" ge \
        "$(num_mul "$gates_uncached" 3.0)" \
        "warm-cache throughput >= 3x uncached ($gates_uncached docs/s)"
}

# Zero-downtime means the model swap may not stall traffic: under a
# reload every 500ms, the p99 request latency must stay within 2x the
# steady-state p99 measured moments earlier on the same machine.
reload_gate() {
    gates_reload_bench=${CI_RELOAD_BENCH:-$RELOAD_BENCH}
    need_file "$gates_reload_bench" || return 1
    gates_steady=$(json_num "$gates_reload_bench" steady_p99_ms)
    gate_check "$(json_num "$gates_reload_bench" churn_p99_ms)" le \
        "$(num_mul "$gates_steady" 2.0)" \
        "reload-churn p99 <= 2x steady p99 ($gates_steady ms)"
}

# The allocation-free scoring hot path must stay decisively ahead of
# the historical extractors it replaced: fused throughput >= 1.5x the
# reference path, measured fresh every run (the two are proven
# bit-identical by tests/feature_equivalence.rs, so this is pure cost).
features_speedup_gate() {
    gates_features_bench=${CI_FEATURES_BENCH:-$FEATURES_BENCH}
    need_file "$gates_features_bench" || return 1
    gate_check "$(json_num "$gates_features_bench" speedup_vs_reference)" ge 1.5 \
        "fused feature extraction >= 1.5x reference"
}

features_baseline_gate() {
    gates_features_bench=${CI_FEATURES_BENCH:-$FEATURES_BENCH}
    gates_features_baseline=${CI_FEATURES_BASELINE:-$FEATURES_BASELINE}
    [ -f "$gates_features_baseline" ] || return 0
    need_file "$gates_features_bench" || return 1
    baseline_gate "$gates_features_baseline" "$gates_features_bench" "features baseline"
}

# 4. no >20% docs/sec regression — overall or per stage — against the
#    committed scan baseline (see baseline_gate).
scan_baseline_gate() {
    gates_baseline=${CI_BASELINE:-$BASELINE}
    if [ ! -f "$gates_baseline" ]; then
        echo "ci: note — $gates_baseline missing; regression gate skipped." >&2
        echo "ci: note — refresh with: scripts/refresh-baseline.sh" >&2
        return 0
    fi
    need_file "$BENCH" || return 1
    baseline_gate "$gates_baseline" "$BENCH" baseline
}

# scale_key FILE KEY_RE FACTOR FORMAT — prints FILE with the value of
# every "KEY": pair whose key matches KEY_RE multiplied by FACTOR and
# printed with the printf FORMAT (e.g. %.2f). Other lines pass unchanged.
scale_key() {
    awk -v re="\"$2\"[ \t]*:" -v factor="$3" -v fmt="%s: $4%s\n" '
        $0 ~ re {
            split($0, half, ":")
            value = half[2]
            trail = (value ~ /,[ \t]*$/) ? "," : ""
            gsub(/[ \t,]/, "", value)
            printf fmt, half[1], value * factor, trail
            next
        }
        { print }
    ' "$1"
}

# gate_must_fail WHAT GATE VAR FILE KEY_RE FACTOR FORMAT — doctors a copy
# of FILE with scale_key, points VAR at the copy, runs the one gate
# function GATE and requires that it FAIL.
gate_must_fail() {
    scale_key "$4" "$5" "$6" "$7" >"$doctored/$3"
    if (export "$3=$doctored/$3" && "$2"); then
        echo "ci: --gate-test FAIL — $1 passed against doctored input" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — $1 fails against doctored input"
}

if [ "$GATE_TEST" = 1 ]; then
    # Prove every gate has teeth: each one must FAIL on doctored input.
    if [ ! -f "$BENCH" ] || [ ! -f "$CACHE_BENCH" ] || [ ! -f "$RELOAD_BENCH" ] ||
        [ ! -f "$FEATURES_BENCH" ]; then
        echo "ci: --gate-test needs $BENCH, $CACHE_BENCH, $RELOAD_BENCH and $FEATURES_BENCH; run the benches first:" >&2
        echo "ci:   cargo bench --offline -p vbadet-bench --bench scan_parallel --bench features --bench cache --bench reload" >&2
        exit 1
    fi
    doctored=$(mktemp -d)
    trap 'rm -rf "$doctored"' EXIT

    # The scan regression gate: double every docs/sec figure in a copy of
    # the fresh results and use that as the baseline — every throughput
    # then reads as a 50% regression. The features baseline likewise.
    gate_must_fail "the regression gate" scan_baseline_gate \
        CI_BASELINE "$BENCH" '[A-Za-z0-9_]*docs_per_sec' 2 %.2f
    gate_must_fail "the features-baseline regression gate" features_baseline_gate \
        CI_FEATURES_BASELINE "$FEATURES_BENCH" '[A-Za-z0-9_]*docs_per_sec' 2 %.2f

    # A baseline key the fresh results lack must fail the regression gate
    # too: the fresh results themselves, plus one retired key, as the
    # baseline.
    awk 'NR == 1 { print; print "  \"stage_retired_docs_per_sec\": 1.00,"; next } { print }' \
        "$BENCH" >"$doctored/CI_BASELINE"
    if (export CI_BASELINE="$doctored/CI_BASELINE" && scan_baseline_gate); then
        echo "ci: --gate-test FAIL — the regression gate passed a baseline key missing from $BENCH" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the regression gate fails on a baseline key missing from $BENCH"

    # The cache gate: inflate the uncached throughput until no real warm
    # pass could be 3x it. (Halving the warm figure would not do — the
    # measured warm speedup is far above 3x, so the halved ratio could
    # still clear the bar.)
    gate_must_fail "the warm-cache gate" cache_gate \
        CI_CACHE_BENCH "$CACHE_BENCH" uncached_docs_per_sec 1000 %.2f

    # The reload-latency gate: inflate the churn p99 past any real
    # 2x-of-steady bound — a hot swap that stalled traffic would look
    # exactly like this.
    gate_must_fail "the reload-churn p99 gate" reload_gate \
        CI_RELOAD_BENCH "$RELOAD_BENCH" churn_p99_ms 100 %.3f

    # The fused-extraction gate: shrink the measured speedup to a tenth —
    # a hot path that lost its edge over the reference extractors would
    # look like this.
    gate_must_fail "the fused-extraction speedup gate" features_speedup_gate \
        CI_FEATURES_BENCH "$FEATURES_BENCH" speedup_vs_reference 0.1 %.4f

    # And the paper stage: a Table V where J1-J20 wins on one classifier
    # and LDA on V1-V15 outscores MLP must FAIL the shape check.
    cat >"$doctored/table5.txt" <<'TABLE'
Feature set  Classifier   Accuracy  Precision   Recall       F2     AUC
----------------------------------------------------------------------
V1-V15       SVM             0.900      0.900    0.900    0.814   0.900
V1-V15       RF              0.900      0.900    0.900    0.802   0.900
V1-V15       MLP             0.900      0.900    0.900    0.550   0.900
V1-V15       LDA             0.700      0.700    0.700    0.583   0.700
V1-V15       BNB             0.700      0.700    0.700    0.542   0.700
----------------------------------------------------------------------
J1-J20       SVM             0.800      0.800    0.800    0.900   0.800
J1-J20       RF              0.800      0.800    0.800    0.700   0.800
J1-J20       MLP             0.800      0.800    0.800    0.500   0.800
J1-J20       LDA             0.600      0.600    0.600    0.500   0.600
J1-J20       BNB             0.600      0.600    0.600    0.500   0.600
TABLE
    if check_paper_shape "$doctored/table5.txt"; then
        echo "ci: --gate-test FAIL — the paper shape check passed on a doctored Table V" >&2
        exit 1
    fi
    echo "ci: --gate-test ok — the paper shape check fails on a doctored Table V"
    exit 0
fi

stage fmt cargo fmt --all --check
stage build cargo build --release --offline --workspace
stage doc doc_stage
stage benchmark-build benchmark_build
stage build-faultpoints cargo build --offline --features faultpoints
stage test cargo test -q --offline --workspace
stage test-faultpoints cargo test -q --offline --workspace --features faultpoints
stage test-determinism determinism_tests
stage cache cache_tests
stage isolation isolation_tests
stage serve serve_tests
stage serve-soak serve_soak
stage reload-soak reload_soak
stage paper paper_stage
stage clippy cargo clippy --offline --workspace --all-targets -- -D warnings
stage clippy-faultpoints cargo clippy --offline --workspace --features faultpoints --all-targets -- -D warnings
stage bench cargo bench --offline -p vbadet-bench --bench scan_parallel
stage bench-features cargo bench --offline -p vbadet-bench --bench features
stage bench-cache cargo bench --offline -p vbadet-bench --bench cache
stage bench-reload cargo bench --offline -p vbadet-bench --bench reload
stage gates run_gates

write_summary
echo "ci: OK — summary in $SUMMARY"
