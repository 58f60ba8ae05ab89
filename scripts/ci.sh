#!/usr/bin/env sh
# Staged offline CI harness. Run from anywhere; it cds to the repo root.
#
#   scripts/ci.sh               full pipeline: fmt -> size -> builds ->
#                               tests -> paper -> clippy -> bench -> gates
#   scripts/ci.sh --stage NAME  run only the named stage(s); repeatable,
#                               e.g. --stage serve --stage reload-soak.
#                               Unselected stages are recorded as skipped
#   scripts/ci.sh --gate-test   dry-run: prove every gate trips — for
#                               each gate row, doctor a copy of
#                               results/*.json past that row's bound and
#                               assert the gate FAILS; likewise a baseline
#                               key the results lack, and a doctored
#                               Table V
#
# Every stage is timed; the run (pass or fail) is recorded to
# results/ci-summary.json as machine-readable
# {format, schema_version, status, stages:[{name, status, seconds}]}.
# The first failing stage stops the pipeline, but the summary is still
# written so the driver can see exactly where it died and how long each
# stage before it took.
#
# The bench gates are one table, GATES: one row per gate, each a key of a
# results/BENCH_*.json file, a comparison and a bound. check_gates runs
# every row, and the gates stage then runs the --gate-test teeth check on
# copies of the fresh results, so a gate that stops tripping fails CI.
# Two rows gate against the regression baselines
# results/BENCH_baseline.json and results/BENCH_features_baseline.json at
# a 20% docs/sec tolerance. After an intentional perf change, refresh
# them with:
#
#   scripts/refresh-baseline.sh

set -u

cd "$(dirname "$0")/.."
. scripts/lib.sh

SUMMARY=results/ci-summary.json
PAPER_TABLE=results/table5.txt
STAGES=""
OVERALL=ok

# Every stage the pipeline knows, in run order — the --stage validator
# and the skip logic both key off this list.
KNOWN_STAGES="fmt size build doc benchmark-build build-faultpoints test test-faultpoints test-determinism \
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

# The acceptance gates over the fresh bench results, one row each:
#
#   FILE  KEY  OP  BOUND
#
# A row requires KEY of FILE to be OP (ge or le) BOUND, where BOUND is
#   N            a number;
#   F*KEY2       F times KEY2 of the same file;
#   F*BASE.json  F times the same key of the baseline BASE.json, for each
#                baseline key that matches the glob KEY. A baseline key
#                FILE lacks fails: the bench no longer measures it, so
#                refresh the baseline (scripts/refresh-baseline.sh) rather
#                than quietly gate less. A missing BASE.json skips the row;
#   core_floor   0.5 for FILE's cores 1 (the pool is pure overhead), 1.0
#                for 2-3, 2.0 for 4 or more.
# A missing FILE, KEY or bound input fails.
#
# Why the bounds: metrics may cost at most 5% of a scan. Isolate slots
# send a whole claim's requests ahead, and the lowest of ten bench runs
# read 0.75x the pool on 2 cores, so its floor sits below that spread.
# Zero downtime means a model swap every 500 ms may not stall traffic.
# tests/feature_equivalence.rs proves the fused and reference extractors
# bit-identical, so their ratio is pure cost. The baselines allow a 20%
# docs/sec regression, overall or per stage.
GATES='
BENCH_scan.json      speedup               ge  core_floor
BENCH_scan.json      metrics_overhead_pct  le  5.0
BENCH_scan.json      isolate_docs_per_sec  ge  0.6*parallel_docs_per_sec
BENCH_cache.json     warm_docs_per_sec     ge  3.0*uncached_docs_per_sec
BENCH_reload.json    churn_p99_ms          le  2.0*steady_p99_ms
BENCH_features.json  speedup_vs_reference  ge  1.5
BENCH_scan.json      *_docs_per_sec        ge  0.8*BENCH_baseline.json
BENCH_features.json  *_docs_per_sec        ge  0.8*BENCH_features_baseline.json
'

# row_keys FILE GLOB — the numeric keys of FILE that match GLOB.
row_keys() {
    for row_key in $(json_num_keys "$1"); do
        case $row_key in $2) echo "$row_key" ;; esac
    done
}

# gate_value ROW FILE KEY OP BOUND — one comparison, with a uniform
# message naming its row. An empty value or bound fails.
gate_value() {
    value=$(json_num "$2" "$3")
    if [ -z "$value" ] || [ -z "$5" ]; then
        echo "ci: gate FAIL — [$1] $3 missing from $2, or an input of its bound is" >&2
        return 1
    elif ! "num_$4" "$value" "$5"; then
        echo "ci: gate FAIL — [$1] $3 $value violates $4 $5" >&2
        return 1
    fi
    echo "ci: gate ok — [$1] $3 $value $4 $5"
}

# check_row DIR FILE KEY OP BOUND — one row of GATES against the bench
# results in DIR.
check_row() {
    row="$2 $3 $4 $5"
    fresh=$1/$2
    ref=${5#*\*}
    if [ ! -f "$fresh" ]; then
        echo "ci: gate FAIL — [$row] $fresh missing" >&2
        return 1
    fi
    case $5 in
        *.json)
            if [ ! -f "$1/$ref" ]; then
                echo "ci: note — [$row] $1/$ref missing; row skipped (scripts/refresh-baseline.sh writes it)" >&2
                return 0
            fi
            row_status=0
            for base_key in $(row_keys "$1/$ref" "$3"); do
                gate_value "$row" "$fresh" "$base_key" "$4" \
                    "$(num_mul "$(json_num "$1/$ref" "$base_key")" "${5%%\**}")" || row_status=1
            done
            return $row_status
            ;;
        core_floor)
            cores=$(json_num "$fresh" cores)
            row_bound=${cores:+$(awk -v c="$cores" 'BEGIN { print (c >= 4 ? "2.0" : c >= 2 ? "1.0" : "0.5") }')}
            ;;
        *\**)
            ref_value=$(json_num "$fresh" "$ref")
            row_bound=${ref_value:+$(num_mul "$ref_value" "${5%%\**}")}
            ;;
        *) row_bound=$5 ;;
    esac
    gate_value "$row" "$fresh" "$3" "$4" "$row_bound"
}

# check_gates DIR — every row of GATES against the BENCH_*.json files in
# DIR; every row runs, so one run names every failing gate.
check_gates() {
    gates_status=0
    while read -r gate_file gate_key gate_op gate_bound; do
        [ -n "$gate_file" ] || continue
        check_row "$1" "$gate_file" "$gate_key" "$gate_op" "$gate_bound" || gates_status=1
    done <<EOF
$GATES
EOF
    return $gates_status
}

# set_keys FILE VALUE KEY... — sets each "KEY": number pair of FILE to
# VALUE, in place.
set_keys() {
    set_file=$1
    set_value=$2
    shift 2
    awk -v value="$set_value" -v keys="$*" '
        BEGIN { n = split(keys, k, " ") }
        {
            for (i = 1; i <= n; i++)
                gsub("\"" k[i] "\"[ \t]*:[ \t]*-?[0-9][0-9.eE+-]*", "\"" k[i] "\": " value)
            print
        }
    ' "$set_file" >"$set_file.new" && mv "$set_file.new" "$set_file"
}

# must_trip DIR ROW FAILURE — check_gates on the doctored copy DIR must
# fail ROW with FAILURE ("KEY VALUE violates" or "KEY missing"), so the
# doctored value itself trips the row, not some other fault.
must_trip() {
    if check_gates "$1" 2>&1 | grep -qF "gate FAIL — [$2] $3"; then
        echo "ci: --gate-test ok — [$2] fails: $3"
    else
        echo "ci: --gate-test FAIL — [$2] did not fail with: $3" >&2
        return 1
    fi
}

# gate_teeth DIR — proves every gate row trips. For each row, a copy of
# DIR/*.json with the row's value set past its bound (0 for ge, 1e9 for
# le: set, not scaled, so a value that reads 0 can fail too) must fail
# that row; a baseline row must also fail on a baseline key the fresh
# file lacks. Then a doctored Table V must fail the paper check.
gate_teeth() {
    teeth=$(mktemp -d) || return 1
    teeth_status=0
    while read -r file key op bound; do
        [ -n "$file" ] || continue
        teeth_row="$file $key $op $bound"
        if [ ! -f "$1/$file" ]; then
            echo "ci: --gate-test FAIL — [$teeth_row] needs $1/$file; run the benches first" >&2
            teeth_status=1
            continue
        fi
        broken=0
        [ "$op" = le ] && broken=1000000000
        baseline=${bound#*\*}
        keys=$key
        case $bound in *.json) keys=$(row_keys "$1/$baseline" "$key") ;; esac
        rm -f "$teeth"/*.json
        cp "$1"/*.json "$teeth"/
        set_keys "$teeth/$file" "$broken" $keys
        must_trip "$teeth" "$teeth_row" "${keys%%[!a-z0-9_]*} $broken violates" || teeth_status=1
        case $bound in
            *.json)
                cp "$1/$file" "$teeth/$file"
                awk 'NR == 1 { print; print "  \"stage_retired_docs_per_sec\": 1.00,"; next } { print }' \
                    "$1/$baseline" >"$teeth/$baseline"
                must_trip "$teeth" "$teeth_row" "stage_retired_docs_per_sec missing" || teeth_status=1
                ;;
        esac
    done <<EOF
$GATES
EOF

    # A Table V where J1-J20 wins on one classifier and LDA on V1-V15
    # outscores MLP must fail the paper check.
    cat >"$teeth/table5.txt" <<'TABLE'
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
    if check_paper_shape "$teeth/table5.txt" 2>/dev/null; then
        echo "ci: --gate-test FAIL — the paper check passed on a doctored Table V" >&2
        teeth_status=1
    else
        echo "ci: --gate-test ok — the paper check fails on a doctored Table V"
    fi
    rm -rf "$teeth"
    return $teeth_status
}

# The gates stage: every row on the fresh results, then the same teeth
# check --gate-test runs, on copies of them — a gate that stops tripping
# fails CI.
run_gates() {
    check_gates results && gate_teeth results
}

if [ "$GATE_TEST" = 1 ]; then
    gate_teeth results
    exit
fi

stage fmt cargo fmt --all --check
stage size sh scripts/size.sh
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
