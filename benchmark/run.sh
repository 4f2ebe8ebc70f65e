#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       Build release, then for each of the four workloads run the
#       end-to-end windows (tracing off) and the traced per-layer run.
#       Prints every metric by name with its unit; writes detail and
#       Chrome-trace files to benchmark/out/.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, as BENCHMARK.json's driver calls it: --trace 0 is the
#       end-to-end run, --trace 1 the per-layer run. The last line of
#       stdout is the JSON result.
#
# --quick is a smoke mode: one 1 s window, one set-up, the fewest probe
# calls. The oracle still runs and every metric name is still printed.
set -u

cd "$(dirname "$0")/.." || exit 1

workload="" seed=7 seconds="" trace="" quick=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
        --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
        --quick) quick="--quick"; shift ;;
        -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
    esac
done

# Relative CARGO_TARGET_DIR values resolve against the repo root, where
# both cargo and this script now run.
bin="${CARGO_TARGET_DIR:-benchmark/target}/release"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Path dependencies only, so the build needs no network. Cargo talks on
# stderr; stdout stays the benchmark's.
build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin "$1" >&2
}

common=(--seed "$seed" --out benchmark/out --commit "$commit")
[ -n "$seconds" ] && common+=(--seconds "$seconds")
[ -n "$quick" ] && common+=("$quick")

if [ -n "$workload" ]; then
    case "${trace:-0}" in
        0) program=e2e ;;
        1) program=layers ;;
        *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
    esac
    if ! build "$program"; then
        echo "run.sh: building the $program binary failed" >&2
        exit 3
    fi
    exec "$bin/$program" --workload "$workload" "${common[@]}"
fi

# All four workloads. `e2e` must build; a `layers` failure (an inner entry
# point moved) costs the per-layer numbers only and is reported as such.
if ! build e2e; then
    echo "run.sh: building the e2e binary failed" >&2
    exit 3
fi
layers_built=1
if ! build layers; then
    layers_built=0
    echo "run.sh: LAYERS BUILD FAILED - end-to-end numbers only" >&2
fi

status=0
for w in short_read churn_mix scan_heavy plan_sensitive; do
    "$bin/e2e" --workload "$w" "${common[@]}" || status=1
    if [ "$layers_built" = 1 ]; then
        "$bin/layers" --workload "$w" "${common[@]}" || status=1
    fi
done
if [ "$layers_built" = 0 ]; then
    echo "run.sh: per-layer metrics missing: the layers binary did not build" >&2
    status=4
fi
exit "$status"
