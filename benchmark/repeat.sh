#!/usr/bin/env bash
# Run the end-to-end set twice on the same code and compare the two.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
#
# Prints, per end-to-end metric and workload, both values, their relative
# difference and the bound from BENCHMARK.json; exits non-zero if any
# difference exceeds its bound, or if any request failed. Windows whose
# slowest operation took more than 100x their median are named
# (client.stall_windows), so a noisy-neighbour stall is seen, not averaged in.
set -u

cd "$(dirname "$0")/.." || exit 1

seed=7 seconds=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
        -h|--help) sed -n '2,10p' "$0"; exit 0 ;;
        *) echo "repeat.sh: unknown argument: $1" >&2; exit 2 ;;
    esac
done
command -v python3 >/dev/null || { echo "repeat.sh: needs python3 to read JSON" >&2; exit 2; }

workloads="short_read churn_mix scan_heavy plan_sensitive"
mkdir -p benchmark/out
for set in a b; do
    for w in $workloads; do
        echo "repeat.sh: set $set, $w" >&2
        bash benchmark/run.sh --workload "$w" --seed "$seed" \
            ${seconds:+--seconds "$seconds"} --trace 0 \
            | tail -n 1 > "benchmark/out/repeat_${set}_${w}.json" || exit 1
        cp "benchmark/out/e2e_${w}.json" "benchmark/out/repeat_${set}_${w}_detail.json"
    done
done

python3 - $workloads <<'EOF'
import json, sys

contract = json.load(open("BENCHMARK.json"))
bad = False
print(f"{'workload':<15} {'metric':<20} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
for w in sys.argv[1:]:
    runs = [json.load(open(f"benchmark/out/repeat_{s}_{w}.json")) for s in "ab"]
    for s, run in zip("ab", runs):
        if not run["correct"] or run["failed"]:
            print(f"{w:<15} set {s}: {run['failed']} of {run['attempted']} requests FAILED")
            bad = True
    for m in contract["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in runs)
        diff = max(a, b) / min(a, b) - 1
        flag = "" if diff <= m["bound"] else "  EXCEEDS"
        bad |= bool(flag)
        print(f"{w:<15} {m['name']:<20} {a:>14.4f} {b:>14.4f} {diff:>8.3f} {m['bound']:>6}{flag}")
    for s in "ab":
        detail = json.load(open(f"benchmark/out/repeat_{s}_{w}_detail.json"))
        stalls = detail["metrics"]["client.stall_windows"]["value"]
        share = detail["metrics"].get("client.granted_share", {}).get("value")
        note = f"{int(stalls)} stall window(s)"
        if share is not None:
            note += f", host granted {share:.0%} of the CPU time asked for"
        print(f"{w:<15} set {s}: {note}")
sys.exit(1 if bad else 0)
EOF
