#!/usr/bin/env bash
# Regenerates every BENCH_*.json measurement artifact in the repo root from
# a Release build. Usage: tools/bench.sh [build-dir] (default: build).
#
#   BENCH_incremental.json  full-reeval vs delta-maintained edit loop
#   BENCH_parallel.json     serial-vs-N-threads sweep (self-verifying)
#   BENCH_intern.json       dictionary-encoded storage engine before/after
#   BENCH_optimizer.json    cost-based planner vs legacy greedy / parse order
#   BENCH_service.json      session-service load: dedup + latency sweep
#
# Repetitions are pinned (kReps below, aggregates only) so reruns on the
# same host are comparable. The "before" half of BENCH_intern.json comes
# from bench/baseline_pre_intern.json — numbers captured from the last
# pre-interning revision on the same host; rerunning this script refreshes
# only the "after" half. Capture a fresh baseline by building the
# pre-interning revision in a worktree and running its perf_microbench /
# perf_dbgroup with the same pinned flags.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
kReps=3
kPinnedFlags=(--benchmark_repetitions="$kReps"
              --benchmark_report_aggregates_only=true
              --benchmark_out_format=json)

for bin in perf_microbench perf_dbgroup perf_optimizer parallel_sweep \
           service_load; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "bench.sh: $BUILD/bench/$bin missing; build the bench targets first" >&2
    exit 1
  fi
done
if ! grep -q 'CMAKE_BUILD_TYPE:[^=]*=Release' "$BUILD/CMakeCache.txt"; then
  echo "bench.sh: $BUILD is not a Release build; numbers would be garbage" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== BENCH_incremental.json"
"$BUILD/bench/perf_microbench" \
  --benchmark_filter='EditLoop' \
  --benchmark_out=BENCH_incremental.json --benchmark_out_format=json

echo "== BENCH_intern.json (after half)"
"$BUILD/bench/perf_microbench" \
  --benchmark_filter='EvaluateSoccerQuery|EditLoop|EndToEnd|ValueHash|TupleCompare|InternProbe' \
  "${kPinnedFlags[@]}" --benchmark_out="$tmpdir/after_micro.json"
"$BUILD/bench/perf_dbgroup" \
  "${kPinnedFlags[@]}" --benchmark_out="$tmpdir/after_dbgroup.json"

python3 - "$tmpdir" <<'EOF'
import json, sys

tmpdir = sys.argv[1]

kToNs = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def means(path):
    out = {}
    with open(path) as f:
        data = json.load(f)
    for b in data.get("benchmarks", []):
        name = b["name"]
        if name.endswith("_mean"):
            scale = kToNs[b.get("time_unit", "ns")]
            out[name[: -len("_mean")]] = b["real_time"] * scale
    return out, data.get("context", {})

before, before_ctx = means("bench/baseline_pre_intern.json")
after, after_ctx = means(f"{tmpdir}/after_micro.json")
after_db, _ = means(f"{tmpdir}/after_dbgroup.json")
after.update(after_db)

comparisons, after_only = [], []
for name in sorted(after):
    if name in before:
        comparisons.append({
            "name": name,
            "before_ns": round(before[name], 1),
            "after_ns": round(after[name], 1),
            "speedup": round(before[name] / after[name], 3),
        })
    else:
        after_only.append({"name": name, "ns": round(after[name], 1)})

out = {
    "context": {
        "note": "dictionary-encoded storage engine: pre-interning engine "
                "(bench/baseline_pre_intern.json) vs current tree; "
                "real_time means, ns",
        "before_date": before_ctx.get("date"),
        "after_date": after_ctx.get("date"),
        "host": after_ctx.get("host_name"),
        "repetitions": 3,
    },
    "comparisons": comparisons,
    "after_only": after_only,
}
with open("BENCH_intern.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
for c in comparisons:
    print(f"  {c['name']:42s} {c['speedup']:6.2f}x")
EOF

echo "== BENCH_parallel.json"
"$BUILD/bench/parallel_sweep" BENCH_parallel.json

echo "== BENCH_service.json"
# Self-verifying: exits nonzero if cross-session dedup falls below 2x or
# any session's transcript diverges from its solo serial run.
"$BUILD/bench/service_load" BENCH_service.json

echo "== BENCH_optimizer.json"
# Planned-vs-legacy ratios on the small workload queries sit near 1.0x, so
# sequential A-then-B timing is hostage to host throughput drift; random
# interleaving spreads both engines' repetitions across the same wall-clock
# window and the extractor below takes medians.
"$BUILD/bench/perf_optimizer" \
  --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_out_format=json --benchmark_out="$tmpdir/optimizer.json"

python3 - "$tmpdir" <<'EOF'
import json, sys

tmpdir = sys.argv[1]

kToNs = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Engine argument values (query::EvalMode): 0 cost-based root, 1 greedy
# root (the rule bounded searches plan with); one executor runs both.
# perf_optimizer also labels every run with the planned atom order and
# reports answers/tuples counters; carry all of it into the artifact.
with open(f"{tmpdir}/optimizer.json") as f:
    data = json.load(f)

runs = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if not name.endswith("_median"):
        continue
    base = name[: -len("_median")]
    scale = kToNs[b.get("time_unit", "ns")]
    runs[base] = {
        "ns": b["real_time"] * scale,
        "plan": b.get("label", ""),
        "answers": b.get("answers"),
        "tuples": b.get("tuples"),
    }

def entry(name, planned_key, baseline_key, baseline_name):
    p, b = runs[planned_key], runs[baseline_key]
    return {
        "name": name,
        "planned_ns": round(p["ns"], 1),
        "planned_plan": p["plan"],
        f"{baseline_name}_ns": round(b["ns"], 1),
        f"{baseline_name}_plan": b["plan"],
        "speedup": round(b["ns"] / p["ns"], 3),
        "answers": p["answers"],
        "tuples": p["tuples"],
    }

comparisons = [
    entry("adversarial_join", "BM_AdversarialJoin/0",
          "BM_AdversarialJoin/1", "legacy"),
    entry("parse_order_best_vs_worst", "BM_ParseOrderWorstVsBest/1",
          "BM_ParseOrderWorstVsBest/0", "worst_order"),
    entry("semijoin_reduction", "BM_SemiJoinReduction/0",
          "BM_SemiJoinReduction/1", "legacy"),
]
for qi in (1, 2, 3):
    comparisons.append(entry(f"soccer_q{qi}", f"BM_SoccerEvaluate/{qi}/0",
                             f"BM_SoccerEvaluate/{qi}/1", "legacy"))
for qi in (0, 1):
    comparisons.append(entry(f"dbgroup_q{qi}", f"BM_DbGroupEvaluate/{qi}/0",
                             f"BM_DbGroupEvaluate/{qi}/1", "legacy"))

out = {
    "context": {
        "note": "cost-based join ordering + semi-join reduction: planned "
                "engine vs legacy adaptive greedy (and worst-vs-best "
                "written order under the strict parse-order engine); "
                "real_time medians of 9 interleaved repetitions, ns; "
                "plan strings are the planned atom "
                "order with semi-join candidate counts",
        "date": data.get("context", {}).get("date"),
        "host": data.get("context", {}).get("host_name"),
        "repetitions": 9,
    },
    "comparisons": comparisons,
}
with open("BENCH_optimizer.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
for c in comparisons:
    print(f"  {c['name']:28s} {c['speedup']:8.2f}x  plan: {c['planned_plan']}")
EOF

echo "bench.sh: wrote BENCH_incremental.json BENCH_intern.json BENCH_parallel.json BENCH_optimizer.json BENCH_service.json"
