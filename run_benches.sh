#!/bin/sh
# Regenerates every paper figure/table; see README.md for scale knobs.
#
# Usage: ./run_benches.sh [filter]
# With an argument, only benches whose name contains it run — e.g.
# `./run_benches.sh scale` runs bench_scale alone, `./run_benches.sh figures`
# every paper figure, ablation and the fault-recovery baseline
# (bench_figures) — and only their artifacts are refreshed in place. For
# single figures run bench_figures directly:
# `build/bench/bench_figures fig4b_symmetric fig9_cdf` (names as in
# bench/figures.cpp; each writes <name>.json).
#
# Each bench also emits one machine-readable JSON artifact (swept points,
# fabric counters, telemetry digest). Artifacts land in CLOVE_JSON_OUT,
# which defaults to the repo root (this script's directory) so the committed
# BENCH_*.json perf baselines are refreshed in place by a plain
# ./run_benches.sh; bench_micro_datapath contributes BENCH_micro.json,
# bench_fabric_forwarding BENCH_fabric.json and bench_scale BENCH_scale.json
# (ns/op, events/sec, allocs/event and peak RSS for the datapath hot loops —
# the perf baselines scripts/bench_check.py compares CI runs against). The
# last two drive the synthetic fabrics of bench/fabric_driver.cpp, and
# CLOVE_FABRIC_ROUNDS overrides their rounds (defaults 256 and 64). Set
# CLOVE_JSON_OUT=<dir> to redirect the artifacts elsewhere, or
# CLOVE_JSON_OUT="" to skip JSON output.
#
# A figure's runs (every point and seed) go in parallel across CLOVE_THREADS
# worker threads (default: all hardware threads). Results are bit-identical
# for any thread count; set CLOVE_THREADS=1 to force serial execution.
: "${CLOVE_JOBS:=30}"
: "${CLOVE_CONNS:=2}"
: "${CLOVE_SEEDS:=1}"
export CLOVE_JOBS CLOVE_CONNS CLOVE_SEEDS
[ -n "${CLOVE_THREADS:-}" ] && export CLOVE_THREADS
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
if [ -z "${CLOVE_JSON_OUT+set}" ]; then
  CLOVE_JSON_OUT=$repo_root
fi
if [ -n "$CLOVE_JSON_OUT" ]; then
  mkdir -p "$CLOVE_JSON_OUT"
  export CLOVE_JSON_OUT
  echo "### JSON artifacts -> $CLOVE_JSON_OUT"
fi
filter=${1:-}
ran=0
for b in "$repo_root"/build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  case "$(basename "$b")" in
    *"$filter"*) ;;
    *) continue ;;
  esac
  echo "### $b"
  "$b"
  echo
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "no bench matches '$filter' (build/bench/bench_*)" >&2
  exit 1
fi

# One engine line per bench artifact (DESIGN.md §10): event throughput,
# queue pressure, and peak RSS — the gauges the scale guard enforces. Add
# CLOVE_PROF=summary|full for full time attribution (then see
# scripts/prof_summarize.py).
if [ -n "$CLOVE_JSON_OUT" ]; then
  echo "### engine summary (events/sec, queue hwm, peak RSS per artifact)"
  python3 - "$CLOVE_JSON_OUT" <<'EOF'
import json, os, sys
root = sys.argv[1]
for name in sorted(os.listdir(root)):
    if not name.endswith(".json") or name.endswith("_trace.json"):
        continue
    try:
        with open(os.path.join(root, name)) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        continue
    eng = doc.get("engine") if isinstance(doc, dict) else None
    if not isinstance(eng, dict):
        continue
    line = (f"  {doc.get('bench', name):<22} "
            f"{eng.get('events', 0):>14,.0f} events"
            f"  {eng.get('events_per_sec', 0) / 1e6:6.2f} Mev/s"
            f"  hwm {eng.get('queue_hwm', 0):>6,.0f}"
            f"  rss {eng.get('peak_rss_mb', 0):6.1f} MB")
    sp = eng.get("self_profile")
    if isinstance(sp, dict) and sp.get("scopes"):
        top = max(sp["scopes"], key=lambda s: s.get("self_ns", 0))
        line += (f"  top {top.get('name', '?')}"
                 f" {100.0 * top.get('self_frac', 0.0):.0f}%")
    print(line)
EOF
  echo
fi

# One-line recovery verdict per scheme from the fault figure's artifact
# (bench_figures BENCH_fault, which pins its own 300 jobs/conn whatever
# CLOVE_JOBS says; see DESIGN.md §8 and scripts/bench_check.py). CI checks
# it with CLOVE_FLIGHT_RECORDER=sampled CLOVE_THREADS=4. Its engine.rss_mb
# depends on both, the artifact's scale block records them, and
# bench_check.py fails the rss row against a baseline taken otherwise.
if [ -n "$CLOVE_JSON_OUT" ] && [ -f "$CLOVE_JSON_OUT/BENCH_fault.json" ]; then
  echo "### fault recovery summary (BENCH_fault.json)"
  python3 - "$CLOVE_JSON_OUT/BENCH_fault.json" <<'EOF'
import json, sys
vals = {v["name"]: v["value"] for v in json.load(open(sys.argv[1]))["values"]}
for scheme in sorted({n.split(".")[0] for n in vals if n.endswith(".recovery_ms")}):
    rec = vals.get(f"{scheme}.recovery_ms", -1.0)
    infl = vals.get(f"{scheme}.fct_inflation_x", 0.0)
    verdict = "never recovered" if rec < 0 else f"recovered in {rec:.0f} ms"
    print(f"  {scheme:<14} {verdict:<22} (blackhole mice-FCT inflation {infl:.2f}x)")
EOF
fi
