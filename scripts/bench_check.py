#!/usr/bin/env python3
"""Compare a fresh bench JSON artifact against a committed baseline.

Usage: bench_check.py BASELINE.json CURRENT.json

Two families of checks over the flat `values` array each bench artifact
carries (stdlib only — this runs in CI before anything is installed):

* Allocation counters (``*.allocs_per_event`` / ``*.allocs_per_pkt`` /
  ``*.allocs_per_ack`` / ``*.allocs_per_build``): the current value must
  not exceed baseline + ALLOC_SLACK. Steady-state pooled paths are pinned
  at (effectively) zero while the deliberately heap-backed comparison rows
  (``BM_*_Heap``, baseline == 1) stay allowed at 1. The small absolute
  slack tolerates rare amortized table maintenance (FlatMap tombstone
  rebuilds, ring growth) that is not a leak of per-packet allocations.
  A per-build count (a fabric build after a warm-up build) is exact, so it
  gets the same near-exact limit.

* Size ceilings (``*.route_bytes``, the heap a built fabric's route tables
  hold): a pure function of the table layout and the topology, the same on
  every machine, so the current value must not exceed the baseline at all.

* Throughput (``*_per_sec`` — pkts_per_sec, events_per_sec, …) and latency
  (``*.ns_per_*``): fail on a regression beyond TOLERANCE (default 25%,
  override with ``BENCH_CHECK_TOLERANCE=0.40`` etc. for noisy runners).
  Throughput must stay above baseline * (1 - tol); latency below
  baseline / (1 - tol).

* Paired ratios (``*_ratio``, e.g. the flight-recorder overhead guard):
  the bench computed these as same-run A/B comparisons, so machine speed
  cancels out and they get a tight absolute band — the current value must
  stay above baseline - RATIO_SLACK (2 points). Ratios far from parity
  (baseline > 2, e.g. the hybrid engine's ~50x speedup) jitter
  multiplicatively instead, so they fall back to the relative
  throughput floor (baseline * (1 - tol)).

* Recovery times (``*.recovery_ms``, the fault-recovery bench): these are
  *simulated* milliseconds, so machine speed does not enter at all — only
  the relative tolerance plus a one-bucket absolute slack (RECOVERY_SLACK_MS)
  for bucket-boundary jitter. A baseline < 0 means the scheme never
  recovered (by design for ECMP) and the row is informational; a current
  value < 0 against a recovering baseline is a hard FAIL — the scheme lost
  its ability to recover, which no tolerance forgives. So is a baseline
  recovery row missing from the current artifact: simulated time never
  legitimately disappears, and CI must not check fewer rows.

* Memory ceilings (``*.rss_mb``, the scale bench and the per-artifact engine
  gauge): current peak RSS must stay under baseline * (1 + tol) +
  RSS_SLACK_MB. The absolute slack absorbs allocator/page-size differences
  between machines; a real leak or a structurally bigger engine blows
  through both. Peak RSS depends on how the run was taken (the fault
  figure reads ~28, ~58 or ~105 MB at one thread, four threads, or four
  threads with the flight recorder sampled), so an rss row FAILs outright
  when the two artifacts' ``scale`` blocks disagree on ``threads`` or
  ``flight_recorder``: the baseline was taken unlike the run it gates.

Every name that matches no family is printed as an ``[info]`` row, so a
typo'd metric never silently skips enforcement. Other metrics present in
only one of the two files are reported but non-fatal: benches gain and lose
counters across PRs (the hybrid rows exist only with CLOVE_HYBRID=on), and
the baseline is refreshed by re-running ./run_benches.sh (artifacts land at
the repo root by default).

Env overrides: BENCH_CHECK_TOLERANCE (relative, default 0.25) and
BENCH_CHECK_RATIO_SLACK (absolute band for ``*_ratio`` rows, default 0.02 —
raise for cross-topology ratios on unknown hardware).

Exit status: 0 = all checks pass, 1 = at least one regression, 2 = usage or
parse error.
"""

import json
import os
import sys

ALLOC_SLACK = 0.01  # absolute allocs-per-event slack for amortized housekeeping
RATIO_SLACK = 0.02  # absolute band for same-run A/B overhead ratios
RECOVERY_SLACK_MS = 50.0  # one FCT bucket of boundary jitter for recovery times
RSS_SLACK_MB = 32.0  # absolute peak-RSS slack for allocator/page-size drift
DEFAULT_TOLERANCE = 0.25


# The `scale` fields an artifact's peak RSS depends on (see is_rss).
RUN_MODE_FIELDS = ("threads", "flight_recorder")


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def run_modes(doc):
    """The RUN_MODE_FIELDS of an artifact's `scale` block (None if absent)."""
    scale = doc.get("scale") or {}
    return {field: scale.get(field) for field in RUN_MODE_FIELDS}


def load_values(doc, path):
    vals = {}
    for entry in doc.get("values", []):
        name, value = entry.get("name"), entry.get("value")
        if isinstance(name, str) and isinstance(value, (int, float)):
            vals[name] = float(value)
    if not vals:
        raise ValueError(f"{path}: no 'values' entries to check")
    return vals


def is_alloc(name):
    return name.endswith((".allocs_per_event", ".allocs_per_pkt",
                          ".allocs_per_ack", ".allocs_per_build"))


def is_size(name):
    return name.endswith(".route_bytes")


def is_throughput(name):
    return name.endswith("_per_sec")


def is_ratio(name):
    return name.endswith("_ratio")


def is_latency(name):
    tail = name.rsplit(".", 1)[-1]
    return tail.startswith("ns_per_")


def is_recovery(name):
    return name.endswith(".recovery_ms")


def is_rss(name):
    return name.endswith(".rss_mb")


def check_one(name, b, c, tol, ratio_slack=RATIO_SLACK):
    """Apply the rule family `name` belongs to.

    Returns (status, detail): status is "ok", "FAIL", or "info" (no rule
    applies, or the rule declares the row informational). Pure so the rule
    dispatch is unit-testable (scripts/test_bench_check.py).
    """
    if is_alloc(name):
        limit = b + ALLOC_SLACK
        return ("FAIL" if c > limit else "ok",
                f"{c:.6g} (baseline {b:.6g}, limit {limit:.6g})")
    if is_size(name):
        return ("FAIL" if c > b else "ok",
                f"{c:.6g} (baseline {b:.6g}, ceiling {b:.6g})")
    if is_ratio(name):
        # Parity guards sit near 1.0 and get the tight absolute band.
        # Magnitude ratios (e.g. the hybrid engine's ~50x wall-clock
        # speedup) jitter multiplicatively with machine noise, so a
        # 2-point absolute band would flag sub-percent drift; they get
        # the relative throughput floor instead.
        floor = b * (1.0 - tol) if b > 2.0 else b - ratio_slack
        return ("FAIL" if c < floor else "ok",
                f"{c:.6g} (baseline {b:.6g}, floor {floor:.6g})")
    if is_throughput(name):
        floor = b * (1.0 - tol)
        return ("FAIL" if c < floor else "ok",
                f"{c:.6g} (baseline {b:.6g}, floor {floor:.6g})")
    if is_latency(name):
        ceil = b / (1.0 - tol)
        return ("FAIL" if c > ceil else "ok",
                f"{c:.6g} (baseline {b:.6g}, ceiling {ceil:.6g})")
    if is_rss(name):
        ceil = b * (1.0 + tol) + RSS_SLACK_MB
        return ("FAIL" if c > ceil else "ok",
                f"{c:.6g} (baseline {b:.6g}, ceiling {ceil:.6g})")
    if is_recovery(name):
        if b < 0:
            # Baseline never recovers (ECMP has no edge state to repair);
            # nothing to hold the current run to.
            return ("info", f"{c:.6g} (baseline never recovers)")
        ceil = b * (1.0 + tol) + RECOVERY_SLACK_MS
        bad = c < 0 or c > ceil
        shown = "never" if c < 0 else f"{c:.6g}"
        return ("FAIL" if bad else "ok",
                f"{shown} (baseline {b:.6g}, ceiling {ceil:.6g})")
    # No family matched: say so out loud instead of silently skipping, so a
    # renamed metric is visible in the CI log rather than unenforced.
    return ("info", f"{c:.6g} (baseline {b:.6g}, no rule; informational)")


def mode_mismatch(name, base_modes, cur_modes):
    """FAIL detail for an rss row whose artifacts ran in different modes.

    Returns None when the row is not an rss row or the modes agree.
    """
    if not is_rss(name) or base_modes == cur_modes:
        return None

    def shown(modes):
        return ", ".join(f"{k}={modes[k]}" for k in RUN_MODE_FIELDS)

    return (f"current run taken at {shown(cur_modes)} but the baseline at "
            f"{shown(base_modes)}; retake the baseline the way it is checked")


def missing_row(name, base, cur):
    """Status of a name present in only one of the two files.

    A baseline recovery row missing from the current artifact FAILs; any
    other one-sided name is a non-fatal skip.
    """
    if name in base and is_recovery(name):
        return ("FAIL", "in the baseline but missing from the current run")
    side = "baseline" if name not in cur else "current"
    return ("skip", f"only in {side}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tol = float(os.environ.get("BENCH_CHECK_TOLERANCE", DEFAULT_TOLERANCE))
    ratio_slack = float(
        os.environ.get("BENCH_CHECK_RATIO_SLACK", RATIO_SLACK))
    try:
        base_doc = load_doc(argv[1])
        cur_doc = load_doc(argv[2])
        base = load_values(base_doc, argv[1])
        cur = load_values(cur_doc, argv[2])
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_check: {e}", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            status, detail = missing_row(name, base, cur)
        elif mismatch := mode_mismatch(name, run_modes(base_doc),
                                       run_modes(cur_doc)):
            status, detail = "FAIL", mismatch
        else:
            status, detail = check_one(name, base[name], cur[name], tol,
                                       ratio_slack)
        print(f"  [{status}] {name}: {detail}")
        if status not in ("info", "skip"):
            checked += 1
        if status == "FAIL":
            failures.append(name)

    if checked == 0:
        print("bench_check: no comparable perf metrics found", file=sys.stderr)
        return 2
    if failures:
        print(f"bench_check: {len(failures)}/{checked} checks FAILED: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"bench_check: all {checked} checks passed (tolerance {tol:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
