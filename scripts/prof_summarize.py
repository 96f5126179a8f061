#!/usr/bin/env python3
"""Summarize clove::prof engine self-profiles from bench/run artifacts.

Usage: prof_summarize.py [DIR] [--top N] [--strict]

Scans DIR (default: .) for the three artifact kinds the engine profiler
emits (stdlib only — runs in CI before anything is installed):

* ``*.json`` bench artifacts whose ``engine.self_profile`` section carries
  per-scope time attribution, engine gauges (events, queue high-water,
  packet-pool churn, peak RSS) and FlatMap table digests;
* ``PROF_*.folded`` folded-stack flamegraph lines (``clove;a;b <self_ns>``),
  ready for inferno/flamegraph.pl — the top stacks are printed here;
* ``PROF_*_trace.json`` Chrome trace-event files (chrome://tracing or
  Perfetto) — validated, counted, and pointed at.

``--strict`` turns consistency problems into a non-zero exit for CI:
no self-profile found at all, a scope whose self time exceeds its total,
folded lines that do not parse, a trace file that is not a valid
trace-event JSON, a stack-overflow count > 0 (the profiler ran out of
frames — attribution is incomplete).

Exit status: 0 = ok, 1 = --strict violation, 2 = usage error.
"""

import json
import os
import sys


def fmt_ns(ns):
    ns = float(ns)
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def summarize_profile(tag, sp, top, problems, rss_mb=None):
    """Print one self_profile section; append strict violations to problems.

    rss_mb is the enclosing artifact's engine.peak_rss_mb, when there is one.
    """
    mode = sp.get("mode", "?")
    overflows = sp.get("stack_overflows", 0)
    total_self = sp.get("profiled_self_ns", 0)
    print(f"\n== {tag} (mode={mode}) ==")
    eng = sp.get("engine", {})
    if eng:
        print(f"  engine: {eng.get('events', 0):,.0f} events over "
              f"{eng.get('sims', 0):.0f} sim(s), queue hwm "
              f"{eng.get('queue_hwm', 0):,.0f}, slab "
              f"{eng.get('event_slab_capacity', 0):,.0f}, pool "
              f"{eng.get('pool_allocated', 0):,.0f} alloc / "
              f"{eng.get('pool_reused', 0):,.0f} reused"
              + (f", peak rss {rss_mb:.1f} MB" if rss_mb is not None else ""))
    scopes = sp.get("scopes", [])
    ranked = sorted(scopes, key=lambda s: -s.get("self_ns", 0))
    if ranked:
        print(f"  top sinks (of {fmt_ns(total_self)} attributed):")
    for s in ranked[:top]:
        line = (f"    {s.get('name', '?'):<16} {fmt_ns(s.get('self_ns', 0)):>10} self"
                f"  {100.0 * s.get('self_frac', 0.0):5.1f}%"
                f"  x{s.get('count', 0):,.0f}")
        if "p99_ns" in s:
            line += f"  p99 {fmt_ns(s['p99_ns'])}"
        print(line)
    for s in scopes:
        if s.get("self_ns", 0) > s.get("total_ns", 0):
            problems.append(
                f"{tag}: scope {s.get('name')} self_ns > total_ns")
    tables = sp.get("tables", [])
    if tables:
        print("  tables:")
        for t in tables:
            cap = t.get("capacity", 0)
            occ = 100.0 * t.get("size", 0) / cap if cap else 0.0
            print(f"    {t.get('name', '?'):<22} {t.get('size', 0):>8,.0f} / "
                  f"{cap:,.0f} slots ({occ:.0f}%)  avg probe "
                  f"{t.get('avg_probe', 0):.2f}  max {t.get('max_probe', 0):.0f}"
                  f"  [{t.get('tables', 0):.0f} table(s)]")
    by_name = {s.get("name"): s for s in scopes}
    dispatch_ns = by_name.get("dispatch", {}).get("self_ns", 0)
    # Hybrid flow/packet engine (CLOVE_HYBRID=on): promotion, the rate
    # solver, and fluid advancement all bill to one scope. Its share of
    # dispatch is the price of skipping the elephants' packet events.
    hybrid_ns = by_name.get("hybrid", {}).get("self_ns", 0)
    if hybrid_ns:
        share = 100.0 * hybrid_ns / dispatch_ns if dispatch_ns else 0.0
        print(f"  hybrid engine: {fmt_ns(hybrid_ns)} self "
              f"({share:.1f}% of dispatch) "
              f"x{by_name.get('hybrid', {}).get('count', 0):,.0f}")
    if overflows:
        print(f"  WARNING: {overflows} scope-stack overflows "
              "(attribution incomplete)")
        problems.append(f"{tag}: {overflows} stack overflows")


def summarize_folded(path, top, problems):
    stacks = []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            stack, sep, value = line.rpartition(" ")
            if not sep or not stack or not value.lstrip("-").isdigit():
                problems.append(f"{path}:{ln}: unparsable folded line")
                continue
            stacks.append((stack, int(value)))
    print(f"\n== {os.path.basename(path)} ({len(stacks)} stacks) ==")
    for stack, value in sorted(stacks, key=lambda kv: -kv[1])[:top]:
        print(f"    {fmt_ns(value):>10}  {stack}")
    return stacks


def validate_trace(path, problems):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problems.append(f"{path}: invalid trace JSON ({e})")
        return
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        problems.append(f"{path}: no traceEvents array")
        return
    bad = sum(1 for e in events
              if not isinstance(e, dict) or "ph" not in e or "ts" not in e)
    print(f"\n== {os.path.basename(path)} ==")
    print(f"    {len(events)} trace events (open in chrome://tracing "
          "or ui.perfetto.dev)")
    if bad:
        problems.append(f"{path}: {bad} malformed trace events")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    strict = "--strict" in argv
    top = 5
    if "--top" in argv:
        i = argv.index("--top")
        if i + 1 >= len(argv):
            print("prof_summarize: --top needs a value", file=sys.stderr)
            return 2
        top = int(argv[i + 1])
        args = [a for a in args if a != argv[i + 1]]
    if len(args) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = args[0] if args else "."
    if not os.path.isdir(root):
        print(f"prof_summarize: {root}: not a directory", file=sys.stderr)
        return 2

    problems = []
    profiles = 0
    names = sorted(os.listdir(root))
    for name in names:
        path = os.path.join(root, name)
        if name.endswith(".json") and not name.endswith("_trace.json"):
            try:
                with open(path) as f:
                    doc = json.load(f)
            except (OSError, json.JSONDecodeError):
                continue  # not ours (journey JSONL etc.)
            sp = None
            rss_mb = None
            if isinstance(doc, dict):
                eng = doc.get("engine")
                if isinstance(eng, dict):
                    sp = eng.get("self_profile")
                    rss_mb = eng.get("peak_rss_mb")
                if sp is None and "profiled_self_ns" in doc:
                    sp = doc  # a bare self-profile dump
            if sp is not None:
                summarize_profile(name, sp, top, problems, rss_mb)
                profiles += 1
        elif name.startswith("PROF_") and name.endswith(".folded"):
            summarize_folded(path, top, problems)
            profiles += 1
        elif name.startswith("PROF_") and name.endswith("_trace.json"):
            validate_trace(path, problems)

    if profiles == 0:
        msg = f"prof_summarize: no engine self-profiles under {root}"
        if strict:
            print(msg, file=sys.stderr)
            return 1
        print(msg + " (run with CLOVE_PROF=summary|full)")
        return 0
    if problems:
        print(f"\nprof_summarize: {len(problems)} problem(s):",
              file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1 if strict else 0
    print(f"\nprof_summarize: {profiles} profile artifact(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
