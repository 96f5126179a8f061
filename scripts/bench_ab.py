#!/usr/bin/env python3
"""Interleaved A/B of a perfbench workload between two git refs.

    python3 scripts/bench_ab.py --base REF [--head REF] --workload W \\
        [--seed S] [--seconds T] [--pairs N]

Exports both refs with `git archive` into a temporary directory (the
repository's checkout, index and refs are left alone), builds each tree's
perfbench once, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in each tree N times, in pairs whose order flips every pair (base first, then
head first, ...), so drift in the host's speed lands on both sides alike. A
pair counts only if both sides exit 0 and report `correct` with `failed == 0`;
every other pair is listed with the reason and left out.

For each end-to-end metric it prints each side's median and quartiles, the
head/base ratio of the medians, the pairs head won (ties count for neither
side) and whether the medians differ by more than the base's interquartile
range. To measure uncommitted work, pass `--head $(git stash create)` after
`git add -A`: that names a commit of the working tree without touching it.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def export(ref, dest):
    """Write the tree of `ref` into `dest` with git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def perfbench(tree, workload, seed, seconds):
    """One run.py run in `tree`: its result line as a dict, or a reason."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no result line"


def problem(result):
    """Why a side's result does not count, or None."""
    if isinstance(result, str):
        return result
    if not result.get("correct") or result.get("failed", 1) != 0:
        return f"correct={result.get('correct')} failed={result.get('failed')}"
    return None


def run_pairs(n, run_side):
    """N pairs, base first in even pairs and head first in odd ones.
    `run_side(side)` returns a result dict or a reason string."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_side(side) for side in order}
        why = "; ".join(f"{side}: {problem(results[side])}" for side in SIDES
                        if problem(results[side]) is not None)
        pairs.append({"order": list(order), "why": why or None, **results})
    return pairs


def quartiles(values):
    """(q1, median, q3) by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """Per metric over the counted pairs: each side's quartiles, the ratio of
    medians, head's wins and `gap`: "better" or "worse" for head when the
    gap between the medians exceeds the base's IQR, else "no".
    `better` maps a metric name to "lower" or "higher"."""
    good = [p for p in pairs if p["why"] is None]
    if not good:
        return {}
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name]["value"] for p in good]
        head = [p["head"]["metrics"][name]["value"] for p in good]
        bq, hq = quartiles(base), quartiles(head)
        sign = -1 if direction == "lower" else 1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        gap = hq[1] - bq[1]
        out[name] = {
            "base": bq, "head": hq,
            "ratio": hq[1] / bq[1] if bq[1] else float("inf"),
            "wins": wins, "pairs": len(good),
            "gap": ("no" if abs(gap) <= bq[2] - bq[0]
                    else "better" if sign * gap > 0 else "worse"),
        }
    return out


def report(pairs, summary):
    lines = []
    for i, p in enumerate(pairs):
        if p["why"] is not None:
            lines.append(f"pair {i} ({' then '.join(p['order'])}) left out: "
                         f"{p['why']}")
    lines.append(f"{'metric':<12} {'base median [q1, q3]':>32} "
                 f"{'head median [q1, q3]':>32} {'head/base':>9} {'wins':>6} "
                 f"{'gap > base IQR':>14}")
    for name, s in summary.items():
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(s[side][1], s[side][0],
                                                   s[side][2])
                 for side in SIDES]
        lines.append(f"{name:<12} {cells[0]:>32} {cells[1]:>32} "
                     f"{s['ratio']:>9.3f} {s['wins']:>3}/{s['pairs']:<2} "
                     f"{s['gap']:>14}")
    return "\n".join(lines)


def directions(tree):
    """End-to-end metric name -> "lower"/"higher", from BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base side")
    ap.add_argument("--head", default="HEAD", help="git ref of the head side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(getattr(args, side), trees[side])
            # A first short run builds the tree's perfbench; it is not counted.
            warm = perfbench(trees[side], args.workload, args.seed, 0)
            if problem(warm) is not None:
                print(f"{side} does not run: {problem(warm)}", file=sys.stderr)
                return 1
        pairs = run_pairs(args.pairs, lambda side: perfbench(
            trees[side], args.workload, args.seed, args.seconds))
        summary = summarize(pairs, directions(trees["head"]))
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s per run: "
          f"base {args.base}, head {args.head}")
    print(report(pairs, summary))
    return 0 if summary else 1


if __name__ == "__main__":
    sys.exit(main())
