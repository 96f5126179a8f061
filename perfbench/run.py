#!/usr/bin/env python3
"""End-to-end benchmark of the Clove simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/clove_perfbench (a Release build of ../src plus clove_perfbench.cpp)
into .bench_build/perfbench on first use, then runs one workload as a series
of single-threaded simulations, each in its own process, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus a per-layer table on the lines before). See
perfbench/README.md for the workloads, the metrics and how to re-check a claim
on a held-out seed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "clove_perfbench"
STAMP = BUILD / "source.sha256"
DIGESTS = BUILD / "digests.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 55
CHILD_TIMEOUT_S = 150

# Every run of a workload simulates the same `subseeds` inputs for a given
# --seed, however fast the machine is, and reports medians over them; a traced
# run profiles the first `traced` of them. A run keeps cycling through its
# inputs until --seconds have passed, and always finishes one full cycle.
WORKLOADS = {
    "testbed_asym_clove_ecn": {"subseeds": 20, "traced": 3},
    "fattree_k8_hybrid": {"subseeds": 24, "traced": 3},
}

# After the first cycle, a sub-seed whose best wall time is more than this many
# times the median best is not repeated: it stays above the median, and
# repeating it only takes time from the rest.
OUTLIER_FACTOR = 2.0

# prof scope -> the layer (src/ module) it times, for the traced table.
SCOPE_LAYERS = {
    "dispatch": "sim",
    "link_tx": "net",
    "link_deliver": "net",
    "switch_forward": "net",
    "hypervisor": "overlay",
    "discovery": "overlay",
    "policy": "lb",
    "transport": "transport",
    "hybrid": "hybrid",
    "workload": "workload",
    "telemetry": "telemetry",
    "flight": "telemetry",
    "shard_sync": "harness",
    "other": "other",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stray_env(environ):
    """CLOVE_* variables the benchmark refuses to run under: it pins every
    engine mode in the workload's config, and the engine would otherwise pick
    some of them up behind the config's back (CLOVE_FAULT_PLAN,
    CLOVE_HYBRID)."""
    return sorted(k for k in environ if k.startswith("CLOVE_"))


def subseeds(workload, seed, n):
    """The n simulation seeds one run of `workload` uses for --seed."""
    out = []
    for i in range(n):
        h = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
        out.append(int.from_bytes(h[:6], "big"))
    return out


def source_hash():
    """Content hash of everything clove_perfbench is built from."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cpp"))
    files.append(HERE / "CMakeLists.txt")
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def ensure_built(src_hash):
    if BINARY.exists() and STAMP.exists() and STAMP.read_text() == src_hash:
        return
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    STAMP.write_text(src_hash)


def run_sim(workload, seed, trace):
    """One simulation in its own process; its JSON result, or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        log(f"{workload} seed {seed}: unreadable output")
        return None


class DigestBook:
    """Result digests by (source, workload, seed), kept across runs in the
    build directory: a run whose digest differs from an earlier run of the
    same code and seed is a failed run."""

    def __init__(self, path, src_hash):
        self.path = path
        self.src_hash = src_hash
        try:
            self.book = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.book = {}

    def check(self, workload, seed, digest):
        key = f"{self.src_hash}:{workload}:{seed}"
        return self.book.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, sort_keys=True))
        tmp.replace(self.path)


def measure(workload, seed, seconds, trace, runner=run_sim, book=None):
    """Run the workload's simulations for `seconds` (at least one full cycle
    through its sub-seeds). Returns {sub-seed: {"plain": [...], "traced": [...],
    "ok": bool}}."""
    spec = WORKLOADS[workload]
    seeds = subseeds(workload, seed, spec["subseeds"])
    if trace:
        seeds = seeds[: spec["traced"]]
    runs = {s: {"plain": [], "traced": [], "ok": True} for s in seeds}
    start = time.monotonic()
    i = 0
    skip = set()
    while i < len(seeds) or time.monotonic() - start < seconds:
        if i == len(seeds):
            skip = not_repeated(runs)
            if len(skip) == len(seeds):
                break
        s = seeds[i % len(seeds)]
        i += 1
        if s in skip:
            continue
        for traced in ([False, True] if trace else [False]):
            r = runner(workload, s, traced)
            entry = runs[s]
            if r is None or r["counters"]["workload.jobs_done"] != r["counters"][
                    "workload.jobs_total"]:
                entry["ok"] = False
                continue
            first = (entry["plain"] + entry["traced"])[:1]
            if first and first[0]["digest"] != r["digest"]:
                log(f"{workload} seed {s}: digest {r['digest']} differs "
                    f"from {first[0]['digest']} in the same run")
                entry["ok"] = False
            if book is not None and not book.check(workload, s, r["digest"]):
                log(f"{workload} seed {s}: digest {r['digest']} differs "
                    "from an earlier run of the same source")
                entry["ok"] = False
            entry["traced" if traced else "plain"].append(r)
    return runs


def not_repeated(runs):
    """Sub-seeds left out of repeats: those without a good untraced result and
    those slower than OUTLIER_FACTOR times the median best wall time."""
    best = {s: min(r["times"]["wall_s"] for r in e["plain"])
            for s, e in runs.items() if e["ok"] and e["plain"]}
    cut = OUTLIER_FACTOR * statistics.median(best.values()) if best else 0.0
    return {s for s in runs if s not in best or best[s] > cut}


def tally(runs):
    """(attempted, failed) jobs. Every job of a sub-seed whose output check
    failed counts as failed."""
    totals = [r["counters"]["workload.jobs_total"]
              for e in runs.values() for r in e["plain"] + e["traced"]]
    expected = int(max(totals, default=1))
    attempted = failed = 0
    for e in runs.values():
        done = e["plain"] + e["traced"]
        total = int(done[0]["counters"]["workload.jobs_total"]) if done else expected
        attempted += total
        if not e["ok"] or not done:
            failed += total
    return attempted, failed


def median_of_best(runs, value, best=min, centre=statistics.median):
    """Median over sub-seeds of each sub-seed's best untraced `value`. Repeats
    of one sub-seed have identical inputs, so what differs between them is
    machine noise; sub-seeds differ in their inputs, so the median keeps
    unusual inputs from moving the result."""
    return centre([best(value(r) for r in e["plain"])
                   for e in runs.values() if e["plain"]])


def jobs_per_s(r):
    return r["counters"]["workload.jobs_done"] / r["times"]["traffic_s"]


def end_to_end(runs):
    return {
        "wall_s": median_of_best(runs, lambda r: r["times"]["wall_s"]),
        "setup_s": median_of_best(
            runs, lambda r: r["times"]["build_s"] + r["times"]["discovery_s"]),
        # Peak RSS barely varies between repeats and clusters by input (the
        # testbed's sub-seeds sit near 48 MB or 51 MB), so a median flips
        # between clusters from seed to seed where the mean moves smoothly.
        "peak_rss_mb": median_of_best(runs, lambda r: r["times"]["peak_rss_mb"],
                                      centre=statistics.fmean),
    }


def fastest(results):
    return min(results, key=lambda r: r["times"]["wall_s"])


def per_layer(runs):
    """Per-layer metrics of a traced run, summed over the traced sub-seeds:
    counts (they repeat exactly) and, for times, each sub-seed's fastest
    untraced and fastest traced repeat."""
    good = [e for e in runs.values() if e["plain"] and e["traced"]]
    plain = [fastest(e["plain"]) for e in good]
    traced = [fastest(e["traced"]) for e in good]
    first = [r["counters"] for r in plain]

    def count(name):
        return sum(c[name] for c in first)

    def total(results, value):
        return sum(value(r) for r in results)

    def scope(name, field):
        return total(traced, lambda r: r["scopes"][name][field])

    def ratio(num, den):
        return num / den if den else 0.0

    profiled_ns = sum(scope(name, "self_ns") for name in SCOPE_LAYERS)
    self_s = {name: scope(name, "self_ns") / 1e9 for name in SCOPE_LAYERS}
    share = {name: scope(name, "self_ns") / profiled_ns for name in SCOPE_LAYERS}
    calls = {name: scope(name, "count") for name in SCOPE_LAYERS}
    events = count("sim.events")
    plain_sim_s = total(plain, lambda r: r["times"]["discovery_s"] +
                        r["times"]["traffic_s"])
    attempted, failed = tally(runs)
    metrics = {
        "jobs_per_s": statistics.median(jobs_per_s(r) for r in plain),
        "sim.events": events,
        "sim.ns_per_event": ratio(plain_sim_s * 1e9, events),
        "sim.queue_hwm": max(c["sim.queue_hwm"] for c in first),
        "sim.dispatch_self_s": self_s["dispatch"],
        "sim.dispatch_share": share["dispatch"],
        "net.switch_forwarded": count("net.switch_forwarded"),
        "net.link_tx_packets": count("net.link_tx_packets"),
        "net.drops": count("net.drops"),
        "net.ecn_marks": count("net.ecn_marks"),
        "net.pool_reuse_ratio": statistics.mean(
            c["net.pool_reuse_ratio"] for c in first),
        "net.switch_forward_self_s": self_s["switch_forward"],
        "net.switch_forward_share": share["switch_forward"],
        "net.link_tx_self_s": self_s["link_tx"],
        "net.link_deliver_self_s": self_s["link_deliver"],
        "overlay.encapped": count("overlay.encapped"),
        "overlay.feedback_received": count("overlay.feedback_received"),
        "overlay.ce_intercepted": count("overlay.ce_intercepted"),
        "overlay.discovery_probes": count("overlay.discovery_probes"),
        "overlay.hypervisor_self_s": self_s["hypervisor"],
        "overlay.hypervisor_share": share["hypervisor"],
        "overlay.discovery_self_s": self_s["discovery"],
        "lb.flowlets_started": count("lb.flowlets_started"),
        "lb.policy_calls": calls["policy"],
        "lb.policy_self_s": self_s["policy"],
        "lb.policy_share": share["policy"],
        "transport.packets_sent": count("transport.packets_sent"),
        "transport.goodput_ratio": ratio(count("transport.bytes_acked"),
                                          count("transport.bytes_sent")),
        "transport.fast_retransmits": count("transport.fast_retransmits"),
        "transport.timeouts": count("transport.timeouts"),
        "transport.reorder_events": count("transport.reorder_events"),
        "transport.self_s": self_s["transport"],
        "transport.share": share["transport"],
        "transport.ns_per_call": ratio(scope("transport", "self_ns"),
                                        calls["transport"]),
        "hybrid.promotions": count("hybrid.promotions"),
        "hybrid.demotions": count("hybrid.demotions"),
        "hybrid.solves": count("hybrid.solves"),
        "hybrid.fluid_byte_share": ratio(count("hybrid.fluid_bytes"),
                                          count("workload.bytes_offered")),
        "hybrid.self_s": self_s["hybrid"],
        "hybrid.share": share["hybrid"],
        "hybrid.ns_per_solve": ratio(scope("hybrid", "self_ns"),
                                      count("hybrid.solves")),
        "harness.build_s": total(plain, lambda r: r["times"]["build_s"]),
        "harness.discovery_s": total(plain, lambda r: r["times"]["discovery_s"]),
        "workload.jobs_done": count("workload.jobs_done"),
        "workload.avg_fct_ms": statistics.mean(
            c["workload.avg_fct_ms"] for c in first),
        "workload.mice_p99_fct_ms": statistics.median(
            c["workload.mice_p99_fct_ms"] for c in first),
        "prof.overhead_ratio": total(traced, lambda r: r["times"]["wall_s"])
        / total(plain, lambda r: r["times"]["wall_s"]),
        "failed_frac": failed / attempted,
    }
    table = layer_table(good, calls, self_s, share, events, plain_sim_s,
                        scope("dispatch", "total_ns") / 1e9, metrics)
    return metrics, table


def layer_table(good, calls, self_s, share, events, plain_sim_s,
                dispatch_total_s, metrics):
    lines = [f"{'layer':<10} {'scope':<15} {'calls':>12} {'self_s':>10} "
             f"{'share':>7} {'ns/call':>9}"]
    for name in sorted(SCOPE_LAYERS, key=lambda n: -self_s[n]):
        if calls[name] == 0:
            continue
        lines.append(
            f"{SCOPE_LAYERS[name]:<10} {name:<15} {calls[name]:>12} "
            f"{self_s[name]:>10.4f} {share[name] * 100:>6.1f}% "
            f"{self_s[name] * 1e9 / calls[name]:>9.1f}")
    lines.append(
        f"reconciliation over {len(good)} traced sub-seeds: sim.events x "
        f"sim.ns_per_event (untraced) = {events:.0f} x "
        f"{metrics['sim.ns_per_event']:.1f} ns = {plain_sim_s:.4f} s; "
        f"attributed dispatch + children (traced) = {dispatch_total_s:.4f} s "
        f"(x{dispatch_total_s / plain_sim_s:.3f})")
    lines.append(f"prof.overhead_ratio (traced wall / untraced wall) = "
                 f"{metrics['prof.overhead_ratio']:.3f}")
    return "\n".join(lines)


def provenance(workload, seed, seconds, trace, src_hash, runs):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    sample = next((r for e in runs.values() for r in e["plain"]), None)
    return {
        "git_sha": sha or None,
        "source_sha256": src_hash,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "subseeds": list(runs),
        "digests": {str(s): e["plain"][0]["digest"]
                    for s, e in runs.items() if e["plain"]},
        "build_type": sample["build_type"] if sample else None,
        "engine": sample["engine"] if sample else None,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    stray = stray_env(os.environ)
    if stray:
        log("refusing to run: the benchmark pins every engine mode itself, "
            f"unset {', '.join(stray)}")
        return 2
    if not (ROOT / "src").is_dir():
        log(f"engine sources not found at {ROOT / 'src'}")
        return 1
    units = declared_metrics(args.trace)
    src_hash = source_hash()
    try:
        ensure_built(src_hash)
    except (RuntimeError, OSError) as err:
        log(str(err))
        return 1

    book = DigestBook(DIGESTS, src_hash)
    runs = measure(args.workload, args.seed, args.seconds, args.trace,
                   book=book)
    book.save()
    if not any(e["plain"] and (e["traced"] or not args.trace)
               for e in runs.values()):
        log("no simulation completed")
        return 1
    attempted, failed = tally(runs)
    prov = provenance(args.workload, args.seed, args.seconds,
                      bool(args.trace), src_hash, runs)
    if args.trace:
        values, table = per_layer(runs)
        print(f"== {args.workload}, seed {args.seed}: per-layer profile ==")
        print(table)
        trace_file = BUILD / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"provenance": prov,
             "sims": [{"seed": s, "spans": r["spans"], "scopes": r["scopes"]}
                      for s, e in runs.items() for r in e["traced"]]}))
        print(f"spans: {trace_file.relative_to(ROOT)}")
    else:
        values = end_to_end(runs)
    print("provenance: " + json.dumps(prov))
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
