#!/usr/bin/env python3
"""Runs bench_fabric_forwarding and bench_scale for two rounds each and fails
unless every row name of the committed BENCH_fabric.json and BENCH_scale.json
is emitted. bench_check.py skips a baseline row the current artifact lacks,
so a dropped row would otherwise pass CI unchecked. Only names are checked;
the hybrid.* rows exist only under CLOVE_HYBRID=on, which this run leaves off.

Usage: bench_rows.py <bench_fabric_forwarding> <bench_scale> <repo root>
"""

import json
import os
import subprocess
import sys
import tempfile


def row_names(path):
    with open(path) as f:
        return {v["name"] for v in json.load(f)["values"]}


def main():
    fabric_bin, scale_bin, root = sys.argv[1:4]
    missing = []
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, CLOVE_FABRIC_ROUNDS="2", CLOVE_HYBRID="off",
                   CLOVE_JSON_OUT=tmp)
        for binary, artifact in ((fabric_bin, "BENCH_fabric"),
                                 (scale_bin, "BENCH_scale")):
            subprocess.run([binary], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            committed = row_names(os.path.join(root, artifact + ".json"))
            emitted = row_names(os.path.join(tmp, artifact + ".json"))
            missing += sorted(f"{artifact}: {name}"
                              for name in committed - emitted
                              if not name.startswith("hybrid."))
    if missing:
        print("committed rows the benches no longer emit:")
        print("\n".join(missing))
        return 1
    print("every committed BENCH_fabric / BENCH_scale row is emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
