#!/usr/bin/env python3
"""Runs `bench_figures fig9_cdf` at CLOVE_THREADS=1 and at CLOVE_THREADS=4
and fails unless the two artifacts' swept points are identical.

Usage: figures_determinism.py <path to bench_figures>
"""

import json
import os
import subprocess
import sys
import tempfile


def points(binary, threads, out_dir):
    env = dict(os.environ, CLOVE_JOBS="2", CLOVE_CONNS="1", CLOVE_SEEDS="2",
               CLOVE_THREADS=str(threads), CLOVE_JSON_OUT=out_dir)
    subprocess.run([binary, "fig9_cdf"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(out_dir, "fig9_cdf.json")) as f:
        return json.load(f)["points"]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        serial = points(sys.argv[1], 1, os.path.join(tmp, "threads1"))
        parallel = points(sys.argv[1], 4, os.path.join(tmp, "threads4"))
    if not serial or serial != parallel:
        print("fig9_cdf points differ between CLOVE_THREADS=1 and 4")
        print(json.dumps(serial, indent=1))
        print(json.dumps(parallel, indent=1))
        return 1
    print(f"{len(serial)} points identical across CLOVE_THREADS=1 and 4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
