#!/usr/bin/env python3
"""Runs one cheap bench_micro_datapath benchmark with
--benchmark_format=json and fails unless stdout parses as JSON holding it.

Usage: micro_json.py <bench_micro_datapath>
"""

import json
import subprocess
import sys


def main():
    out = subprocess.run(
        [sys.argv[1], "--benchmark_filter=BM_DreUpdate",
         "--benchmark_min_time=0.01", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    names = [b["name"] for b in json.loads(out)["benchmarks"]]
    if names != ["BM_DreUpdate"]:
        print(f"expected one BM_DreUpdate run, got {names}")
        return 1
    print("bench_micro_datapath --benchmark_format=json prints JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
