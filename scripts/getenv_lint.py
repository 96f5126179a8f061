#!/usr/bin/env python3
"""Fails when src/ reads the environment outside harness::RunEnv::from_env.

Usage: getenv_lint.py <src dir>. Every CLOVE_* knob is parsed once, by
RunEnv::from_env(), and binaries apply it explicitly; a getenv() anywhere
else would let the environment change a run behind its config.
"""
import pathlib
import sys

bad = []
for path in sorted(pathlib.Path(sys.argv[1]).rglob("*.[ch]pp")):
    inside = False  # in RunEnv::from_env's body (it closes at column 0)
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("RunEnv RunEnv::from_env() {"):
            inside = path.name == "run_env.cpp"
        elif line.startswith("}"):
            inside = False
        if "getenv" in line and not inside:
            bad.append(f"{path}:{n}: {line.strip()}")
print("\n".join(bad) or "ok: src/ reads the environment only in RunEnv::from_env")
sys.exit(1 if bad else 0)
