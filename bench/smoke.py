#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

For every workload, untraced and traced, it checks that the run exits 0,
that the last line of its output is the result object with exactly the
declared metrics, each with its declared unit, and that every operation
passed.  Every end-to-end metric must be positive on every workload and
every per-layer metric non-zero on at least one.  ``--all`` must print
each workload's end-to-end metrics, and a directory holding only
BENCHMARK.json and bench/ must be refused without a result.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# zero is the expected value of these on every workload at this size
MAY_BE_ZERO = {"fit.candidates_failed"}


def fail(msg: str):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    seen_nonzero = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in names:
            proc = run(["--workload", name, "--seed", "3", "--seconds", "0.1",
                        "--trace", str(trace), "--size", "tiny"])
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{where}: operations failed:\n{proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from "
                     f"BENCHMARK.json or carry another unit")
            for metric, entry in result["metrics"].items():
                val = entry["value"]
                if not (isinstance(val, float) and math.isfinite(val)):
                    fail(f"{where}: {metric} = {val!r}")
                if trace == 0 and not val > 0:
                    fail(f"{where}: end-to-end {metric} = {val!r}, not positive")
                if val != 0:
                    seen_nonzero.add(metric)
                if f"metric {name} {metric} " not in proc.stdout:
                    fail(f"{where}: {metric} not printed by name")
            print(f"smoke: ok {where}: {len(got)} metrics, "
                  f"{result['attempted']} operations")
    never = {m["name"] for m in declared["per_layer"]} - seen_nonzero - MAY_BE_ZERO
    if never:
        fail(f"per-layer metrics zero on every workload: {sorted(never)}")

    proc = run(["--all", "--seed", "3", "--seconds", "0.1", "--size", "tiny"])
    if proc.returncode != 0:
        fail(f"--all exited {proc.returncode}:\n{proc.stderr}")
    for name in names:
        for m in declared["end_to_end"] + [{"name": "fail_ratio", "unit": "1"}]:
            if not any(line.startswith(f"metric {name} {m['name']} ")
                       and line.endswith(f" {m['unit']}")
                       for line in proc.stdout.splitlines()):
                fail(f"--all did not print {name} {m['name']} with its unit")
    print("smoke: ok --all")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", names[0], "--seed", "3", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"a directory without the sources gave exit {proc.returncode}, "
             f"output {proc.stdout!r}")
    print("smoke: ok refused without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
