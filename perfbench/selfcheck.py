"""Toy-size self-check of the benchmark's output contract.

    python3 perfbench/selfcheck.py

Run from the repository root. For every workload it runs the benchmark
command on tiny inputs, untraced and traced, and checks that the last line
is the result object, that no operation failed, and that the
metrics are exactly the ones BENCHMARK.json names, each with its unit and
a finite value (non-zero for end-to-end metrics). It then runs the command
in a directory holding only BENCHMARK.json and the benchmark's files, where
it must fail without printing a result. Exit code 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(bench: dict, workload: str, trace: int, root: Path) -> list[str]:
    argv = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1"]
    argv += ["--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = _last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not a result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result['attempted']!r}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append(f"{where}: missing {missing}, undeclared {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if name in units and m.get("unit") != units[name]:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, declared {units[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def check_bare(bench: dict, root: Path) -> list[str]:
    """Without the program's sources the command must fail and print no result."""
    bare = root / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in bench["paths"]:
            shutil.copytree(root / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        argv = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1"]
        argv += ["--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if proc.returncode == 0:
        return ["bare directory: the command exited 0"]
    if isinstance(_last_json(proc.stdout), dict):
        return ["bare directory: the command printed a result"]
    return []


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(bench, workload, trace, root)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = check_bare(bench, root)
    print(f"bare directory: {'ok' if not found else 'FAIL'}", flush=True)
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
