"""Pipeline benchmark for netresp: one workload, one seed, one run.

    python3 perfbench/run.py --workload ingest|select \\
        [--seed 1] [--seconds 45] [--trace 0|1] [--toy]

Run from the repository root. The program under test is `src/netresp`,
used from source. Each set-up and the timed phase run in fresh child
processes, one at a time, with BLAS and OpenMP pinned to one thread and
`--threads 1`. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s, work_per_s,
peak_rss_mb, setup_s); with `--trace 1` they are the per-layer
ones of a traced run. Two JSON lines before it carry the host facts and
per-run detail. Working files go to `.perfbench_work/` and are removed
before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "select")
DEFAULT_SEED = 1  # seed for day-to-day runs
CONFIRM_SEED = 2  # kept apart for confirming a claimed gain on fresh inputs
TIME_LIMIT_S = 170.0  # every child is killed by then; a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], root: Path, deadline: float) -> tuple[dict, float]:
    """Run one child to completion; return its JSON result and its wall time."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before a child could start")
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise BenchError(f"child {argv[0]} exceeded the time limit") from e
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {argv[0]} printed no result")
    return json.loads(lines[-1]), wall


def host_facts(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "src_lines": src_lines,
    }


def measure(args, root: Path) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        common.append("--toy")
    try:
        # every cohort is set up in its own process, so set-up time is a
        # median over several; ingest makes its cohorts in the timed loop and
        # repeats only the set-up of its process, half of the times after the
        # timed phase. The first set-up says how many the workload needs.
        inputs = work / "inputs"
        setup_walls, setup_stages = [], []

        def set_up() -> dict:
            argv = ["setup", *common, "--dir", str(inputs), "--index", str(len(setup_walls))]
            res, wall = run_child(argv, root, deadline)
            setup_walls.append(wall)
            setup_stages.append(res["stages"])
            return res

        plan = set_up()
        while len(setup_walls) < plan["before"]:
            set_up()
        timed_argv = ["timed", *common, "--dir", str(inputs)]
        timed_argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        res, _ = run_child(timed_argv, root, deadline)
        while len(setup_walls) < plan["setups"]:
            set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            work.parent.rmdir()

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_walls), "unit": "s"}
    res["detail"]["setup_walls_s"] = setup_walls
    res["detail"]["setup_stages_s"] = setup_stages
    res["detail"]["problems"] = res["problems"]
    attempted = len(setup_walls) + res["attempted"]
    return {
        "detail": res["detail"],
        "result": {
            "correct": bool(res["ok"]),
            "attempted": attempted,
            "failed": res["failed"],
            "metrics": dict(sorted(metrics.items())),
        },
    }




def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {CONFIRM_SEED} is kept for confirming gains)",
    )
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "netresp" / "__init__.py").is_file():
        print("error: run from the repository root; src/netresp is missing", file=sys.stderr)
        return 2
    host = host_facts(root)
    try:
        out = measure(args, root)
    except (BenchError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
