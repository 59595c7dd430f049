"""Child process of the benchmark: one setup, or one timed phase.

    python3 perfbench/child.py setup --workload W --seed N --dir D --index I [--toy]
    python3 perfbench/child.py timed --workload W --seed N --dir D --seconds S --trace 0|1 [--toy]

`run.py` starts it with BLAS pinned to one thread and `src/` on the path,
and reads one JSON object from the last line of its standard output.
The timed phase repeats the workload's operation for `--seconds`, cycling
through the run's cohorts. With `--trace 1` the first half runs untraced
and the second half in whole rounds (one operation per cohort) with every
layer function wrapped, so the tracing overhead is measured in the same
process on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import netresp
import tracing
import workloads


def _numpy_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "netresp": str(Path(netresp.__file__).resolve().parent),
    }


def cmd_setup(args) -> dict:
    spec = workloads.SPECS[args.workload]
    stages = workloads.run_setup(spec, Path(args.dir), args.seed, args.index, args.toy)
    return {"ok": True, "stages": stages, "setups": spec.setups, "before": spec.setups_before}


class Loop:
    """Closed-loop operations cycling through the cohorts, one at a time.

    Operation i runs on cohort i mod m. The first operation on a cohort is
    checked in full; every later one must reproduce its artifacts.
    """

    def __init__(self, contexts):
        self.contexts = contexts
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.walls = {c: [] for c in range(len(contexts))}  # untraced, per cohort
        self.stage_walls = {c: [] for c in range(len(contexts))}  # untraced, per cohort
        self.rounds: list[list] = []  # traced rounds: one op record per cohort

    def run_one(self, tracer, traced: bool):
        index = self.attempted
        self.attempted += 1
        cohort = index % len(self.contexts)
        ctx = self.contexts[cohort]
        first_span = tracer.reset_op() if traced else 0
        res = record = None
        try:
            res = workloads.run_op(ctx, tracer, index)
            record = tracing.op_record(tracer, first_span, res.wall) if traced else None
            problems = []
            if cohort not in self.digests:
                problems, ctx.work = workloads.check(ctx, res)
                self.digests[cohort] = workloads.digest(ctx, res)
            elif workloads.digest(ctx, res) != self.digests[cohort]:
                problems = [f"op {index}: artifacts differ from the first op on cohort {cohort}"]
        except Exception as e:  # a failed operation is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"op {index}: {type(e).__name__}: {e}"]
        finally:
            if res is not None:
                workloads.cleanup(ctx, res)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        if not traced:
            self.walls[cohort].append(res.wall)
            self.stage_walls[cohort].append(res.stages)
        return record

    def untraced(self, seconds: float, whole_rounds: bool) -> None:
        """Operations until `seconds` have passed and every cohort has had one."""
        tracer = tracing.NullTracer()
        m = len(self.contexts)
        start = perf_counter()
        while True:
            self.run_one(tracer, False)
            if (
                perf_counter() - start >= seconds
                and self.attempted >= m
                and not (whole_rounds and self.attempted % m)
            ):
                return

    def traced(self, tracer, seconds: float) -> None:
        """Whole rounds, one traced operation per cohort, for `seconds` (at least one)."""
        start = perf_counter()
        while True:
            self.rounds.append([self.run_one(tracer, True) for _ in self.contexts])
            if perf_counter() - start >= seconds:
                return


def _summary(walls: list[float]) -> dict:
    """Operation walls as reported next to the result."""
    return {
        "n": len(walls),
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "max_s": max(walls),
        "walls_s": [round(w, 4) for w in walls],
    }


def cmd_timed(args) -> dict:
    spec = workloads.SPECS[args.workload]
    contexts = workloads.prepare(spec, Path(args.dir), args.seed, args.toy)
    loop = Loop(contexts)
    if not args.trace:
        loop.untraced(args.seconds, whole_rounds=False)
    else:
        loop.untraced(args.seconds / 2, whole_rounds=True)
        tracer = tracing.Tracer()
        restored: list[bool] = []
        with tracing.installed(tracer, restored):
            loop.traced(tracer, args.seconds / 2)
        if not all(restored):
            loop.failed += 1
            loop.problems.append("a wrapped layer function was not restored")

    metrics: dict[str, list] = {}
    detail = {
        "ops": loop.attempted,
        "cohorts": len(contexts),
        "work_unit": spec.work_unit,
        "work_per_cohort": [ctx.work for ctx in contexts],
        "cohort_walls": {c: _summary(w) for c, w in loop.walls.items() if w},
        "cohort_stage_best_s": {
            c: {s: min(op[s] for op in ops) for s in ops[0]}
            for c, ops in loop.stage_walls.items()
            if ops
        },
    }
    if all(loop.walls.values()):
        # each cohort's fastest operation: host contention only ever adds time
        best = [min(w) for w in loop.walls.values()]
        wall = statistics.mean(best)
        if not args.trace:
            metrics["wall_s"] = [wall, "s"]
            metrics["work_per_s"] = [sum(ctx.work for ctx in contexts) / sum(best), "1/s"]
            metrics["peak_rss_mb"] = [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ]
        else:
            rounds = [r for r in loop.rounds if None not in r]
            if rounds:
                layers = tracing.layer_metrics(min(rounds, key=lambda r: sum(x["wall"] for x in r)))
                for name in tracing.EXACT_COUNTS:
                    values = {tracing.layer_metrics(r)[name] for r in rounds}
                    if len(values) != 1:
                        loop.failed += 1
                        loop.problems.append(f"{name} differs between traced rounds: {sorted(values)}")
                layers["trace.overhead_s"] = layers["trace.wall_s"] - sum(best)
                detail["traced_round_walls_s"] = [sum(x["wall"] for x in r) for r in rounds]
                metrics.update({k: [float(v), tracing.UNITS[k]] for k, v in layers.items()})
    detail.update(_numpy_facts())
    return {
        "ok": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems[:20],
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--index", type=int, default=0, help="set-up number")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
