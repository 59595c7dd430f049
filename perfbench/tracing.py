"""Span recorder and the table of layer functions the traced run wraps.

The traced run replaces, for its duration, the names that netresp's
consumer modules bound at import (for example `netresp.evaluation.
build_kernel_matrix`), so every call crossing a layer boundary records a
span: name, start, end and parent. Calls too short to span (one ICA
iteration) are only counted. Observers read the objects a call returned to
derive health figures; they run after the span closes, and anything costly
is deferred until the operation has ended, so it never lands in a span.
Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MATRIX_HEADER_BYTES = 24  # MSMX header: magic, version, rows, cols

LAYERS = ("cli", "synth", "datamodel", "scica", "fnc", "kernels", "svm", "evaluation", "selection")
CLI_STAGES = ("simulate", "extract", "fnc", "select", "evaluate", "report")


class NullTracer:
    """Stand-in used by untraced operations: spans cost one no-op call."""

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.kernels: dict = {}  # distinct build key -> raw kernel values
        self.fix_neg_mass: list[float] = []
        self.solves: list[tuple] = []  # (converged, n_support, n_at_bound)
        self.repeat_groups: dict = defaultdict(list)  # (id(k), y) -> [(k, alphas*y, bias)]
        self.best_scores: list[float] = []

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield
        finally:
            self.end(s)

    def reset_op(self) -> int:
        """Clear per-operation records; return the index of the op's first span."""
        self.counts.clear()
        self.kernels.clear()
        self.fix_neg_mass.clear()
        self.solves.clear()
        self.repeat_groups.clear()
        self.best_scores.clear()
        return len(self.spans)


def _spanned(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


# ------------------------------------------------------------- observers


def _obs_cohort(tr, args, kwargs, result):
    tr.counts["synth.subjects"] += result[0].n_subjects


def _obs_write(tr, args, kwargs, result):
    rows, cols = np.shape(args[0])
    tr.counts["datamodel.matrices_written"] += 1
    tr.counts["datamodel.bytes_written"] += MATRIX_HEADER_BYTES + 8 * rows * cols


def _obs_read(tr, args, kwargs, result):
    tr.counts["datamodel.matrices_read"] += 1
    tr.counts["datamodel.bytes_read"] += MATRIX_HEADER_BYTES + 8 * result.size


def _obs_subject(tr, args, kwargs, result):
    tr.counts["scica.unconverged_components"] += int((~result.converged).sum())


def _obs_fnc(tr, args, kwargs, result):
    tr.counts["fnc.subjects"] += 1


def _obs_search(tr, args, kwargs, result):
    tr.best_scores.append(result.best_score)


def _obs_candidate(tr, args, kwargs, result):
    tr.counts["selection.candidates"] += 1


def _obs_experiment(tr, args, kwargs, result):
    tr.counts["evaluation.cells"] += len(result.rows)


def _obs_build(tr, args, kwargs, result):
    features, selected, params = args[:3]
    use_fnc = bool(args[3] if len(args) > 3 else kwargs.get("use_fnc", False))
    n = len(features)
    tr.counts["kernels.pabs_pairs"] += n * (n + 1) // 2
    key = (tuple(sorted(int(i) for i in selected)), use_fnc, params)
    tr.kernels.setdefault(key, result.values)


def _obs_fix(tr, args, kwargs, result):
    # clip keeps the positive eigenvalues, so the trace gained is the
    # negative eigen-mass it removed
    tr.fix_neg_mass.append(float(np.trace(result) - np.trace(args[0])))


def _obs_solve(tr, args, kwargs, result):
    support = result.alphas > 0
    at_bound = support & (result.alphas >= result.box)
    tr.solves.append((bool(result.converged), int(support.sum()), int(at_bound.sum())))
    k = args[0]
    y = np.asarray(args[1], dtype=np.float64)
    # holding k keeps id(k) unique for the life of the operation
    tr.repeat_groups[(id(k), y.tobytes())].append((k, result.alphas * y, result.bias))


COUNT_ONLY = object()  # observer slot: count calls, record no span

# module, attribute, span or counter name, observer
WRAPPED = (
    ("netresp.cli", "generate_cohort", "synth.generate", _obs_cohort),
    ("netresp.cli", "write_dataset", "datamodel.write", None),
    ("netresp.cli", "write_matrix", "datamodel.write", _obs_write),
    ("netresp.datamodel", "write_matrix", "datamodel.write", _obs_write),
    ("netresp.cli", "load_dataset", "datamodel.read", None),
    ("netresp.cli", "read_matrix", "datamodel.read", _obs_read),
    ("netresp.datamodel", "read_matrix", "datamodel.read", _obs_read),
    ("netresp.cli", "extract_subject", "scica.subject", _obs_subject),
    ("netresp.scica", "preprocess_subject", "scica.preprocess", None),
    ("netresp.scica", "constrained_unit_update", "scica.unit_updates", COUNT_ONLY),
    ("netresp.cli", "compute_fnc", "fnc.compute", _obs_fnc),
    ("netresp.cli", "ssfs", "selection.search", _obs_search),
    ("netresp.selection", "score_feature_set", "selection.score", _obs_candidate),
    ("netresp.cli", "run_experiment", "evaluation.experiment", _obs_experiment),
    ("netresp.selection", "run_experiment", "evaluation.experiment", _obs_experiment),
    ("netresp.evaluation", "build_kernel_matrix", "kernels.build", _obs_build),
    ("netresp.evaluation", "apply_spectrum_fix", "kernels.spectrum_fix", _obs_fix),
    ("netresp.evaluation", "train_multiclass", "svm.train", None),
    ("netresp.svm", "solve_binary_smo", "svm.solve", _obs_solve),
    ("netresp.evaluation", "predict_scores", "svm.predict", None),
    ("netresp.evaluation", "predict_labels", "svm.predict", None),
)

@contextlib.contextmanager
def installed(tracer: Tracer, restored: list):
    """Wrap every name in WRAPPED; restore them all on exit.

    After exit, `restored` holds True when every module attribute is the
    original object again.
    """
    saved = []
    try:
        for mod_name, attr, name, observe in WRAPPED:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if observe is COUNT_ONLY:
                wrapper = _counted(tracer, name, original)
            else:
                wrapper = _spanned(tracer, name, original, observe)
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        restored.append(all(getattr(m, a) is o for m, a, o in saved))


# --------------------------------------------------------------- metrics


def _pct_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), q)) * 1000.0


def op_record(tracer: Tracer, first_span: int, wall: float) -> dict:
    """Raw per-layer figures of one traced operation, ready to be merged."""
    spans = tracer.spans[first_span:]
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = Counter()
    outer = Counter()  # per span name, excluding spans nested in the same name
    durations = defaultdict(list)
    root_time = 0.0
    for idx, (name, start, end, parent) in enumerate(spans, start=first_span):
        dur = end - start
        self_time[name.split(".", 1)[0]] += dur - child_time[idx]
        durations[name].append(dur)
        if parent < 0:
            root_time += dur
        if parent < 0 or tracer.spans[parent][0] != name:
            outer[name] += dur
    health = [_kernel_health(values) for values in tracer.kernels.values()]
    dv_spread, bias_spreads = _repeat_spread(tracer)
    return {
        "wall": wall,
        "root": root_time,
        "spans": len(spans),
        "self": self_time,
        "outer": outer,
        "durations": durations,
        "counts": Counter(tracer.counts),
        "distinct_sets": len(tracer.kernels),
        "health": health,
        "neg_mass": list(tracer.fix_neg_mass),
        "solves": list(tracer.solves),
        "dv_spread": dv_spread,
        "bias_spreads": bias_spreads,
        "best_scores": list(tracer.best_scores),
    }


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of a group of traced operations (one per cohort)."""
    outer, self_time, c = Counter(), Counter(), Counter()
    durations = defaultdict(list)
    health, neg_mass, solves, bias_spreads, best_scores = [], [], [], [], []
    for r in records:
        outer.update(r["outer"])
        self_time.update(r["self"])
        c.update(r["counts"])
        for name, ds in r["durations"].items():
            durations[name].extend(ds)
        health += r["health"]
        neg_mass += r["neg_mass"]
        solves += r["solves"]
        bias_spreads += r["bias_spreads"]
        best_scores += r["best_scores"]
    wall = sum(r["wall"] for r in records)

    m: dict[str, float] = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = outer[f"cli.{stage}"]
    m["synth.generate_s"] = outer["synth.generate"]
    m["synth.subjects"] = c["synth.subjects"]
    m["datamodel.write_s"] = outer["datamodel.write"]
    m["datamodel.read_s"] = outer["datamodel.read"]
    for key in ("matrices_written", "matrices_read", "bytes_written", "bytes_read"):
        m[f"datamodel.{key}"] = c[f"datamodel.{key}"]
    m["scica.subject_s"] = outer["scica.subject"]
    m["scica.subject_p50_ms"] = _pct_ms(durations["scica.subject"], 50)
    m["scica.subject_p90_ms"] = _pct_ms(durations["scica.subject"], 90)
    m["scica.preprocess_s"] = outer["scica.preprocess"]
    m["scica.unit_updates"] = c["scica.unit_updates"]
    m["scica.unconverged_components"] = c["scica.unconverged_components"]
    m["fnc.compute_s"] = outer["fnc.compute"]
    m["fnc.subjects"] = c["fnc.subjects"]

    builds = len(durations["kernels.build"])
    distinct = sum(r["distinct_sets"] for r in records)
    m["kernels.builds"] = builds
    m["kernels.distinct_sets"] = distinct
    m["kernels.useful_build_ratio"] = distinct / builds if builds else 0.0
    m["kernels.pabs_pairs"] = c["kernels.pabs_pairs"]
    m["kernels.build_s"] = outer["kernels.build"]
    m["kernels.build_p50_ms"] = _pct_ms(durations["kernels.build"], 50)
    m["kernels.spectrum_fixes"] = len(durations["kernels.spectrum_fix"])
    m["kernels.spectrum_fix_s"] = outer["kernels.spectrum_fix"]
    m["kernels.offdiag_span"] = statistics.median(h[0] for h in health) if health else 0.0
    m["kernels.min_eig"] = min(h[1] for h in health) if health else 0.0
    m["kernels.neg_mass_clipped"] = float(sum(neg_mass))

    n_support = sum(s[1] for s in solves)
    m["svm.solves"] = len(solves)
    m["svm.solve_s"] = outer["svm.solve"]
    m["svm.solve_p50_ms"] = _pct_ms(durations["svm.solve"], 50)
    m["svm.solve_p99_ms"] = _pct_ms(durations["svm.solve"], 99)
    m["svm.unconverged"] = sum(not s[0] for s in solves)
    m["svm.at_bound_share"] = sum(s[2] for s in solves) / n_support if n_support else 0.0
    m["svm.predict_s"] = outer["svm.predict"]
    m["svm.repeat_dv_spread"] = max(r["dv_spread"] for r in records)
    m["svm.repeat_bias_spread"] = statistics.median(bias_spreads) if bias_spreads else 0.0

    m["evaluation.experiments"] = len(durations["evaluation.experiment"])
    m["evaluation.cells"] = c["evaluation.cells"]
    m["evaluation.experiment_s"] = outer["evaluation.experiment"]
    m["selection.candidates"] = c["selection.candidates"]
    m["selection.score_s"] = outer["selection.score"]
    m["selection.best_score"] = statistics.mean(best_scores) if best_scores else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]

    m["trace.wall_s"] = wall
    m["trace.uncovered_s"] = wall - sum(r["root"] for r in records)
    m["trace.spans"] = sum(r["spans"] for r in records)
    return m


def _kernel_health(values: np.ndarray) -> tuple[float, float]:
    """Off-diagonal range and smallest eigenvalue of one raw kernel."""
    off = values[~np.eye(values.shape[0], dtype=bool)]
    return float(off.max() - off.min()), float(np.linalg.eigvalsh(values)[0])


def _repeat_spread(tracer: Tracer) -> tuple[float, list[float]]:
    """How far SMO repeats on one training problem differ.

    For each problem solved more than once (same training kernel and
    labels), compare the solutions' training decision values after removing
    their mean, and their biases. A bias spread far above the decision-value
    spread means the repeats differ only in the bias.
    """
    dv_spread = 0.0
    bias_spreads = []
    for group in tracer.repeat_groups.values():
        if len(group) < 2:
            continue
        k = np.asarray(group[0][0], dtype=np.float64)
        dv = np.array([k @ ay for _, ay, _ in group])
        dv -= dv.mean(axis=1, keepdims=True)
        dv_spread = max(dv_spread, float((dv.max(axis=0) - dv.min(axis=0)).max()))
        biases = [b for _, _, b in group]
        bias_spreads.append(max(biases) - min(biases))
    return dv_spread, bias_spreads


def _units() -> dict:
    units = {f"cli.{stage}_s": "s" for stage in CLI_STAGES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for name in (
        "synth.generate_s", "datamodel.write_s", "datamodel.read_s", "scica.subject_s",
        "scica.preprocess_s", "fnc.compute_s", "kernels.build_s", "kernels.spectrum_fix_s",
        "svm.solve_s", "svm.predict_s", "evaluation.experiment_s", "selection.score_s",
        "trace.wall_s", "trace.overhead_s", "trace.uncovered_s",
    ):
        units[name] = "s"
    for name in (
        "scica.subject_p50_ms", "scica.subject_p90_ms", "kernels.build_p50_ms",
        "svm.solve_p50_ms", "svm.solve_p99_ms",
    ):
        units[name] = "ms"
    for name in (
        "synth.subjects", "datamodel.matrices_written", "datamodel.matrices_read",
        "scica.unit_updates", "scica.unconverged_components", "fnc.subjects",
        "kernels.builds", "kernels.distinct_sets", "kernels.pabs_pairs",
        "kernels.spectrum_fixes", "svm.solves", "svm.unconverged",
        "evaluation.experiments", "evaluation.cells", "selection.candidates", "trace.spans",
    ):
        units[name] = "count"
    units["datamodel.bytes_written"] = units["datamodel.bytes_read"] = "B"
    units["kernels.useful_build_ratio"] = units["svm.at_bound_share"] = "ratio"
    for name in (
        "kernels.offdiag_span", "kernels.min_eig", "kernels.neg_mass_clipped",
        "svm.repeat_dv_spread", "svm.repeat_bias_spread", "selection.best_score",
    ):
        units[name] = "value"
    return units


UNITS = _units()

EXACT_COUNTS = (
    "kernels.builds",
    "kernels.distinct_sets",
    "kernels.pabs_pairs",
    "svm.solves",
    "scica.unit_updates",
    "selection.candidates",
    "evaluation.cells",
    "datamodel.matrices_written",
    "datamodel.matrices_read",
)

