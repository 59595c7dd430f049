"""The two workloads: their inputs, the timed operation, and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned, and operation i runs on cohort i mod m
of the run's panel. Inputs come only from the workload seed: cohort c is
simulated with master seed 1000 * seed + c. The operations call
`netresp.cli.main` in process, as the `netresp` command would.

  ingest    simulate -> extract -> fnc on the multi-scale n105 template.
            The only workload where synth, datamodel writes and scica work.
  select    SSFS (`select --features sm+fnc`): 60 subjects, 4 components in
            2 domains, beam 2, 10 inner repeats, so each distinct candidate
            kernel is rebuilt 10 times, the reuse ratio of the default
            configuration; then `evaluate` (5 folds x 10 repeats, which
            re-solve each fold's training problem with fresh SMO seeds) and
            `report` on the selected set.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from netresp import cli
from netresp.datamodel import SubjectFeatures
from netresp.datamodel import read_matrix as _read
from netresp.evaluation import chance_level
from netresp.kernels import PabsKernelParams, build_kernel_matrix
from tracing import NullTracer

# Ingest floors: a recovered map tracks its planted template row through the
# class signal and subject noise the generator adds (measured medians ~0.95).
MAP_CORR_FLOOR = 0.5
SUBJECT_MEDIAN_CORR_FLOOR = 0.9
KERNEL_ENTRY_TOL = 1e-10
KERNEL_SAMPLES = 20  # entries of the selected set's kernel checked per cohort

_SELECT_SYNTH = {
    "n_components": 4,
    "n_domains": 2,
    "class_counts": {"AD": 20, "MS": 20, "NR": 20},
}


class OpError(RuntimeError):
    """A stage exited non-zero or an output check failed."""


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    config: dict  # netresp run config (JSON)
    toy_config: dict  # tiny sizes for the self-check
    template: str
    setup_stages: tuple[str, ...]
    stages: tuple[tuple[str, ...], ...]  # CLI stages of one operation, with extra args
    cohorts: int  # cohorts per run; operations cycle through them
    work_unit: str

    @property
    def setups(self) -> int:
        """Set-up processes per run: one per cohort, or bare ones for ingest."""
        return self.cohorts if self.setup_stages else BARE_SETUPS

    @property
    def setups_before(self) -> int:
        """Set-ups run before the timed phase; the rest run after it.

        Bare set-ups (process start and import) need no inputs, so half of
        them are taken after the timed phase: the median then samples the
        host at two points a run apart.
        """
        return self.cohorts if self.setup_stages else (BARE_SETUPS + 1) // 2


SPECS = {
    "ingest": Spec(
        name="ingest",
        config={"synth": {"count_scale": 0.125}},  # 13 subjects: AD 6, MS 6, NR 1
        toy_config={"synth": {"count_scale": 0.1}},
        template="n105",
        setup_stages=(),
        stages=(("simulate",), ("extract",), ("fnc",)),
        cohorts=4,
        work_unit="subjects",
    ),
    "select": Spec(
        name="select",
        config={
            "synth": _SELECT_SYNTH,
            "selection": {"beam_width": 2},
            "evaluation": {"repeats": 10},
        },
        toy_config={
            "synth": dict(_SELECT_SYNTH, class_counts={"AD": 5, "MS": 5, "NR": 5}),
            "selection": {"beam_width": 2, "inner_repeats": 2},
            "evaluation": {"repeats": 2},
        },
        template="default",
        setup_stages=("simulate", "extract", "fnc"),
        stages=(
            ("select", "--features", "sm+fnc"),
            ("evaluate", "--features", "sm+fnc"),
            ("report",),
        ),
        cohorts=2,
        work_unit="candidates",
    ),
}

BARE_SETUPS = 11


def cohort_seed(seed: int, cohort: int) -> int:
    """netresp master seed of one cohort of a run."""
    return seed * 1000 + cohort


def cohort_dir(inputs: Path, spec: Spec, cohort: int) -> Path:
    """Set-up output of one cohort; ingest makes its cohorts in the timed loop."""
    return inputs if spec.name == "ingest" else inputs / f"cohort{cohort}"


@dataclasses.dataclass
class Context:
    """One cohort: everything an operation on it needs, fixed before timing."""

    spec: Spec
    inputs: Path  # run.json plus, for select, dataset and features
    seed: int  # netresp master seed of the cohort
    toy: bool
    work: float = 0.0

    @property
    def config(self) -> dict:
        return self.spec.toy_config if self.toy else self.spec.config

    @property
    def config_path(self) -> Path:
        return self.inputs / "run.json"

    def cli_args(self, out: Path) -> list[str]:
        args = ["--config", str(self.config_path), "--out", str(out)]
        args += ["--seed", str(self.seed), "--threads", "1"]
        if self.spec.template != "default":
            args += ["--template", self.spec.template]
        return args


@dataclasses.dataclass
class OpResult:
    wall: float
    out: Path  # the directory the operation's artifacts are checked in
    stages: dict  # CLI stage -> wall time


def _cli(tracer, stage: str, args: list[str]) -> float:
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{stage}"):
        rc = cli.main([stage, *args])
    if rc != 0:
        raise OpError(f"netresp {stage} exited with code {rc}")
    return perf_counter() - start


# ------------------------------------------------------------------ setup


def run_setup(spec: Spec, inputs: Path, seed: int, index: int, toy: bool) -> dict:
    """Write the run config and produce one cohort's inputs; return stage times."""
    cohort = index if spec.setup_stages else 0
    ctx = Context(spec, cohort_dir(inputs, spec, cohort), cohort_seed(seed, cohort), toy)
    ctx.inputs.mkdir(parents=True, exist_ok=True)
    ctx.config_path.write_text(json.dumps(ctx.config))
    return {s: _cli(NullTracer(), s, ctx.cli_args(ctx.inputs)) for s in spec.setup_stages}


def prepare(spec: Spec, inputs: Path, seed: int, toy: bool) -> list[Context]:
    """One context per cohort."""
    return [
        Context(spec, cohort_dir(inputs, spec, c), cohort_seed(seed, c), toy)
        for c in range(spec.cohorts)
    ]


# ---------------------------------------------------------------- operation


def run_op(ctx: Context, tracer, index: int) -> OpResult:
    """One operation: the workload's CLI stages in order, timed as a whole.

    ingest writes a fresh output directory per operation (simulate makes the
    cohort from its seed); select works in the cohort's set-up directory and
    first removes what the previous operation on it wrote.
    """
    if ctx.spec.name == "ingest":
        out = ctx.inputs / f"op{index}"
    else:
        out = ctx.inputs
        for sub in ("selection", "eval"):
            shutil.rmtree(out / sub, ignore_errors=True)
    args = ctx.cli_args(out)
    stages = {}
    start = perf_counter()
    for stage, *extra in ctx.spec.stages:
        stages[stage] = _cli(tracer, stage, args + extra)
    return OpResult(wall=perf_counter() - start, out=out, stages=stages)


# ------------------------------------------------------------ digest, checks


def _artifact_dirs(ctx: Context, res: OpResult) -> list[Path]:
    if ctx.spec.name == "ingest":
        return [res.out]
    return [res.out / "selection", res.out / "eval"]


def digest(ctx: Context, res: OpResult) -> str:
    """Digest of every artifact the operation wrote, for run-to-run identity."""
    h = hashlib.blake2b(digest_size=16)
    for d in _artifact_dirs(ctx, res):
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(res.out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check(ctx: Context, res: OpResult) -> tuple[list[str], float]:
    """Check the outputs of one operation; return (problems, work units done)."""
    return CHECKS[ctx.spec.name](ctx, res)


def check_ingest(ctx: Context, res: OpResult):
    problems = []
    feat_dir = res.out / "features"
    template = _read(res.out / "dataset" / "template.msmx")
    tc = template - template.mean(axis=1, keepdims=True)
    tc /= np.linalg.norm(tc, axis=1, keepdims=True)
    doc = json.loads((feat_dir / "features.json").read_text())
    manifest = json.loads((res.out / "dataset" / "manifest.json").read_text())
    if len(doc["subjects"]) != len(manifest["subjects"]):
        problems.append("features.json does not list every simulated subject")
    for entry in doc["subjects"]:
        sm = _read(feat_dir / entry["sm"])
        mc = sm - sm.mean(axis=1, keepdims=True)
        mc /= np.linalg.norm(mc, axis=1, keepdims=True)
        r = (mc * tc).sum(axis=1)
        if r.min() < MAP_CORR_FLOOR or np.median(r) < SUBJECT_MEDIAN_CORR_FLOOR:
            problems.append(
                f"{entry['id']}: map/template correlation min {r.min():.3f}, "
                f"median {np.median(r):.3f} below floors "
                f"{MAP_CORR_FLOOR}/{SUBJECT_MEDIAN_CORR_FLOOR}"
            )
        if "fnc" not in entry:
            problems.append(f"{entry['id']}: no FNC matrix")
            continue
        fnc = _read(feat_dir / entry["fnc"])
        if not np.array_equal(fnc, fnc.T) or not np.all(np.diag(fnc) == 1.0):
            problems.append(f"{entry['id']}: FNC is not symmetric with a unit diagonal")
    return problems, float(len(doc["subjects"]))


def _expected_candidates(domains, beam_width: int) -> int:
    pools: dict[str, int] = {}
    for d in domains:
        pools[d] = pools.get(d, 0) + 1
    total, beam = 0, 1
    for size in pools.values():
        stage = beam * size  # domains are disjoint, so every extension is new
        total += stage
        beam = min(beam_width, stage)
    return total


def check_select(ctx: Context, res: OpResult):
    """Selection, evaluation and report outputs, and the selected set's kernel."""
    problems = []
    doc = json.loads((ctx.inputs / "features" / "features.json").read_text())
    domains = doc["domains"]
    result = json.loads((res.out / "selection" / "result.json").read_text())
    best = result["best_set"]
    if not all(isinstance(i, int) and 0 <= i < len(domains) for i in best):
        return [f"best set {best} has an invalid component"], 0.0
    if sorted(domains[i] for i in best) != sorted(set(domains)):
        problems.append(f"best set {best} is not one component per domain")
    score = result["best_score"]
    if score is None or not 0.0 <= score <= 1.0:
        problems.append(f"best_score {score} outside [0, 1]")
    rows = (res.out / "selection" / "trace.csv").read_text().strip().splitlines()[1:]
    expected = _expected_candidates(domains, ctx.config["selection"]["beam_width"])
    if len(rows) != expected:
        problems.append(f"trace has {len(rows)} candidates, expected {expected}")
    problems += _check_evaluation(ctx, res, doc)
    problems += _check_kernel(ctx, best)
    return problems, float(len(rows))


def _check_evaluation(ctx: Context, res: OpResult, doc: dict) -> list[str]:
    problems = []
    folds = ctx.config["evaluation"].get("outer_folds", 5)
    repeats = ctx.config["evaluation"]["repeats"]
    with open(res.out / "eval" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {(r["fold"], r["repeat"]) for r in rows}
    if len(cells) != folds * repeats:
        problems.append(f"{len(cells)} fold x repeat cells, expected {folds * repeats}")
    values = [float(r["value"]) for r in rows]
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        problems.append("a report.csv metric lies outside [0, 1]")
    class_set = tuple(doc["class_set"])
    labels = [e["label"] for e in doc["subjects"] if e["label"] in class_set]
    prauc = [float(r["value"]) for r in rows if r["metric"] == "macro_pr_auc"]
    chance = chance_level(labels, class_set)
    if not prauc or statistics.median(prauc) <= chance:
        problems.append(f"median macro PR-AUC not above chance level {chance:.3f}")
    if not (res.out / "eval" / "report.svg").is_file():
        problems.append("report.svg missing")
    return problems


def _load_features(feat_dir: Path) -> list[SubjectFeatures]:
    doc = json.loads((feat_dir / "features.json").read_text())
    return [
        SubjectFeatures(
            spatial_maps=_read(feat_dir / e["sm"]),
            time_courses=_read(feat_dir / e["tc"]),
            fnc=_read(feat_dir / e["fnc"]),
        )
        for e in doc["subjects"]
    ]


def reference_entry(fi, fj, selected, params) -> float:
    """One sm+fnc kernel entry computed independently of netresp.kernels.

    QR bases instead of the SVD ones, singular values of their product, and
    the Fisher-z cosine written out directly.
    """
    sel = list(selected)
    qi = np.linalg.qr(fi.spatial_maps[sel].T)[0]
    qj = np.linalg.qr(fj.spatial_maps[sel].T)[0]
    value = np.tanh(params.gamma * np.linalg.svd(qi.T @ qj, compute_uv=False).sum())
    if len(sel) >= 2:
        iu = np.triu_indices(len(sel), k=1)
        zi = np.arctanh(fi.fnc[np.ix_(sel, sel)][iu])
        zj = np.arctanh(fj.fnc[np.ix_(sel, sel)][iu])
        cos = zi @ zj / (np.linalg.norm(zi) * np.linalg.norm(zj))
        w = params.combine_weight
        value = w * value + (1.0 - w) * np.tanh(params.fnc_gamma * cos)
    return float(value)


def _check_kernel(ctx: Context, selected) -> list[str]:
    """The raw sm+fnc kernel of the selected set: finite, symmetric, and
    matching the independent computation on seeded entries."""
    features = _load_features(ctx.inputs / "features")
    params = PabsKernelParams(spectrum_fix="none")
    values = build_kernel_matrix(features, selected, params, use_fnc=True).values
    n = len(features)
    if values.shape != (n, n) or not np.isfinite(values).all():
        return [f"kernel of {selected}: wrong shape or non-finite entries"]
    problems = [] if np.array_equal(values, values.T) else [f"kernel of {selected}: not symmetric"]
    rng = np.random.default_rng([ctx.seed, 7])
    pairs = rng.integers(0, n, size=(KERNEL_SAMPLES, 2))
    worst = max(
        abs(values[i, j] - reference_entry(features[i], features[j], selected, params)) for i, j in pairs
    )
    if worst > KERNEL_ENTRY_TOL:
        problems.append(f"sampled kernel entries differ from the reference by {worst:.2e}")
    return problems


CHECKS = {"ingest": check_ingest, "select": check_select}


def cleanup(ctx: Context, res: OpResult) -> None:
    if ctx.spec.name == "ingest":
        shutil.rmtree(res.out, ignore_errors=True)
