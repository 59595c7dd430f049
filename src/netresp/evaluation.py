"""Outer evaluation protocol: repeated stratified k-fold CV, PR metrics, chance level.

Each of the configured repeats draws a fresh stratified fold partition
from the master seed; the SVM solver is deterministic, so repeats differ
only in how subjects are split. Average precision uses step-wise
interpolation with ties broken by stable original order.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from ._util import check_class_names, check_fields, derive_seed
from .kernels import PabsKernelParams, SubspaceFactors, apply_spectrum_fix, build_kernel_matrix
from .svm import SvmConfig, ovr_labels, solve_smo_arrays

# predict_scores, predict_labels and train_multiclass are not called here;
# they stay bound so that perfbench's traced run, which wraps these names in
# this module, still finds them.
from .svm import predict_labels, predict_scores, train_multiclass  # noqa: F401

METRICS = ("macro_pr_auc", "macro_f1")

# Largest kernel stack one SMO batch holds. An SSFS candidate's 50 cells
# fit at the default 100 subjects (2.6 MiB); larger cross-validations are
# solved in several batches, so neither the stack nor the solver's per-step
# arrays grow with the repeat count.
STACK_BYTES = 4 << 20


class EvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    """Outer-loop settings. `repeats` defaults to the desk-scale 50; the
    full-scale protocol uses 1000 (available via CLI/config)."""

    outer_folds: int = 5
    repeats: int = 50
    class_set: tuple[str, ...] = ("AD", "MS", "NR")
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "class_set", check_class_names(self.class_set, "class_set"))
        check_fields(self, {"outer_folds": 2, "repeats": 1})


def stratified_kfold(labels, k: int, seed) -> np.ndarray:
    """Assign each sample to one of k folds, stratified by label.

    Per-class counts across folds differ by at most one. Classes smaller
    than k raise, suggesting a smaller k. `seed` is an int or a numpy
    Generator; successive calls on one Generator draw fresh partitions.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = np.full(labels.size, -1, dtype=np.int64)
    next_fold = 0
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ValueError(
                f"class {cls!r} has {idx.size} members, fewer than k={k}; use a smaller k"
            )
        idx = rng.permutation(idx)
        for pos, sample in enumerate(idx):
            assignment[sample] = (next_fold + pos) % k
        next_fold = (next_fold + idx.size) % k
    return assignment


def average_precision(y_binary, scores):
    """Area under the precision-recall curve (step-wise interpolation).

    AP = sum_n (R_n - R_{n-1}) P_n over the descending-score ranking; score
    ties are broken by stable original order. Vectors give a float; stacked
    (..., n) labels and scores give an array with one AP per row, each
    bit-identical to the AP of that row alone.
    """
    y = np.asarray(y_binary, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim == 0:
        raise ValueError("labels and scores must be equal-length vectors")
    n = y.shape[-1]
    n_pos = y.sum(axis=-1).reshape(-1)
    if ((n_pos == 0) | (n_pos == n)).any():
        raise ValueError("average precision needs both a positive and a negative")
    hits = np.take_along_axis(y, np.argsort(-s, axis=-1, kind="stable"), axis=-1).reshape(-1, n)
    precision = np.cumsum(hits, axis=1) / np.arange(1, n + 1)
    # rows with k positives sum their k picked precisions as one (rows, k)
    # block, which numpy adds up row by row exactly as it adds one row alone
    ap = np.empty(n_pos.size)
    for k in np.unique(n_pos):
        rows = n_pos == k
        ap[rows] = precision[rows][hits[rows] == 1].reshape(-1, int(k)).sum(axis=1) / k
    return float(ap[0]) if y.ndim == 1 else ap.reshape(y.shape[:-1])


def macro_pr_auc(labels, score_matrix, class_set) -> float:
    """Unweighted mean one-vs-rest average precision across classes."""
    labels = np.asarray(labels)
    scores = np.asarray(score_matrix, dtype=np.float64)
    class_set = tuple(class_set)
    if scores.shape != (labels.size, len(class_set)):
        raise ValueError(
            f"score matrix shape {scores.shape}, expected ({labels.size}, {len(class_set)})"
        )
    member = labels[None, :] == np.asarray(class_set)[:, None]
    missing = ~member.any(axis=1)
    if missing.any():
        raise ValueError(f"class {class_set[int(missing.argmax())]!r} missing from labels")
    return float(np.mean(average_precision(member.astype(np.float64), scores.T)))


def _f1(truth, predicted) -> np.ndarray:
    """Per-class F1 from (..., classes, samples) masks of true and predicted
    class membership; 0 for a class with neither true nor predicted members."""
    tp = (truth & predicted).sum(axis=-1)
    denom = 2 * tp + (truth != predicted).sum(axis=-1)  # 2 tp + fp + fn
    return np.divide(2 * tp, denom, out=np.zeros(denom.shape), where=denom > 0)


def f1_macro(labels, predictions, class_set=None) -> float:
    """Unweighted mean per-class F1; a class with neither true nor predicted
    members contributes 0."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have equal length")
    if class_set is None:
        class_set = sorted(set(labels.tolist()) | set(predictions.tolist()))
    classes = np.asarray(class_set)[:, None]
    return float(np.mean(_f1(labels == classes, predictions == classes)))


@dataclass(frozen=True)
class BoxStats:
    """Box-plot statistics: median, quartiles, Tukey whiskers."""

    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float


def box_stats(values) -> BoxStats:
    x = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(x, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    inside = x[(x >= q1 - 1.5 * iqr) & (x <= q3 + 1.5 * iqr)]
    return BoxStats(
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
    )


# the eval/summary.csv header: the metric, then its BoxStats fields in order
SUMMARY_COLUMNS = ("metric", *(f.name for f in fields(BoxStats)))


@dataclass(frozen=True)
class ExperimentReport:
    """A cross-validation's results, one entry per (fold, repeat) cell in
    fold-major order: `cells` (C, 2) holds each cell's fold and repeat,
    `rows` (C, metrics) its metrics in `metrics()` order, and `unconverged`
    (C,) its one-vs-rest solves stopped by the step cap unconverged."""

    cells: np.ndarray
    rows: np.ndarray
    unconverged: np.ndarray
    class_set: tuple[str, ...]

    @property
    def unconverged_solves(self) -> int:
        """SMO solves, over all cells, that hit the step cap unconverged."""
        return int(self.unconverged.sum())

    def metrics(self) -> tuple[str, ...]:
        return METRICS + tuple(f"ap_{c}" for c in self.class_set)

    def metric_values(self, metric: str) -> np.ndarray:
        if metric not in self.metrics():
            raise KeyError(metric)
        return self.rows[:, self.metrics().index(metric)]

    def aggregates(self) -> dict[str, BoxStats]:
        return {m: box_stats(self.metric_values(m)) for m in self.metrics()}

    def to_report_csv(self) -> str:
        lines = ["fold,repeat,metric,value"]
        for (fold, repeat), row in zip(self.cells.tolist(), self.rows.tolist()):
            lines += [f"{fold},{repeat},{m},{v!r}" for m, v in zip(self.metrics(), row)]
        return "\n".join(lines) + "\n"

    def to_summary_csv(self) -> str:
        lines = [",".join(SUMMARY_COLUMNS)]
        for m, s in self.aggregates().items():
            lines.append(",".join([m, *map(repr, astuple(s))]))
        return "\n".join(lines) + "\n"


def raw_kernel(
    features,
    selected,
    kernel_params: PabsKernelParams,
    use_fnc: bool,
    factors: SubspaceFactors | None = None,
) -> np.ndarray:
    """The unrepaired kernel of `selected` over all subjects, from `factors`
    when given: `build_kernel_matrix` through this module's binding of it.

    Entries are pairwise, so one matrix serves every fold partition; the
    configured spectrum fix is applied later, per training block.
    """
    kernel = build_kernel_matrix(features, selected, kernel_params, use_fnc=use_fnc, factors=factors)
    return kernel.values


def partitions(labels, folds: int, seed: int, count: int) -> list[np.ndarray]:
    """`count` stratified `folds`-fold assignments drawn in turn from one
    stream seeded by `seed`, so the first is the same for every count."""
    rng = np.random.default_rng(derive_seed(seed, "outer-folds"))
    return [stratified_kfold(labels, folds, rng) for _ in range(count)]


def _held_out(raw, labels, parts, kernel_params: PabsKernelParams, svm_cfg: SvmConfig, class_set):
    """Held-out decision values of every (fold, repeat) cell of the fold
    assignments `parts`, in fold-major order. Cells come in runs of equal
    training size, each as (cells, test indices (G, t), scores (G, classes,
    t), unconverged solves (G,)); test indices ascend within a cell.

    Each cell's training block of `raw` gets the configured spectrum fix
    and is written into a zero-padded stack, and its one-vs-rest label rows
    are read off one class-membership matrix; the cell's problems share its
    block, and every problem on the stack is solved in one batch. A stack
    holds at most STACK_BYTES of blocks, so it does not grow with the
    repeat count. After the solve, each run's test-vs-train blocks (passed
    through unchanged) are gathered into one array and multiplied by every
    problem's alpha*y in one stacked matmul, one matrix-vector product per
    problem, so each score column has the bits of that model's own
    `decision_values`.
    """
    n_cls = len(class_set)
    member = np.asarray(labels)[None, :] == np.asarray(class_set)[:, None]
    folds = int(max(p.max() for p in parts)) + 1
    cells = [(f, rep) for f in range(folds) for rep in range(len(parts))]
    n = member.shape[1] - min(int(np.bincount(p, minlength=folds).min()) for p in parts)
    per_stack = max(1, STACK_BYTES // (8 * n * n))
    for first in range(0, len(cells), per_stack):
        batch = cells[first : first + per_stack]
        fold, rep = np.array(batch).T
        test = np.array([parts[r] for r in rep]) == fold[:, None]
        order = np.argsort(test, axis=1, kind="stable")  # training, then test indices
        sizes = (~test).sum(axis=1)
        inside = np.arange(n) < sizes[:, None]
        counts = (member[:, None, :] & ~test).sum(axis=2).T
        fit = (n_cls > 1) & ((counts > 0) & (counts < sizes[:, None])).all(axis=1)
        signs = np.where(member[:, order[:, :n]], 1.0, -1.0).transpose(1, 0, 2)
        y = np.where(inside[:, None, :], signs, 0.0).reshape(-1, n)
        stack = np.zeros((len(batch), n, n))
        for c, (f, r) in enumerate(batch):
            tr = order[c, : sizes[c]]
            try:
                if not fit[c]:
                    ovr_labels(labels[tr], class_set)  # raises with the reason
                stack[c, : tr.size, : tr.size] = apply_spectrum_fix(raw[np.ix_(tr, tr)], kernel_params)
            except (ValueError, np.linalg.LinAlgError) as e:
                raise EvalError(f"fold {f}, repeat {r}: {e}") from e
        sol = solve_smo_arrays(stack, np.repeat(np.arange(len(batch)), n_cls), y, svm_cfg)
        ay = (sol.alphas * y).reshape(len(batch), n_cls, n)
        bias = sol.bias.reshape(len(batch), n_cls, 1)
        unconverged = (~sol.converged).reshape(len(batch), n_cls).sum(axis=1)
        starts = np.flatnonzero(np.diff(sizes, prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], len(batch)]):
            m = sizes[lo]
            tr, te = order[lo:hi, :m], order[lo:hi, m:]
            k_te_tr = raw[te[:, :, None], tr[:, None, :]]
            scores = np.matmul(k_te_tr[:, None], ay[lo:hi, :, :m, None])[..., 0] + bias[lo:hi]
            yield batch[lo:hi], te, scores, unconverged[lo:hi]


def _class_labels(labels, class_set) -> np.ndarray:
    labels = np.asarray([str(x) for x in labels])
    extra = sorted(set(labels.tolist()) - set(class_set))
    if extra:
        raise ValueError(f"labels outside class_set: {extra}")
    return labels


def cross_validate(
    raw: np.ndarray,
    labels,
    parts,
    kernel_params: PabsKernelParams,
    svm_cfg: SvmConfig,
    class_set,
) -> ExperimentReport:
    """Stratified k-fold CV on a raw kernel, once per fold assignment in
    `parts` (repeat r uses `parts[r]`); each (fold, repeat) cell gives one
    row of the report, in fold-major order. Deterministic given the
    assignments.

    The metrics of a run of cells are array operations over the run; each
    row is bit-identical to `average_precision` and `f1_macro` on that
    cell's held-out scores and arg-max predictions alone.
    """
    class_set = tuple(class_set)
    labels = _class_labels(labels, class_set)
    member = labels[None, :] == np.asarray(class_set)[:, None]
    classes = np.arange(len(class_set))[:, None]
    cells, rows, unconverged = [], [], []
    for batch, te, scores, u in _held_out(raw, labels, parts, kernel_params, svm_cfg, class_set):
        truth = member[:, te].transpose(1, 0, 2)  # (cells, classes, test)
        try:
            aps = average_precision(truth, scores)
        except ValueError as e:  # some class has no members or no non-members in a test fold
            n_pos = truth.sum(axis=2)
            f, rep = batch[int(((n_pos == 0) | (n_pos == te.shape[1])).any(axis=1).argmax())]
            raise EvalError(f"fold {f}, repeat {rep}: {e}") from e
        f1 = _f1(truth, scores.argmax(axis=1)[:, None, :] == classes)
        cells += batch
        rows.append(np.column_stack([aps.mean(axis=1), f1.mean(axis=1), aps]))
        unconverged.append(u)
    return ExperimentReport(
        np.array(cells), np.concatenate(rows), np.concatenate(unconverged), class_set
    )


def run_experiment(
    features,
    labels,
    selected,
    kernel_params: PabsKernelParams,
    svm_cfg: SvmConfig,
    eval_cfg: EvalConfig,
    use_fnc: bool = False,
) -> ExperimentReport:
    """Repeated stratified outer CV on a fixed component set.

    The full raw kernel is assembled once; each repeat re-draws the fold
    partition, and per (repeat, fold) the training block gets the
    configured spectrum fix while test-vs-train blocks pass through
    unchanged. Fully deterministic given the master seed in `eval_cfg`.
    """
    labels = _class_labels(labels, eval_cfg.class_set)
    raw = raw_kernel(features, selected, kernel_params, use_fnc)
    parts = partitions(labels, eval_cfg.outer_folds, eval_cfg.seed, eval_cfg.repeats)
    return cross_validate(raw, labels, parts, kernel_params, svm_cfg, eval_cfg.class_set)


def chance_level(labels, class_set) -> float:
    """Mean class prevalence: the asymptotic chance level of macro PR-AUC."""
    labels = np.asarray(labels)
    return float(np.mean([(labels == c).mean() for c in class_set]))
