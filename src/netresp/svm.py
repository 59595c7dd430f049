"""Kernel SVM training on precomputed kernel matrices via SMO.

The solver optimizes the standard soft-margin dual with per-sample box
constraints (class-weighted C), two variables at a time. Randomness is
confined to the seeded shuffling of the working-set sweep order, which is
what distinguishes "randomly initialized" models trained on the same fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .datamodel import as_matrix
from ._util import derive_seed
from .kernels import KernelMatrix


class SingleClassError(ValueError):
    """Binary training requires both labels present."""


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    class_weighted: bool = True
    smo_tol: float = 1e-3
    max_passes: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if not self.smo_tol > 0:
            raise ValueError(f"smo_tol must be positive, got {self.smo_tol}")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class SolverStats:
    """Per-accepted-step diagnostics (only filled when requested)."""

    objective: list[float] = field(default_factory=list)
    equality_gap: list[float] = field(default_factory=list)
    box_ok: list[bool] = field(default_factory=list)


@dataclass(frozen=True)
class SvmModel:
    alphas: np.ndarray
    bias: float
    support_indices: tuple[int, ...]
    train_labels: np.ndarray
    box: np.ndarray
    converged: bool
    stats: SolverStats | None = None


@dataclass(frozen=True)
class MulticlassModel:
    """One one-vs-rest binary model per class, in class_set order."""

    models: tuple[SvmModel, ...]
    classes: tuple[str, ...]


@dataclass(frozen=True)
class KktReport:
    max_violation: float
    violations: np.ndarray


def _kernel_values(k) -> np.ndarray:
    if isinstance(k, KernelMatrix):
        return k.values
    return as_matrix(k, "kernel")


def dual_objective(alphas, k, y) -> float:
    """Soft-margin dual objective: sum(a) - 0.5 a^T (yy^T * K) a."""
    k = _kernel_values(k)
    a = np.asarray(alphas, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ay = a * y
    return float(a.sum() - 0.5 * ay @ k @ ay)


def per_sample_c(y, cfg: SvmConfig) -> np.ndarray:
    """Box constraint per sample; inverse class-frequency scaled when enabled.

    With weighting on, samples of a class with n_c members get C * N / (2 n_c).
    """
    y = np.asarray(y)
    n = y.size
    if not cfg.class_weighted:
        return np.full(n, cfg.C, dtype=np.float64)
    n_pos = int((y > 0).sum())
    n_neg = n - n_pos
    return np.where(y > 0, cfg.C * n / (2.0 * n_pos), cfg.C * n / (2.0 * n_neg))


def _refine_bias(u, y, alphas, box, fallback: float) -> float:
    """Pick the bias minimizing the maximum KKT violation.

    Every KKT condition is one-sided linear in b; the feasible interval is
    [max lower, min upper] and its midpoint is optimal even when the
    interval is (slightly) empty.
    """
    lower = -np.inf
    upper = np.inf
    for i in range(y.size):
        bound = y[i] - u[i]  # b value putting sample i exactly on the margin
        if y[i] > 0:
            if alphas[i] < box[i]:
                lower = max(lower, bound)
            if alphas[i] > 0:
                upper = min(upper, bound)
        else:
            if alphas[i] < box[i]:
                upper = min(upper, bound)
            if alphas[i] > 0:
                lower = max(lower, bound)
    if np.isfinite(lower) and np.isfinite(upper):
        return (lower + upper) / 2.0
    if np.isfinite(lower):
        return lower
    if np.isfinite(upper):
        return upper
    return fallback


def solve_binary_smo(
    k_train, y, cfg: SvmConfig, collect_stats: bool = False
) -> SvmModel:
    """Solve the binary soft-margin dual by sequential minimal optimization.

    `k_train` is the symmetric training kernel, `y` a vector in {-1, +1}
    with both classes present. The sweep order over training points is
    reshuffled from cfg.seed on every pass. Terminates when a full sweep
    finds no KKT violation beyond cfg.smo_tol; if max_passes sweeps elapse
    first, the best-so-far model is returned with converged=False.
    """
    k = _kernel_values(k_train)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    if np.all(y > 0) or np.all(y < 0):
        raise SingleClassError("both classes must be present for binary training")

    box = per_sample_c(y, cfg)
    alphas = np.zeros(n)
    u = np.zeros(n)  # u_i = sum_j alpha_j y_j K_ij (bias excluded)
    b = 0.0
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.smo_tol
    stats = SolverStats() if collect_stats else None

    def take_step(i: int, j: int) -> bool:
        nonlocal b, u
        if i == j:
            return False
        a_i, a_j = alphas[i], alphas[j]
        y_i, y_j = y[i], y[j]
        e_i = u[i] + b - y_i
        e_j = u[j] + b - y_j
        s = y_i * y_j
        if s < 0:
            lo = max(0.0, a_j - a_i)
            hi = min(box[j], box[i] + a_j - a_i)
        else:
            lo = max(0.0, a_i + a_j - box[i])
            hi = min(box[j], a_i + a_j)
        if lo >= hi - 1e-12:
            return False
        k_ii, k_jj, k_ij = k[i, i], k[j, j], k[i, j]
        eta = k_ii + k_jj - 2.0 * k_ij
        if eta > 1e-12:
            a_j_new = a_j + y_j * (e_i - e_j) / eta
            a_j_new = min(max(a_j_new, lo), hi)
        else:
            # flat or concave direction: evaluate the dual at both box ends
            gamma = a_i + s * a_j
            v_i = u[i] - a_i * y_i * k_ii - a_j * y_j * k_ij
            v_j = u[j] - a_i * y_i * k_ij - a_j * y_j * k_jj

            def neg_dual(aj: float) -> float:
                ai = gamma - s * aj
                return (
                    0.5 * ai * ai * k_ii
                    + 0.5 * aj * aj * k_jj
                    + s * ai * aj * k_ij
                    + y_i * ai * v_i
                    + y_j * aj * v_j
                    - ai
                    - aj
                )

            here = neg_dual(a_j)
            lo_obj = neg_dual(lo)
            hi_obj = neg_dual(hi)
            best = min(lo_obj, hi_obj)
            if best >= here - 1e-12:
                return False
            a_j_new = lo if lo_obj <= hi_obj else hi
        if abs(a_j_new - a_j) < 1e-12:
            return False

        def snap(val: float, limit: float) -> float:
            # collapse float dust onto the exact box edge
            if val < 1e-10:
                return 0.0
            if val > limit - 1e-10:
                return limit
            return val

        a_j_new = snap(a_j_new, box[j])
        a_i_new = a_i + s * (a_j - a_j_new)
        snapped = snap(a_i_new, box[i])
        if snapped != a_i_new:
            # re-derive the partner so the equality constraint stays exact
            a_i_new = snapped
            a_j_new = min(max(a_j + s * (a_i - a_i_new), 0.0), box[j])
        d_i = a_i_new - a_i
        d_j = a_j_new - a_j
        u += y_i * d_i * k[:, i] + y_j * d_j * k[:, j]
        alphas[i] = a_i_new
        alphas[j] = a_j_new
        b1 = b - e_i - y_i * d_i * k_ii - y_j * d_j * k_ij
        b2 = b - e_j - y_i * d_i * k_ij - y_j * d_j * k_jj
        if 0.0 < a_i_new < box[i]:
            b = b1
        elif 0.0 < a_j_new < box[j]:
            b = b2
        else:
            b = (b1 + b2) / 2.0
        if stats is not None:
            stats.objective.append(dual_objective(alphas, k, y))
            stats.equality_gap.append(abs(float(alphas @ y)))
            stats.box_ok.append(
                bool(np.all(alphas >= -1e-12) and np.all(alphas <= box + 1e-12))
            )
        return True

    def examine(i: int) -> int:
        e_i = u[i] + b - y[i]
        r_i = e_i * y[i]
        if not ((r_i < -tol and alphas[i] < box[i]) or (r_i > tol and alphas[i] > 0)):
            return 0
        nonbound = np.flatnonzero((alphas > 0) & (alphas < box))
        if nonbound.size > 1:
            errs = u[nonbound] + b - y[nonbound]
            j = int(nonbound[np.argmax(np.abs(e_i - errs))])
            if take_step(i, j):
                return 1
        for j in rng.permutation(nonbound):
            if take_step(i, int(j)):
                return 1
        for j in rng.permutation(n):
            if take_step(i, int(j)):
                return 1
        return 0

    converged = False
    examine_all = True
    for _ in range(cfg.max_passes):
        if examine_all:
            order = rng.permutation(n)
        else:
            order = rng.permutation(np.flatnonzero((alphas > 0) & (alphas < box)))
        n_changed = sum(examine(int(i)) for i in order)
        if examine_all:
            if n_changed == 0:
                converged = True
                break
            examine_all = False
        elif n_changed == 0:
            examine_all = True

    b = _refine_bias(u, y, alphas, box, b)
    support = tuple(int(i) for i in np.flatnonzero(alphas > 0))
    return SvmModel(
        alphas=alphas,
        bias=float(b),
        support_indices=support,
        train_labels=y.astype(np.int64),
        box=box,
        converged=converged,
        stats=stats,
    )


def decision_values(model: SvmModel, k_test_train) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + b per row of the test-train kernel."""
    k = _kernel_values(k_test_train)
    if k.ndim != 2 or k.shape[1] != model.alphas.size:
        raise ValueError(
            f"test-train kernel has {k.shape[1]} columns, expected {model.alphas.size}"
        )
    return k @ (model.alphas * model.train_labels) + model.bias


def check_kkt(model: SvmModel, k_train, y, cfg: SvmConfig) -> KktReport:
    """Maximum KKT violation of `model` on its training problem.

    A point with alpha below its box bound must satisfy y f(x) >= 1 - v,
    one with alpha above zero must satisfy y f(x) <= 1 + v; the report
    gives the smallest v per point.
    """
    k = _kernel_values(k_train)
    y = np.asarray(y, dtype=np.float64)
    f = k @ (model.alphas * model.train_labels) + model.bias
    margins = y * f
    violations = np.zeros(y.size)
    below_box = model.alphas < model.box
    above_zero = model.alphas > 0
    violations[below_box] = np.maximum(0.0, 1.0 - margins[below_box])
    violations[above_zero] = np.maximum(
        violations[above_zero], np.maximum(0.0, margins[above_zero] - 1.0)
    )
    return KktReport(max_violation=float(violations.max()), violations=violations)


def train_multiclass(k_train, labels, class_set, cfg: SvmConfig) -> MulticlassModel:
    """Train one one-vs-rest binary model per class, in class_set order."""
    labels = list(labels)
    class_set = tuple(class_set)
    if len(class_set) < 2:
        raise ValueError("need at least 2 classes")
    models = []
    for idx, cls in enumerate(class_set):
        y = np.array([1.0 if lab == cls else -1.0 for lab in labels])
        if not (y > 0).any():
            raise SingleClassError(f"class {cls!r} absent from training labels")
        if not (y < 0).any():
            raise SingleClassError(f"all training labels are {cls!r}")
        sub_cfg = replace(cfg, seed=derive_seed(cfg.seed, "ovr", idx))
        models.append(solve_binary_smo(k_train, y, sub_cfg))
    return MulticlassModel(models=tuple(models), classes=class_set)


def predict_scores(model: MulticlassModel, k_test_train) -> np.ndarray:
    """Per-class decision values, one column per class in class order."""
    cols = [decision_values(m, k_test_train) for m in model.models]
    return np.column_stack(cols)


def predict_labels(model: MulticlassModel, k_test_train) -> list[str]:
    scores = predict_scores(model, k_test_train)
    return [model.classes[i] for i in np.argmax(scores, axis=1)]


def model_to_dict(model: MulticlassModel) -> dict:
    """JSON-ready dump of a multiclass model for inspection."""
    return {
        "classes": list(model.classes),
        "models": [
            {
                "alphas": m.alphas.tolist(),
                "bias": m.bias,
                "support_indices": list(m.support_indices),
                "train_labels": m.train_labels.tolist(),
                "converged": m.converged,
            }
            for m in model.models
        ],
    }


def model_to_json(model: MulticlassModel) -> str:
    return json.dumps(model_to_dict(model), indent=2)
