"""Kernel SVM training on precomputed kernel matrices via SMO.

The solver optimizes the standard soft-margin dual with per-sample box
constraints (class-weighted C), two variables at a time, choosing each pair
by second-order working-set selection over the dual gradient (Fan, Chen &
Lin 2005). It uses no randomness: the same training problem always gives
the same model, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .datamodel import as_matrix
from .kernels import KernelMatrix


TAU = 1e-12  # curvature used in place of a non-positive a_ij


class SingleClassError(ValueError):
    """Binary training requires both labels present."""


@dataclass(frozen=True)
class SvmConfig:
    """Soft-margin settings. `max_passes` caps the solver at max_passes * n
    pair updates for n training points."""

    C: float = 1.0
    class_weighted: bool = True
    smo_tol: float = 1e-3
    max_passes: int = 10_000

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


def _up_low(y, alphas, box) -> tuple[np.ndarray, np.ndarray]:
    """Masks of I_up and I_low: the points whose y*alpha may still grow,
    and those whose y*alpha may still shrink, inside the box."""
    below = alphas < box
    above = alphas > 0
    return np.where(y > 0, below, above), np.where(y > 0, above, below)


def solve_binary_smo(
    k_train, y, cfg: SvmConfig, collect_stats: bool = False
) -> SvmModel:
    """Solve the binary soft-margin dual by sequential minimal optimization.

    `k_train` is the symmetric training kernel, `y` a vector in {-1, +1}
    with both classes present. The dual gradient G is kept as the vector
    score = -y*G = y - K(alpha*y), the bias that would put each point on its
    margin. Each step takes the maximal violating pair (i = argmax score over
    I_up, j = argmin score over I_low) and replaces the end whose
    second-order partner gains more, b^2 / a, by that partner (WSS2 of Fan,
    Chen & Lin 2005, JMLR 6:1889); trying both ends makes flipped labels give
    the exactly flipped model. A non-positive curvature a (the none and
    ridge spectrum fixes leave the kernel indefinite) is replaced by TAU,
    which sends the step to the box edge. No randomness is involved.

    The solver stops when score[i] - score[j] is at most 2 * cfg.smo_tol, so
    the midpoint bias leaves no KKT violation above cfg.smo_tol. After
    cfg.max_passes * n steps it returns the current model, converged=False.
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
    score = y.copy()
    diag = np.diag(k)
    curvature = diag[:, None] + diag[None, :] - 2.0 * k
    curvature[curvature <= 0] = TAU
    stats = SolverStats() if collect_stats else None
    converged = False
    for _ in range(cfg.max_passes * n):
        up, low = _up_low(y, alphas, box)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        if score[i] - score[j] <= 2.0 * cfg.smo_tol:
            converged = True
            break
        gain_j = np.where(low & (score < score[i]), (score[i] - score) ** 2 / curvature[i], -np.inf)
        gain_i = np.where(up & (score > score[j]), (score - score[j]) ** 2 / curvature[j], -np.inf)
        if gain_i.max() > gain_j.max():
            i = int(np.argmax(gain_i))
        else:
            j = int(np.argmax(gain_j))
        # move y_i*alpha_i up and y_j*alpha_j down by t; each lands exactly
        # on the box edge it is heading for when that edge stops the step
        edge_i = box[i] if y[i] > 0 else 0.0
        edge_j = 0.0 if y[j] > 0 else box[j]
        room_i = abs(edge_i - alphas[i])
        room_j = abs(edge_j - alphas[j])
        t = min((score[i] - score[j]) / curvature[i, j], room_i, room_j)
        new_i = edge_i if t == room_i else alphas[i] + y[i] * t
        new_j = edge_j if t == room_j else alphas[j] - y[j] * t
        score -= y[i] * (new_i - alphas[i]) * k[i] + y[j] * (new_j - alphas[j]) * k[j]
        alphas[i] = new_i
        alphas[j] = new_j
        if stats is not None:
            stats.objective.append(dual_objective(alphas, k, y))
            stats.equality_gap.append(abs(float(alphas @ y)))
            stats.box_ok.append(bool(np.all(alphas >= 0) and np.all(alphas <= box)))

    # Each KKT condition bounds the bias on one side at its point's score:
    # I_up from below, I_low from above (both are non-empty for a feasible
    # alpha). The midpoint of [max lower, min upper] minimizes the largest
    # violation, even when the interval is (slightly) empty. The scores are
    # recomputed so that the bias carries no rounding from the updates.
    score = y - k @ (alphas * y)
    up, low = _up_low(y, alphas, box)
    b = (score[up].max() + score[low].min()) / 2.0
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
    for cls in class_set:
        y = np.array([1.0 if lab == cls else -1.0 for lab in labels])
        if not (y > 0).any():
            raise SingleClassError(f"class {cls!r} absent from training labels")
        if not (y < 0).any():
            raise SingleClassError(f"all training labels are {cls!r}")
        models.append(solve_binary_smo(k_train, y, cfg))
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
