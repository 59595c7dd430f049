"""Kernel SVM training on precomputed kernel matrices via SMO.

The solver optimizes the standard soft-margin dual with per-sample box
constraints (class-weighted C), two variables at a time, choosing each pair
by second-order working-set selection over the dual gradient (Fan, Chen &
Lin 2005). It uses no randomness: the same training problem always gives
the same model, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datamodel import as_matrix


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


def per_sample_c(y, cfg: SvmConfig) -> np.ndarray:
    """Box constraint per sample; inverse class-frequency scaled when enabled.

    With weighting on, samples of a class with n_c members get C * N / (2 n_c).
    Counts run along the last axis of `y`, so a (B, n) stack of padded label
    rows gets one box row per problem; padding entries (label 0) get box 0.
    """
    y = np.asarray(y)
    if not cfg.class_weighted:
        return np.where(y != 0, cfg.C, 0.0)
    n_pos = (y > 0).sum(axis=-1, keepdims=True)
    n_neg = (y < 0).sum(axis=-1, keepdims=True)
    n = n_pos + n_neg
    return np.where(
        y > 0, cfg.C * n / (2.0 * n_pos), np.where(y < 0, cfg.C * n / (2.0 * n_neg), 0.0)
    )


def _up_low(y, alphas, box) -> tuple[np.ndarray, np.ndarray]:
    """Masks of I_up and I_low: the points whose y*alpha may still grow,
    and those whose y*alpha may still shrink, inside the box. A padding
    entry (box 0) is in neither."""
    below = alphas < box
    above = alphas > 0
    return np.where(y > 0, below, above), np.where(y > 0, above, below)


def _curvature(diag, d_i, k_i) -> np.ndarray:
    """a_im = K_ii + K_mm - 2 K_im for each problem's point i and every m,
    with TAU in place of a non-positive value."""
    a = (d_i[:, None] + diag) - 2.0 * k_i
    a[a <= 0] = TAU
    return a


class SmoSolution(NamedTuple):
    """Solved soft-margin duals as plain arrays, the one model type: a
    batch has one row per problem, a single problem no leading axis.
    `alphas`, `y` and `box` are zero on a problem's padding; `y` holds the
    -1/+1 training labels the problem was solved with."""

    alphas: np.ndarray
    y: np.ndarray
    bias: np.ndarray
    converged: np.ndarray
    box: np.ndarray


def solve_smo_arrays(kernels, cells, y, cfg: SvmConfig) -> SmoSolution:
    """Solve a batch of binary soft-margin duals by sequential minimal
    optimization, returning every problem's solution as one row of arrays.

    Problem b trains on the kernel `kernels[cells[b]]` of a (C, n, n) stack
    with the labels `y[b]`: -1 or +1 on its first n_b points, 0 on the
    padding after them (padding never enters a result). Problems that
    share a training block, such as the one-vs-rest classes of one fold,
    share one entry of the stack.

    Each step works on every unfinished problem at once, one row each. The
    dual gradient G is kept as score = -y*G = y - K(alpha*y), the bias that
    would put each point on its margin. Each step takes the maximal
    violating pair (i = argmax score over I_up, j = argmin score over
    I_low) and replaces the end whose second-order partner gains more,
    b^2 / a, by that partner (WSS2 of Fan, Chen & Lin 2005, JMLR 6:1889);
    trying both ends makes flipped labels give the exactly flipped model. A
    non-positive curvature a (the none and ridge spectrum fixes leave the
    kernel indefinite) is replaced by TAU, which sends the step to the box
    edge. No randomness is involved. All arithmetic is elementwise along a
    problem's row and every argmax/argmin keeps the first index, so each
    solution is bit-identical to the one its problem gives when solved alone.

    A problem stops when score[i] - score[j] is at most 2 * cfg.smo_tol, so
    the midpoint bias leaves no KKT violation above cfg.smo_tol. After
    cfg.max_passes * n_b steps it stops unconverged (converged=False).
    """
    kernels = np.asarray(kernels, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.intp)
    y = np.asarray(y, dtype=np.float64)
    n_problems, n = y.shape
    if kernels.ndim != 3 or kernels.shape[1:] != (n, n) or cells.shape != (n_problems,):
        raise ValueError(
            f"kernel stack {kernels.shape} and cells {cells.shape} do not match labels {y.shape}"
        )
    sizes = (y != 0).sum(axis=1)
    if not np.array_equal(y != 0, np.arange(n) < sizes[:, None]):
        raise ValueError("each label row must be -1/+1 entries followed by 0 padding")
    if not np.all(np.abs(y[y != 0]) == 1.0):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0, axis=1) & np.any(y < 0, axis=1)).all():
        raise SingleClassError("both classes must be present for binary training")

    box = per_sample_c(y, cfg)
    out_alphas = np.zeros_like(y)
    converged = np.zeros(n_problems, dtype=bool)

    # per-row state of the unfinished problems; rows leave as they finish
    ids = np.arange(n_problems)
    live = (
        ids,
        cells,
        y,
        box,
        np.diagonal(kernels, axis1=1, axis2=2)[cells],
        np.zeros_like(y),  # alphas
        y.copy(),  # score
        cfg.max_passes * sizes,  # steps left
    )
    while live[0].size:
        ids, cell, yy, bx, diag, alphas, score, left = live
        rows = np.arange(ids.size)
        up, low = _up_low(yy, alphas, bx)
        i = np.where(up, score, -np.inf).argmax(axis=1)
        j = np.where(low, score, np.inf).argmin(axis=1)
        s_i = score[rows, i]
        s_j = score[rows, j]
        capped = left == 0
        done = capped | (s_i - s_j <= 2.0 * cfg.smo_tol)
        if done.any():
            out_alphas[ids[done]] = alphas[done]
            converged[ids[done & ~capped]] = True
            live = tuple(a[~done] for a in live)
            continue

        curv_i = _curvature(diag, diag[rows, i], kernels[cell, i])
        curv_j = _curvature(diag, diag[rows, j], kernels[cell, j])
        gain_j = np.where(low & (score < s_i[:, None]), (s_i[:, None] - score) ** 2 / curv_i, -np.inf)
        gain_i = np.where(up & (score > s_j[:, None]), (score - s_j[:, None]) ** 2 / curv_j, -np.inf)
        best_i = gain_i.argmax(axis=1)
        best_j = gain_j.argmax(axis=1)
        swap = gain_i[rows, best_i] > gain_j[rows, best_j]
        i = np.where(swap, best_i, i)
        j = np.where(swap, j, best_j)

        # move y_i*alpha_i up and y_j*alpha_j down by t; each lands exactly
        # on the box edge it is heading for when that edge stops the step
        y_i, y_j = yy[rows, i], yy[rows, j]
        a_i, a_j = alphas[rows, i], alphas[rows, j]
        a_ij = (diag[rows, i] + diag[rows, j]) - 2.0 * kernels[cell, i, j]
        a_ij[a_ij <= 0] = TAU
        edge_i = np.where(y_i > 0, bx[rows, i], 0.0)
        edge_j = np.where(y_j > 0, 0.0, bx[rows, j])
        room_i = np.abs(edge_i - a_i)
        room_j = np.abs(edge_j - a_j)
        t = np.minimum(np.minimum((score[rows, i] - score[rows, j]) / a_ij, room_i), room_j)
        new_i = np.where(t == room_i, edge_i, a_i + y_i * t)
        new_j = np.where(t == room_j, edge_j, a_j - y_j * t)
        step_i = (y_i * (new_i - a_i))[:, None]
        step_j = (y_j * (new_j - a_j))[:, None]
        score -= step_i * kernels[cell, i] + step_j * kernels[cell, j]
        alphas[rows, i] = new_i
        alphas[rows, j] = new_j
        left -= 1

    # Each KKT condition bounds the bias on one side at its point's score:
    # I_up from below, I_low from above (both are non-empty for a feasible
    # alpha). The midpoint of [max lower, min upper] minimizes the largest
    # violation, even when the interval is (slightly) empty. The scores are
    # recomputed so that the bias carries no rounding from the updates: per
    # run of problems on one cell and of one size, one stacked matmul that
    # numpy computes as one matrix-vector product per problem over its own
    # n_b points, so each has the bits of a solo `k @ (alphas * y)`.
    ay = out_alphas * y
    k_ay = np.zeros_like(y)
    starts = np.flatnonzero(np.diff(cells * (n + 1) + sizes, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], n_problems]):
        m = sizes[lo]
        k_ay[lo:hi, :m] = np.matmul(kernels[cells[lo], :m, :m], ay[lo:hi, :m, None])[..., 0]
    score = y - k_ay
    up, low = _up_low(y, out_alphas, box)
    lower = np.where(up, score, -np.inf).max(axis=1)
    upper = np.where(low, score, np.inf).min(axis=1)
    return SmoSolution(out_alphas, y, (lower + upper) / 2.0, converged, box)


def solve_binary_smo(k_train, y, cfg: SvmConfig) -> SmoSolution:
    """Solve one binary soft-margin dual: `solve_smo_arrays` on a batch of
    one, with the batch axis removed.

    `k_train` is the symmetric training kernel, `y` a vector in {-1, +1}
    with both classes present.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    k = as_matrix(k_train, "kernel")
    return SmoSolution(*(a[0] for a in solve_smo_arrays(k[None], [0], y[None], cfg)))


def decision_values(model: SmoSolution, k_test_train) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + b per row of the test-train kernel,
    for a single solved problem."""
    k = as_matrix(k_test_train, "test-train kernel")
    if k.shape[1] != model.alphas.size:
        raise ValueError(
            f"test-train kernel has {k.shape[1]} columns, expected {model.alphas.size}"
        )
    return k @ (model.alphas * model.y) + model.bias


def ovr_labels(labels, class_set) -> np.ndarray:
    """One -1/+1 label row per class of `class_set`: +1 where a training
    label is that class. Each class must have members and non-members."""
    class_set = tuple(class_set)
    if len(class_set) < 2:
        raise ValueError("need at least 2 classes")
    y = np.where(np.asarray(labels)[None, :] == np.asarray(class_set)[:, None], 1.0, -1.0)
    for cls, row in zip(class_set, y):
        if not (row > 0).any():
            raise SingleClassError(f"class {cls!r} absent from training labels")
        if not (row < 0).any():
            raise SingleClassError(f"all training labels are {cls!r}")
    return y


def train_multiclass(k_train, labels, class_set, cfg: SvmConfig) -> SmoSolution:
    """Train one one-vs-rest binary model per class: one row per class, in
    class_set order."""
    y = ovr_labels(labels, class_set)
    k = as_matrix(k_train, "kernel")
    if k.shape != (y.shape[1], y.shape[1]):
        raise ValueError(f"kernel shape {k.shape} does not match {y.shape[1]} labels")
    return solve_smo_arrays(k[None], np.zeros(len(y), dtype=np.intp), y, cfg)


def predict_scores(model: SmoSolution, k_test_train) -> np.ndarray:
    """Per-class decision values of a `train_multiclass` model, one column
    per class."""
    models = [SmoSolution(*row) for row in zip(*model)]
    return np.column_stack([decision_values(m, k_test_train) for m in models])


def predict_labels(model: SmoSolution, k_test_train, class_set) -> list[str]:
    """Arg-max class of each test row; `class_set` is the model's class order."""
    scores = predict_scores(model, k_test_train)
    return [class_set[i] for i in np.argmax(scores, axis=1)]
