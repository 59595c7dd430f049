"""Subspace kernels over spatial maps and FNC vectors.

The similarity between two subjects' selected spatial maps is the sum of
the cosines of the principal angles between their component subspaces,
passed through a tanh: K(U, V) = tanh(gamma * sum_k sigma_k), where the
sigma_k are the singular values of U^T V for column-orthonormal U, V
(Bjorck & Golub 1973). Maps are orthonormalized first so the singular
values are genuine cosines (bounded by 1); without that step the sum is
not a subspace metric.

Kernels are built from subspace factors over a component set U that
contains the selected set S. Each subject's maps get one QR,
X_i[U]^T = Q_i R_i, and the u x u blocks Q_i^T Q_j of the upper triangle
come from one stacked matmul per subject row; the voxel-length Q_i are
then dropped. For S, the left singular vectors W_i of R_i[:, S] give the
orthonormal basis Q_i W_i of the subject's maps (the singular values of
R_i[:, S] are those of X_i[S], so they carry the rank test), and the
m x m cross-Gram blocks are W_i^T (Q_i^T Q_j) W_j; one batched SVD gives
every cosine sum. The FNC cosine kernel is one batch of dot products.
Every block is its own fixed-shape product, so an entry's bits depend
only on its two subjects and on U, never on the cohort's size or order.
SSFS builds one factor set per stage over the union of that stage's
candidates; every other build uses U = S. The two agree within 1e-14 but
not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SubjectFeatures, as_matrix
from .fnc import fisher_z

SPECTRUM_FIXES = ("none", "clip", "ridge")
# a selected map set is rank deficient when s_min <= RCOND * s_max
RCOND = 1e-10


class RankDeficiencyError(ValueError):
    """Selected spatial-map rows do not span a full-rank subspace."""


@dataclass(frozen=True)
class PabsKernelParams:
    """Kernel hyperparameters.

    gamma scales the subspace similarity (1.0 matches the reference setup);
    combine_weight w blends w * K_maps + (1 - w) * K_fnc when FNC features
    are enabled. The tanh kernel is generally indefinite, so `spectrum_fix`
    selects how `apply_spectrum_fix` repairs training kernels: "clip" zeroes
    negative eigenvalues, "ridge" adds ridge_lambda to the diagonal, "none"
    passes the matrix through.
    """

    gamma: float = 1.0
    fnc_gamma: float = 1.0
    combine_weight: float = 0.5
    spectrum_fix: str = "clip"
    ridge_lambda: float = 1e-6

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.fnc_gamma > 0:
            raise ValueError(f"fnc_gamma must be positive, got {self.fnc_gamma}")
        if not 0.0 <= self.combine_weight <= 1.0:
            raise ValueError(f"combine_weight must be in [0, 1], got {self.combine_weight}")
        if self.spectrum_fix not in SPECTRUM_FIXES:
            raise ValueError(
                f"spectrum_fix must be one of {SPECTRUM_FIXES}, got {self.spectrum_fix!r}"
            )
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N subject-similarity matrix with row/column ids."""

    values: np.ndarray
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        values = as_matrix(self.values, "kernel")
        n = values.shape[0]
        if values.shape != (n, n):
            raise ValueError(f"kernel must be square, got {values.shape}")
        if len(self.subject_ids) != n:
            raise ValueError("subject_ids length must match kernel size")
        if np.abs(values - values.T).max() > 1e-12:
            raise ValueError("kernel is not symmetric")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))


def _rank_message(s: np.ndarray, rows: int) -> str:
    return f"map subset of {rows} rows has numerical rank {int((s > RCOND * s[0]).sum())}"


def apply_spectrum_fix(matrix, params: PabsKernelParams) -> np.ndarray:
    """Repair an (indefinite) symmetric kernel according to params.spectrum_fix."""
    m = as_matrix(matrix, "kernel")
    if params.spectrum_fix == "none":
        return m.copy()
    if params.spectrum_fix == "ridge":
        return m + params.ridge_lambda * np.eye(m.shape[0])
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    fixed = (v * w) @ v.T
    return (fixed + fixed.T) / 2.0


def _mirror(n: int, iu, ju, upper) -> np.ndarray:
    """Symmetric N x N matrix from its upper-triangle entries (diagonal included)."""
    out = np.empty((n, n))
    out[iu, ju] = upper
    out[ju, iu] = upper
    return out


def _subject_ids(features) -> tuple[str, ...]:
    return tuple(f.subject_id or f"s{i:04d}" for i, f in enumerate(features))


def _component_list(selected, k: int) -> list[int]:
    selected = [int(i) for i in selected]
    if len(set(selected)) != len(selected):
        raise ValueError(f"selected components must be distinct: {selected}")
    for idx in selected:
        if not 0 <= idx < k:
            raise ValueError(f"component index {idx} out of range [0, {k})")
    return selected


@dataclass(frozen=True)
class SubspaceFactors:
    """Every subject's map factors over one component set U.

    With X_i[U]^T = Q_i R_i (Q_i column-orthonormal, V x p, p = min(V, |U|)),
    `r` stacks the p x |U| factors R_i and `cross` the p x p blocks
    Q_i^T Q_j for j >= i in row-major upper-triangle order.
    """

    components: tuple[int, ...]
    r: np.ndarray  # (N, p, |U|)
    cross: np.ndarray  # (N (N + 1) / 2, p, p)


def subspace_factors(features: list[SubjectFeatures], components) -> SubspaceFactors:
    """QR factors of each subject's maps over `components`, and the blocks
    Q_i^T Q_j of the upper triangle (one stacked matmul per subject row).

    Dependent maps are allowed here: the rank test belongs to each set
    whose kernel is later built from these factors.
    """
    n = len(features)
    if n == 0:
        raise ValueError("no subjects")
    k = features[0].n_components
    v = features[0].spatial_maps.shape[1]
    components = _component_list(components, k)
    p = min(v, len(components))
    q = np.empty((n, v, p))
    r = np.empty((n, p, len(components)))
    for i, f in enumerate(features):
        if f.spatial_maps.shape != (k, v):
            raise ValueError(f"subject {_subject_ids(features)[i]}: spatial map shape mismatch")
        q[i], r[i] = np.linalg.qr(f.spatial_maps[components].T)
    cross = np.empty((n * (n + 1) // 2, p, p))
    start = 0
    for i in range(n):
        np.matmul(q[i].T, q[i:], out=cross[start : start + n - i])
        start += n - i
    return SubspaceFactors(tuple(components), r, cross)


def build_kernel_matrix(
    features: list[SubjectFeatures],
    selected,
    params: PabsKernelParams,
    use_fnc: bool = False,
    factors: SubspaceFactors | None = None,
) -> KernelMatrix:
    """Assemble the N x N kernel over subjects from selected components.

    The map kernel comes from `factors` over a component set containing
    `selected` (by default, factors over `selected` itself): one batched
    SVD of the R_i[:, S] gives each subject's W_i and the rank test, the
    blocks W_i^T (Q_i^T Q_j) W_j are stacked products, and one batched SVD
    of those blocks gives every principal-angle cosine sum. With
    `use_fnc`, each subject's Fisher-z upper triangle of its FNC restricted
    to the selected components is a row z_i of Z, the FNC kernel is
    tanh(fnc_gamma * z_i . z_j / (|z_i| |z_j|)) over the same
    upper-triangle pairs, and the two kernels are blended by
    combine_weight; a single-component selection has no connectivity
    pairs, so the map kernel stands alone in that case. The Fisher-z rows
    of all subjects come from one stacked call. Only the upper triangle is
    computed and then mirrored, so symmetry is exact.

    The result is the raw kernel, generally indefinite: `params.spectrum_fix`
    is not applied here, but by `apply_spectrum_fix` wherever a training
    kernel is formed. Subjects are named by their features' `subject_id`.
    """
    n = len(features)
    if n == 0:
        raise ValueError("no subjects")
    selected = _component_list(selected, features[0].n_components)
    subject_ids = _subject_ids(features)
    if factors is None:
        factors = subspace_factors(features, selected)
    elif factors.r.shape[0] != n or not set(selected) <= set(factors.components):
        raise ValueError(
            f"factors over components {list(factors.components)} of "
            f"{factors.r.shape[0]} subjects cannot give components {selected} of {n}"
        )

    m = len(selected)
    pos = [factors.components.index(c) for c in selected]
    left, s, _ = np.linalg.svd(factors.r[:, :, pos], full_matrices=False)  # W_i, sigma(X_i[S])
    full_rank = (s[:, 0] > 0) & (s[:, -1] > RCOND * s[:, 0]) & (s.shape[1] == m)
    if not full_rank.all():
        i = int(np.argmin(full_rank))
        raise RankDeficiencyError(
            f"subject {subject_ids[i]}, components {selected}: {_rank_message(s[i], m)}"
        )

    # upper-triangle pairs in row-major order, matching factors.cross
    iu, ju = np.triu_indices(n)
    cross = np.swapaxes(left, 1, 2)[iu] @ factors.cross @ left[ju]
    sums = np.linalg.svd(cross, compute_uv=False).sum(axis=-1)
    values = _mirror(n, iu, ju, np.tanh(params.gamma * sums))

    if use_fnc and m >= 2:
        for i, f in enumerate(features):
            if f.fnc is None:
                raise ValueError(f"subject {subject_ids[i]}: FNC not computed")
        sub = np.ix_(selected, selected)
        z = fisher_z(np.stack([f.fnc[sub] for f in features]))
        # norms and dots as batches of 1 x L products: each is the same dot
        # product a single pair or vector would get
        norms = np.sqrt(z[:, None, :] @ z[:, :, None])[:, 0, 0]
        if not np.all(norms > 0.0):
            i = int(np.argmin(norms > 0.0))
            raise ValueError(
                f"subject {subject_ids[i]}: FNC kernel undefined for a zero-norm vector"
            )
        dots = (z[iu][:, None, :] @ z[ju][:, :, None])[:, 0, 0]
        cosines = params.fnc_gamma * dots / (norms[iu] * norms[ju])
        w = params.combine_weight
        values = w * values + (1.0 - w) * _mirror(n, iu, ju, np.tanh(cosines))

    return KernelMatrix(values, subject_ids)
