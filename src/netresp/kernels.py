"""Subspace kernels over spatial maps and FNC vectors.

The similarity between two subjects' selected spatial maps is the sum of
the cosines of the principal angles between their component subspaces,
passed through a tanh: K(U, V) = tanh(gamma * sum_k sigma_k), where the
sigma_k are the singular values of U^T V for column-orthonormal U, V
(Bjorck & Golub 1973). Maps are orthonormalized first so the singular
values are genuine cosines (bounded by 1); without that step the sum is
not a subspace metric.

A kernel build stacks every subject's orthonormal basis, takes all m x m
cross-Gram blocks U_i^T U_j of the upper triangle with one stacked matmul
per subject row, and gets every cosine sum from one batched SVD over those
blocks; the FNC cosine kernel is one batch of dot products. Each block is
its own fixed-shape product, so an entry's bits depend only on its two
subjects, never on the cohort's size or order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SubjectFeatures, as_matrix
from .fnc import fisher_z

SPECTRUM_FIXES = ("none", "clip", "ridge")


class RankDeficiencyError(ValueError):
    """Selected spatial-map rows do not span a full-rank subspace."""


@dataclass(frozen=True)
class PabsKernelParams:
    """Kernel hyperparameters.

    gamma scales the subspace similarity (1.0 matches the reference setup);
    combine_weight w blends w * K_maps + (1 - w) * K_fnc when FNC features
    are enabled. The tanh kernel is generally indefinite, so `spectrum_fix`
    selects how training kernels are repaired: "clip" zeroes negative
    eigenvalues, "ridge" adds ridge_lambda to the diagonal, "none" passes
    the matrix through.
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


def orthonormalize(maps_subset, rcond: float = 1e-10) -> np.ndarray:
    """Column-orthonormal V x K basis spanning the rows of a K x V map subset.

    Raises RankDeficiencyError when the rows are (numerically) dependent.
    """
    maps_subset = as_matrix(maps_subset, "map subset")
    u, s, _ = np.linalg.svd(maps_subset.T, full_matrices=False)
    if s[0] <= 0 or s[-1] <= rcond * s[0]:
        raise RankDeficiencyError(
            f"map subset of {maps_subset.shape[0]} rows has numerical rank "
            f"{int((s > rcond * s[0]).sum())}"
        )
    return u


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


def build_kernel_matrix(
    features: list[SubjectFeatures],
    selected,
    params: PabsKernelParams,
    use_fnc: bool = False,
    subject_ids=None,
) -> KernelMatrix:
    """Assemble the N x N kernel over subjects from selected components.

    Each subject's m selected spatial-map rows are orthonormalized (one SVD
    per subject) into a stacked (N, V, m) basis array. For each subject i
    one matmul gives the blocks U_i^T U_j for all j >= i, written straight
    into the upper-triangle stack of m x m blocks; one batched SVD of that
    stack gives every principal-angle cosine sum. With `use_fnc`, each
    subject's Fisher-z upper triangle of its FNC restricted to the selected
    components is a row z_i of Z, the FNC kernel is
    tanh(fnc_gamma * z_i . z_j / (|z_i| |z_j|)) over the same upper-triangle
    pairs, and the two kernels are blended by combine_weight; a
    single-component selection has no connectivity pairs, so the map kernel
    stands alone in that case. Only the upper triangle is computed and then
    mirrored, so symmetry is exact; the spectrum fix from `params` is
    applied to the assembled matrix.
    """
    n = len(features)
    if n == 0:
        raise ValueError("no subjects")
    selected = [int(i) for i in selected]
    if len(set(selected)) != len(selected):
        raise ValueError(f"selected components must be distinct: {selected}")
    k = features[0].n_components
    v = features[0].spatial_maps.shape[1]
    for idx in selected:
        if not 0 <= idx < k:
            raise ValueError(f"component index {idx} out of range [0, {k})")
    if subject_ids is None:
        subject_ids = tuple(f"s{i:04d}" for i in range(n))

    m = len(selected)
    bases = np.empty((n, v, m))
    for i, f in enumerate(features):
        if f.spatial_maps.shape != (k, v):
            raise ValueError(f"subject {subject_ids[i]}: spatial map shape mismatch")
        try:
            bases[i] = orthonormalize(f.spatial_maps[selected, :])
        except RankDeficiencyError as e:
            raise RankDeficiencyError(
                f"subject {subject_ids[i]}, components {selected}: {e}"
            ) from e

    # upper-triangle pairs in row-major order, so row i's blocks U_i^T U_j
    # (j >= i) are contiguous and come from one stacked matmul
    iu, ju = np.triu_indices(n)
    cross = np.empty((iu.size, m, m))
    start = 0
    for i in range(n):
        np.matmul(bases[i].T, bases[i:], out=cross[start : start + n - i])
        start += n - i
    sums = np.linalg.svd(cross, compute_uv=False).sum(axis=-1)
    values = _mirror(n, iu, ju, np.tanh(params.gamma * sums))

    if use_fnc and m >= 2:
        sub = np.ix_(selected, selected)
        z = np.empty((n, m * (m - 1) // 2))
        for i, f in enumerate(features):
            if f.fnc is None:
                raise ValueError(f"subject {subject_ids[i]}: FNC not computed")
            z[i] = fisher_z(f.fnc[sub])
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

    return KernelMatrix(apply_spectrum_fix(values, params), tuple(subject_ids))
