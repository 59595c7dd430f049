"""Time-course post-processing and functional network connectivity matrices."""

from __future__ import annotations

import warnings

import numpy as np

from .datamodel import NonFiniteValueError, as_matrix

CLAMP = 1.0 - 1e-7


class ZeroVarianceError(ValueError):
    """Correlation is undefined for a constant series."""


def detrend(tc) -> np.ndarray:
    """Remove each column's best-fit linear trend (least squares).

    Output columns are exactly zero-mean; a pure line maps to zeros.
    """
    tc = as_matrix(tc, "time courses")
    t = tc.shape[0]
    if t < 3:
        raise ValueError(f"detrend needs at least 3 timepoints, got {t}")
    x = np.arange(t, dtype=np.float64)
    x = x - x.mean()
    # slope per column against centered time axis, then remove mean + trend
    centered = tc - tc.mean(axis=0)
    slope = x @ centered / (x @ x)
    return centered - np.outer(x, slope)


def compute_fnc(tc) -> np.ndarray:
    """Pairwise Pearson correlations between detrended component time courses.

    Returns a K x K matrix, symmetric with unit diagonal, entries in [-1, 1].
    """
    tc = as_matrix(tc, "time courses")
    t, k = tc.shape
    if k < 2:
        raise ValueError(f"FNC needs at least 2 components, got {k}")
    d = detrend(tc)
    scale = np.sqrt((d * d).sum(axis=0))
    dead = np.flatnonzero(scale <= 0.0)
    if dead.size:
        raise ZeroVarianceError(
            f"zero-variance time courses for components: {dead.tolist()}"
        )
    z = d / scale
    c = z.T @ z
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return c


def fisher_z(fnc) -> np.ndarray:
    """Fisher z-transform of the upper triangle (row-major, i < j).

    A (..., k, k) stack of matrices gives a (..., k(k-1)/2) stack of
    triangles. Off-diagonal values at |r| >= 1 are clamped to
    +/-(1 - 1e-7), with one warning giving their total count, so atanh
    stays finite.
    """
    fnc = np.asarray(fnc, dtype=np.float64)
    if fnc.ndim < 2 or fnc.shape[-2] != fnc.shape[-1]:
        raise ValueError(f"fnc must be a square matrix or a stack of them, got {fnc.shape}")
    if not np.isfinite(fnc).all():
        raise NonFiniteValueError("fnc contains NaN or infinite values")
    iu, ju = np.triu_indices(fnc.shape[-1], k=1)
    r = fnc[..., iu, ju]
    over = np.abs(r) >= 1.0
    if over.any():
        warnings.warn(
            f"clamping {int(over.sum())} correlation(s) at |r| >= 1 before atanh",
            RuntimeWarning,
            stacklevel=2,
        )
        r[over] = np.sign(r[over]) * CLAMP
    return np.arctanh(r)
