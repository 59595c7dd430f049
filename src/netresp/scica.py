"""Spatially constrained ICA: one anchored unit per template component.

Each template row seeds a one-unit fixed-point ICA iteration (negentropy
contrast, g = tanh) augmented with a penalty pulling the unit's output map
toward positive correlation with its reference. Units are not orthogonalized
against each other, so constrained components may correlate; each one is
identified by its own reference, not by deflation order.

Because no unit depends on another, a subject's units advance together:
each round stacks every unit that has not yet converged into one (B, R)
array, so one (B, R) @ (R, V) product gives all their outputs and one
(B, V) @ (V, R) product all their fixed-point directions, while every
other step acts row by row. A unit leaves the batch when it converges or
reaches max_iters, so each unit follows exactly its own fixed-point map.

Time courses regress the z-scored bold, kept from whitening, onto the
maps. They are solved on the K x K Gram of the maps, with one correction
against the full residual where cond(maps) exceeds GRAM_REFINE_COND;
`np.linalg.lstsq` solves instead where the maps are rank-deficient by
construction (fewer whitened rows than components, as when pca_retained < K
or T - 1 < K) or cond(maps) exceeds GRAM_MAX_COND.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_fields, derive_seed
from .datamodel import NonFiniteValueError, SubjectFeatures, Template


class ZeroVarianceVoxelError(ValueError):
    """A voxel has no variance over time, so it cannot be normalized."""


class RankError(ValueError):
    pass


@dataclass(frozen=True)
class ScicaConfig:
    max_iters: int = 500
    tol: float = 1e-6
    constraint_weight: float = 1.0
    pca_retained: int | None = None  # None: match the template's K

    def __post_init__(self):
        check_fields(self, {"max_iters": 1, "constraint_weight": 0, "pca_retained": 1}, positive=("tol",))


@dataclass(frozen=True)
class WhitenedData:
    """Whitened spatial views of one subject's bold run.

    `normalized` is the bold with each voxel z-scored over time; `whitened`
    rows are zero-mean, unit-variance and mutually uncorrelated over
    voxels, and `mixing_back @ whitened` reconstructs the normalized,
    row-centered bold up to PCA truncation.
    """

    whitened: np.ndarray  # (R, V)
    mixing_back: np.ndarray  # (T, R)
    voxel_means: np.ndarray
    voxel_stds: np.ndarray
    normalized: np.ndarray  # (T, V)


def _apply_contrast(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(y) = tanh(y) and the row means of g'(y) = 1 - g(y)^2.

    `y` is a (B, V) stack of unit outputs and is overwritten with g(y). The
    means come from row dot products, so a round allocates no (B, V) array
    beyond y.
    """
    gy = np.tanh(y, out=y)
    return gy, 1.0 - _rowdot(gy, gy) / y.shape[1]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of `a` with the same row of `b`."""
    return np.einsum("ij,ij->i", a, b)


def _own_bold(bold, copy: bool) -> np.ndarray:
    """`bold` as a writable C-contiguous 2-D float64 array that preprocessing
    may overwrite: a new array, or with `copy=False` `bold` itself when it
    already is one."""
    m = np.array(bold, np.float64, order="C") if copy else np.require(bold, np.float64, "CWE")
    if m.ndim != 2:
        raise ValueError(f"bold must be 2-D, got shape {m.shape}")
    return m


def preprocess_subject(bold, pca_retained: int | None = None, *, copy: bool = True) -> WhitenedData:
    """Normalize voxel amplitudes, center, and whiten to `pca_retained` rows.

    Each voxel's time series is z-scored (population convention), each
    timepoint's mean over voxels removed, then the rows are rotated and
    scaled so their sample covariance over voxels is the identity.

    The z-scores are formed in a copy of `bold`; with `copy=False` the
    caller hands `bold` over, and when it is a writable C-contiguous float64
    array it is z-scored in place and returned as `normalized`. A NaN or an
    infinity in a voxel's time series makes that voxel's standard deviation
    non-finite, so the stds are checked, not every entry.
    """
    bold = _own_bold(bold, copy)
    t, v = bold.shape
    if t < 2:
        raise ValueError("bold needs at least 2 timepoints")
    r = min(t - 1, v) if pca_retained is None else int(pca_retained)
    if not 1 <= r <= min(t - 1, v):
        raise ValueError(
            f"pca_retained={r} must be in [1, min(T-1, V)] = [1, {min(t - 1, v)}]"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite bold raises below
        mu = bold.mean(axis=0)
        xz = np.subtract(bold, mu, out=bold)
        # the bits of bold.std(axis=0), from the centred values
        sd = np.sqrt(np.add.reduce(xz * xz, axis=0) / t)
    if not np.isfinite(sd).all():
        raise NonFiniteValueError(
            "bold contains NaN or infinite values (or its variance overflows)"
        )
    dead = np.flatnonzero(sd <= 1e-12 * max(sd.max(), 1e-300))
    if dead.size:
        raise ZeroVarianceVoxelError(
            f"zero-variance voxels (first few): {dead[:8].tolist()}"
        )
    xz /= sd
    xc = xz - xz.mean(axis=1, keepdims=True)
    cov = xc @ xc.T
    cov /= v
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:r]
    lam = evals[order]
    if lam[-1] <= 1e-12 * max(lam[0], 1e-300):
        raise RankError(
            f"data rank below pca_retained={r}: eigenvalue {lam[-1]:.3e}"
        )
    e = evecs[:, order]
    whitened = (e / np.sqrt(lam)).T @ xc
    mixing_back = e * np.sqrt(lam)
    return WhitenedData(
        whitened=whitened, mixing_back=mixing_back, voxel_means=mu, voxel_stds=sd,
        normalized=xz,
    )


DAMPING = 0.3


def constrained_unit_update(w, whitened, reference_projected, cfg: ScicaConfig) -> np.ndarray:
    """One damped constrained fixed-point step for a unit-norm weight vector.

    The negentropy fixed-point direction (sign-aligned with the incoming
    weight so the iteration cannot oscillate between antipodes) is applied
    as a damped displacement on the unit sphere and combined with the
    spherical gradient of the output's correlation with the reference,
    weighted by constraint_weight:

        w_next = normalize(w + DAMPING * (fp_hat - w) + mu * (b - <w, b> w))

    Damping keeps the raw map's fixed points but does not guarantee
    convergence: a unit may cycle until max_iters and end with its
    `converged` flag False. The constraint term vanishes exactly when the
    output is fully aligned with the reference, so an aligned fixed point is
    returned unchanged. A zero-length update falls back to the incoming weight.

    `w` and `reference_projected` may also be (B, R) stacks, one unit per
    row; each row then takes its own step, with the outputs and the
    fixed-point directions of all rows computed by one matrix product each.
    """
    w = np.asarray(w, dtype=np.float64)
    single = w.ndim == 1
    w = np.atleast_2d(w)
    b = np.atleast_2d(np.asarray(reference_projected, dtype=np.float64))
    v = whitened.shape[1]
    gy, gp_mean = _apply_contrast(w @ whitened)
    w_fp = gy @ whitened.T
    w_fp /= v
    w_fp -= gp_mean[:, None] * w
    np.negative(w_fp, out=w_fp, where=(_rowdot(w_fp, w) < 0)[:, None])
    n_fp = np.sqrt(_rowdot(w_fp, w_fp))[:, None]
    # a row without a fixed-point direction gets fp_hat = w, so its damped
    # term is exactly zero
    fp_hat = np.divide(w_fp, n_fp, out=w.copy(), where=n_fp > 1e-12)
    step = cfg.constraint_weight * (b - _rowdot(w, b)[:, None] * w)
    step += DAMPING * (fp_hat - w)
    w_next = w + step
    norm = np.sqrt(_rowdot(w_next, w_next))[:, None]
    w_next = np.divide(w_next, norm, out=w.copy(), where=norm >= 1e-12)
    return w_next[0] if single else w_next


def _reference_projection(whitened: np.ndarray, refs_scaled: np.ndarray) -> np.ndarray:
    """Rows b_k with corr(w @ whitened, reference k) = <w, b_k> for unit w.

    One product serves every (K, V) reference row; a reference with no
    variance projects to zero. `refs_scaled` is centred in place, and its
    row norms are summed as `np.linalg.norm` sums them, from one (K, V)
    temporary.
    """
    v = whitened.shape[1]
    rc = refs_scaled
    rc -= rc.mean(axis=1, keepdims=True)
    nrm = np.sqrt(np.add.reduce(rc * rc, axis=1, keepdims=True))
    b = rc @ whitened.T
    return np.divide(b, np.sqrt(v) * nrm, out=np.zeros_like(b), where=nrm > 0)


def extract_subject(
    bold, template: Template, cfg: ScicaConfig, seed: int = 0, *, copy: bool = True
) -> SubjectFeatures:
    """Recover one spatial map and time course per template component.

    The unit for component k is initialized from the whitening-space
    projection of template row k and iterated with
    :func:`constrained_unit_update` until |<w_new, w_old>| > 1 - tol or
    max_iters is reached (non-convergence sets the per-component flag,
    it is not an error). All units still iterating advance together, one
    stacked :func:`constrained_unit_update` call per round, and each unit
    leaves that batch as soon as its own test passes. Output maps are
    expressed in data units (the voxel normalization is undone), z-scored
    over voxels and sign-aligned to the template. Time courses are the
    least-squares regression of the normalized bold onto the maps, solved
    on the maps' Gram and corrected once against the full residual when
    cond(maps) > GRAM_REFINE_COND; `np.linalg.lstsq` solves instead when
    fewer whitened rows than components (pca_retained < K, or T - 1 < K)
    make the maps rank-deficient, or when cond(maps) > GRAM_MAX_COND (see
    :func:`_time_courses`).
    Deterministic given the seed, which only matters for the degenerate
    case of a reference with no energy in the retained subspace: those
    units start from random draws, taken in component order.
    With `copy=False` the caller hands `bold` over to be z-scored in place,
    as :func:`preprocess_subject` says; by default it is left untouched.
    """
    bold = _own_bold(bold, copy)
    t, v = bold.shape
    if v != template.n_voxels:
        raise ValueError(f"bold has {v} voxels, template has {template.n_voxels}")
    k = template.n_components
    r = cfg.pca_retained if cfg.pca_retained is not None else min(k, t - 1, v)
    wd = preprocess_subject(bold, r, copy=False)  # bold is then wd.normalized
    w_data, sd, xz = wd.whitened, wd.voxel_stds, wd.normalized
    del wd  # w_data is then the whitened rows' last reference

    b = _reference_projection(w_data, template.maps / sd)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    units = np.divide(b, nb, out=np.empty_like(b), where=nb > 1e-8)
    rng = np.random.default_rng(derive_seed(seed, "scica-degenerate"))
    for comp in np.flatnonzero(nb[:, 0] <= 1e-8):
        w = rng.standard_normal(r)
        units[comp] = w / np.linalg.norm(w)

    # w and b_live hold the rows of the units in `live`; a unit's final
    # weight goes back to `units` when it leaves the batch
    converged = np.zeros(k, dtype=bool)
    live, w, b_live = np.arange(k), units.copy(), b
    for _ in range(cfg.max_iters):
        w_new = constrained_unit_update(w, w_data, b_live, cfg)
        done = np.abs(_rowdot(w_new, w)) > 1.0 - cfg.tol
        w = w_new
        if done.any():
            units[live[done]] = w[done]
            converged[live[done]] = True
            live, w, b_live = live[~done], w[~done], b_live[~done]
            if not live.size:
                break
    units[live] = w

    maps = units @ w_data
    del w_data  # no longer needed once the maps exist
    maps *= sd  # back to data units so map shapes match the references
    maps -= maps.mean(axis=1, keepdims=True)
    m_sd = maps.std(axis=1, keepdims=True)
    np.divide(maps, m_sd, out=maps, where=m_sd > 0)
    flip = _rowdot(maps, template.maps - template.maps.mean(axis=1, keepdims=True)) < 0
    np.negative(maps, out=maps, where=flip[:, None])

    tc = _time_courses(maps, xz, full_rank=r >= k)
    return SubjectFeatures(spatial_maps=maps, time_courses=tc, converged=converged)


GRAM_MAX_COND = 1e5  # cond(maps) above which time courses are solved by lstsq
GRAM_REFINE_COND = 50.0  # cond(maps) above which the Gram solve is corrected once


def _time_courses(maps: np.ndarray, xz: np.ndarray, full_rank: bool) -> np.ndarray:
    """(T, K) time courses minimizing ||xz - tc @ maps|| for (K, V) maps.

    Solved on the K x K Gram of the maps, whose rounding costs the solution
    about cond(maps)^2 * eps of its largest entry. Above GRAM_REFINE_COND
    the solution is therefore corrected once, by solving for the residual
    xz - tc @ maps against the same Gram (corrected semi-normal equations,
    Bjorck 1987), which brings it within the error of an SVD solve.
    cond(maps) is read off the Gram's eigenvalues. `np.linalg.lstsq` solves
    instead when the maps are not `full_rank` by construction or when
    cond(maps) exceeds GRAM_MAX_COND, a Gram that is not positive definite
    included.
    """
    if full_rank:
        gram = maps @ maps.T
        ev = np.linalg.eigvalsh(gram)  # ascending; cond(maps)^2 = ev[-1] / ev[0]
        if ev[0] > 0 and ev[-1] <= GRAM_MAX_COND**2 * ev[0]:
            tc = np.linalg.solve(gram, maps @ xz.T)
            if ev[-1] > GRAM_REFINE_COND**2 * ev[0]:
                resid = tc.T @ maps
                np.subtract(xz, resid, out=resid)  # the residual in the product's place
                tc += np.linalg.solve(gram, maps @ resid.T)
            return tc.T
    return np.linalg.lstsq(maps.T, xz.T, rcond=None)[0].T
