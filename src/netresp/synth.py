"""Synthetic cohorts with planted templates and class signal.

Templates are Gaussian blobs on a 3-D voxel grid; class signal is injected
both into the spatial maps of a chosen set of informative components and
into the correlation structure of their time courses, so map-only and
map+connectivity feature sets have a testable ordering. The generator is
the ground-truth oracle standing in for clinical data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, parallel_map
from .datamodel import Dataset, Subject, Template

DOMAIN_TAGS_6 = ("VI", "CB", "TP", "SC", "SM", "HC")
DOMAIN_TAGS_7 = ("SC", "AU", "SM", "VI", "CO", "DM", "CB")


@dataclass(frozen=True)
class SynthConfig:
    grid: tuple[int, int, int] = (16, 16, 8)
    n_components: int = 20
    n_domains: int = 6
    timepoints: int = 164
    class_counts: tuple[tuple[str, int], ...] = (("AD", 47), ("MS", 45), ("NR", 8))
    count_scale: float = 1.0
    informative_components: int = 4
    spatial_effect: float = 0.5
    spatial_scatter: float = 0.5  # relative per-subject spread of the effect
    fnc_effect: float = 0.5
    noise_sigma: float = 1.0
    map_noise: float = 0.25
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        counts = self.class_counts
        if isinstance(counts, Mapping):  # {"AD": 47, ...}, as in a JSON config
            counts = counts.items()
        object.__setattr__(self, "class_counts", tuple((str(c), int(n)) for c, n in counts))
        if any(g < 2 for g in self.grid):
            raise ValueError(f"grid dims must be at least 2, got {self.grid}")
        if self.n_components < 1 or self.n_domains < 1 or self.timepoints < 2:
            raise ValueError("counts must be positive (timepoints >= 2)")
        if self.n_voxels < self.n_components:
            raise ValueError("need at least as many voxels as components")
        if not 0 <= self.informative_components <= self.n_components:
            raise ValueError("informative_components out of range")
        if self.spatial_effect < 0 or self.fnc_effect < 0:
            raise ValueError("effects must be non-negative")
        if self.spatial_scatter < 0:
            raise ValueError("spatial_scatter must be non-negative")
        if self.noise_sigma < 0 or self.map_noise < 0:
            raise ValueError("noise levels must be non-negative")
        if self.count_scale <= 0:
            raise ValueError("count_scale must be positive")

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.grid
        return nx * ny * nz

    def scaled_counts(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (c, max(1, int(n * self.count_scale + 0.5))) for c, n in self.class_counts
        )

    def domain_names(self) -> tuple[str, ...]:
        if self.n_domains == 6:
            return DOMAIN_TAGS_6
        if self.n_domains == 7:
            return DOMAIN_TAGS_7
        return tuple(f"D{i:02d}" for i in range(self.n_domains))


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator knows that the pipeline must rediscover."""

    planted_maps: np.ndarray  # template-level K x V
    subject_maps: tuple[np.ndarray, ...]  # per-subject true maps (K x V)
    planted_tcs: tuple[np.ndarray, ...]  # per-subject true time courses (T x K)
    informative_indices: tuple[int, ...]
    class_spatial: dict[str, np.ndarray]  # per-class perturbation patterns
    class_fnc: dict[str, np.ndarray]  # per-class time-course correlation targets


def _zscore_rows(m: np.ndarray) -> np.ndarray:
    m = m - m.mean(axis=1, keepdims=True)
    return m / m.std(axis=1, keepdims=True)


def _grid_coords(grid) -> np.ndarray:
    nx, ny, nz = grid
    xs, ys, zs = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()]).astype(np.float64)


def _blob_row(coords, center, radius) -> np.ndarray:
    d2 = ((coords - center) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * radius * radius))


def _blob_radius_range(cfg: SynthConfig) -> tuple[float, float]:
    # volume fraction per blob capped so the pairwise |corr| < 0.5 constraint
    # stays satisfiable up to ~105 components on the default grid
    frac = min(0.055, 0.75 / cfg.n_components)
    r = (frac * cfg.n_voxels / 14.0) ** (1.0 / 3.0)
    return (0.8 * r, 1.2 * r)


def generate_template(cfg: SynthConfig) -> tuple[Template, dict]:
    """K Gaussian-blob components with pairwise |corr| < 0.5.

    Domains are assigned round-robin over components ranked by blob
    location; a coarse radius rank stands in for the model-order tag.
    Returns the template plus blob metadata (centers, radii).
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "template"))
    coords = _grid_coords(cfg.grid)
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.asarray(cfg.grid, dtype=np.float64) - 1.0
    r_lo, r_hi = _blob_radius_range(cfg)

    rows = np.zeros((cfg.n_components, cfg.n_voxels))
    centers = np.zeros((cfg.n_components, 3))
    radii = np.zeros(cfg.n_components)
    for k in range(cfg.n_components):
        for attempt in range(200):
            center = rng.uniform(lo + 1.0, hi - 1.0)
            radius = rng.uniform(r_lo, r_hi)
            row = _blob_row(coords, center, radius)
            if row.std() <= 0:
                continue
            row = (row - row.mean()) / row.std()
            if k == 0:
                break
            corr = rows[:k] @ row / cfg.n_voxels
            if np.abs(corr).max() < 0.5:
                break
        else:
            raise RuntimeError(
                f"could not place component {k} under the overlap constraint"
            )
        rows[k] = row
        centers[k] = center
        radii[k] = radius

    location_rank = np.argsort(
        np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0]))
    )
    names = cfg.domain_names()
    domains = [names[location_rank[k] % cfg.n_domains] for k in range(cfg.n_components)]
    radius_rank = np.argsort(np.argsort(radii))
    n_orders = min(8, cfg.n_components)
    scale_order = [
        int(radius_rank[k] * n_orders // cfg.n_components) for k in range(cfg.n_components)
    ]
    template = Template(
        maps=rows,
        component_ids=[f"c{k:03d}" for k in range(cfg.n_components)],
        domains=domains,
        scale_order=scale_order,
    )
    return template, {"centers": centers, "radii": radii}


def _class_fnc_target(cfg: SynthConfig, class_idx: int, informative) -> np.ndarray:
    """Class-specific time-course correlation matrix, unit diagonal, PSD."""
    k = cfg.n_components
    target = np.eye(k)
    pairs = [
        (informative[a], informative[b])
        for a in range(len(informative))
        for b in range(a + 1, len(informative))
    ]
    for p, (i, j) in enumerate(pairs):
        # distinct +/- pattern per class so all classes are separable in FNC
        sign = 1.0 if ((p >> (class_idx % 3)) + p + class_idx) % 2 == 0 else -1.0
        rho = np.clip(cfg.fnc_effect * sign, -0.8, 0.8)
        target[i, j] = target[j, i] = rho
    # floor the spectrum and renormalize so the matrix is a valid correlation
    w, v = np.linalg.eigh(target)
    w = np.maximum(w, 1e-3)
    fixed = (v * w) @ v.T
    d = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(d, d)
    return (fixed + fixed.T) / 2.0


@dataclass(frozen=True)
class CohortPlan:
    """Cohort-level draws that every subject of a cohort shares."""

    cfg: SynthConfig
    template: Template
    class_set: tuple[str, ...]
    labels: tuple[str, ...]  # one per subject, in subject order
    informative_indices: tuple[int, ...]
    class_spatial: dict[str, np.ndarray]
    class_fnc: dict[str, np.ndarray]
    class_chol: dict[str, np.ndarray]


def plan_cohort(cfg: SynthConfig) -> CohortPlan:
    """Template, labels, informative components and per-class signal."""
    template, _ = generate_template(cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "cohort"))
    k, v = cfg.n_components, cfg.n_voxels

    informative = tuple(
        int(i)
        for i in sorted(rng.choice(k, size=cfg.informative_components, replace=False))
    )
    counts = cfg.scaled_counts()

    class_spatial: dict[str, np.ndarray] = {}
    class_fnc: dict[str, np.ndarray] = {}
    class_chol: dict[str, np.ndarray] = {}
    coords = _grid_coords(cfg.grid)
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.asarray(cfg.grid, dtype=np.float64) - 1.0
    r_lo, r_hi = _blob_radius_range(cfg)
    for ci, (cls, _) in enumerate(counts):
        prng = np.random.default_rng(derive_seed(cfg.seed, "class-pattern", ci))
        patterns = np.zeros((len(informative), v))
        for p in range(len(informative)):
            blob = _blob_row(
                coords, prng.uniform(lo + 1.0, hi - 1.0), prng.uniform(r_lo, r_hi)
            )
            patterns[p] = (blob - blob.mean()) / blob.std()
        class_spatial[cls] = patterns
        target = _class_fnc_target(cfg, ci, informative)
        class_fnc[cls] = target
        class_chol[cls] = np.linalg.cholesky(target)

    return CohortPlan(
        cfg,
        template,
        class_set=tuple(cls for cls, _ in counts),
        labels=tuple(cls for cls, n in counts for _ in range(n)),
        informative_indices=informative,
        class_spatial=class_spatial,
        class_fnc=class_fnc,
        class_chol=class_chol,
    )


def make_subject(plan: CohortPlan, s_idx: int) -> tuple[Subject, np.ndarray, np.ndarray]:
    """Subject `s_idx` of a planned cohort, with its true maps and time courses.

    True maps are the template plus a class-dependent pattern on the
    informative components (expression strength spatial_effect with
    relative per-subject spread spatial_scatter) plus subject noise, rows
    re-z-scored; time courses are drawn with the class's correlation
    structure; bold is TC @ maps plus Gaussian noise of scale noise_sigma.
    Each subject draws from its own seed, so subjects can be made in any
    order.
    """
    cfg = plan.cfg
    cls = plan.labels[s_idx]
    srng = np.random.default_rng(derive_seed(cfg.seed, "subject", s_idx))
    maps = plan.template.maps.copy()
    patterns = plan.class_spatial[cls]
    for p, comp in enumerate(plan.informative_indices):
        strength = cfg.spatial_effect * (1.0 + cfg.spatial_scatter * srng.standard_normal())
        maps[comp] = maps[comp] + strength * patterns[p]
    maps = maps + cfg.map_noise * srng.standard_normal((cfg.n_components, cfg.n_voxels))
    maps = _zscore_rows(maps)
    tc = srng.standard_normal((cfg.timepoints, cfg.n_components)) @ plan.class_chol[cls].T
    bold = tc @ maps + cfg.noise_sigma * srng.standard_normal((cfg.timepoints, cfg.n_voxels))
    subject = Subject(id=f"s{s_idx:04d}", bold=bold, label=cls, group=cls)
    return subject, maps, tc


def generate_cohort(cfg: SynthConfig, threads: int = 1) -> tuple[Dataset, GroundTruth]:
    """Full synthetic dataset plus the ground truth that produced it,
    collected from :func:`make_subject` over every subject in memory."""
    plan = plan_cohort(cfg)
    results = parallel_map(lambda i: make_subject(plan, i), range(len(plan.labels)), threads)
    dataset = Dataset(
        template=plan.template,
        subjects=tuple(r[0] for r in results),
        class_set=plan.class_set,
    )
    truth = GroundTruth(
        planted_maps=plan.template.maps,
        subject_maps=tuple(r[1] for r in results),
        planted_tcs=tuple(r[2] for r in results),
        informative_indices=plan.informative_indices,
        class_spatial=plan.class_spatial,
        class_fnc=plan.class_fnc,
    )
    return dataset, truth
