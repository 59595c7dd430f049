"""Synthetic cohorts with planted templates and class signal.

Templates are Gaussian blobs on a 3-D voxel grid; class signal is injected
both into the spatial maps of a chosen set of informative components and
into the correlation structure of their time courses, so map-only and
map+connectivity feature sets have a testable ordering. The generator is
the ground-truth oracle standing in for clinical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, parallel_map
from .datamodel import Dataset, Subject, SubjectFeatures, Template

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
        object.__setattr__(
            self, "class_counts", tuple((str(c), int(n)) for c, n in self.class_counts)
        )
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


def generate_cohort(cfg: SynthConfig, threads: int = 1) -> tuple[Dataset, GroundTruth]:
    """Full synthetic dataset plus the ground truth that produced it.

    Per subject: true maps are the template plus a class-dependent pattern
    on the informative components (expression strength spatial_effect with
    relative per-subject spread spatial_scatter) plus subject noise, rows
    re-z-scored; time courses are drawn with the class's correlation
    structure; bold is TC @ maps plus Gaussian noise of scale noise_sigma.
    """
    template, _ = generate_template(cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "cohort"))
    k, v = cfg.n_components, cfg.n_voxels

    informative = tuple(
        int(i)
        for i in sorted(rng.choice(k, size=cfg.informative_components, replace=False))
    )
    counts = cfg.scaled_counts()
    class_names = [c for c, _ in counts]

    class_spatial: dict[str, np.ndarray] = {}
    class_fnc: dict[str, np.ndarray] = {}
    class_chol: dict[str, np.ndarray] = {}
    coords = _grid_coords(cfg.grid)
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.asarray(cfg.grid, dtype=np.float64) - 1.0
    r_lo, r_hi = _blob_radius_range(cfg)
    for ci, cls in enumerate(class_names):
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

    labels = [cls for cls, n in counts for _ in range(n)]

    def make_subject(args):
        s_idx, cls = args
        srng = np.random.default_rng(derive_seed(cfg.seed, "subject", s_idx))
        maps = template.maps.copy()
        patterns = class_spatial[cls]
        for p, comp in enumerate(informative):
            strength = cfg.spatial_effect * (
                1.0 + cfg.spatial_scatter * srng.standard_normal()
            )
            maps[comp] = maps[comp] + strength * patterns[p]
        maps = maps + cfg.map_noise * srng.standard_normal((k, v))
        maps = _zscore_rows(maps)
        tc = srng.standard_normal((cfg.timepoints, k)) @ class_chol[cls].T
        bold = tc @ maps + cfg.noise_sigma * srng.standard_normal((cfg.timepoints, v))
        subject = Subject(id=f"s{s_idx:04d}", bold=bold, label=cls, group=cls)
        return subject, maps, tc

    results = parallel_map(make_subject, list(enumerate(labels)), threads)
    subjects = tuple(r[0] for r in results)
    dataset = Dataset(template=template, subjects=subjects, class_set=tuple(class_names))
    truth = GroundTruth(
        planted_maps=template.maps,
        subject_maps=tuple(r[1] for r in results),
        planted_tcs=tuple(r[2] for r in results),
        informative_indices=informative,
        class_spatial=class_spatial,
        class_fnc=class_fnc,
    )
    return dataset, truth


def generate_interaction_cohort(
    n_per_class: int = 32,
    n_voxels: int = 400,
    marginal_effect: float = 0.35,
    marginal_scatter: float = 0.35,
    pair_effect: float = 0.9,
    map_noise: float = 0.25,
    timepoints: int = 24,
    seed: int = 0,
) -> tuple[list[SubjectFeatures], list[str], dict]:
    """Cohort where one component pair interacts but is marginally silent.

    Two domains with two components each (A: 0, 1; B: 2, 3). Component 0
    carries a weak direct class signal whose per-subject expression is
    scattered (marginal_scatter), so it alone separates the classes only
    partially. Components 1 and 3 share a pattern whose signs agree for one
    class and disagree for the other, with the overall sign random per
    subject: each is uninformative alone, while the pair determines the
    class through the relative orientation of the two subspaces. Returns
    ready-made features, labels and metadata.
    """
    rng = np.random.default_rng(derive_seed(seed, "interaction"))
    k = 4
    base = _zscore_rows(rng.standard_normal((k, n_voxels)))
    weak_pattern = rng.standard_normal(n_voxels)
    weak_pattern /= weak_pattern.std()
    shared_pattern = rng.standard_normal(n_voxels)
    shared_pattern /= shared_pattern.std()

    features: list[SubjectFeatures] = []
    labels: list[str] = []
    for s in range(2 * n_per_class):
        cls = +1 if s < n_per_class else -1
        srng = np.random.default_rng(derive_seed(seed, "interaction-subject", s))
        e = 1.0 if srng.random() < 0.5 else -1.0
        weak_coeff = marginal_effect * cls + marginal_scatter * srng.standard_normal()
        maps = base.copy()
        maps[0] = maps[0] + weak_coeff * weak_pattern
        maps[1] = maps[1] + pair_effect * e * shared_pattern
        maps[3] = maps[3] + pair_effect * (e * cls) * shared_pattern
        maps = maps + map_noise * srng.standard_normal((k, n_voxels))
        maps = _zscore_rows(maps)
        tc = srng.standard_normal((timepoints, k))
        features.append(SubjectFeatures(spatial_maps=maps, time_courses=tc))
        labels.append("R" if cls > 0 else "Q")
    meta = {
        "domains": ["A", "A", "B", "B"],
        "weak_component": 0,
        "interacting_pair": (1, 3),
        "class_set": ("Q", "R"),
    }
    return features, labels, meta
