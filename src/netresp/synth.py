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

from ._util import check_class_names, check_fields, check_int, derive_seed, parallel_map
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
        seq = (list, tuple)  # a JSON array, or a tuple in code
        if not (isinstance(self.grid, seq) and len(self.grid) == 3):
            raise ValueError(f"grid must be a list of 3 sizes, got {self.grid!r}")
        grid = tuple(check_int(g, f"grid[{i}]", 2) for i, g in enumerate(self.grid))
        object.__setattr__(self, "grid", grid)
        counts = self.class_counts
        if isinstance(counts, Mapping):  # {"AD": 47, ...}, as in a JSON config
            counts = counts.items()
        elif not isinstance(counts, seq) or any(not isinstance(p, seq) or len(p) != 2 for p in counts):
            raise ValueError(f"class_counts must be an object or [name, count] pairs, got {counts!r}")
        counts = tuple((c, check_int(n, f"class_counts[{c!r}]", 1)) for c, n in counts)
        check_class_names([c for c, _ in counts], "class_counts' classes")
        object.__setattr__(self, "class_counts", counts)
        minimum = {"n_components": 1, "n_domains": 1, "timepoints": 2, "informative_components": 0}
        for key in ("spatial_effect", "spatial_scatter", "fnc_effect", "noise_sigma", "map_noise"):
            minimum[key] = 0
        check_fields(self, minimum, positive=("count_scale",))
        if self.n_voxels < self.n_components:
            raise ValueError(f"grid {self.grid} has fewer voxels than n_components {self.n_components}")
        if self.informative_components > self.n_components:
            raise ValueError(f"informative_components {self.informative_components} > n_components")

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.grid
        return nx * ny * nz

    def scaled_counts(self) -> tuple[tuple[str, int], ...]:
        # a count that rounds to 0 under count_scale keeps one subject
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


def _blob_rows(grid, centers, radii) -> np.ndarray:
    """Gaussian blobs on the voxel grid, one row per center and radius.

    The squared distance to a center is summed per axis, x then y then z,
    from the grid's separable coordinates, which gives the bits of summing
    each voxel's three coordinate offsets in turn.
    """
    centers = np.atleast_2d(centers)
    radii = np.atleast_1d(radii)
    dx, dy, dz = (
        (np.arange(n, dtype=np.float64) - centers[:, [a]]) ** 2 for a, n in enumerate(grid)
    )
    d2 = dx[:, :, None, None] + dy[:, None, :, None] + dz[:, None, None, :]
    d2 = d2.reshape(len(radii), -1)
    d2 /= -(2.0 * radii * radii)[:, None]
    return np.exp(d2, out=d2)


def _blob_bounds(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of a blob's uniform draw: center x, y, z, radius.

    Centers keep one voxel clear of the grid's faces.
    """
    # volume fraction per blob capped so the pairwise |corr| < 0.5 constraint
    # stays satisfiable up to ~105 components on the default grid
    frac = min(0.055, 0.75 / cfg.n_components)
    r = (frac * cfg.n_voxels / 14.0) ** (1.0 / 3.0)
    low = np.array([1.0, 1.0, 1.0, 0.8 * r])
    high = np.append(np.asarray(cfg.grid, dtype=np.float64) - 2.0, 1.2 * r)
    return low, high


PLACEMENT_ATTEMPTS = 200  # per component, before generate_template gives up
_ATTEMPT_BATCH = 32


def generate_template(cfg: SynthConfig) -> tuple[Template, dict]:
    """K Gaussian-blob components with pairwise |corr| < 0.5.

    Components are placed in order: an attempt draws a center and a radius
    (4 uniform doubles whatever its outcome) and is accepted when its
    z-scored blob correlates below 0.5 in magnitude with every row placed
    so far; a component that fails PLACEMENT_ATTEMPTS attempts raises
    RuntimeError. Attempts are drawn and tested in batches, the
    correlations of a batch's untried attempts being updated as each row
    is placed, so the template is the one the attempt-by-attempt loop
    gives.

    Domains are assigned round-robin over components ranked by blob
    location; a coarse radius rank stands in for the model-order tag.
    Returns the template plus blob metadata (centers, radii).
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "template"))
    low, high = _blob_bounds(cfg)
    n, v = cfg.n_components, cfg.n_voxels

    rows = np.zeros((n, v))
    draws = np.zeros((n, 4))  # center and radius of each placed row
    placed, tried = 0, 0  # tried: failed attempts of the component being placed
    while placed < n:
        batch = rng.uniform(low, high, size=(_ATTEMPT_BATCH, 4))
        blobs = _blob_rows(cfg.grid, batch[:, :3], batch[:, 3])
        sd = blobs.std(axis=1)
        usable = sd > 0
        blobs -= blobs.mean(axis=1, keepdims=True)
        np.divide(blobs, sd[:, None], out=blobs, where=usable[:, None])
        worst = np.abs(blobs @ rows[:placed].T).max(axis=1, initial=0.0) / v
        i = 0
        while i < _ATTEMPT_BATCH and placed < n:
            hits = np.flatnonzero(usable[i:] & (worst[i:] < 0.5))
            if not hits.size or tried + hits[0] >= PLACEMENT_ATTEMPTS:
                tried += _ATTEMPT_BATCH - i
                if tried >= PLACEMENT_ATTEMPTS:
                    raise RuntimeError(
                        f"could not place component {placed} under the overlap constraint"
                    )
                break
            j = i + hits[0]
            rows[placed], draws[placed] = blobs[j], batch[j]
            placed, tried, i = placed + 1, 0, j + 1
            later = np.abs(blobs[i:] @ blobs[j]) / v
            np.maximum(worst[i:], later, out=worst[i:])
    centers, radii = draws[:, :3], draws[:, 3]

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
    low, high = _blob_bounds(cfg)
    for ci, (cls, _) in enumerate(counts):
        prng = np.random.default_rng(derive_seed(cfg.seed, "class-pattern", ci))
        patterns = np.zeros((len(informative), v))
        for p in range(len(informative)):
            draw = prng.uniform(low, high)
            blob = _blob_rows(cfg.grid, draw[:3], draw[3])[0]
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
        maps[comp] += strength * patterns[p]
    noise = srng.standard_normal((cfg.n_components, cfg.n_voxels))
    noise *= cfg.map_noise
    maps += noise
    del noise  # not held while the bold is made
    maps -= maps.mean(axis=1, keepdims=True)
    maps /= maps.std(axis=1, keepdims=True)
    tc = srng.standard_normal((cfg.timepoints, cfg.n_components)) @ plan.class_chol[cls].T
    bold = tc @ maps
    # the bold noise, drawn one timepoint at a time onto the signal; the
    # draws are those of one (T, V) draw, and signal + noise adds as noise + signal
    row_noise = np.empty(cfg.n_voxels)
    for row in bold:
        row += np.multiply(srng.standard_normal(out=row_noise), cfg.noise_sigma, out=row_noise)
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
