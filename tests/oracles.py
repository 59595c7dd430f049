"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's own code paths: loops
instead of vectorization, eigendecompositions instead of SVDs, projected
gradient instead of SMO, exhaustive enumeration instead of recursions,
one ICA unit at a time instead of a batch of them. The reference helpers
and the planted-interaction cohort at the end serve tests only; no
pipeline stage calls them.
"""

from __future__ import annotations

import numpy as np

from netresp._util import derive_seed
from netresp.datamodel import SubjectFeatures, as_matrix
from netresp.fnc import ZeroVarianceError
from netresp.kernels import RCOND, RankDeficiencyError
from netresp.scica import DAMPING, preprocess_subject
from netresp.svm import decision_values
from netresp.synth import _blob_bounds


def naive_pearson(x, y) -> float:
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / (sxx * syy) ** 0.5


def naive_detrend_column(col) -> np.ndarray:
    """Remove intercept + slope via the explicit normal equations."""
    col = np.asarray(col, dtype=np.float64)
    t = np.arange(col.size, dtype=np.float64)
    design = np.column_stack([np.ones_like(t), t])
    coef = np.linalg.solve(design.T @ design, design.T @ col)
    return col - design @ coef


def naive_fnc(tc) -> np.ndarray:
    """Double-loop Pearson correlations on naively detrended columns."""
    tc = np.asarray(tc, dtype=np.float64)
    k = tc.shape[1]
    d = np.column_stack([naive_detrend_column(tc[:, j]) for j in range(k)])
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = naive_pearson(d[:, i], d[:, j])
    return out


def pabs_sum_via_gram(a, b) -> float:
    """Sum of singular values of a^T b via the eigenvalues of its Gram."""
    m = np.asarray(a).T @ np.asarray(b)
    evals = np.linalg.eigvalsh(m.T @ m)
    return float(np.sqrt(np.clip(evals, 0.0, None)).sum())


def pabs_similarity(a, b) -> float:
    """Sum of principal-angle cosines between two orthonormal bases."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"basis shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.svd(a.T @ b, compute_uv=False).sum())


def pabs_kernel(a, b, params) -> float:
    return float(np.tanh(params.gamma * pabs_similarity(a, b)))


def fnc_kernel(a, b, params) -> float:
    """tanh of the scaled cosine similarity between two FNC vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("FNC kernel undefined for a zero-norm vector")
    return float(np.tanh(params.fnc_gamma * (a @ b) / (na * nb)))


def pairwise_kernel_matrix(features, selected, params, use_fnc: bool = False) -> np.ndarray:
    """The raw (unrepaired) subject kernel, one scalar kernel per pair.

    QR bases of the selected map rows, and Fisher-z written out as arctanh
    of the selected FNC upper triangle.
    """
    selected = list(selected)
    n = len(features)
    bases = [np.linalg.qr(f.spatial_maps[selected].T)[0] for f in features]
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            values[i, j] = values[j, i] = pabs_kernel(bases[i], bases[j], params)
    if use_fnc and len(selected) >= 2:
        iu = np.triu_indices(len(selected), k=1)
        vecs = [np.arctanh(f.fnc[np.ix_(selected, selected)][iu]) for f in features]
        fvals = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                fvals[i, j] = fvals[j, i] = fnc_kernel(vecs[i], vecs[j], params)
        w = params.combine_weight
        values = w * values + (1.0 - w) * fvals
    return values


def ap_step_oracle(labels, scores) -> float:
    """Average precision recomputed from scratch at every rank."""
    labels = [int(v) for v in labels]
    scores = [float(s) for s in scores]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for rank in range(1, len(order) + 1):
        taken = order[:rank]
        tp = sum(labels[i] for i in taken)
        precision = tp / rank
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def worst_case_ap(n_pos: int, n_total: int) -> float:
    """AP of the ranking with every negative above every positive."""
    return sum(i / (n_total - n_pos + i) for i in range(1, n_pos + 1)) / n_pos


def project_box_hyperplane(a0, y, box) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= box, a . y = 0} by bisection."""
    a0 = np.asarray(a0, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lo, hi = -1e8, 1e8
    for _ in range(60):
        nu = 0.5 * (lo + hi)
        if np.clip(a0 - nu * y, 0.0, box) @ y > 0:
            lo = nu
        else:
            hi = nu
    return np.clip(a0 - 0.5 * (lo + hi) * y, 0.0, box)


def qp_dual_oracle(kernel, y, box, iters: int = 20000, stall_tol: float = 1e-13) -> np.ndarray:
    """Maximize the SVM dual by projected gradient ascent (with momentum).

    Plain projected gradient with Nesterov-style extrapolation; stops when
    the objective stalls. Small problems only; this favors transparency
    over speed.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = np.outer(y, y) * kernel
    lr = 1.0 / max(float(np.linalg.eigvalsh(q).max()), 1e-9)
    a = np.zeros(y.size)
    momentum = np.zeros_like(a)
    best = -np.inf
    stall = 0
    for it in range(iters):
        z = a + (it / (it + 3.0)) * momentum
        a_new = project_box_hyperplane(z + lr * (1.0 - q @ z), y, box)
        momentum = a_new - a
        a = a_new
        if it % 50 == 0:
            val = dual_value(a, kernel, y)
            if val <= best + stall_tol:
                stall += 1
                if stall >= 4:
                    break
            else:
                stall = 0
            best = max(best, val)
    return a


def dual_value(alphas, kernel, y) -> float:
    a = np.asarray(alphas, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ay = a * y
    return float(a.sum() - 0.5 * ay @ np.asarray(kernel) @ ay)


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def smo_serial(kernel, y, box, tol: float, max_steps: int, tau: float = 1e-12):
    """One binary problem by the one-problem SMO loop the batched solver must
    reproduce: second-order pair choice from both ends of the maximal
    violating pair, at most `max_steps` pair updates, the stopping test
    score[i] - score[j] <= 2 * tol made before each update and never after
    the last allowed one. Returns (alphas, converged, updates made)."""
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diag = np.diag(k)
    curvature = diag[:, None] + diag[None, :] - 2.0 * k
    curvature[curvature <= 0] = tau
    alphas = np.zeros(y.size)
    score = y.copy()
    for step in range(max_steps):
        up = np.where(y > 0, alphas < box, alphas > 0)
        low = np.where(y > 0, alphas > 0, alphas < box)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        if score[i] - score[j] <= 2.0 * tol:
            return alphas, True, step
        gain_j = np.where(low & (score < score[i]), (score[i] - score) ** 2 / curvature[i], -np.inf)
        gain_i = np.where(up & (score > score[j]), (score - score[j]) ** 2 / curvature[j], -np.inf)
        if gain_i.max() > gain_j.max():
            i = int(np.argmax(gain_i))
        else:
            j = int(np.argmax(gain_j))
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
    return alphas, False, max_steps


def unit_update_1d(w, whitened, b, cfg) -> np.ndarray:
    """One constrained fixed-point step for a single unit, as matrix-vector
    products (see scica.constrained_unit_update for the update rule)."""
    v = whitened.shape[1]
    gy = np.tanh(w @ whitened)
    gp_mean = float(np.mean(1.0 - gy * gy))
    w_fp = whitened @ gy / v - gp_mean * w
    if w_fp @ w < 0:
        w_fp = -w_fp
    n_fp = np.linalg.norm(w_fp)
    step = cfg.constraint_weight * (b - float(w @ b) * w)
    if n_fp > 1e-12:
        step = step + DAMPING * (w_fp / n_fp - w)
    w_next = w + step
    norm = np.linalg.norm(w_next)
    if norm < 1e-12:
        return w.copy()
    return w_next / norm


def per_unit_extract(bold, template, cfg, seed: int = 0):
    """Constrained ICA one unit at a time: each component's unit iterates
    alone until it converges or hits max_iters, then its map is
    back-projected, z-scored and sign-aligned on its own. Whitening is the
    library's; everything after it is written out here. Returns
    (spatial_maps, time_courses, converged)."""
    bold = np.asarray(bold, dtype=np.float64)
    t, v = bold.shape
    k = template.n_components
    r = cfg.pca_retained if cfg.pca_retained is not None else min(k, t - 1, v)
    wd = preprocess_subject(bold, r)
    x, sd = wd.whitened, wd.voxel_stds
    maps = np.zeros((k, v))
    converged = np.zeros(k, dtype=bool)
    rng = np.random.default_rng(derive_seed(seed, "scica-degenerate"))
    for comp in range(k):
        ref = template.maps[comp]
        rc = ref / sd - (ref / sd).mean()
        nrm = np.linalg.norm(rc)
        b = x @ rc / (np.sqrt(v) * nrm) if nrm > 0 else np.zeros(r)
        nb = np.linalg.norm(b)
        if nb > 1e-8:
            w = b / nb
        else:
            w = rng.standard_normal(r)
            w /= np.linalg.norm(w)
        for _ in range(cfg.max_iters):
            w_new = unit_update_1d(w, x, b, cfg)
            done = abs(float(w_new @ w)) > 1.0 - cfg.tol
            w = w_new
            if done:
                converged[comp] = True
                break
        m = (w @ x) * sd
        m = m - m.mean()
        if m.std() > 0:
            m = m / m.std()
        if float(m @ (ref - ref.mean())) < 0:
            m = -m
        maps[comp] = m
    xz = (bold - wd.voxel_means) / sd
    tc = np.linalg.lstsq(maps.T, xz.T, rcond=None)[0].T
    return maps, tc, converged


def cv_rows_per_cell(raw, labels, parts, kernel_params, svm_cfg, class_set):
    """The rows `cross_validate` must give, one cell and one model at a time.

    Per (fold, repeat) cell in fold-major order: the spectrum-fixed training
    block, one `solve_binary_smo` per one-vs-rest class, `decision_values`
    on the unchanged test-vs-train block, then `average_precision` per class
    and `f1_macro` of the arg-max predictions. Returns (fold, repeat, macro
    PR-AUC, macro F1, per-class APs, unconverged solves) tuples and each
    cell's (test, classes) decision values.
    """
    from netresp.evaluation import average_precision, f1_macro
    from netresp.kernels import apply_spectrum_fix
    from netresp.svm import decision_values, solve_binary_smo

    labels = np.asarray(labels)
    rows, cell_scores = [], []
    for f in range(int(max(p.max() for p in parts)) + 1):
        for rep, part in enumerate(parts):
            tr, te = np.flatnonzero(part != f), np.flatnonzero(part == f)
            k = apply_spectrum_fix(raw[np.ix_(tr, tr)], kernel_params)
            models = [
                solve_binary_smo(k, np.where(labels[tr] == c, 1.0, -1.0), svm_cfg)
                for c in class_set
            ]
            k_te = raw[np.ix_(te, tr)]
            scores = np.column_stack([decision_values(m, k_te) for m in models])
            cell_scores.append(scores)
            aps = tuple(
                average_precision((labels[te] == c).astype(float), scores[:, j])
                for j, c in enumerate(class_set)
            )
            preds = np.asarray(class_set)[np.argmax(scores, axis=1)]
            rows.append((
                f, rep, float(np.mean(aps)), f1_macro(labels[te], preds, class_set), aps,
                sum(not m.converged for m in models),
            ))
    return rows, cell_scores


def pearson_corr(x, y) -> float:
    """Sample Pearson correlation of two equal-length series."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {x.shape}, {y.shape}")
    if x.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = xc @ xc
    vy = yc @ yc
    if vx <= 0.0 or vy <= 0.0:
        raise ZeroVarianceError("correlation undefined for zero-variance input")
    r = (xc @ yc) / np.sqrt(vx * vy)
    return float(min(1.0, max(-1.0, r)))


def orthonormalize(maps_subset) -> np.ndarray:
    """Column-orthonormal V x K basis spanning the rows of a K x V map subset.

    Raises RankDeficiencyError when the rows are (numerically) dependent.
    """
    maps_subset = as_matrix(maps_subset, "map subset")
    u, s, _ = np.linalg.svd(maps_subset.T, full_matrices=False)
    if s[0] <= 0 or s[-1] <= RCOND * s[0]:
        raise RankDeficiencyError(f"map subset of {maps_subset.shape[0]} rows is rank deficient")
    return u


def template_rows_per_attempt(cfg, attempts: int = 200) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blob placement of synth.generate_template one attempt at a time.

    Each attempt draws a center (3 uniforms) and a radius (1 uniform),
    builds its blob from the full voxel coordinate list, z-scores it and
    correlates it with every placed row; the first attempt below 0.5 in
    magnitude is placed, and a component that fails `attempts` attempts
    raises RuntimeError naming it. Returns (rows, centers, radii).
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "template"))
    nx, ny, nz = cfg.grid
    xs, ys, zs = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()]).astype(np.float64)
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.asarray(cfg.grid, dtype=np.float64) - 1.0
    (*_, r_lo), (*_, r_hi) = _blob_bounds(cfg)

    rows = np.zeros((cfg.n_components, cfg.n_voxels))
    centers = np.zeros((cfg.n_components, 3))
    radii = np.zeros(cfg.n_components)
    for k in range(cfg.n_components):
        for _ in range(attempts):
            center = rng.uniform(lo + 1.0, hi - 1.0)
            radius = rng.uniform(r_lo, r_hi)
            d2 = ((coords - center) ** 2).sum(axis=1)
            row = np.exp(-d2 / (2.0 * radius * radius))
            if row.std() <= 0:
                continue
            row = (row - row.mean()) / row.std()
            if k == 0:
                break
            corr = rows[:k] @ row / cfg.n_voxels
            if np.abs(corr).max() < 0.5:
                break
        else:
            raise RuntimeError(f"could not place component {k} under the overlap constraint")
        rows[k] = row
        centers[k] = center
        radii[k] = radius
    return rows, centers, radii


def _zscore_rows(m: np.ndarray) -> np.ndarray:
    m = m - m.mean(axis=1, keepdims=True)
    return m / m.std(axis=1, keepdims=True)


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


def check_kkt(model, k_train) -> np.ndarray:
    """KKT violation of each training point of a single solved problem.

    A point with alpha below its box bound must satisfy y f(x) >= 1 - v,
    one with alpha above zero must satisfy y f(x) <= 1 + v; the result
    gives the smallest v >= 0 per point.
    """
    margins = model.y * decision_values(model, k_train)
    return np.maximum(
        np.where(model.alphas < model.box, 1.0 - margins, 0.0),
        np.where(model.alphas > 0, margins - 1.0, 0.0),
    )

