import numpy as np
import pytest

from netresp import scica
from netresp.datamodel import NonFiniteValueError, Template
from netresp.scica import (
    DAMPING,
    RankError,
    ScicaConfig,
    ZeroVarianceVoxelError,
    _reference_projection,
    constrained_unit_update,
    extract_subject,
    preprocess_subject,
)
from netresp.synth import SynthConfig, generate_template
from oracles import per_unit_extract, unit_update_1d


def _small_template(seed=0, k=6, grid=(8, 8, 8)):
    cfg = SynthConfig(grid=grid, n_components=k, n_domains=3, seed=seed)
    template, _ = generate_template(cfg)
    return template


class TestPreprocess:
    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(0)
        bold = rng.standard_normal((20, 300))
        wd = preprocess_subject(bold, pca_retained=12)
        v = wd.whitened.shape[1]
        cov = wd.whitened @ wd.whitened.T / v
        np.testing.assert_allclose(cov, np.eye(12), atol=1e-8)

    def test_rows_zero_mean(self):
        rng = np.random.default_rng(1)
        bold = rng.standard_normal((15, 200)) + 3.0
        wd = preprocess_subject(bold, pca_retained=10)
        assert np.abs(wd.whitened.mean(axis=1)).max() < 1e-10

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        rng = np.random.default_rng(2)
        bold = rng.standard_normal((50, 500))
        r = 20
        wd = preprocess_subject(bold, pca_retained=r)
        # oracle: eigendecompose the normalized, centered data covariance
        mu, sd = bold.mean(0), bold.std(0)
        xz = (bold - mu) / sd
        xc = xz - xz.mean(1, keepdims=True)
        evals = np.linalg.eigvalsh(xc @ xc.T / 500)[::-1]
        residual = xc - wd.mixing_back @ wd.whitened
        error = (residual**2).sum() / 500
        np.testing.assert_allclose(error, evals[r:].sum(), atol=1e-10)

    def test_zero_variance_voxel_reported_with_index(self):
        rng = np.random.default_rng(3)
        bold = rng.standard_normal((10, 50))
        bold[:, 17] = 4.2
        with pytest.raises(ZeroVarianceVoxelError, match="17"):
            preprocess_subject(bold)

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(4)
        low_rank = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 80))
        low_rank += 1e-14 * rng.standard_normal((12, 80))
        with pytest.raises(RankError):
            preprocess_subject(low_rank, pca_retained=10)

    def test_pca_retained_bounds(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="pca_retained"):
            preprocess_subject(rng.standard_normal((10, 50)), pca_retained=10)


def _whitened_with_sources(seed=0, k=5, v=2000, t=40):
    """Whitened data from sparse non-Gaussian sources, plus the sources."""
    rng = np.random.default_rng(seed)
    sources = rng.standard_normal((k, v)) ** 3  # heavy-tailed
    sources = (sources - sources.mean(1, keepdims=True)) / sources.std(1, keepdims=True)
    mixing = rng.standard_normal((t, k))
    bold = mixing @ sources
    wd = preprocess_subject(bold, pca_retained=k)
    return wd, sources


class TestConstrainedUnitUpdate:
    def test_zero_weight_equals_pure_fixed_point_step(self):
        wd, _ = _whitened_with_sources(seed=1)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        b = rng.standard_normal(5) * 0.1
        cfg = ScicaConfig(constraint_weight=0.0)
        got = constrained_unit_update(w, wd.whitened, b, cfg)
        # reference formula, computed inline
        v = wd.whitened.shape[1]
        y = w @ wd.whitened
        gy = np.tanh(y)
        w_fp = wd.whitened @ gy / v - np.mean(1.0 - gy * gy) * w
        if w_fp @ w < 0:
            w_fp = -w_fp
        expected = w + DAMPING * (w_fp / np.linalg.norm(w_fp) - w)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_aligned_fixed_point_is_stationary(self):
        wd, _ = _whitened_with_sources(seed=3)
        cfg = ScicaConfig(constraint_weight=0.0, tol=1e-10, max_iters=2000)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        b = np.zeros(5)
        for _ in range(cfg.max_iters):
            w_new = constrained_unit_update(w, wd.whitened, b, cfg)
            if abs(w_new @ w) > 1 - cfg.tol:
                w = w_new
                break
            w = w_new
        # now fully aligned reference: constraint term must vanish
        aligned = ScicaConfig(constraint_weight=1.0, tol=1e-10)
        w_next = constrained_unit_update(w, wd.whitened, 0.8 * w, aligned)
        assert abs(w_next @ w) > 1 - 1e-6

    def test_large_weight_pulls_toward_reference(self):
        wd, _ = _whitened_with_sources(seed=5)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(5)
        b /= 2 * np.linalg.norm(b)  # |b| = 0.5
        w = rng.standard_normal(5)
        w -= (w @ b) * b / (b @ b)  # orthogonal to the reference
        w /= np.linalg.norm(w)
        assert abs(w @ b) < 1e-12
        cfg = ScicaConfig(constraint_weight=25.0)
        w_next = constrained_unit_update(w, wd.whitened, b, cfg)
        # numeric check against the direct correlation gradient: moving from
        # w along grad rho = b - <w,b> w must increase <., b>
        grad = b - (w @ b) * w
        eps = 1e-6
        num_grad = []
        for i in range(5):
            wp = w.copy()
            wp[i] += eps
            wp /= np.linalg.norm(wp)
            wm = w.copy()
            wm[i] -= eps
            wm /= np.linalg.norm(wm)
            num_grad.append((wp @ b - wm @ b) / (2 * eps))
        np.testing.assert_allclose(num_grad, grad, atol=1e-5)
        assert w_next @ b > w @ b + 0.1

    def test_degenerate_update_returns_previous(self):
        whitened = np.zeros((3, 100))
        w = np.array([1.0, 0.0, 0.0])
        cfg = ScicaConfig(constraint_weight=0.0)
        out = constrained_unit_update(w, whitened, np.zeros(3), cfg)
        np.testing.assert_array_equal(out, w)


class TestStackedUnitUpdate:
    def test_stack_equals_row_by_row_calls(self):
        wd, _ = _whitened_with_sources(seed=26)
        rng = np.random.default_rng(27)
        w = rng.standard_normal((40, 5))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        b = 0.3 * rng.standard_normal((40, 5))
        # a zero weight with no reference has a zero-length update (falls
        # back to the weight); with a reference it has no fixed-point term
        w[-2:] = 0.0
        b[-1] = 0.0
        cfg = ScicaConfig()
        x = wd.whitened
        y = w[:-2] @ x
        fp = np.tanh(y) @ x.T / x.shape[1] - np.mean(1 - np.tanh(y) ** 2, axis=1)[:, None] * w[:-2]
        flips = np.einsum("ij,ij->i", fp, w[:-2]) < 0
        assert 0 < flips.sum() < flips.size  # both sign branches are taken
        stacked = constrained_unit_update(w, x, b, cfg)
        assert stacked.shape == w.shape
        for i in range(w.shape[0]):
            np.testing.assert_allclose(
                stacked[i], constrained_unit_update(w[i], x, b[i], cfg), rtol=0, atol=1e-13
            )
            np.testing.assert_allclose(
                stacked[i], unit_update_1d(w[i], x, b[i], cfg), rtol=0, atol=1e-13
            )
        np.testing.assert_array_equal(stacked[-1], 0.0)
        np.testing.assert_allclose(stacked[-2], b[-2] / np.linalg.norm(b[-2]), rtol=0, atol=1e-15)


def _template_and_bold(seed, k=6, t=40, noise=0.4):
    template = _small_template(seed=seed, k=k)
    rng = np.random.default_rng(seed + 1)
    tc = rng.standard_normal((t, k))
    bold = tc @ template.maps + noise * rng.standard_normal((t, template.n_voxels))
    return template, bold


class TestBatchedExtraction:
    @pytest.mark.parametrize("max_iters", [500, 1])
    def test_matches_per_unit_oracle(self, max_iters):
        template, bold = _template_and_bold(seed=30)
        # a reference proportional to the voxel stds has no energy in the
        # whitened subspace, so its unit starts from a random draw
        maps = template.maps.copy()
        maps[3] = bold.std(axis=0)
        template = Template(maps, template.component_ids, template.domains)
        cfg = ScicaConfig(max_iters=max_iters)
        got = extract_subject(bold, template, cfg, seed=31)
        ref_maps, ref_tc, ref_converged = per_unit_extract(bold, template, cfg, seed=31)
        np.testing.assert_allclose(got.spatial_maps, ref_maps, rtol=0, atol=1e-12)
        # time courses solve a least-squares problem whose scale follows the
        # maps' conditioning, so they are compared relative to their largest
        scale = max(1.0, np.abs(ref_tc).max())
        np.testing.assert_allclose(got.time_courses, ref_tc, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(got.converged, ref_converged)
        if max_iters == 1:
            assert not got.converged.any()
        else:
            assert got.converged.all()

    def test_one_stacked_update_per_round(self, monkeypatch):
        template, bold = _template_and_bold(seed=32)
        calls = []
        original = scica.constrained_unit_update

        def counted(w, *args):
            calls.append(w.shape[0])
            return original(w, *args)

        monkeypatch.setattr(scica, "constrained_unit_update", counted)
        extract_subject(bold, template, ScicaConfig(), seed=0)
        assert calls[0] == template.n_components
        assert calls == sorted(calls, reverse=True)  # units only ever leave
        calls.clear()
        extract_subject(bold, template, ScicaConfig(max_iters=1), seed=0)
        assert calls == [template.n_components]

    def test_subset_of_template_rows_gives_same_rows(self):
        template, bold = _template_and_bold(seed=33)
        cfg = ScicaConfig(pca_retained=8)
        full = extract_subject(bold, template, cfg, seed=0)
        rows = [4, 1, 3]
        sub = Template(
            template.maps[rows],
            [template.component_ids[i] for i in rows],
            [template.domains[i] for i in rows],
        )
        part = extract_subject(bold, sub, cfg, seed=0)
        np.testing.assert_allclose(part.spatial_maps, full.spatial_maps[rows], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(part.converged, full.converged[rows])


def _collinear_maps(eps, seed=0, k=6, v=600, t=40):
    """z-scored maps whose rows 1 and 4 differ by `eps`-scaled noise, and a
    normalized bold they explain."""
    rng = np.random.default_rng(seed)
    maps = rng.standard_normal((k, v))
    maps[4] = maps[1] + eps * rng.standard_normal(v)
    maps -= maps.mean(axis=1, keepdims=True)
    maps /= maps.std(axis=1, keepdims=True)
    xz = rng.standard_normal((t, k)) @ maps + 0.5 * rng.standard_normal((t, v))
    return maps, xz


class TestTimeCourses:
    """The Gram solve and the cases it leaves to np.linalg.lstsq."""

    @staticmethod
    def _lstsq(maps, xz):
        return np.linalg.lstsq(maps.T, xz.T, rcond=None)[0].T

    @staticmethod
    def _no_lstsq(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("lstsq called on a well-conditioned Gram")

        monkeypatch.setattr(scica.np.linalg, "lstsq", refused)

    @pytest.mark.parametrize(
        "eps, seed, solves", [(1.0, 0, 1)] + [(1.5e-4, seed, 2) for seed in range(4)]
    )
    def test_gram_solve_matches_lstsq(self, eps, seed, solves, monkeypatch):
        # near-collinear maps (cond >= 1e4) take the correction step, well
        # conditioned ones do not; both stay within 1e-11 of lstsq
        maps, xz = _collinear_maps(eps, seed)
        cond = np.linalg.cond(maps)
        assert cond < scica.GRAM_MAX_COND
        assert cond >= 1e4 if solves == 2 else cond <= scica.GRAM_REFINE_COND
        expected = self._lstsq(maps, xz)
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        self._no_lstsq(monkeypatch)
        monkeypatch.setattr(scica.np.linalg, "solve", counted)
        got = scica._time_courses(maps, xz, full_rank=True)
        assert len(calls) == solves
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_ill_conditioned_maps_use_lstsq(self):
        maps, xz = _collinear_maps(1e-7)
        assert np.linalg.cond(maps) > 10 * scica.GRAM_MAX_COND
        got = scica._time_courses(maps, xz, full_rank=True)
        assert got.tobytes() == self._lstsq(maps, xz).tobytes()

    def test_singular_gram_uses_lstsq(self):
        maps, xz = _collinear_maps(0.0)  # rows 1 and 4 equal
        got = scica._time_courses(maps, xz, full_rank=True)
        assert got.tobytes() == self._lstsq(maps, xz).tobytes()

    def test_rank_deficient_extraction_uses_lstsq(self):
        template, bold = _template_and_bold(seed=34, k=4)
        feats = extract_subject(bold, template, ScicaConfig(pca_retained=2), seed=0)
        xz = (bold - bold.mean(axis=0)) / bold.std(axis=0)
        expected = self._lstsq(feats.spatial_maps, xz)
        assert feats.time_courses.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_full_rank_extraction_solves_on_the_gram(self, monkeypatch):
        template, bold = _template_and_bold(seed=35)
        self._no_lstsq(monkeypatch)
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        assert feats.time_courses.shape == (bold.shape[0], template.n_components)


class TestExtractSubject:
    def test_planted_sources_recovered(self):
        template = _small_template(seed=7)
        rng = np.random.default_rng(8)
        t = 60
        tc = rng.standard_normal((t, template.n_components))
        bold = tc @ template.maps + 0.3 * rng.standard_normal((t, template.n_voxels))
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        for k in range(template.n_components):
            r = abs(np.corrcoef(feats.spatial_maps[k], template.maps[k])[0, 1])
            assert r >= 0.9, f"component {k}: {r}"

    def test_noiseless_orthogonal_mixing(self):
        template = _small_template(seed=9)
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((40, template.n_components)))
        bold = q @ template.maps
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        for k in range(template.n_components):
            r = abs(np.corrcoef(feats.spatial_maps[k], template.maps[k])[0, 1])
            assert r >= 0.99, f"component {k}: {r}"

    def test_sign_alignment_survives_negated_source(self):
        template = _small_template(seed=11)
        rng = np.random.default_rng(12)
        flipped = template.maps.copy()
        flipped[2] = -flipped[2]  # plant the negated source
        tc = rng.standard_normal((50, template.n_components))
        bold = tc @ flipped + 0.1 * rng.standard_normal((50, template.n_voxels))
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        ref = template.maps[2] - template.maps[2].mean()
        assert feats.spatial_maps[2] @ ref >= 0

    def test_all_rows_sign_aligned_to_template(self):
        template = _small_template(seed=13)
        rng = np.random.default_rng(14)
        bold = rng.standard_normal((30, template.n_voxels))
        feats = extract_subject(bold, template, ScicaConfig(max_iters=50), seed=1)
        for k in range(template.n_components):
            ref = template.maps[k] - template.maps[k].mean()
            assert feats.spatial_maps[k] @ ref >= 0

    def test_rows_zero_mean_unit_variance(self):
        template = _small_template(seed=15)
        rng = np.random.default_rng(16)
        tc = rng.standard_normal((40, template.n_components))
        bold = tc @ template.maps + 0.5 * rng.standard_normal((40, template.n_voxels))
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        assert np.abs(feats.spatial_maps.mean(axis=1)).max() < 1e-10
        np.testing.assert_allclose(feats.spatial_maps.std(axis=1), 1.0, atol=1e-10)

    def test_deterministic_bit_identical(self):
        template = _small_template(seed=17)
        rng = np.random.default_rng(18)
        tc = rng.standard_normal((40, template.n_components))
        bold = tc @ template.maps + 0.5 * rng.standard_normal((40, template.n_voxels))
        a = extract_subject(bold, template, ScicaConfig(), seed=123)
        b = extract_subject(bold, template, ScicaConfig(), seed=123)
        assert np.array_equal(a.spatial_maps, b.spatial_maps)
        assert np.array_equal(a.time_courses, b.time_courses)
        assert np.array_equal(a.converged, b.converged)

    def test_time_courses_regress_bold_onto_maps(self):
        template = _small_template(seed=19)
        rng = np.random.default_rng(20)
        tc = rng.standard_normal((40, template.n_components))
        bold = tc @ template.maps + 0.2 * rng.standard_normal((40, template.n_voxels))
        feats = extract_subject(bold, template, ScicaConfig(), seed=0)
        # oracle: normal equations on the normalized bold
        xz = (bold - bold.mean(0)) / bold.std(0)
        sm = feats.spatial_maps
        expected = np.linalg.solve(sm @ sm.T, sm @ xz.T).T
        np.testing.assert_allclose(feats.time_courses, expected, atol=1e-8)

    def test_voxel_mismatch_rejected(self):
        template = _small_template(seed=21)
        with pytest.raises(ValueError, match="voxels"):
            extract_subject(np.random.default_rng(0).standard_normal((10, 99)), template, ScicaConfig())

    def test_reference_projection_encodes_correlation(self):
        wd, sources = _whitened_with_sources(seed=24)
        ref = sources[2]
        b = _reference_projection(wd.whitened, ref[None])[0]
        rng = np.random.default_rng(25)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        y = w @ wd.whitened
        r = np.corrcoef(y, ref)[0, 1]
        assert abs(r - w @ b) < 1e-8


class TestCallerArrays:
    """Both calls z-score a copy of the bold unless the caller hands it over."""

    @staticmethod
    def _subject(seed=26):
        template = _small_template(seed=seed)
        rng = np.random.default_rng(seed + 1)
        tc = rng.standard_normal((40, template.n_components))
        bold = tc @ template.maps + 0.5 * rng.standard_normal((40, template.n_voxels))
        return template, bold

    def test_caller_array_untouched_by_default(self):
        template, bold = self._subject()
        kept = bold.tobytes()
        assert bold.flags.writeable
        wd = preprocess_subject(bold, pca_retained=5)
        assert not np.shares_memory(wd.normalized, bold)
        extract_subject(bold, template, ScicaConfig(), seed=0)
        assert bold.tobytes() == kept

    def test_handed_over_bold_z_scored_in_place_to_the_same_bits(self):
        template, bold = self._subject(seed=28)
        handed = bold.copy()
        wd = preprocess_subject(handed, pca_retained=5, copy=False)
        assert wd.normalized is handed
        copied = preprocess_subject(bold, pca_retained=5)
        for name in ("whitened", "mixing_back", "voxel_means", "voxel_stds", "normalized"):
            assert getattr(wd, name).tobytes() == getattr(copied, name).tobytes(), name
        a = extract_subject(bold, template, ScicaConfig(), seed=4)
        b = extract_subject(bold.copy(), template, ScicaConfig(), seed=4, copy=False)
        assert a.spatial_maps.tobytes() == b.spatial_maps.tobytes()
        assert a.time_courses.tobytes() == b.time_courses.tobytes()

    def test_read_only_bold_handed_over_is_copied(self):
        template, bold = self._subject(seed=30)
        kept = bold.tobytes()
        bold.setflags(write=False)
        extract_subject(bold, template, ScicaConfig(), seed=0, copy=False)
        assert bold.tobytes() == kept

    def test_voxel_statistics_are_the_bits_of_mean_and_std(self):
        # the stds come from the centred values, not a second pass over the bold
        _, bold = self._subject(seed=32)
        bold *= np.random.default_rng(33).uniform(1e-3, 1e3, bold.shape[1])
        wd = preprocess_subject(bold)
        mu, sd = bold.mean(axis=0), bold.std(axis=0)
        assert wd.voxel_means.tobytes() == mu.tobytes()
        assert wd.voxel_stds.tobytes() == sd.tobytes()
        assert wd.normalized.tobytes() == ((bold - mu) / sd).tobytes()

    @pytest.mark.parametrize("copy", [True, False])
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_non_finite_bold_rejected(self, copy, bad):
        template, bold = self._subject(seed=34)
        bold[3 : 3 + len(bad), 7] = bad
        with pytest.raises(NonFiniteValueError, match="NaN or infinite"):
            preprocess_subject(bold.copy(), copy=copy)
        with pytest.raises(NonFiniteValueError, match="NaN or infinite"):
            extract_subject(bold, template, ScicaConfig(), copy=copy)
