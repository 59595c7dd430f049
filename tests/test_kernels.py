import tracemalloc

import numpy as np
import pytest

from netresp.datamodel import SubjectFeatures
from netresp.fnc import compute_fnc, fisher_z
from netresp.kernels import (
    KernelMatrix,
    PabsKernelParams,
    RankDeficiencyError,
    apply_spectrum_fix,
    build_kernel_matrix,
    subspace_factors,
)
from oracles import fnc_kernel, orthonormalize, pabs_sum_via_gram, pairwise_kernel_matrix


def _basis(rows, v, seed):
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((rows, v)))


class TestOrthonormalize:
    def test_orthonormal_input_spans_same_subspace(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        basis = orthonormalize(q.T)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
        # identical subspace: all principal angles zero
        s = np.linalg.svd(basis.T @ q, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(4), atol=1e-10)

    def test_scaling_rows_leaves_span(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((3, 40))
        a = orthonormalize(rows)
        b = orthonormalize(7.0 * rows)
        s = np.linalg.svd(a.T @ b, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(3), atol=1e-10)

    def test_projection_reproduces_rows(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((7, 500))
        basis = orthonormalize(rows)
        projected = (basis @ (basis.T @ rows.T)).T
        np.testing.assert_allclose(projected, rows, atol=1e-10)

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((3, 20))
        rows[2] = rows[0] + rows[1]
        with pytest.raises(RankDeficiencyError):
            orthonormalize(rows)


def _subject(maps, fnc=None):
    maps = np.asarray(maps, dtype=np.float64)
    return SubjectFeatures(
        spatial_maps=maps, time_courses=np.zeros((1, maps.shape[0])), fnc=fnc
    )


def _pair_kernel(maps_a, maps_b, params):
    """K[0, 1] of a two-subject raw kernel; every component selected."""
    feats = [_subject(maps_a), _subject(maps_b)]
    selected = range(feats[0].n_components)
    return build_kernel_matrix(feats, selected, params).values[0, 1]


def _pabs_sum(maps_a, maps_b):
    """Principal-angle cosine sum of two subjects, read off the built kernel.

    At gamma = 1e-3 tanh is linear to rounding, so arctanh(K) / gamma
    returns the sum to a few ulps.
    """
    gamma = 1e-3
    k = _pair_kernel(maps_a, maps_b, PabsKernelParams(gamma=gamma))
    return float(np.arctanh(k) / gamma)


def _fnc_subjects(*zvecs):
    """Subjects whose Fisher-z FNC upper triangles are the given vectors."""
    out = []
    rng = np.random.default_rng(13)
    for z in zvecs:
        z = np.asarray(z, dtype=np.float64)
        k = int(round((1 + np.sqrt(1 + 8 * z.size)) / 2))
        fnc = np.eye(k)
        iu, ju = np.triu_indices(k, k=1)
        fnc[iu, ju] = fnc[ju, iu] = np.tanh(z)
        out.append(_subject(rng.standard_normal((k, 30)), fnc=fnc))
    return out


def _fnc_pair_kernel(za, zb, fnc_gamma=1.0):
    """K[0, 1] of the FNC kernel alone (combine_weight 0) for two subjects."""
    feats = _fnc_subjects(za, zb)
    params = PabsKernelParams(fnc_gamma=fnc_gamma, combine_weight=0.0)
    selected = range(feats[0].n_components)
    return build_kernel_matrix(feats, selected, params, use_fnc=True).values[0, 1]


class TestPabsSimilarity:
    def test_self_similarity_is_dimension(self):
        basis = _basis(7, 100, 0)
        assert abs(_pabs_sum(basis.T, basis.T) - 7.0) < 1e-12

    def test_orthogonal_subspaces(self):
        e1 = np.eye(3)[:, :1]
        e2 = np.eye(3)[:, 1:2]
        assert abs(_pabs_sum(e1.T, e2.T)) < 1e-12

    def test_half_aligned_pair(self):
        a = np.eye(3)[:, :2]
        b = np.column_stack([np.eye(3)[:, 0], (np.eye(3)[:, 1] + np.eye(3)[:, 2]) / np.sqrt(2)])
        s = _pabs_sum(a.T, b.T)
        assert abs(s - (1.0 + 1.0 / np.sqrt(2))) < 1e-12
        assert abs(s - pabs_sum_via_gram(a, b)) < 1e-10

    def test_matches_gram_oracle_on_random_pairs(self):
        for seed in range(10):
            a = _basis(5, 80, 2 * seed)
            b = _basis(5, 80, 2 * seed + 1)
            assert abs(_pabs_sum(a.T, b.T) - pabs_sum_via_gram(a, b)) < 1e-10

    def test_range(self):
        a = _basis(4, 60, 11)
        b = _basis(4, 60, 12)
        s = _pabs_sum(a.T, b.T)
        assert 0.0 <= s <= 4.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="s0001: spatial map shape mismatch"):
            _pabs_sum(_basis(3, 30, 0).T, _basis(2, 30, 1).T)


class TestPabsKernel:
    def test_orthogonal_gives_zero(self):
        e1 = np.eye(3)[:, :1]
        e2 = np.eye(3)[:, 1:2]
        assert _pair_kernel(e1.T, e2.T, PabsKernelParams()) == 0.0

    def test_identical_seven_dim_basis(self):
        basis = _basis(7, 200, 4)
        k = _pair_kernel(basis.T, basis.T, PabsKernelParams(gamma=1.0))
        assert abs(k - np.tanh(7.0)) < 1e-12
        assert abs(k - 0.9999983369439447) < 1e-9

    def test_composed_value(self):
        a = np.eye(3)[:, :2]
        b = np.column_stack([np.eye(3)[:, 0], (np.eye(3)[:, 1] + np.eye(3)[:, 2]) / np.sqrt(2)])
        k = _pair_kernel(a.T, b.T, PabsKernelParams(gamma=1.0))
        assert abs(k - np.tanh(pabs_sum_via_gram(a, b))) < 1e-12
        assert abs(k - 0.936291606665037) < 1e-9

    def test_strictly_increasing_in_gamma(self):
        a = _basis(3, 50, 5)
        b = _basis(3, 50, 6)
        ks = [
            _pair_kernel(a.T, b.T, PabsKernelParams(gamma=g))
            for g in (0.5, 1.0, 2.0)
        ]
        assert ks[0] < ks[1] < ks[2]


class TestFncKernel:
    def test_self_is_tanh_gamma(self):
        v = np.array([0.4, -0.2, 1.0])
        assert abs(_fnc_pair_kernel(v, v, fnc_gamma=1.3) - np.tanh(1.3)) < 1e-12

    def test_orthogonal_vectors(self):
        assert _fnc_pair_kernel([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0

    def test_arithmetic_case(self):
        k = _fnc_pair_kernel([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], fnc_gamma=1.0)
        assert abs(k - np.tanh(1.0 / np.sqrt(2))) < 1e-12
        assert abs(k - 0.6088593650139137) < 1e-9

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            _fnc_pair_kernel([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def _features(n, k=6, v=120, seed=0, with_fnc=False):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        sm = rng.standard_normal((k, v))
        tc = rng.standard_normal((40, k))
        fnc = compute_fnc(tc) if with_fnc else None
        out.append(SubjectFeatures(spatial_maps=sm, time_courses=tc, fnc=fnc))
    return out


class TestBuildKernelMatrix:
    def test_single_subject_diagonal(self):
        feats = _features(1, k=6)
        params = PabsKernelParams()
        km = build_kernel_matrix(feats, [0, 2, 4], params)
        assert km.values.shape == (1, 1)
        assert abs(km.values[0, 0] - np.tanh(3.0)) < 1e-12

    def test_cloned_subject_rows_match(self):
        feats = _features(3, seed=1)
        feats.append(feats[1])
        params = PabsKernelParams()
        km = build_kernel_matrix(feats, [0, 1, 2], params).values
        np.testing.assert_allclose(km[1], km[3], atol=1e-12)
        assert abs(km[1, 3] - km[1, 1]) < 1e-12

    def test_matches_pairwise_brute_force(self):
        feats = _features(5, seed=2)
        selected = [1, 3, 5]
        params = PabsKernelParams()
        km = build_kernel_matrix(feats, selected, params).values
        bases = [orthonormalize(f.spatial_maps[selected, :]) for f in feats]
        for i in range(5):
            for j in range(5):
                expected = np.tanh(pabs_sum_via_gram(bases[i], bases[j]))
                assert abs(km[i, j] - expected) < 1e-12

    def test_exact_symmetry(self):
        feats = _features(6, seed=3)
        km = build_kernel_matrix(feats, [0, 1], PabsKernelParams()).values
        assert np.array_equal(km, km.T)

    def test_scale_invariance_of_subject_rows(self):
        feats = _features(4, seed=4)
        selected = [0, 2]
        params = PabsKernelParams()
        base = build_kernel_matrix(feats, selected, params).values
        scaled_maps = feats[1].spatial_maps.copy()
        scaled_maps[selected, :] *= -3.7
        feats2 = list(feats)
        feats2[1] = SubjectFeatures(
            spatial_maps=scaled_maps, time_courses=feats[1].time_courses
        )
        again = build_kernel_matrix(feats2, selected, params).values
        np.testing.assert_allclose(base, again, atol=1e-10)

    def test_entries_in_range(self):
        feats = _features(5, seed=5)
        km = build_kernel_matrix(feats, [0, 1, 2], PabsKernelParams()).values
        assert km.min() >= 0.0
        assert km.max() <= np.tanh(3.0) + 1e-12

    def test_combined_kernel_matches_manual_blend(self):
        feats = _features(4, seed=6, with_fnc=True)
        selected = [1, 2, 4]
        params = PabsKernelParams(combine_weight=0.3)
        km = build_kernel_matrix(feats, selected, params, use_fnc=True).values
        sm_only = build_kernel_matrix(feats, selected, PabsKernelParams()).values
        vecs = [fisher_z(f.fnc[np.ix_(selected, selected)]) for f in feats]
        for i in range(4):
            for j in range(4):
                fk = fnc_kernel(vecs[i], vecs[j], params)
                assert abs(km[i, j] - (0.3 * sm_only[i, j] + 0.7 * fk)) < 1e-12

    def test_single_component_with_fnc_falls_back_to_maps(self):
        feats = _features(3, seed=7, with_fnc=True)
        params = PabsKernelParams()
        with_flag = build_kernel_matrix(feats, [2], params, use_fnc=True).values
        without = build_kernel_matrix(feats, [2], params, use_fnc=False).values
        assert np.array_equal(with_flag, without)

    def test_rank_deficient_subject_named(self):
        feats = _features(3, seed=8)
        noise = np.random.default_rng(16).standard_normal(feats[2].spatial_maps.shape[1])
        # an exact copy, and a near copy with s_min / s_max about 1e-12
        for offset in (0.0, 2e-12 * noise):
            maps = feats[2].spatial_maps.copy()
            maps[1] = maps[0] + offset
            s = np.linalg.svd(maps[:2], compute_uv=False)
            assert s[1] / s[0] < 1e-11
            third = SubjectFeatures(spatial_maps=maps, time_courses=feats[2].time_courses)
            cohort = feats[:2] + [third]
            # the set's own factors, and factors over a larger component set
            for factors in (None, subspace_factors(cohort, range(6))):
                with pytest.raises(RankDeficiencyError, match="s0002"):
                    build_kernel_matrix(cohort, [0, 1], PabsKernelParams(), factors=factors)

    def test_near_collinear_maps_match_oracle(self):
        # each subject's selected maps hold a near copy (cond >= 1e4); a
        # Cholesky-whitened Gram of the maps misses the oracle by ~1e-8 here
        rng = np.random.default_rng(17)
        feats = []
        for _ in range(6):
            maps = rng.standard_normal((4, 200))
            maps[1] = maps[0] + 1e-4 * rng.standard_normal(200)
            feats.append(_subject(maps))
        selected = [0, 1, 2]
        assert min(np.linalg.cond(f.spatial_maps[selected]) for f in feats) >= 1e4
        params = PabsKernelParams(gamma=0.1)
        expected = pairwise_kernel_matrix(feats, selected, params)
        assert np.abs(build_kernel_matrix(feats, selected, params).values - expected).max() <= 1e-12

    @pytest.mark.parametrize("use_fnc", [False, True])
    def test_factors_over_larger_set_match_own_build(self, use_fnc):
        feats = _features(9, seed=18, with_fnc=True)
        factors = subspace_factors(feats, [5, 3, 1, 0, 2, 4])
        params = PabsKernelParams(gamma=0.7)
        for selected in ([4], [2, 5], [3, 0, 1]):
            sliced = build_kernel_matrix(feats, selected, params, use_fnc=use_fnc, factors=factors)
            own = build_kernel_matrix(feats, selected, params, use_fnc=use_fnc)
            assert np.abs(sliced.values - own.values).max() <= 1e-14

    def test_factors_must_cover_the_set_and_cohort(self):
        feats = _features(4, seed=19)
        factors = subspace_factors(feats, [0, 1])
        with pytest.raises(ValueError, match="cannot give components"):
            build_kernel_matrix(feats, [0, 2], PabsKernelParams(), factors=factors)
        with pytest.raises(ValueError, match="cannot give components"):
            build_kernel_matrix(feats[:3], [0, 1], PabsKernelParams(), factors=factors)

    def test_zero_norm_fnc_subject_named(self):
        feats = _features(3, seed=8, with_fnc=True)
        feats[2] = feats[2].with_fnc(np.eye(6))
        with pytest.raises(ValueError, match="s0002.*zero-norm"):
            build_kernel_matrix(feats, [0, 1, 2], PabsKernelParams(), use_fnc=True)

    @pytest.mark.parametrize("use_fnc", [False, True])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_oracle_loop(self, m, use_fnc):
        feats = _features(9, seed=14, with_fnc=True)
        selected = [5, 0, 3][:m]
        params = PabsKernelParams(gamma=0.7, fnc_gamma=1.4, combine_weight=0.4)
        km = build_kernel_matrix(feats, selected, params, use_fnc=use_fnc).values
        expected = pairwise_kernel_matrix(feats, selected, params, use_fnc=use_fnc)
        assert np.abs(km - expected).max() <= 1e-12

    def test_peak_memory_within_twice_the_stacked_bases(self):
        n, v, m = 100, 2048, 6
        feats = _features(n, k=m, v=v, seed=15, with_fnc=True)
        tracemalloc.start()
        try:
            build_kernel_matrix(feats, range(m), PabsKernelParams(), use_fnc=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * v * m * 8, f"peak {peak / 1e6:.1f} MB"

    def test_out_of_range_index(self):
        feats = _features(2, k=4)
        with pytest.raises(ValueError, match="out of range"):
            build_kernel_matrix(feats, [0, 9], PabsKernelParams())

    def test_duplicate_indices_rejected(self):
        feats = _features(2, k=4)
        with pytest.raises(ValueError, match="distinct"):
            build_kernel_matrix(feats, [1, 1], PabsKernelParams())


class TestSpectrumFix:
    def test_clip_floors_eigenvalues(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((8, 8))
        m = (m + m.T) / 2
        fixed = apply_spectrum_fix(m, PabsKernelParams(spectrum_fix="clip"))
        assert np.linalg.eigvalsh(fixed).min() >= -1e-8
        assert np.array_equal(fixed, fixed.T)

    def test_clip_is_identity_on_psd(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4))
        m = x @ x.T
        fixed = apply_spectrum_fix(m, PabsKernelParams(spectrum_fix="clip"))
        np.testing.assert_allclose(fixed, m, atol=1e-10)

    def test_ridge_adds_lambda(self):
        m = np.eye(3)
        fixed = apply_spectrum_fix(m, PabsKernelParams(spectrum_fix="ridge", ridge_lambda=0.5))
        np.testing.assert_allclose(fixed, 1.5 * np.eye(3))

    def test_none_passes_through(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 4))
        m = (m + m.T) / 2
        assert np.array_equal(apply_spectrum_fix(m, PabsKernelParams(spectrum_fix="none")), m)


class TestKernelMatrixType:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            KernelMatrix(values=np.array([[1.0, 0.5], [0.2, 1.0]]), subject_ids=("a", "b"))

    def test_rejects_id_mismatch(self):
        with pytest.raises(ValueError, match="subject_ids"):
            KernelMatrix(values=np.eye(2), subject_ids=("a",))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PabsKernelParams(gamma=0.0)
        with pytest.raises(ValueError):
            PabsKernelParams(combine_weight=1.5)
        with pytest.raises(ValueError):
            PabsKernelParams(spectrum_fix="magic")
