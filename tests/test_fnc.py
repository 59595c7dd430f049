import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netresp.fnc import ZeroVarianceError, compute_fnc, detrend, fisher_z, pearson_corr
from oracles import naive_detrend_column, naive_fnc, naive_pearson


class TestDetrend:
    def test_pure_line_maps_to_zero(self):
        col = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert np.abs(detrend(col)).max() < 1e-12

    def test_idempotent_on_detrended(self):
        rng = np.random.default_rng(0)
        tc = rng.standard_normal((40, 3))
        once = detrend(tc)
        assert np.abs(detrend(once) - once).max() < 1e-12

    def test_line_plus_sinusoid(self):
        t = np.arange(48, dtype=float)
        sinusoid = np.sin(2 * np.pi * t / 12)
        col = 0.7 * t + 3.0 + sinusoid
        expected = naive_detrend_column(sinusoid)  # sinusoid minus its own fit
        out = detrend(col[:, None])[:, 0]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(3)
        tc = rng.standard_normal((30, 4)) + np.arange(30)[:, None] * rng.standard_normal(4)
        out = detrend(tc)
        for j in range(4):
            np.testing.assert_allclose(out[:, j], naive_detrend_column(tc[:, j]), atol=1e-10)

    def test_output_zero_mean(self):
        rng = np.random.default_rng(1)
        out = detrend(rng.standard_normal((25, 5)) + 10.0)
        assert np.abs(out.mean(axis=0)).max() < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="3 timepoints"):
            detrend(np.ones((2, 1)))


class TestPearson:
    def test_self_correlation(self):
        x = np.array([0.3, -1.2, 2.2, 0.9])
        assert pearson_corr(x, x) == 1.0

    def test_negation(self):
        x = np.array([0.3, -1.2, 2.2, 0.9])
        assert pearson_corr(x, -x) == -1.0

    def test_hand_computed_value(self):
        # r = 9 / sqrt(84)
        r = pearson_corr([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert abs(r - 0.9819805060619657) < 1e-12
        assert abs(r - naive_pearson([1, 2, 3], [1, 2, 4])) < 1e-14

    def test_zero_variance_errors(self):
        with pytest.raises(ZeroVarianceError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_result_clipped_to_unit_interval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10)
        assert -1.0 <= pearson_corr(x, 2 * x + 1e-12 * rng.standard_normal(10)) <= 1.0


class TestComputeFnc:
    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(20)
        fnc = compute_fnc(np.column_stack([col, col]))
        np.testing.assert_allclose(fnc, np.ones((2, 2)), atol=1e-12)

    def test_orthogonal_columns(self):
        # orthogonal, zero-mean, trend-free pair: orthogonalize against {1, t}
        rng = np.random.default_rng(4)
        t = np.arange(32, dtype=float)
        basis = np.column_stack([np.ones_like(t), t, rng.standard_normal((32, 2))])
        q, _ = np.linalg.qr(basis)
        fnc = compute_fnc(q[:, 2:4])
        assert abs(fnc[0, 1]) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        tc = rng.standard_normal((164, 10))
        fnc = compute_fnc(tc)
        np.testing.assert_allclose(fnc, naive_fnc(tc), atol=1e-12)

    def test_structural_invariants(self):
        rng = np.random.default_rng(6)
        fnc = compute_fnc(rng.standard_normal((50, 8)))
        assert np.array_equal(fnc, fnc.T)
        assert np.all(np.diag(fnc) == 1.0)
        assert fnc.min() >= -1.0 and fnc.max() <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
    def test_scale_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        tc = rng.standard_normal((25, k))
        scales = rng.uniform(0.1, 10.0, size=k)
        np.testing.assert_allclose(
            compute_fnc(tc), compute_fnc(tc * scales), atol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        tc = rng.standard_normal((30, 5))
        perm = rng.permutation(5)
        base = compute_fnc(tc)
        np.testing.assert_allclose(
            compute_fnc(tc[:, perm]), base[np.ix_(perm, perm)], atol=1e-12
        )

    def test_zero_variance_component_reported(self):
        tc = np.random.default_rng(0).standard_normal((20, 3))
        tc[:, 1] = 5.0
        with pytest.raises(ZeroVarianceError, match="1"):
            compute_fnc(tc)


class TestFisherZ:
    def test_zero_maps_to_zero(self):
        fnc = np.eye(3)
        assert np.abs(fisher_z(fnc)).max() == 0.0

    def test_half_maps_to_atanh(self):
        fnc = np.eye(2)
        fnc[0, 1] = fnc[1, 0] = 0.5
        z = fisher_z(fnc)
        assert abs(z[0] - 0.5493061443340549) < 1e-12

    def test_clamps_at_unity_with_warning(self):
        fnc = np.ones((2, 2))
        with pytest.warns(RuntimeWarning, match="clamping"):
            z = fisher_z(fnc)
        assert abs(z[0] - np.arctanh(1.0 - 1e-7)) < 1e-12

    def test_row_major_upper_triangle_order(self):
        k = 4
        fnc = np.eye(k)
        vals = iter([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        for i in range(k):
            for j in range(i + 1, k):
                v = next(vals)
                fnc[i, j] = fnc[j, i] = v
        z = fisher_z(fnc)
        assert z.shape == (k * (k - 1) // 2,)
        np.testing.assert_allclose(z, np.arctanh([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))

    def test_stack_equals_per_matrix_calls_with_one_warning(self):
        rng = np.random.default_rng(3)
        tcs = rng.standard_normal((3, 30, 5))
        stack = np.stack([compute_fnc(tc) for tc in tcs])
        stack[0, 1, 2] = stack[0, 2, 1] = 1.0
        stack[2, 0, 4] = stack[2, 4, 0] = -1.0
        with pytest.warns(RuntimeWarning, match="clamping 2 correlation") as record:
            z = fisher_z(stack)
        assert len(record) == 1
        assert z.shape == (3, 10)
        with pytest.warns(RuntimeWarning):
            assert np.array_equal(z[0], fisher_z(stack[0]))
        assert np.array_equal(z[1], fisher_z(stack[1]))
        with pytest.warns(RuntimeWarning):
            assert np.array_equal(z[2], fisher_z(stack[2]))
