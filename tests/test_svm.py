import numpy as np
import pytest

from netresp.svm import (
    SingleClassError,
    SvmConfig,
    decision_values,
    per_sample_c,
    predict_labels,
    predict_scores,
    solve_binary_smo,
    solve_smo_arrays,
    train_multiclass,
)
from netresp.kernels import SPECTRUM_FIXES, PabsKernelParams, apply_spectrum_fix
from oracles import check_kkt, dual_value, qp_dual_oracle, smo_serial


def _random_psd_problem(seed, n_max=15):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_max + 1))
    x = rng.standard_normal((n, 4))
    kernel = x @ x.T
    y = np.sign(rng.standard_normal(n))
    if np.all(y > 0) or np.all(y < 0):
        y[0] = -y[0]
    return kernel, y


class TestBinarySmo:
    def test_two_point_analytic_solution(self):
        kernel = np.array([[1.0, -1.0], [-1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        model = solve_binary_smo(kernel, y, SvmConfig(C=10.0, smo_tol=1e-4))
        # dual optimum alpha = (1/2, 1/2), interior, bias 0
        np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-6)
        assert abs(model.bias) < 1e-9
        assert np.flatnonzero(model.alphas > 0).tolist() == [0, 1]
        f = decision_values(model, kernel)
        np.testing.assert_allclose(f, [-1.0, 1.0], atol=1e-6)

    def test_separable_points_classified_exactly(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        kernel = np.outer(x, x)
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = solve_binary_smo(kernel, y, SvmConfig(C=1e3, smo_tol=1e-4))
        preds = np.sign(decision_values(model, kernel))
        np.testing.assert_array_equal(preds, y)

    def test_matches_projected_gradient_oracle(self):
        for seed in range(20):
            kernel, y = _random_psd_problem(seed)
            cfg = SvmConfig(C=1.0, smo_tol=1e-3)
            model = solve_binary_smo(kernel, y, cfg)
            oracle = qp_dual_oracle(kernel, y, model.box)
            w_smo = dual_value(model.alphas, kernel, y)
            w_pg = dual_value(oracle, kernel, y)
            assert abs(w_smo - w_pg) < 1e-3, f"seed {seed}: {w_smo} vs {w_pg}"
            assert check_kkt(model, kernel).max() <= cfg.smo_tol + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            solve_binary_smo(np.eye(3), np.ones(3), SvmConfig())

    def test_two_solves_bit_identical(self):
        kernel, y = _random_psd_problem(3)
        a = solve_binary_smo(kernel, y, SvmConfig())
        b = solve_binary_smo(kernel, y, SvmConfig())
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias


def _padded_batch(problems):
    """Stack (kernel, label rows) problems into one zero-padded batch."""
    n = max(k.shape[0] for k, _ in problems)
    stack = np.zeros((len(problems), n, n))
    cells, rows = [], []
    for c, (k, ys) in enumerate(problems):
        stack[c, : k.shape[0], : k.shape[0]] = k
        for y in ys:
            rows.append(np.pad(y, (0, n - y.size)))
            cells.append(c)
    return stack, np.array(cells), np.array(rows)


class TestBatchedSmo:
    def test_each_problem_matches_its_solo_solve(self):
        # indefinite tanh kernels of mixed sizes under every spectrum fix,
        # three label rows sharing each kernel, all solved in one batch
        rng = np.random.default_rng(31)
        problems = []
        for c in range(12):
            n = int(rng.integers(5, 21))
            x = rng.standard_normal((n, 3))
            fix = SPECTRUM_FIXES[c % len(SPECTRUM_FIXES)]
            k = apply_spectrum_fix(np.tanh(x @ x.T), PabsKernelParams(spectrum_fix=fix))
            ys = [np.sign(rng.standard_normal(n)) for _ in range(3)]
            for y in ys:
                y[:2] = (1.0, -1.0)
            problems.append((k, ys))
        stack, cells, rows = _padded_batch(problems)
        cfg = SvmConfig(C=5.0)
        batch = solve_smo_arrays(stack, cells, rows, cfg)
        solo = [solve_binary_smo(k, y, cfg) for k, ys in problems for y in ys]
        assert batch.alphas.shape[0] == len(solo) == 36
        for b, s in enumerate(solo):
            m = s.alphas.size
            assert np.array_equal(batch.alphas[b, :m], s.alphas)
            assert not batch.alphas[b, m:].any()
            assert np.array_equal(batch.y[b, :m], s.y)
            assert batch.bias[b] == s.bias
            assert batch.converged[b] == s.converged

    def test_step_cap_matches_serial_rule(self):
        # at most max_passes * n pair updates, then no further convergence
        # test: a problem whose optimum lands on its n-th update still
        # reports converged=False, one that gets there in n - 1 reports True
        cfg = SvmConfig(max_passes=1, smo_tol=1e-12)
        problems, updates_needed = [], []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, 2))
            y = np.sign(rng.standard_normal(n))
            y[:2] = (1.0, -1.0)
            problems.append((x @ x.T, [y]))
            _, done, steps = smo_serial(x @ x.T, y, per_sample_c(y, cfg), cfg.smo_tol, 10_000)
            updates_needed.append(steps - n if done else None)
        assert 0 in updates_needed and -1 in updates_needed
        stack, cells, rows = _padded_batch(problems)
        batch = solve_smo_arrays(stack, cells, rows, cfg)
        for b, (k, [y]) in enumerate(problems):
            alphas, converged, _ = smo_serial(k, y, per_sample_c(y, cfg), cfg.smo_tol, y.size)
            assert batch.converged[b] == converged
            assert np.array_equal(batch.alphas[b, : y.size], alphas)
        assert not batch.converged[updates_needed.index(0)]
        assert batch.converged[updates_needed.index(-1)]

    def test_malformed_batches_rejected(self):
        k = np.eye(3)[None]
        with pytest.raises(ValueError, match="padding"):
            solve_smo_arrays(k, [0], [[1.0, 0.0, -1.0]], SvmConfig())
        with pytest.raises(SingleClassError):
            solve_smo_arrays(k, [0], [[1.0, 1.0, 0.0]], SvmConfig())
        with pytest.raises(ValueError, match="do not match"):
            solve_smo_arrays(k, [0, 0], [[1.0, -1.0, 1.0]], SvmConfig())


class TestDecisionValues:
    def test_unbounded_support_vectors_on_margin(self):
        kernel, y = _random_psd_problem(7)
        cfg = SvmConfig(C=50.0, smo_tol=1e-4)
        model = solve_binary_smo(kernel, y, cfg)
        f = decision_values(model, kernel)
        free = (model.alphas > 1e-9) & (model.alphas < model.box - 1e-9)
        assert free.any()
        np.testing.assert_allclose(np.abs(f[free]), 1.0, atol=cfg.smo_tol)

    def test_zero_model_outputs_bias(self):
        kernel, y = _random_psd_problem(8)
        model = solve_binary_smo(kernel, y, SvmConfig())
        zeroed = model._replace(alphas=np.zeros_like(model.alphas), bias=0.37)
        np.testing.assert_allclose(decision_values(zeroed, kernel), 0.37)

    def test_column_mismatch(self):
        kernel, y = _random_psd_problem(9)
        model = solve_binary_smo(kernel, y, SvmConfig())
        with pytest.raises(ValueError, match="columns"):
            decision_values(model, kernel[:, :3])


class TestClassWeighting:
    def test_single_sample_class_scaling(self):
        y = np.array([1.0, -1.0, -1.0, -1.0])
        box = per_sample_c(y, SvmConfig(C=2.0, class_weighted=True))
        # positive class has 1 member: C * N / (2 * 1)
        assert box[0] == 2.0 * 4 / 2
        np.testing.assert_allclose(box[1:], 2.0 * 4 / 6)

    def test_unweighted_is_constant(self):
        y = np.array([1.0, -1.0, -1.0])
        np.testing.assert_allclose(per_sample_c(y, SvmConfig(C=3.0, class_weighted=False)), 3.0)


class TestKkt:
    def test_trained_model_within_tolerance(self):
        kernel, y = _random_psd_problem(11)
        cfg = SvmConfig(smo_tol=1e-3)
        model = solve_binary_smo(kernel, y, cfg)
        assert check_kkt(model, kernel).max() <= cfg.smo_tol + 1e-9

    def test_untrained_model_violates_on_separable_data(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        kernel = np.outer(x, x)
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        cfg = SvmConfig()
        trained = solve_binary_smo(kernel, y, cfg)
        blank = trained._replace(alphas=np.zeros(4), bias=0.0, converged=False)
        assert check_kkt(blank, kernel).max() > 0.5

    def test_matches_independent_recomputation(self):
        kernel, y = _random_psd_problem(12)
        cfg = SvmConfig()
        model = solve_binary_smo(kernel, y, cfg)
        violations = check_kkt(model, kernel)
        # recompute violations point by point from the margin definition
        f = kernel @ (model.alphas * y) + model.bias
        for i in range(y.size):
            margin = y[i] * f[i]
            worst = 0.0
            if model.alphas[i] < model.box[i]:
                worst = max(worst, 1.0 - margin)
            if model.alphas[i] > 0:
                worst = max(worst, margin - 1.0)
            assert abs(violations[i] - worst) < 1e-12

    def test_bias_is_midpoint_of_kkt_bounds(self):
        # reference: the per-point loop over the one-sided bounds on b
        kernel, y = _random_psd_problem(23)
        model = solve_binary_smo(kernel, y, SvmConfig(C=5.0))
        u = kernel @ (model.alphas * y)
        lower, upper = -np.inf, np.inf
        for i in range(y.size):
            bound = y[i] - u[i]  # b value putting sample i exactly on the margin
            if y[i] > 0:
                if model.alphas[i] < model.box[i]:
                    lower = max(lower, bound)
                if model.alphas[i] > 0:
                    upper = min(upper, bound)
            else:
                if model.alphas[i] < model.box[i]:
                    upper = min(upper, bound)
                if model.alphas[i] > 0:
                    lower = max(lower, bound)
        assert abs(model.bias - (lower + upper) / 2.0) <= 1e-12


def _solves_at_step_caps(kernel, y):
    """Solutions at the step caps max_passes = 1, 2, ... up to the first
    converged one (test_step_cap_matches_serial_rule ties each cap to the
    serial update sequence)."""
    solutions = []
    for cap in range(1, 51):
        solutions.append(solve_binary_smo(kernel, y, SvmConfig(max_passes=cap)))
        if solutions[-1].converged:
            return solutions
    raise AssertionError("not converged within 50 passes")


class TestSolverInvariants:
    def test_feasible_at_every_step_cap(self):
        kernel, y = _random_psd_problem(13)
        solutions = _solves_at_step_caps(kernel, y)
        assert len(solutions) > 1
        for sol in solutions:
            assert abs(float(sol.alphas @ y)) <= 1e-8
            assert np.all(sol.alphas >= 0) and np.all(sol.alphas <= sol.box)

    def test_objective_non_decreasing_on_psd(self):
        for seed in (13, 14, 15, 16):
            kernel, y = _random_psd_problem(seed)
            solutions = _solves_at_step_caps(kernel, y)
            obj = [0.0] + [dual_value(s.alphas, kernel, y) for s in solutions]
            assert len(obj) > 2
            assert np.all(np.diff(obj) >= -1e-9)

    def test_label_symmetry(self):
        kernel, y = _random_psd_problem(17)
        cfg = SvmConfig()
        m_pos = solve_binary_smo(kernel, y, cfg)
        m_neg = solve_binary_smo(kernel, -y, cfg)
        f_pos = decision_values(m_pos, kernel)
        f_neg = decision_values(m_neg, kernel)
        np.testing.assert_allclose(f_pos, -f_neg, atol=1e-6)

    def test_duplicate_point_never_decreases_optimum(self):
        for seed in (18, 19):
            kernel, y = _random_psd_problem(seed, n_max=8)
            cfg = SvmConfig(class_weighted=False)
            box = per_sample_c(y, cfg)
            base = dual_value(qp_dual_oracle(kernel, y, box), kernel, y)
            # clone training point 0
            n = y.size
            kernel_aug = np.zeros((n + 1, n + 1))
            kernel_aug[:n, :n] = kernel
            kernel_aug[n, :n] = kernel[0]
            kernel_aug[:n, n] = kernel[:, 0]
            kernel_aug[n, n] = kernel[0, 0]
            y_aug = np.append(y, y[0])
            box_aug = per_sample_c(y_aug, cfg)
            aug = dual_value(qp_dual_oracle(kernel_aug, y_aug, box_aug), kernel_aug, y_aug)
            assert aug >= base - 1e-6


class TestMulticlass:
    def test_two_class_models_are_sign_opposite(self):
        kernel, y = _random_psd_problem(20)
        labels = ["P" if v > 0 else "Q" for v in y]
        model = train_multiclass(kernel, labels, ("P", "Q"), SvmConfig())
        scores = predict_scores(model, kernel)
        np.testing.assert_allclose(scores[:, 0], -scores[:, 1], atol=5e-3)

    def test_three_class_separable_training_accuracy(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        points = np.vstack([c + 0.3 * rng.standard_normal((8, 2)) for c in centers])
        labels = [c for c in "ABC" for _ in range(8)]
        kernel = points @ points.T
        model = train_multiclass(kernel, labels, ("A", "B", "C"), SvmConfig(C=10.0))
        preds = predict_labels(model, kernel, ("A", "B", "C"))
        assert preds == labels

    def test_absent_class_rejected(self):
        kernel = np.eye(4)
        with pytest.raises(SingleClassError, match="absent"):
            train_multiclass(kernel, ["A", "A", "B", "B"], ("A", "B", "C"), SvmConfig())
