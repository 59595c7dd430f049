import json

import numpy as np
import pytest

from netresp.svm import (
    SingleClassError,
    SvmConfig,
    check_kkt,
    decision_values,
    dual_objective,
    model_to_json,
    per_sample_c,
    predict_labels,
    predict_scores,
    solve_binary_smo,
    train_multiclass,
)
from oracles import dual_value, qp_dual_oracle


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
        assert model.support_indices == (0, 1)
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
            w_smo = dual_objective(model.alphas, kernel, y)
            w_pg = dual_value(oracle, kernel, y)
            assert abs(w_smo - w_pg) < 1e-3, f"seed {seed}: {w_smo} vs {w_pg}"
            assert check_kkt(model, kernel, y, cfg).max_violation <= cfg.smo_tol + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            solve_binary_smo(np.eye(3), np.ones(3), SvmConfig())

    def test_two_solves_bit_identical(self):
        kernel, y = _random_psd_problem(3)
        a = solve_binary_smo(kernel, y, SvmConfig())
        b = solve_binary_smo(kernel, y, SvmConfig())
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias


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
        zeroed = type(model)(
            alphas=np.zeros_like(model.alphas),
            bias=0.37,
            support_indices=(),
            train_labels=model.train_labels,
            box=model.box,
            converged=True,
        )
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
        assert check_kkt(model, kernel, y, cfg).max_violation <= cfg.smo_tol + 1e-9

    def test_untrained_model_violates_on_separable_data(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        kernel = np.outer(x, x)
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        cfg = SvmConfig()
        trained = solve_binary_smo(kernel, y, cfg)
        blank = type(trained)(
            alphas=np.zeros(4),
            bias=0.0,
            support_indices=(),
            train_labels=y.astype(np.int64),
            box=trained.box,
            converged=False,
        )
        assert check_kkt(blank, kernel, y, cfg).max_violation > 0.5

    def test_matches_independent_recomputation(self):
        kernel, y = _random_psd_problem(12)
        cfg = SvmConfig()
        model = solve_binary_smo(kernel, y, cfg)
        report = check_kkt(model, kernel, y, cfg)
        # recompute violations point by point from the margin definition
        f = kernel @ (model.alphas * y) + model.bias
        worst = 0.0
        for i in range(y.size):
            margin = y[i] * f[i]
            if model.alphas[i] < model.box[i]:
                worst = max(worst, 1.0 - margin)
            if model.alphas[i] > 0:
                worst = max(worst, margin - 1.0)
        assert abs(report.max_violation - max(worst, 0.0)) < 1e-12

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


class TestSolverInvariants:
    def test_feasible_at_every_accepted_step(self):
        kernel, y = _random_psd_problem(13)
        model = solve_binary_smo(kernel, y, SvmConfig(), collect_stats=True)
        assert model.stats is not None and len(model.stats.objective) > 0
        assert max(model.stats.equality_gap) <= 1e-8
        assert all(model.stats.box_ok)
        assert abs(float(model.alphas @ y)) <= 1e-8

    def test_objective_non_decreasing_on_psd(self):
        for seed in (14, 15, 16):
            kernel, y = _random_psd_problem(seed)
            model = solve_binary_smo(kernel, y, SvmConfig(), collect_stats=True)
            obj = np.array(model.stats.objective)
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
        preds = predict_labels(model, kernel)
        assert preds == labels

    def test_absent_class_rejected(self):
        kernel = np.eye(4)
        with pytest.raises(SingleClassError, match="absent"):
            train_multiclass(kernel, ["A", "A", "B", "B"], ("A", "B", "C"), SvmConfig())

    def test_model_json_dump(self):
        kernel, y = _random_psd_problem(22)
        labels = ["P" if v > 0 else "Q" for v in y]
        model = train_multiclass(kernel, labels, ("P", "Q"), SvmConfig())
        doc = json.loads(model_to_json(model))
        assert doc["classes"] == ["P", "Q"]
        assert len(doc["models"]) == 2
        assert len(doc["models"][0]["alphas"]) == y.size
        assert isinstance(doc["models"][0]["bias"], float)
