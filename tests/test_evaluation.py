import dataclasses
import itertools

import numpy as np
import pytest

from netresp import evaluation
from netresp.datamodel import SubjectFeatures
from netresp.evaluation import (
    EvalConfig,
    average_precision,
    box_stats,
    chance_level,
    f1_macro,
    macro_pr_auc,
    run_experiment,
    stratified_kfold,
)
from netresp.fnc import compute_fnc
from netresp.kernels import SPECTRUM_FIXES, PabsKernelParams
from netresp.svm import SmoSolution, SvmConfig
from netresp.synth import SynthConfig, generate_cohort
from oracles import (
    ap_step_oracle,
    check_kkt,
    cv_rows_per_cell,
    permutation_baseline,
    worst_case_ap,
)


class TestStratifiedKfold:
    def test_balanced_two_class_exact_split(self):
        labels = ["a"] * 5 + ["b"] * 5
        folds = stratified_kfold(labels, 5, seed=0)
        for f in range(5):
            members = [labels[i] for i in np.flatnonzero(folds == f)]
            assert sorted(members) == ["a", "b"]

    def test_deterministic_by_seed(self):
        labels = ["a"] * 12 + ["b"] * 7
        assert np.array_equal(
            stratified_kfold(labels, 4, seed=3), stratified_kfold(labels, 4, seed=3)
        )
        assert not np.array_equal(
            stratified_kfold(labels, 4, seed=3), stratified_kfold(labels, 4, seed=4)
        )

    def test_small_class_rejected(self):
        labels = ["a"] * 10 + ["b"] * 3
        with pytest.raises(ValueError, match="smaller k"):
            stratified_kfold(labels, 5, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_per_class_counts_differ_by_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.choice(["a", "b", "c"], p=[0.5, 0.4, 0.1], size=60)
        while min((labels == c).sum() for c in "abc") < 4:
            labels = rng.choice(["a", "b", "c"], p=[0.5, 0.4, 0.1], size=60)
        folds = stratified_kfold(labels, 4, seed=seed)
        for cls in "abc":
            counts = [np.sum((folds == f) & (labels == cls)) for f in range(4)]
            assert max(counts) - min(counts) <= 1


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 1, 0, 0], [4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_hand_computed_case(self):
        ap = average_precision([1, 0, 1], [0.9, 0.8, 0.7])
        assert abs(ap - 5.0 / 6.0) < 1e-12

    def test_worst_case_formula(self):
        for n, p in [(6, 2), (8, 3), (7, 1)]:
            labels = [0] * (n - p) + [1] * p
            scores = list(range(n, 0, -1))  # negatives ranked first
            ap = average_precision(labels, [float(s) for s in scores])
            assert abs(ap - worst_case_ap(p, n)) < 1e-12

    def test_matches_enumeration_oracle_all_labelings(self):
        scores = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        for n in range(2, 9):
            for bits in itertools.product([0, 1], repeat=n):
                if sum(bits) in (0, n):
                    continue
                ap = average_precision(list(bits), scores[:n])
                assert abs(ap - ap_step_oracle(bits, scores[:n])) < 1e-12

    def test_ties_broken_by_original_order(self):
        # tie between a negative (first) and a positive (second): stable
        # order ranks the negative first
        ap = average_precision([0, 1], [1.0, 1.0])
        assert ap == 0.5
        ap2 = average_precision([1, 0], [1.0, 1.0])
        assert ap2 == 1.0

    def test_monotone_transform_invariance_exact_on_dyadic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.integers(0, 2, size=12)
            if labels.sum() in (0, 12):
                continue
            scores = rng.integers(-64, 64, size=12).astype(np.float64)
            base = average_precision(labels, scores)
            assert average_precision(labels, scores / 4.0 + 3.0) == base
            assert average_precision(labels, scores * 16.0) == base

    def test_monotone_transform_invariance_smooth(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=10)
        labels[0], labels[1] = 1, 0
        scores = np.linspace(-3, 3, 10) + rng.uniform(0.001, 0.01, 10)
        base = average_precision(labels, scores)
        assert abs(average_precision(labels, np.arctan(scores)) - base) < 1e-12
        assert abs(average_precision(labels, np.exp(scores)) - base) < 1e-12

    def test_degenerate_single_class(self):
        with pytest.raises(ValueError, match="positive and a negative"):
            average_precision([1, 1], [0.2, 0.1])
        with pytest.raises(ValueError, match="positive and a negative"):
            average_precision([[1, 0], [0, 0]], [[0.2, 0.1], [0.3, 0.4]])

    @pytest.mark.parametrize("n", [2, 7, 9, 17, 40])
    def test_stacked_rows_bit_identical_to_each_row_alone(self, n):
        # integer scores force ties; up to n - 1 positives per row reaches
        # numpy's 8-way unrolled summation
        rng = np.random.default_rng(n)
        y = np.zeros((4, 3, n))
        for row in y.reshape(-1, n):
            row[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1.0
        s = rng.integers(-3, 4, size=y.shape).astype(np.float64)
        stacked = average_precision(y, s)
        assert stacked.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            alone = average_precision(y[idx], s[idx])
            # the per-vector formula: precision summed at the hits
            hits = y[idx][np.argsort(-s[idx], kind="stable")]
            precision = np.cumsum(hits) / np.arange(1, n + 1)
            assert stacked[idx] == alone == precision[hits == 1].sum() / int(hits.sum())


class TestMacroPrAuc:
    def test_perfect_scores(self):
        labels = np.array(["a", "b", "c"])
        scores = np.eye(3)
        assert macro_pr_auc(labels, scores, ("a", "b", "c")) == 1.0

    def test_two_class_mean_of_complementary_aps(self):
        labels = np.array(["p", "q", "p", "q"])
        scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
        ap_p = average_precision((labels == "p").astype(float), scores[:, 0])
        ap_q = average_precision((labels == "q").astype(float), scores[:, 1])
        macro = macro_pr_auc(labels, scores, ("p", "q"))
        assert abs(macro - (ap_p + ap_q) / 2) < 1e-12

    def test_mean_of_per_class_aps_bit_for_bit(self):
        rng = np.random.default_rng(5)
        labels = rng.choice(np.array(["AD", "MS", "NR"]), 23)
        scores = rng.integers(0, 4, (23, 3)) / 4.0  # ties within every column
        class_set = ("NR", "AD", "MS")
        aps = [
            average_precision((labels == c).astype(float), scores[:, j])
            for j, c in enumerate(class_set)
        ]
        assert macro_pr_auc(labels, scores, class_set) == np.mean(aps)

    def test_random_scores_match_monte_carlo_chance_oracle(self):
        # ranking-AP under random scores has a small-sample bias above
        # prevalence, so chance is calibrated by an independent Monte-Carlo
        # oracle at this size
        sizes = {"AD": 5, "MS": 5, "NR": 1}
        labels = np.array([c for c, n in sizes.items() for _ in range(n)])
        class_set = ("AD", "MS", "NR")
        rng = np.random.default_rng(2)
        vals = [
            macro_pr_auc(labels, rng.standard_normal((len(labels), 3)), class_set)
            for _ in range(100)
        ]
        oracle_rng = np.random.default_rng(999)
        oracle_vals = []
        for _ in range(200):
            per_class = []
            for cls in class_set:
                y = (labels == cls).astype(int)
                order = oracle_rng.permutation(len(labels))
                per_class.append(ap_step_oracle(y[order], np.arange(len(labels), 0, -1.0)))
            oracle_vals.append(np.mean(per_class))
        assert abs(np.mean(vals) - np.mean(oracle_vals)) < 0.1

    def test_random_scores_near_prevalence_at_larger_size(self):
        sizes = {"AD": 24, "MS": 22, "NR": 4}
        labels = np.array([c for c, n in sizes.items() for _ in range(n)])
        class_set = ("AD", "MS", "NR")
        rng = np.random.default_rng(3)
        vals = [
            macro_pr_auc(labels, rng.standard_normal((len(labels), 3)), class_set)
            for _ in range(100)
        ]
        assert abs(np.mean(vals) - chance_level(labels, class_set)) < 0.1

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        labels = np.array(["a"] * 6 + ["b"] * 5 + ["c"] * 4)
        scores = rng.standard_normal((labels.size, 3))
        base = macro_pr_auc(labels, scores, ("a", "b", "c"))
        # consistently permute class identities and score columns
        swap = {"a": "c", "b": "a", "c": "b"}
        relabeled = np.array([swap[x] for x in labels])
        reordered = scores[:, [1, 2, 0]]  # column j now scores swap-inverse class
        assert abs(macro_pr_auc(relabeled, reordered, ("a", "b", "c")) - base) < 1e-12

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            macro_pr_auc(np.array(["a", "a", "b"]), np.zeros((3, 3)), ("a", "b", "c"))


class TestF1Macro:
    def test_perfect_predictions(self):
        labels = np.array(["a", "b", "a"])
        assert f1_macro(labels, labels) == 1.0

    def test_symmetric_confusion(self):
        # per class: TP=1, FP=1, FN=1 -> F1 = 0.5 each
        labels = np.array(["a", "a", "b", "b"])
        preds = np.array(["a", "b", "a", "b"])
        assert abs(f1_macro(labels, preds) - 0.5) < 1e-12

    def test_all_one_class_on_balanced_data(self):
        labels = np.array(["a"] * 6 + ["b"] * 6)
        preds = np.array(["a"] * 12)
        assert abs(f1_macro(labels, preds) - 1.0 / 3.0) < 1e-12

    def test_absent_class_contributes_zero(self):
        labels = np.array(["a", "a", "b", "b"])
        preds = np.array(["a", "a", "b", "b"])
        assert abs(f1_macro(labels, preds, ("a", "b", "c")) - 2.0 / 3.0) < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.choice(["a", "b", "c"], size=30)
        preds = rng.choice(["a", "b", "c"], size=30)
        swap = {"a": "z", "b": "y", "c": "x"}
        relabeled = f1_macro(
            np.array([swap[x] for x in labels]), np.array([swap[x] for x in preds])
        )
        assert abs(f1_macro(labels, preds) - relabeled) < 1e-12


class TestBoxStats:
    def test_quartiles_and_whiskers(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        s = box_stats(x)
        assert s.median == 3.0
        assert s.q1 == 2.0 and s.q3 == 4.0
        assert s.whisker_lo == 1.0
        assert s.whisker_hi == 4.0  # 100 is an outlier beyond 1.5 IQR


def _planted_features(n_per_class, v=80, k=4, seed=0, effect=2.0):
    """Directly constructed features with a class-separating component 0."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((k, v))
    patterns = {"AD": rng.standard_normal(v), "MS": rng.standard_normal(v), "NR": rng.standard_normal(v)}
    feats, labels = [], []
    for cls, n in n_per_class.items():
        for _ in range(n):
            maps = base + 0.3 * rng.standard_normal((k, v))
            maps[0] = maps[0] + effect * patterns[cls]
            tc = rng.standard_normal((30, k))
            feats.append(SubjectFeatures(spatial_maps=maps, time_courses=tc))
            labels.append(cls)
    return feats, labels


class TestRunExperiment:
    def test_report_shape_and_range(self):
        feats, labels = _planted_features({"AD": 4, "MS": 4, "NR": 4}, seed=1)
        cfg = EvalConfig(outer_folds=2, repeats=1, seed=0)
        report = run_experiment(feats, labels, [0, 1], PabsKernelParams(), SvmConfig(), cfg)
        assert report.metrics() == ("macro_pr_auc", "macro_f1", "ap_AD", "ap_MS", "ap_NR")
        assert report.cells.tolist() == [[0, 0], [1, 0]]
        assert report.rows.shape == (2, 5)
        assert ((report.rows >= 0.0) & (report.rows <= 1.0)).all()
        assert report.unconverged.shape == (2,)
        np.testing.assert_array_equal(report.metric_values("ap_MS"), report.rows[:, 3])
        with pytest.raises(KeyError, match="ap_XX"):
            report.metric_values("ap_XX")

    def test_planted_signal_detected(self):
        feats, labels = _planted_features({"AD": 8, "MS": 8, "NR": 6}, seed=2)
        cfg = EvalConfig(outer_folds=3, repeats=2, seed=1)
        report = run_experiment(feats, labels, [0], PabsKernelParams(), SvmConfig(), cfg)
        assert np.median(report.metric_values("macro_pr_auc")) >= 0.9

    def test_unconverged_solves_counted(self):
        feats, labels = _planted_features({"AD": 8, "MS": 8, "NR": 4}, seed=4, effect=0.5)
        cfg = EvalConfig(outer_folds=3, repeats=2, seed=3)
        default = run_experiment(feats, labels, [0, 2], PabsKernelParams(), SvmConfig(), cfg)
        capped = run_experiment(
            feats, labels, [0, 2], PabsKernelParams(), SvmConfig(max_passes=1), cfg
        )
        assert default.unconverged_solves == 0
        assert 0 < capped.unconverged_solves <= 3 * 2 * 3
        assert capped.unconverged.shape == (3 * 2,)
        assert capped.unconverged.max() <= 3  # one solve per class in a cell
        assert capped.unconverged_solves == capped.unconverged.sum()

    def test_split_stacks_give_identical_rows(self, monkeypatch):
        feats, labels = _planted_features({"AD": 7, "MS": 6, "NR": 5}, seed=6)
        cfg = EvalConfig(outer_folds=4, repeats=3, seed=2)
        whole = run_experiment(feats, labels, [0, 1], PabsKernelParams(), SvmConfig(), cfg)
        monkeypatch.setattr(evaluation, "STACK_BYTES", 1)  # one cell per batch
        split = run_experiment(feats, labels, [0, 1], PabsKernelParams(), SvmConfig(), cfg)
        assert np.array_equal(split.cells, whole.cells)
        assert np.array_equal(split.rows, whole.rows)
        assert np.array_equal(split.unconverged, whole.unconverged)

    def test_deterministic_csv_bytes(self):
        feats, labels = _planted_features({"AD": 5, "MS": 5, "NR": 5}, seed=3)
        cfg = EvalConfig(outer_folds=2, repeats=3, seed=9)
        r1 = run_experiment(feats, labels, [0, 2], PabsKernelParams(), SvmConfig(), cfg)
        r2 = run_experiment(feats, labels, [0, 2], PabsKernelParams(), SvmConfig(), cfg)
        assert r1.to_report_csv() == r2.to_report_csv()
        assert r1.to_summary_csv() == r2.to_summary_csv()

    def test_repeats_redraw_stratified_partitions(self, monkeypatch):
        from netresp import evaluation

        drawn = []
        original = evaluation.stratified_kfold

        def recorded(*args):
            drawn.append(original(*args))
            return drawn[-1]

        monkeypatch.setattr(evaluation, "stratified_kfold", recorded)
        feats, labels = _planted_features({"AD": 6, "MS": 5, "NR": 4}, seed=9)
        cfg = EvalConfig(outer_folds=3, repeats=2, seed=4)
        first = run_experiment(feats, labels, [0], PabsKernelParams(), SvmConfig(), cfg)
        assert len(drawn) == 2
        assert not np.array_equal(drawn[0], drawn[1])
        for folds in drawn:
            for cls in cfg.class_set:
                counts = np.bincount(folds[np.asarray(labels) == cls], minlength=3)
                assert counts.max() - counts.min() <= 1
        second = run_experiment(feats, labels, [0], PabsKernelParams(), SvmConfig(), cfg)
        assert first.to_report_csv() == second.to_report_csv()

    def test_aggregate_count_is_folds_times_repeats(self):
        feats, labels = _planted_features({"AD": 5, "MS": 5, "NR": 5}, seed=4)
        cfg = EvalConfig(outer_folds=3, repeats=4, seed=2)
        report = run_experiment(feats, labels, [0], PabsKernelParams(), SvmConfig(), cfg)
        assert len(report.rows) == 12
        csv = report.to_report_csv().strip().splitlines()
        assert len(csv) == 1 + 12 * (2 + 3)  # header + rows x metrics

    def test_label_outside_class_set_rejected(self):
        feats, labels = _planted_features({"AD": 5, "MS": 5, "NR": 5}, seed=5)
        labels[0] = "CTRL"
        with pytest.raises(ValueError, match="outside class_set"):
            run_experiment(feats, labels, [0], PabsKernelParams(), SvmConfig(), EvalConfig())

    def test_test_subjects_never_influence_training_kernel(self):
        # kernel entries are pairwise: dropping any subject leaves the
        # remaining block bit-identical
        from netresp.kernels import build_kernel_matrix

        feats, labels = _planted_features({"AD": 4, "MS": 4, "NR": 4}, seed=6)
        params = PabsKernelParams()
        full = build_kernel_matrix(feats, [0, 1], params).values
        keep = list(range(len(feats)))
        keep.remove(5)
        reduced = build_kernel_matrix([feats[i] for i in keep], [0, 1], params).values
        np.testing.assert_array_equal(full[np.ix_(keep, keep)], reduced)


class TestPermutationBaseline:
    def test_permuted_labels_sit_near_chance(self):
        # at 16 subjects pooled macro AP under random ranking sits well above
        # the asymptotic chance level (about 0.44 vs 0.33), so chance is the
        # mean of an independent Monte-Carlo random-ranking oracle
        feats, labels = _planted_features({"AD": 6, "MS": 6, "NR": 4}, seed=7)
        cfg = EvalConfig(outer_folds=2, repeats=1, seed=3)
        base = permutation_baseline(
            feats, labels, [0], PabsKernelParams(), SvmConfig(),
            dataclasses.replace(cfg, seed=1), rounds=8,
        )
        y = np.asarray(labels)
        oracle_rng = np.random.default_rng(999)
        oracle_vals = []
        for _ in range(2000):
            per_class = []
            for cls in cfg.class_set:
                order = oracle_rng.permutation(y.size)
                per_class.append(
                    ap_step_oracle((y == cls).astype(int)[order], np.arange(y.size, 0, -1.0))
                )
            oracle_vals.append(np.mean(per_class))
        assert abs(base.mean - np.mean(oracle_vals)) < 0.1
        assert len(base.scores) == 8
        assert base.p95 >= base.mean

    def test_one_kernel_build_per_call(self, kernel_builds):
        feats, labels = _planted_features({"AD": 4, "MS": 4, "NR": 4}, seed=8)
        cfg = EvalConfig(outer_folds=2, repeats=1, seed=3)
        permutation_baseline(
            feats, labels, [1, 0], PabsKernelParams(), SvmConfig(),
            dataclasses.replace(cfg, seed=2), rounds=5,
        )
        assert kernel_builds == [(1, 0)]


class TestSolverConvergence:
    @pytest.mark.parametrize("fix", SPECTRUM_FIXES)
    def test_converged_solves_meet_smo_tol(self, monkeypatch, fix):
        # on this cohort an SMO that stopped after a full sweep in which no
        # pair update was accepted reported converged=True with KKT
        # violations above 0.3 under every spectrum fix
        synth = SynthConfig(
            grid=(8, 8, 6), n_components=4, n_domains=2, timepoints=60,
            class_counts=(("AD", 10), ("MS", 10), ("NR", 10)), seed=6,
        )
        dataset, truth = generate_cohort(synth)
        feats = [
            SubjectFeatures(spatial_maps=m, time_courses=tc, fnc=compute_fnc(tc))
            for m, tc in zip(truth.subject_maps, truth.planted_tcs)
        ]
        labels = [s.label for s in dataset.subjects]
        solves = []
        original = evaluation.solve_smo_arrays

        def recorded(kernels, cells, y, cfg, *args, **kwargs):
            sol = original(kernels, cells, y, cfg, *args, **kwargs)
            for b, cell in enumerate(cells):
                m = int(np.count_nonzero(sol.y[b]))
                model = SmoSolution(
                    sol.alphas[b, :m], sol.y[b, :m], sol.bias[b], sol.converged[b], sol.box[b, :m]
                )
                solves.append((kernels[cell, :m, :m], cfg, model))
            return sol

        monkeypatch.setattr(evaluation, "solve_smo_arrays", recorded)
        params = PabsKernelParams(spectrum_fix=fix)
        cfg = EvalConfig(outer_folds=3, repeats=2, seed=0)
        for selected in ([0, 2], [1, 3], [0, 1, 2, 3]):
            run_experiment(feats, labels, selected, params, SvmConfig(), cfg, use_fnc=True)
        assert len(solves) == 3 * 3 * 2 * 3
        for k_train, cfg, model in solves:
            assert model.converged
            assert check_kkt(model, k_train).max() <= cfg.smo_tol + 1e-9


def _cv_case(n_per_class, seed, folds, repeats, effect=2.0):
    feats, labels = _planted_features(n_per_class, seed=seed, effect=effect)
    raw = evaluation.raw_kernel(feats, [0, 1], PabsKernelParams(), use_fnc=False)
    return raw, np.asarray(labels), evaluation.partitions(labels, folds, seed, repeats)


class TestCrossValidateMatchesPerCellOracle:
    """`cross_validate` reports and held-out scores against one model at a time."""

    CLASSES = ("AD", "MS", "NR")

    def _check(self, raw, labels, parts, params=PabsKernelParams(), svm_cfg=SvmConfig()):
        report = evaluation.cross_validate(raw, labels, parts, params, svm_cfg, self.CLASSES)
        expected, scores = cv_rows_per_cell(raw, labels, parts, params, svm_cfg, self.CLASSES)
        for got, want in (
            (report.cells, np.array([row[:2] for row in expected])),
            (report.rows, np.array([(row[2], row[3], *row[4]) for row in expected])),
            (report.unconverged, np.array([row[5] for row in expected])),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        metrics = ("macro_pr_auc", "macro_f1", *(f"ap_{c}" for c in self.CLASSES))
        csv = ["fold,repeat,metric,value"]
        for f, rep, pr_auc, f1, aps, _ in expected:
            csv += [f"{f},{rep},{m},{v!r}" for m, v in zip(metrics, (pr_auc, f1, *aps))]
        assert report.to_report_csv() == "\n".join(csv) + "\n"
        held = [
            cell.T
            for _, _, run, _ in evaluation._held_out(
                raw, labels, parts, params, svm_cfg, self.CLASSES
            )
            for cell in run
        ]
        assert len(held) == len(scores)
        for h, s in zip(held, scores):
            assert np.array_equal(h, s)
        return expected, scores

    @pytest.mark.parametrize("cells_per_stack", [None, 5])
    def test_unequal_training_sizes_in_padded_batches(self, monkeypatch, cells_per_stack):
        raw, labels, parts = _cv_case({"AD": 7, "MS": 6, "NR": 5}, seed=6, folds=4, repeats=3)
        sizes = {int((p != f).sum()) for p in parts for f in range(4)}
        assert len(sizes) > 1
        if cells_per_stack:  # batches that end inside a fold's run of cells
            monkeypatch.setattr(evaluation, "STACK_BYTES", cells_per_stack * 8 * max(sizes) ** 2)
        self._check(raw, labels, parts)

    @pytest.mark.parametrize("fix", SPECTRUM_FIXES)
    def test_each_spectrum_fix(self, fix):
        raw, labels, parts = _cv_case({"AD": 6, "MS": 6, "NR": 5}, seed=2, folds=3, repeats=2)
        self._check(raw, labels, parts, PabsKernelParams(spectrum_fix=fix))

    def test_step_cap_unconverged_counts(self):
        raw, labels, parts = _cv_case(
            {"AD": 8, "MS": 8, "NR": 4}, seed=4, folds=3, repeats=2, effect=0.5
        )
        expected, _ = self._check(raw, labels, parts, svm_cfg=SvmConfig(max_passes=1))
        assert sum(row[5] for row in expected) > 0

    def test_tied_decision_values(self):
        # two subjects repeated under other labels: a copy's kernel row is
        # its original's, so a fold holding both scores them exactly equal
        raw, labels, _ = _cv_case({"AD": 6, "MS": 6, "NR": 5}, seed=3, folds=3, repeats=1)
        keep = [*range(labels.size), 0, 7]
        raw = raw[np.ix_(keep, keep)]
        labels = np.append(labels, ["MS", "NR"])
        parts = evaluation.partitions(labels, 3, 1, 4)
        _, scores = self._check(raw, labels, parts)
        assert any(np.unique(col).size < col.size for s in scores for col in s.T)

    def test_predictions_missing_a_class(self):
        # without signal some folds never predict a class, so its F1 is 0;
        # the zero-denominator case needs a class absent from a test fold,
        # which average precision rejects first
        raw, labels, parts = _cv_case(
            {"AD": 7, "MS": 6, "NR": 5}, seed=1, folds=4, repeats=3, effect=0.0
        )
        _, scores = self._check(raw, labels, parts)
        assert any(np.unique(s.argmax(axis=1)).size < len(self.CLASSES) for s in scores)

    def test_many_positives_per_test_fold(self):
        # 10 members per class in each test fold: the AP sums reach numpy's
        # 8-way unrolled summation
        raw, labels, parts = _cv_case({"AD": 20, "MS": 20, "NR": 20}, seed=5, folds=2, repeats=2)
        self._check(raw, labels, parts)

    def test_test_fold_missing_a_class_names_its_cell(self):
        raw, labels, parts = _cv_case({"AD": 6, "MS": 6, "NR": 6}, seed=9, folds=3, repeats=2)
        odd = parts[1].copy()
        nr = np.flatnonzero(labels == "NR")
        odd[nr] = np.where(np.arange(nr.size) % 2, 0, 2)  # no NR member in fold 1
        with pytest.raises(evaluation.EvalError, match="fold 1, repeat 1: average precision"):
            evaluation.cross_validate(
                raw, labels, [parts[0], odd], PabsKernelParams(), SvmConfig(), self.CLASSES
            )

    def test_permutation_baseline_rejects_labels_outside_class_set(self):
        feats, labels = _planted_features({"AD": 7, "MS": 7, "NR": 6}, seed=8)
        raw = evaluation.raw_kernel(feats, [0, 1], PabsKernelParams(), use_fnc=False)
        labels = np.array([{"AD": "A", "MS": "B"}.get(lab, "Z") for lab in labels])
        cfg = EvalConfig(outer_folds=2, class_set=("A", "B"))
        with pytest.raises(ValueError, match=r"outside class_set: \['Z'\]"):
            permutation_baseline(
                feats, labels, [0, 1], PabsKernelParams(), SvmConfig(), cfg, rounds=1
            )
        with pytest.raises(ValueError, match=r"outside class_set: \['Z'\]"):
            evaluation.cross_validate(
                raw, labels, evaluation.partitions(labels, 2, 0, 1), PabsKernelParams(),
                SvmConfig(), cfg.class_set,
            )
