"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight cohorts
are session fixtures so the suite stays in the minutes range.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from netresp._util import derive_seed, parallel_map
from netresp.cli import main as cli_main
from netresp.datamodel import SubjectFeatures
from netresp.evaluation import (
    EvalConfig,
    average_precision,
    chance_level,
    run_experiment,
)
from netresp.fnc import compute_fnc
from netresp.kernels import PabsKernelParams, build_kernel_matrix
from netresp.scica import ScicaConfig, extract_subject
from netresp.selection import SsfsConfig, ssfs
from netresp.svm import SvmConfig, solve_binary_smo
from netresp.synth import SynthConfig, generate_cohort
from oracles import (
    ap_step_oracle,
    check_kkt,
    dual_value,
    generate_interaction_cohort,
    orthonormalize,
    pabs_sum_via_gram,
    permutation_baseline,
    qp_dual_oracle,
)


RESULTS: list[str] = []


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, detail


# ------------------------------------------------------------ heavy fixtures


def _extract_cohort(dataset, seed: int) -> list[SubjectFeatures]:
    """Every subject's features in cohort order, subject i extracted with
    the seed derive_seed(seed, "subject", i), four subjects at a time."""

    def one(i):
        bold = dataset.subjects[i].bold
        return extract_subject(
            bold, dataset.template, ScicaConfig(), seed=derive_seed(seed, "subject", i)
        )

    return parallel_map(one, range(dataset.n_subjects), 4)


@pytest.fixture(scope="session")
def default_cohort():
    """The default-scale synthetic cohort with extracted features."""
    cfg = SynthConfig(seed=17)
    dataset, truth = generate_cohort(cfg, threads=4)
    feats = _extract_cohort(dataset, seed=3)
    return cfg, dataset, truth, feats


@pytest.fixture(scope="session")
def strong_cohort():
    """Half-scale cohort with strong planted effects, features plus FNC.

    Class counts follow (47, 45, 8) * 0.5 with the nonresponder class
    floored at the outer fold count so the stated 5-fold protocol is
    runnable.
    """
    cfg = SynthConfig(
        seed=29,
        class_counts=(("AD", 24), ("MS", 23), ("NR", 5)),
        spatial_effect=1.2,
        fnc_effect=1.0,
    )
    dataset, truth = generate_cohort(cfg, threads=4)
    feats = _extract_cohort(dataset, seed=5)
    feats = [dataclasses.replace(f, fnc=compute_fnc(f.time_courses)) for f in feats]
    return cfg, dataset, truth, feats


# ---------------------------------------------------------------- criteria


def _maps_subject(maps) -> SubjectFeatures:
    return SubjectFeatures(spatial_maps=maps, time_courses=np.zeros((1, maps.shape[0])))


def test_c01_kernel_identities():
    rng = np.random.default_rng(0)
    params = PabsKernelParams(gamma=1.0)
    worst_self = 0.0
    for trial in range(10):
        maps = rng.standard_normal((7, 200))
        feats = [_maps_subject(maps), _maps_subject(maps)]
        values = build_kernel_matrix(feats, range(7), params).values
        worst_self = max(worst_self, np.abs(values - np.tanh(7.0)).max())
    eye = np.eye(200)
    feats = [_maps_subject(eye[:7]), _maps_subject(eye[7:14])]
    ortho = abs(build_kernel_matrix(feats, range(7), params).values[0, 1])
    ok = worst_self <= 1e-12 and ortho <= 1e-12
    _report(
        1,
        ok,
        f"self-kernel |err| {worst_self:.2e} <= 1e-12, orthogonal kernel {ortho:.2e} <= 1e-12",
    )


def test_c02_pabs_oracle_equivalence():
    # one 100-subject build holds the 50 pairs (2t, 2t + 1); at gamma = 1e-3
    # tanh is linear to rounding, so arctanh(K) / gamma is the cosine sum
    rng = np.random.default_rng(1)
    gamma = 1e-3
    maps = [rng.standard_normal((7, 200)) for _ in range(100)]
    params = PabsKernelParams(gamma=gamma)
    values = build_kernel_matrix([_maps_subject(m) for m in maps], range(7), params).values
    worst = 0.0
    for t in range(50):
        a = orthonormalize(maps[2 * t])
        b = orthonormalize(maps[2 * t + 1])
        s = np.arctanh(values[2 * t, 2 * t + 1]) / gamma
        worst = max(worst, abs(s - pabs_sum_via_gram(a, b)))
    _report(2, worst <= 1e-10, f"50 basis pairs, max |SVD - gram-oracle| = {worst:.2e} <= 1e-10")


def test_c03_fnc_oracle_equivalence():
    from oracles import naive_fnc

    rng = np.random.default_rng(2)
    tc = rng.standard_normal((164, 20))
    fnc = compute_fnc(tc)
    diff = np.abs(fnc - naive_fnc(tc)).max()
    symmetric = np.array_equal(fnc, fnc.T)
    unit_diag = bool(np.all(np.diag(fnc) == 1.0))
    ok = diff <= 1e-12 and symmetric and unit_diag
    _report(
        3,
        ok,
        f"164x20 FNC vs double-loop oracle: max diff {diff:.2e} <= 1e-12, "
        f"symmetric={symmetric}, unit diagonal={unit_diag}",
    )


def test_c04_svm_against_qp_oracle():
    worst_gap = 0.0
    worst_kkt = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(6, 16))
        x = rng.standard_normal((n, 4))
        kernel = x @ x.T
        y = np.sign(rng.standard_normal(n))
        if np.all(y > 0) or np.all(y < 0):
            y[0] = -y[0]
        cfg = SvmConfig(C=1.0, smo_tol=1e-3)
        model = solve_binary_smo(kernel, y, cfg)
        gap = abs(
            dual_value(model.alphas, kernel, y)
            - dual_value(qp_dual_oracle(kernel, y, model.box), kernel, y)
        )
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, check_kkt(model, kernel).max())
    ok = worst_gap <= 1e-3 and worst_kkt <= 1e-3
    _report(
        4,
        ok,
        f"20 PSD problems: max dual gap {worst_gap:.2e} <= 1e-3, max KKT {worst_kkt:.2e} <= 1e-3",
    )


def test_c05_metric_correctness():
    ap = average_precision([1, 0, 1], [0.9, 0.8, 0.7])
    exact = abs(ap - 5.0 / 6.0) <= 1e-9
    perfect = average_precision([1, 1, 0], [3.0, 2.0, 1.0]) == 1.0
    scores = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    worst = 0.0
    for n in range(2, 9):
        for bits in itertools.product([0, 1], repeat=n):
            if sum(bits) in (0, n):
                continue
            worst = max(
                worst,
                abs(average_precision(list(bits), scores[:n]) - ap_step_oracle(bits, scores[:n])),
            )
    ok = exact and perfect and worst <= 1e-12
    _report(
        5,
        ok,
        f"AP([1,0,1]) = {ap:.9f} (5/6 within 1e-9), perfect ranking exact, "
        f"enumeration n<=8 max diff {worst:.2e}",
    )


def test_c06_scica_recovery(default_cohort):
    cfg, dataset, truth, feats = default_cohort
    # empirical SNR of the generative model
    signal_power = 0.0
    noise_power = 0.0
    for subject, tc, maps in zip(dataset.subjects, truth.planted_tcs, truth.subject_maps):
        signal = tc @ maps
        signal_power += float((signal**2).sum())
        noise_power += float(((subject.bold - signal) ** 2).sum())
    snr = signal_power / noise_power
    cors = []
    for f, planted in zip(feats, truth.subject_maps):
        for k in range(cfg.n_components):
            cors.append(abs(np.corrcoef(f.spatial_maps[k], planted[k])[0, 1]))
    mean_corr = float(np.mean(cors))
    ok = snr >= 5.0 and mean_corr >= 0.9
    _report(
        6,
        ok,
        f"V={cfg.n_voxels} K={cfg.n_components} T={cfg.timepoints} N={dataset.n_subjects}: "
        f"SNR {snr:.1f} >= 5, mean per-component |corr| {mean_corr:.4f} >= 0.9",
    )


def test_c07_end_to_end_signal_detection(strong_cohort):
    cfg, dataset, truth, feats = strong_cohort
    labels = [s.label for s in dataset.subjects]
    kernel_params = PabsKernelParams()
    svm_cfg = SvmConfig()
    eval_cfg = EvalConfig(outer_folds=5, repeats=50, seed=11)
    report = run_experiment(
        feats, labels, truth.informative_indices, kernel_params, svm_cfg, eval_cfg,
        use_fnc=True,
    )
    median_auc = float(np.median(report.metric_values("macro_pr_auc")))
    baseline = permutation_baseline(
        feats, labels, truth.informative_indices, kernel_params, svm_cfg,
        dataclasses.replace(eval_cfg, seed=13), rounds=40, use_fnc=True, threads=4,
    )
    chance = chance_level(labels, eval_cfg.class_set)
    ok = median_auc >= 0.85 and abs(baseline.mean - chance) <= 0.1
    _report(
        7,
        ok,
        f"counts {dict((c, labels.count(c)) for c in eval_cfg.class_set)}, 5 folds x 50 repeats: "
        f"median macro PR-AUC {median_auc:.3f} >= 0.85; permuted baseline {baseline.mean:.3f} "
        f"within 0.1 of chance {chance:.3f}",
    )


def test_c08_ssfs_dominance():
    kernel_params = PabsKernelParams()
    svm_cfg = SvmConfig()
    sel_cfg = SsfsConfig(beam_width=5, inner_folds=5, inner_repeats=2, seed=9)
    feats, labels, meta = generate_interaction_cohort(seed=4)
    beam = ssfs(feats, labels, meta["domains"], sel_cfg, kernel_params, svm_cfg,
                class_set=meta["class_set"], threads=4)
    greedy = ssfs(feats, labels, meta["domains"], dataclasses.replace(sel_cfg, beam_width=1),
                  kernel_params, svm_cfg, class_set=meta["class_set"], threads=4)
    strict = beam.best_score > greedy.best_score
    recovered = beam.best_set == meta["interacting_pair"]
    dominance = []
    for seed in (0, 11, 23):
        f2, l2, m2 = generate_interaction_cohort(seed=seed)
        cfg2 = SsfsConfig(beam_width=5, inner_folds=5, inner_repeats=2, seed=seed + 50)
        b2 = ssfs(f2, l2, m2["domains"], cfg2, kernel_params, svm_cfg,
                  class_set=m2["class_set"], threads=4)
        g2 = ssfs(f2, l2, m2["domains"], dataclasses.replace(cfg2, beam_width=1),
                  kernel_params, svm_cfg, class_set=m2["class_set"], threads=4)
        dominance.append(b2.best_score >= g2.best_score)
    ok = strict and recovered and all(dominance)
    _report(
        8,
        ok,
        f"interaction cohort: SSFS {beam.best_score:.3f} > SFS {greedy.best_score:.3f}, "
        f"recovered pair {beam.best_set}; dominance held on {sum(dominance)}/3 extra seeds",
    )


def test_c09_fnc_features_boost_performance():
    kernel_params = PabsKernelParams()
    svm_cfg = SvmConfig()
    sm_scores, both_scores = [], []
    for seed in range(20):
        cfg = SynthConfig(
            grid=(8, 8, 8), n_components=8, n_domains=4, timepoints=100,
            class_counts=(("AD", 8), ("MS", 8), ("NR", 5)), informative_components=3,
            spatial_effect=0.02, map_noise=0.4, fnc_effect=0.8, seed=500 + seed,
        )
        dataset, truth = generate_cohort(cfg, threads=4)
        feats = [
            SubjectFeatures(spatial_maps=m, time_courses=tc, fnc=compute_fnc(tc))
            for m, tc in zip(truth.subject_maps, truth.planted_tcs)
        ]
        labels = [s.label for s in dataset.subjects]
        eval_cfg = EvalConfig(outer_folds=5, repeats=3, seed=seed)
        sel = truth.informative_indices
        r_sm = run_experiment(feats, labels, sel, kernel_params, svm_cfg, eval_cfg,
                              use_fnc=False)
        r_both = run_experiment(feats, labels, sel, kernel_params, svm_cfg, eval_cfg,
                                use_fnc=True)
        sm_scores.append(float(np.median(r_sm.metric_values("macro_pr_auc"))))
        both_scores.append(float(np.median(r_both.metric_values("macro_pr_auc"))))
    med_sm = float(np.median(sm_scores))
    med_both = float(np.median(both_scores))
    ok = med_both >= med_sm
    _report(
        9,
        ok,
        f"20 seeds with fnc_effect > 0: median macro PR-AUC SM+sFNC {med_both:.3f} >= "
        f"SM alone {med_sm:.3f}",
    )


def test_c10_pipeline_determinism(tmp_path):
    config = {
        "seed": 5,
        "threads": 2,
        "synth": {
            "grid": [8, 8, 6], "n_components": 6, "n_domains": 3, "timepoints": 40,
            "class_counts": {"AD": 8, "MS": 8, "NR": 4}, "informative_components": 3,
            "spatial_effect": 1.0, "fnc_effect": 0.8,
        },
        "selection": {"beam_width": 3, "inner_folds": 2, "inner_repeats": 2},
        "evaluation": {"outer_folds": 2, "repeats": 3},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(out):
        for cmd in ("simulate", "extract", "fnc"):
            assert cli_main([cmd, "--config", str(config_path), "--out", str(out)]) == 0
        for cmd in ("select", "evaluate"):
            assert (
                cli_main(
                    [cmd, "--config", str(config_path), "--out", str(out), "--features", "sm+fnc"]
                )
                == 0
            )
        return (
            (out / "eval" / "report.csv").read_bytes(),
            (out / "eval" / "summary.csv").read_bytes(),
        )

    report_a, summary_a = run(tmp_path / "run_a")
    report_b, summary_b = run(tmp_path / "run_b")
    ok = report_a == report_b and summary_a == summary_b
    _report(
        10,
        ok,
        f"two pipeline runs, same master seed: report.csv identical={report_a == report_b}, "
        f"summary.csv identical={summary_a == summary_b}",
    )
