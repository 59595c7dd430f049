import weakref
from dataclasses import replace

import numpy as np
import pytest

from netresp._util import derive_seed
from netresp.datamodel import SubjectFeatures
from netresp.evaluation import EvalConfig, run_experiment
from netresp.kernels import PabsKernelParams
from netresp.selection import (
    SelectionError,
    SsfsConfig,
    score_feature_set,
    ssfs,
)
from netresp.svm import SvmConfig
from oracles import generate_interaction_cohort

KP = PabsKernelParams()
SVM = SvmConfig()
FAST = SsfsConfig(beam_width=5, inner_folds=3, inner_repeats=2, seed=13)


def _two_class_features(n_per_class=10, k=4, v=120, effect=2.5, seed=0):
    """Component 0 separates the classes; the rest are noise."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((k, v))
    pattern = rng.standard_normal(v)
    feats, labels = [], []
    for cls in (+1, -1):
        for _ in range(n_per_class):
            maps = base + 0.3 * rng.standard_normal((k, v))
            maps[0] = maps[0] + effect * cls * pattern
            feats.append(
                SubjectFeatures(spatial_maps=maps, time_courses=rng.standard_normal((12, k)))
            )
            labels.append("P" if cls > 0 else "Q")
    return feats, labels


def _cand_seed(cfg, cand):
    return derive_seed(cfg.seed, "candidate", tuple(sorted(cand)))


class TestScoreFeatureSet:
    def test_separating_component_scores_near_one(self):
        feats, labels = _two_class_features(seed=1)
        s = score_feature_set(
            feats, labels, ("P", "Q"), (0,), KP, SVM, FAST, _cand_seed(FAST, (0,))
        )
        assert s >= 0.98

    def test_noise_component_scores_near_chance(self):
        # wide folds keep the ranking-AP small-sample bias inside the band
        feats, labels = _two_class_features(n_per_class=20, seed=2)
        cfg = SsfsConfig(inner_folds=2, inner_repeats=4, seed=13)
        s = score_feature_set(
            feats, labels, ("P", "Q"), (2,), KP, SVM, cfg, _cand_seed(cfg, (2,))
        )
        assert abs(s - 0.5) < 0.1

    def test_bit_identical_for_same_seed(self):
        feats, labels = _two_class_features(n_per_class=6, seed=3)
        args = (feats, labels, ("P", "Q"), (0, 1), KP, SVM, FAST, 1234)
        assert score_feature_set(*args) == score_feature_set(*args)

    def test_empty_candidate_rejected(self):
        feats, labels = _two_class_features(n_per_class=6, seed=4)
        with pytest.raises(SelectionError, match="empty"):
            score_feature_set(feats, labels, ("P", "Q"), (), KP, SVM, FAST, 0)

    def test_errors_annotated_with_candidate(self):
        feats, labels = _two_class_features(n_per_class=2, seed=5)
        with pytest.raises(SelectionError, match=r"\[0, 1\]"):
            # 2 per class cannot support 3 inner folds
            score_feature_set(feats, labels, ("P", "Q"), (0, 1), KP, SVM, FAST, 0)


def _per_repeat_reference(features, labels, class_set, selected, kernel_params, cfg, seed):
    """Candidate score computed as one full experiment per inner repeat,
    each building its own kernel."""
    scores = []
    for rep in range(cfg.inner_repeats):
        inner = EvalConfig(
            outer_folds=cfg.inner_folds,
            repeats=1,
            class_set=tuple(class_set),
            seed=derive_seed(seed, "inner", rep),
        )
        report = run_experiment(features, labels, selected, kernel_params, SVM, inner)
        scores.append(report.metric_values(cfg.scorer).mean())
    return float(np.mean(scores))


class TestBuildOnce:
    @pytest.mark.parametrize("scorer", ["macro_pr_auc", "macro_f1"])
    @pytest.mark.parametrize("fix", ["clip", "none"])
    def test_score_equals_per_repeat_experiments(self, scorer, fix):
        feats, labels = _two_class_features(n_per_class=6, seed=21)
        cfg = SsfsConfig(inner_folds=3, inner_repeats=3, scorer=scorer, seed=2)
        kp = PabsKernelParams(spectrum_fix=fix)
        args = (feats, labels, ("P", "Q"), (1, 2))
        expected = _per_repeat_reference(*args, kp, cfg, 77)
        assert score_feature_set(*args, kp, SVM, cfg, 77) == expected

    def test_one_build_per_candidate(self, kernel_builds):
        feats, labels = _two_class_features(n_per_class=6, seed=22)
        cfg = SsfsConfig(inner_folds=3, inner_repeats=4, seed=2)
        score_feature_set(feats, labels, ("P", "Q"), (2, 0), KP, SVM, cfg, 5)
        assert kernel_builds == [(2, 0)]

    def test_ssfs_one_build_per_trace_row(self, kernel_builds):
        feats, labels, meta = generate_interaction_cohort(n_per_class=8, seed=23)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=3, seed=4)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        assert kernel_builds == [c.indices for c in result.beam_trace]

    def test_builds_use_stage_factors(self, monkeypatch):
        from netresp import evaluation

        built = []
        original = evaluation.build_kernel_matrix

        def recorded(features, selected, *args, factors=None, **kwargs):
            built.append((tuple(selected), factors.components))
            return original(features, selected, *args, factors=factors, **kwargs)

        monkeypatch.setattr(evaluation, "build_kernel_matrix", recorded)
        feats, labels, meta = generate_interaction_cohort(n_per_class=8, seed=24)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=1, seed=4)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        expected = []
        for stage in sorted({c.stage for c in result.beam_trace}):
            sets = [c.indices for c in result.beam_trace if c.stage == stage]
            union = tuple(sorted({i for s in sets for i in s}))
            expected += [(s, union) for s in sets]
        assert built == expected
        assert len({u for _, u in built}) > 1

    def test_one_stage_of_factors_alive(self, monkeypatch):
        from netresp import selection

        made = []
        original = selection.subspace_factors

        def recorded(*args, **kwargs):
            assert all(ref() is None for ref in made), "an earlier stage's factors are alive"
            factors = original(*args, **kwargs)
            made.append(weakref.ref(factors))
            return factors

        monkeypatch.setattr(selection, "subspace_factors", recorded)
        feats, labels, meta = generate_interaction_cohort(n_per_class=8, seed=25)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=1, seed=4)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        assert len(made) == len({c.stage for c in result.beam_trace})


def _brute_force_best(feats, labels, class_set, domains, cfg):
    """Enumerate every one-per-domain set and rank by the same scorer."""
    pools = {}
    for i, d in enumerate(domains):
        pools.setdefault(d, []).append(i)
    names = list(pools)
    sets = [()]
    for d in names:
        sets = [s + (c,) for s in sets for c in pools[d]]
    scored = [
        (
            score_feature_set(
                feats, labels, class_set, s, KP, SVM, cfg, _cand_seed(cfg, s)
            ),
            s,
        )
        for s in sets
    ]
    best = sorted(scored, key=lambda t: (-t[0], t[1]))[0]
    return best[1], best[0], dict((s, v) for v, s in scored)


class TestSsfs:
    def test_interaction_cohort_beam_finds_pair_greedy_does_not(self):
        feats, labels, meta = generate_interaction_cohort(seed=4)
        cfg = SsfsConfig(beam_width=5, inner_folds=5, inner_repeats=2, seed=9)
        beam = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        greedy = ssfs(
            feats, labels, meta["domains"], replace(cfg, beam_width=1), KP, SVM,
            class_set=meta["class_set"],
        )
        assert beam.best_set == meta["interacting_pair"]
        assert greedy.best_set[0] == meta["weak_component"]
        assert beam.best_score > greedy.best_score
        # exhaustive enumeration agrees that the pair is the optimum
        brute_set, brute_score, _ = _brute_force_best(
            feats, labels, meta["class_set"], meta["domains"], cfg
        )
        assert brute_set == meta["interacting_pair"]
        assert abs(brute_score - beam.best_score) < 1e-12

    def test_beam_width_one_is_classic_sfs(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=12, seed=6)
        cfg = SsfsConfig(beam_width=1, inner_folds=3, inner_repeats=2, seed=11)
        a = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        b = ssfs(
            feats, labels, meta["domains"], replace(cfg, beam_width=1), KP, SVM,
            class_set=meta["class_set"],
        )
        assert a.best_set == b.best_set
        assert a.best_score == b.best_score
        assert a.beam_trace == b.beam_trace
        # classic SFS: each stage keeps only its best candidate, and the next
        # stage extends exactly that one
        kept = ()
        for stage in sorted({c.stage for c in a.beam_trace}):
            cands = [c for c in a.beam_trace if c.stage == stage]
            assert all(c.indices[:-1] == kept for c in cands)
            best = min(cands, key=lambda c: (-c.score, c.indices))
            assert [c for c in cands if c.kept] == [best]
            kept = best.indices
        assert a.best_set == kept

    def test_single_domain_equals_exhaustive_argmax(self):
        feats, labels = _two_class_features(n_per_class=8, seed=7)
        domains = ["A", "A", "A", "A"]
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=2, seed=3)
        result = ssfs(feats, labels, domains, cfg, KP, SVM, class_set=("P", "Q"))
        scores = {
            (i,): score_feature_set(
                feats, labels, ("P", "Q"), (i,), KP, SVM, cfg, _cand_seed(cfg, (i,))
            )
            for i in range(4)
        }
        best = sorted(scores.items(), key=lambda t: (-t[1], t[0]))[0]
        assert result.best_set == best[0]
        assert result.best_score == best[1]

    def test_stage_candidate_counts(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=10, seed=8)
        cfg = SsfsConfig(beam_width=5, inner_folds=3, inner_repeats=1, seed=2)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        stage0 = [c for c in result.beam_trace if c.stage == 0]
        stage1 = [c for c in result.beam_trace if c.stage == 1]
        assert len(stage0) == 2  # one per domain-A component
        assert len(stage1) == min(len(stage0), cfg.beam_width) * 2
        assert sum(c.kept for c in stage0) == 2
        assert sum(c.kept for c in stage1) == 4

    def test_one_component_per_visited_domain(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=10, seed=9)
        cfg = SsfsConfig(beam_width=3, inner_folds=3, inner_repeats=1, seed=4)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        assert len(result.best_set) == 2
        picked_domains = [meta["domains"][i] for i in result.best_set]
        assert sorted(picked_domains) == ["A", "B"]

    def test_beam_dominates_greedy(self):
        for seed in (0, 4, 11):
            feats, labels, meta = generate_interaction_cohort(n_per_class=16, seed=seed)
            cfg = SsfsConfig(beam_width=5, inner_folds=3, inner_repeats=2, seed=seed + 100)
            beam = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
            greedy = ssfs(
                feats, labels, meta["domains"], replace(cfg, beam_width=1), KP, SVM,
                class_set=meta["class_set"],
            )
            assert beam.best_score >= greedy.best_score

    def test_wide_beam_equals_brute_force(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=10, seed=10)
        cfg = SsfsConfig(beam_width=50, inner_folds=3, inner_repeats=1, seed=7)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        brute_set, brute_score, table = _brute_force_best(
            feats, labels, meta["class_set"], meta["domains"], cfg
        )
        assert result.best_set == brute_set
        assert result.best_score == brute_score
        # every cross-product set was evaluated with an identical score
        final_stage = {c.indices: c.score for c in result.beam_trace if c.stage == 1}
        assert final_stage == table

    def test_extra_pass_adds_one_component(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=10, seed=12)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=1, extra_passes=1, seed=5)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        assert len(result.best_set) == 3
        assert len(set(result.best_set)) == 3

    def test_empty_domain_rejected(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=6, seed=13)
        cfg = SsfsConfig(
            beam_width=2, inner_folds=3, inner_repeats=1, domain_order=("A", "C"), seed=6
        )
        with pytest.raises(SelectionError, match="C"):
            ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])

    def test_domain_count_must_match_components(self):
        # with domains cut to 2 of 4 entries ssfs searched components 0 and 1 only
        feats, labels, meta = generate_interaction_cohort(n_per_class=6, seed=13)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=1, seed=6)
        with pytest.raises(SelectionError, match="2 domain labels for 4 components"):
            ssfs(feats, labels, meta["domains"][:2], cfg, KP, SVM, class_set=meta["class_set"])

    def test_trace_csv_round_trip(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=8, seed=14)
        cfg = SsfsConfig(beam_width=2, inner_folds=3, inner_repeats=1, seed=8)
        result = ssfs(feats, labels, meta["domains"], cfg, KP, SVM, class_set=meta["class_set"])
        lines = result.trace_csv().strip().splitlines()
        assert lines[0] == "stage,candidate,score,kept"
        assert len(lines) == 1 + len(result.beam_trace)
        for line, cand in zip(lines[1:], result.beam_trace):
            stage, indices, score, kept = line.split(",")
            assert int(stage) == cand.stage
            assert tuple(int(i) for i in indices.split("|")) == cand.indices
            assert float(score) == cand.score
            assert int(kept) == int(cand.kept)
