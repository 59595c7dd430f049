import numpy as np
import pytest

from netresp.cli import _TEMPLATE_PRESETS
from netresp.datamodel import load_dataset, write_dataset
from netresp import synth
from netresp.synth import SynthConfig, generate_cohort, generate_template
from oracles import generate_interaction_cohort, template_rows_per_attempt


class TestTemplate:
    def test_single_blob_is_z_scored(self):
        cfg = SynthConfig(
            grid=(8, 8, 4), n_components=1, n_domains=1, informative_components=1, seed=0
        )
        template, _ = generate_template(cfg)
        assert abs(template.maps[0].mean()) < 1e-12
        assert abs(template.maps[0].std() - 1.0) < 1e-12

    def test_pairwise_correlation_bounded(self):
        cfg = SynthConfig(seed=1)
        template, _ = generate_template(cfg)
        corr = np.corrcoef(template.maps)
        np.fill_diagonal(corr, 0.0)
        assert np.abs(corr).max() < 0.5

    def test_large_component_counts_place(self):
        for k, d in [(53, 7), (105, 6)]:
            cfg = SynthConfig(n_components=k, n_domains=d, seed=2)
            template, _ = generate_template(cfg)
            assert template.n_components == k
            corr = np.corrcoef(template.maps)
            np.fill_diagonal(corr, 0.0)
            assert np.abs(corr).max() < 0.5

    def test_deterministic(self):
        cfg = SynthConfig(grid=(8, 8, 4), n_components=5, n_domains=3, seed=3)
        a, _ = generate_template(cfg)
        b, _ = generate_template(cfg)
        assert np.array_equal(a.maps, b.maps)
        assert a.domains == b.domains

    def test_domains_balanced_round_robin(self):
        cfg = SynthConfig(n_components=20, n_domains=6, seed=4)
        template, _ = generate_template(cfg)
        counts = [template.domains.count(d) for d in set(template.domains)]
        assert max(counts) - min(counts) <= 1
        assert len(counts) == 6

    def test_scale_order_assigned(self):
        cfg = SynthConfig(n_components=16, n_domains=4, seed=5)
        template, _ = generate_template(cfg)
        assert template.scale_order is not None
        assert all(0 <= s < 8 for s in template.scale_order)


class TestTemplatePlacement:
    """Batched placement gives the template of the attempt-by-attempt loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["default", "n53", "n105"])
    def test_equals_attempt_by_attempt_oracle(self, preset, seed):
        cfg = SynthConfig(seed=seed, **_TEMPLATE_PRESETS[preset])
        template, meta = generate_template(cfg)
        rows, centers, radii = template_rows_per_attempt(cfg)
        assert template.maps.tobytes() == rows.tobytes()
        assert meta["centers"].tobytes() == centers.tobytes()
        assert meta["radii"].tobytes() == radii.tobytes()

    def test_overcrowded_grid_names_the_component(self):
        cfg = SynthConfig(grid=(4, 4, 4), n_components=40, n_domains=4, seed=0)
        with pytest.raises(RuntimeError) as expected:
            template_rows_per_attempt(cfg)
        assert "could not place component" in str(expected.value)
        with pytest.raises(RuntimeError) as got:
            generate_template(cfg)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("attempts", [1, 2, 5, 40])
    def test_attempt_limit_counts_across_batches(self, attempts, monkeypatch):
        # limits below and above the batch size; a component that has used
        # its attempts fails even when the next pre-drawn attempt would fit
        monkeypatch.setattr(synth, "PLACEMENT_ATTEMPTS", attempts)
        cfg = SynthConfig(seed=0, **_TEMPLATE_PRESETS["n105"])
        try:
            rows, _, _ = template_rows_per_attempt(cfg, attempts)
        except RuntimeError as e:
            with pytest.raises(RuntimeError, match=f"^{e}$"):
                generate_template(cfg)
        else:
            assert generate_template(cfg)[0].maps.tobytes() == rows.tobytes()


class TestCohort:
    def test_bookkeeping(self):
        cfg = SynthConfig(
            grid=(8, 8, 4),
            n_components=6,
            n_domains=3,
            timepoints=20,
            class_counts=(("AD", 4), ("MS", 4), ("NR", 2)),
            count_scale=1.0,
            seed=6,
        )
        dataset, truth = generate_cohort(cfg)
        assert dataset.n_subjects == 10
        labels = [s.label for s in dataset.subjects]
        assert labels.count("AD") == 4 and labels.count("MS") == 4 and labels.count("NR") == 2
        for s in dataset.subjects:
            assert s.bold.shape == (20, 8 * 8 * 4)
            assert np.isfinite(s.bold).all()
        assert len(truth.subject_maps) == 10
        assert len(truth.informative_indices) == cfg.informative_components

    def test_count_scaling(self):
        cfg = SynthConfig(count_scale=0.5)
        assert cfg.scaled_counts() == (("AD", 24), ("MS", 23), ("NR", 4))

    def test_deterministic(self):
        cfg = SynthConfig(
            grid=(8, 8, 4), n_components=5, n_domains=3, timepoints=15,
            class_counts=(("AD", 3), ("MS", 3)), seed=7,
        )
        d1, t1 = generate_cohort(cfg)
        d2, t2 = generate_cohort(cfg)
        for a, b in zip(d1.subjects, d2.subjects):
            assert np.array_equal(a.bold, b.bold)
        assert t1.informative_indices == t2.informative_indices

    def test_threads_do_not_change_output(self):
        cfg = SynthConfig(
            grid=(8, 8, 4), n_components=5, n_domains=3, timepoints=15,
            class_counts=(("AD", 3), ("MS", 3)), seed=8,
        )
        d1, _ = generate_cohort(cfg, threads=1)
        d2, _ = generate_cohort(cfg, threads=4)
        for a, b in zip(d1.subjects, d2.subjects):
            assert np.array_equal(a.bold, b.bold)

    def test_ground_truth_class_separation(self):
        cfg = SynthConfig(
            grid=(10, 10, 6), n_components=8, n_domains=4, timepoints=30,
            class_counts=(("AD", 8), ("MS", 8)), spatial_effect=1.0, seed=9,
        )
        dataset, truth = generate_cohort(cfg)
        labels = np.array([s.label for s in dataset.subjects])
        maps = np.stack(truth.subject_maps)
        mean_ad = maps[labels == "AD"].mean(axis=0)
        mean_ms = maps[labels == "MS"].mean(axis=0)
        informative = set(truth.informative_indices)
        cors = {
            k: np.corrcoef(mean_ad[k], mean_ms[k])[0, 1]
            for k in range(cfg.n_components)
        }
        worst_uninformative = min(v for k, v in cors.items() if k not in informative)
        best_informative = max(v for k, v in cors.items() if k in informative)
        assert best_informative < worst_uninformative

    def test_fnc_targets_differ_between_classes(self):
        cfg = SynthConfig(
            grid=(8, 8, 4), n_components=6, n_domains=3, timepoints=20,
            class_counts=(("AD", 3), ("MS", 3), ("NR", 2)), fnc_effect=0.6, seed=10,
        )
        _, truth = generate_cohort(cfg)
        ad, ms, nr = truth.class_fnc["AD"], truth.class_fnc["MS"], truth.class_fnc["NR"]
        assert not np.allclose(ad, ms)
        assert not np.allclose(ad, nr)
        for m in (ad, ms, nr):
            np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() > 0

    def test_emitted_dataset_loads_back(self, tmp_path):
        cfg = SynthConfig(
            grid=(6, 6, 4), n_components=4, n_domains=2, timepoints=12,
            class_counts=(("AD", 2), ("MS", 2)), seed=11,
        )
        dataset, _ = generate_cohort(cfg)
        manifest = write_dataset(dataset, tmp_path)
        loaded = load_dataset(manifest)
        assert loaded.n_subjects == dataset.n_subjects
        assert loaded.template.domains == dataset.template.domains
        for a, b in zip(loaded.subjects, dataset.subjects):
            assert np.array_equal(a.bold, b.bold)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(grid=(1, 4, 4))
        with pytest.raises(ValueError):
            SynthConfig(informative_components=99)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-1.0)

    def test_class_counts_mapping_equals_pairs(self):
        # the mapping form is how a JSON run config writes class_counts
        pairs = SynthConfig(class_counts=(("AD", 3), ("MS", 2)))
        assert SynthConfig(class_counts={"AD": 3, "MS": 2}) == pairs
        assert SynthConfig(class_counts=[["AD", 3], ["MS", 2]]) == pairs
        assert pairs.class_counts == (("AD", 3), ("MS", 2))


class TestInteractionCohort:
    def test_structure(self):
        feats, labels, meta = generate_interaction_cohort(n_per_class=8, seed=0)
        assert len(feats) == 16
        assert sorted(set(labels)) == ["Q", "R"]
        assert meta["domains"] == ["A", "A", "B", "B"]
        assert meta["interacting_pair"] == (1, 3)
        for f in feats:
            assert f.spatial_maps.shape == (4, 400)

    def test_deterministic(self):
        a, la, _ = generate_interaction_cohort(n_per_class=4, seed=3)
        b, lb, _ = generate_interaction_cohort(n_per_class=4, seed=3)
        assert la == lb
        for x, y in zip(a, b):
            assert np.array_equal(x.spatial_maps, y.spatial_maps)
