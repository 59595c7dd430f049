import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import netresp
from netresp._util import derive_seed
from netresp.cli import _load_features, load_run_config, main
from netresp.datamodel import read_matrix, write_matrix
from netresp.kernels import PabsKernelParams, apply_spectrum_fix, build_kernel_matrix

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_CONFIG = {
    "seed": 5,
    "threads": 2,
    "synth": {
        "grid": [8, 8, 6],
        "n_components": 6,
        "n_domains": 3,
        "timepoints": 40,
        "class_counts": {"AD": 8, "MS": 8, "NR": 4},
        "informative_components": 3,
        "spatial_effect": 1.2,
        "fnc_effect": 0.8,
    },
    "selection": {"beam_width": 3, "inner_folds": 2, "inner_repeats": 2},
    "evaluation": {"outer_folds": 2, "repeats": 3},
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the full pipeline once; several tests inspect its artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    out = root / "run"
    for command in ("simulate", "extract", "fnc"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert (
        main(["select", "--config", str(config), "--out", str(out), "--features", "sm+fnc"])
        == 0
    )
    assert (
        main(["evaluate", "--config", str(config), "--out", str(out), "--features", "sm+fnc"])
        == 0
    )
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    return config, out


def _run_dir(tmp_path, out, linked=(), copied=()):
    """A fresh run directory that links the pipeline's `linked` stage
    directories and holds copies of its `copied` ones."""
    run = tmp_path / "run"
    run.mkdir()
    for name in linked:
        (run / name).symlink_to(out / name)
    for name in copied:
        shutil.copytree(out / name, run / name)
    return run


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        _, out = pipeline_dir
        for rel in (
            "dataset/manifest.json",
            "dataset/template.msmx",
            "features/features.json",
            "selection/result.json",
            "selection/trace.csv",
            "selection/selection_meta.json",
            "eval/report.csv",
            "eval/summary.csv",
            "eval/report.svg",
        ):
            assert (out / rel).exists(), rel

    def test_report_csv_shape(self, pipeline_dir):
        _, out = pipeline_dir
        lines = (out / "eval" / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,repeat,metric,value"
        # 2 folds x 3 repeats x (2 + 3 classes) metrics
        assert len(lines) == 1 + 2 * 3 * 5

    def test_svg_is_wellformed_enough(self, pipeline_dir):
        _, out = pipeline_dir
        svg = (out / "eval" / "report.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 5

    def test_selection_result_contents(self, pipeline_dir):
        _, out = pipeline_dir
        doc = json.loads((out / "selection" / "result.json").read_text())
        assert len(doc["best_set"]) == 3  # one per domain
        assert doc["mode"] == "ssfs"
        assert 0.0 <= doc["best_score"] <= 1.0

    def test_selection_meta_contents(self, pipeline_dir):
        _, out = pipeline_dir
        meta = json.loads((out / "selection" / "selection_meta.json").read_text())
        best = json.loads((out / "selection" / "result.json").read_text())["best_set"]
        planted = json.loads((out / "dataset" / "ground_truth.json").read_text())[
            "informative_indices"
        ]
        stage_scores = {}
        for line in (out / "selection" / "trace.csv").read_text().strip().splitlines()[1:]:
            stage, _, score, _ = line.split(",")
            stage_scores.setdefault(int(stage), []).append(float(score))
        ties = [scores.count(max(scores)) for _, scores in sorted(stage_scores.items())]
        hits = len(set(best) & set(planted))
        assert meta == {
            "top_ties": ties,
            "informative_indices": planted,
            "recall": hits / len(planted),
            "precision": hits / len(best),
        }

    def test_kernel_dump(self, pipeline_dir):
        config, out = pipeline_dir
        rc = main(
            [
                "kernel",
                "--config",
                str(config),
                "--out",
                str(out),
                "--selection",
                "fixed:0,1,2",
            ]
        )
        assert rc == 0
        from netresp.datamodel import read_matrix

        k = read_matrix(out / "kernel" / "kernel.msmx")
        doc = json.loads((out / "kernel" / "subjects.json").read_text())
        assert k.shape == (20, 20)
        assert len(doc["subject_ids"]) == 20

    def test_clip_default_on_dumped_kernel(self, pipeline_dir, tmp_path):
        # build_kernel_matrix gives the raw kernel; the dump carries the
        # configured spectrum fix, clip by default
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        args = ["kernel", "--config", str(config), "--out", str(run), "--features", "sm+fnc"]
        assert main(args + ["--selection", "fixed:0,1,2"]) == 0
        k = read_matrix(run / "kernel" / "kernel.msmx")
        assert np.linalg.eigvalsh(k).min() >= -1e-8
        features = _load_features(run, need_fnc=True)[0]
        raw = build_kernel_matrix(features, [0, 1, 2], PabsKernelParams(), use_fnc=True).values
        assert np.array_equal(k, apply_spectrum_fix(raw, PabsKernelParams()))

    def test_fixed_selection_replaces_stale_trace(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("dataset", "features"), copied=("selection",))
        assert len((run / "selection" / "trace.csv").read_text().splitlines()) > 1
        args = ["select", "--config", str(config), "--out", str(run), "--selection", "fixed:2,3"]
        assert main(args) == 0
        assert (run / "selection" / "trace.csv").read_text() == "stage,candidate,score,kept\n"
        assert json.loads((run / "selection" / "result.json").read_text())["best_set"] == [2, 3]

    def test_evaluate_with_fixed_selection(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        rc = main(
            [
                "evaluate",
                "--config",
                str(config),
                "--out",
                str(out),
                "--features",
                "sm",
                "--selection",
                "fixed:0,1",
            ]
        )
        assert rc == 0

    def test_extract_from_external_dataset_path(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        other = tmp_path / "other"
        rc = main(
            [
                "extract",
                "--config",
                str(config),
                "--out",
                str(other),
                "--template",
                str(out / "dataset"),
            ]
        )
        assert rc == 0
        assert (other / "features" / "features.json").exists()


class TestDeterminism:
    def test_simulate_twice_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        cfg = dict(TINY_CONFIG)
        cfg["synth"] = dict(TINY_CONFIG["synth"], class_counts={"AD": 3, "MS": 3})
        config.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_evaluate_rerun_byte_identical(self, pipeline_dir):
        config, out = pipeline_dir
        args = ["evaluate", "--config", str(config), "--out", str(out), "--features", "sm+fnc"]
        assert main(args) == 0
        report = (out / "eval" / "report.csv").read_bytes()
        summary = (out / "eval" / "summary.csv").read_bytes()
        assert main(args) == 0
        assert (out / "eval" / "report.csv").read_bytes() == report
        assert (out / "eval" / "summary.csv").read_bytes() == summary

    def test_unconverged_solves_in_eval_meta(self, pipeline_dir, tmp_path, capsys):
        config, out = pipeline_dir
        args = ["evaluate", "--config", str(config), "--out", str(out), "--features", "sm+fnc"]
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads((out / "eval" / "eval_meta.json").read_text())["unconverged_solves"] == 0
        assert "warning" not in capsys.readouterr().err
        # the same evaluation with the SMO step cap at one pass per point
        capped = tmp_path / "capped.json"
        capped.write_text(json.dumps(dict(TINY_CONFIG, svm={"max_passes": 1})))
        run = tmp_path / "run"
        run.mkdir()
        for child in out.iterdir():
            if child.name != "eval":
                (run / child.name).symlink_to(child)
        args = ["evaluate", "--config", str(capped), "--out", str(run), "--features", "sm+fnc"]
        assert main(args) == 0
        assert json.loads((run / "eval" / "eval_meta.json").read_text())["unconverged_solves"] > 0
        assert "warning" in capsys.readouterr().err
        header = (run / "eval" / "report.csv").read_text().splitlines()[0]
        assert header == "fold,repeat,metric,value"

    def test_sfs_evaluations_contained_in_ssfs_trace(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        out_sfs = tmp_path / "sfs_run"
        out_sfs.mkdir()
        # reuse the extracted features; only the selection stage differs
        (out_sfs / "features").symlink_to(out / "features")
        rc = main(
            [
                "select",
                "--config",
                str(config),
                "--out",
                str(out_sfs),
                "--features",
                "sm+fnc",
                "--selection",
                "sfs",
            ]
        )
        assert rc == 0

        def evaluated(path):
            rows = path.read_text().strip().splitlines()[1:]
            return {tuple(r.split(",")[1].split("|")) for r in rows}

        sfs_sets = evaluated(out_sfs / "selection" / "trace.csv")
        ssfs_sets = evaluated(out / "selection" / "trace.csv")
        assert sfs_sets <= ssfs_sets


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"sigma_typo": 1}}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "synth.sigma_typo" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_missing_features_exits_1(self, tmp_path):
        rc = main(["select", "--out", str(tmp_path / "empty")])
        assert rc == 1

    def test_selection_error_exits_1(self, tmp_path, capsys):
        # a subject whose first two maps coincide makes every candidate
        # holding both components rank-deficient
        config = tmp_path / "config.json"
        synth = dict(TINY_CONFIG["synth"], n_components=4, n_domains=2,
                     class_counts={"AD": 6, "MS": 6, "NR": 5}, informative_components=2)
        config.write_text(json.dumps(dict(TINY_CONFIG, synth=synth)))
        out = tmp_path / "run"
        for command in ("simulate", "extract", "fnc"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        sm = out / "features" / "s0000.sm.msmx"
        maps = read_matrix(sm)
        maps[1] = maps[0]
        write_matrix(maps, sm)
        capsys.readouterr()
        rc = main(["select", "--config", str(config), "--out", str(out), "--features", "sm"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: candidate [0, 1]: subject s0000")
        assert "numerical rank 1" in err

    def test_eval_error_exits_1(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        from netresp import cli
        from netresp.evaluation import EvalError

        def failing(*args, **kwargs):
            raise EvalError("fold 0, repeat 0: class 'NR' absent from training labels")

        monkeypatch.setattr(cli, "run_experiment", failing)
        config, out = pipeline_dir
        run = tmp_path / "run"
        run.mkdir()
        for child in out.iterdir():
            if child.name != "eval":
                (run / child.name).symlink_to(child)
        capsys.readouterr()
        rc = main(["evaluate", "--config", str(config), "--out", str(run)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: fold 0, repeat 0:")

    def test_bad_fixed_selection_exits_2(self, pipeline_dir):
        config, out = pipeline_dir
        rc = main(
            [
                "evaluate",
                "--config",
                str(config),
                "--out",
                str(out),
                "--selection",
                "fixed:0,99",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["select", "evaluate", "kernel"])
    def test_duplicate_fixed_selection_exits_2(self, pipeline_dir, tmp_path, capsys, command):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        capsys.readouterr()
        rc = main([command, "--config", str(config), "--out", str(run), "--selection", "fixed:1,1"])
        assert rc == 2
        assert "repeats a component" in capsys.readouterr().err
        assert not (run / "selection" / "result.json").exists()

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_errors_name_the_subject_id(self, pipeline_dir, tmp_path, capsys, command):
        # with AD left out, the third kept subject is not s0002; its maps,
        # all copies of one map, make every two-component set rank-deficient
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        doc = json.loads((run / "features" / "features.json").read_text())
        entry = [e for e in doc["subjects"] if e["label"] in ("MS", "NR")][2]
        assert entry["id"] != "s0002"
        sm = run / "features" / entry["sm"]
        maps = read_matrix(sm)
        write_matrix(np.repeat(maps[:1], maps.shape[0], axis=0), sm)
        evaluation = dict(TINY_CONFIG["evaluation"], class_set=["MS", "NR"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, evaluation=evaluation)))
        selection = "ssfs" if command == "select" else "fixed:0,1"
        capsys.readouterr()
        rc = main([command, "--config", str(config), "--out", str(run), "--selection", selection])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"subject {entry['id']}, components" in err

    def test_malformed_features_json_exits_1(self, tmp_path, capsys):
        feat_dir = tmp_path / "run" / "features"
        feat_dir.mkdir(parents=True)
        entry = {"id": "s0000", "label": "AD", "tc": "s0000.tc.msmx"}  # no "sm"
        (feat_dir / "features.json").write_text(
            json.dumps({"subjects": [entry], "class_set": ["AD"], "domains": ["D0"]})
        )
        capsys.readouterr()
        assert main(["select", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "features.json" in err and "'sm'" in err

    def test_result_json_without_best_set_exits_1(self, pipeline_dir, tmp_path, capsys):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        (run / "selection").mkdir()
        (run / "selection" / "result.json").write_text(json.dumps({"mode": "ssfs"}))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "result.json" in err and "'best_set'" in err

    @pytest.mark.parametrize(
        "rel, command",
        [
            ("features/features.json", "select"),
            ("selection/result.json", "evaluate"),
            ("dataset/ground_truth.json", "select"),
        ],
    )
    def test_invalid_json_names_the_file(self, pipeline_dir, tmp_path, capsys, rel, command):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        path = run / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text("{not json")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON")
        assert not (run / "selection" / "trace.csv").exists()

    def test_truth_without_informative_indices_exits_1(self, pipeline_dir, tmp_path, capsys):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        truth = run / "dataset" / "ground_truth.json"
        truth.parent.mkdir()
        truth.write_text(json.dumps({"class_set": ["AD", "MS", "NR"]}))
        capsys.readouterr()
        assert main(["select", "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: missing key 'informative_indices'")
        assert not (run / "selection" / "result.json").exists()
        assert not (run / "selection" / "trace.csv").exists()

    @pytest.mark.parametrize("planted", [5, [1.5, 2], [True], "0,1"])
    def test_truth_indices_not_integers_exits_1(self, pipeline_dir, tmp_path, capsys, planted):
        # {"informative_indices": 5} ended select in a TypeError after
        # result.json and trace.csv were written
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        truth = run / "dataset" / "ground_truth.json"
        truth.parent.mkdir()
        truth.write_text(json.dumps({"informative_indices": planted}))
        capsys.readouterr()
        assert main(["select", "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: 'informative_indices' must be a list of integers")
        assert not (run / "selection" / "result.json").exists()
        assert not (run / "selection" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "best_set, reason",
        [
            ([0.7, 2.2], "holds 0.7, not an integer"),  # was evaluated as [0, 2]
            (3, "must be a non-empty list"),  # was a TypeError traceback
            ([True, 2], "holds True, not an integer"),
            ([], "must be a non-empty list"),
            ([1, 1], "repeats a component"),
            ([0, 6], "index 6 out of range"),
        ],
    )
    def test_bad_best_set_exits_1(self, pipeline_dir, tmp_path, capsys, best_set, reason):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        result = run / "selection" / "result.json"
        result.parent.mkdir()
        result.write_text(json.dumps({"best_set": best_set}))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {result}: 'best_set' ") and reason in err
        assert not (run / "eval").exists()

    def test_domains_not_matching_components_exits_1(self, pipeline_dir, tmp_path, capsys):
        # with domains cut to 2 of 3 entries select searched two domains and exited 0
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        doc_path = run / "features" / "features.json"
        doc = json.loads(doc_path.read_text())
        doc["domains"] = doc["domains"][:2]
        doc_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["select", "--config", str(config), "--out", str(run)]) == 1
        assert "error: 2 domain labels for 6 components" in capsys.readouterr().err

    def test_invalid_features_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--out", str(tmp_path), "--features", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("section", ["synth", "selection", "evaluation"])
    def test_section_seed_exits_2(self, tmp_path, capsys, section):
        # section seeds derive from the master seed and cannot be set
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {"seed": 3}}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{section}.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["7", 7.9, True])
    def test_non_integer_seed_exits_2(self, tmp_path, capsys, seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": seed}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["2", 2.5, 0, -1, True])
    def test_invalid_config_threads_exits_2(self, tmp_path, capsys, threads):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": threads}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "threads must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_invalid_threads_flag_exits_2(self, tmp_path, capsys, threads):
        rc = main(["simulate", "--threads", threads, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "threads must be an integer >= 1" in capsys.readouterr().err


class TestStreaming:
    """simulate, extract and fnc hold one subject per worker, not the cohort."""

    @staticmethod
    def _config(tmp_path, n_per_class) -> Path:
        counts = {"AD": n_per_class, "MS": n_per_class}
        synth = dict(TINY_CONFIG["synth"], timepoints=20, class_counts=counts)
        config = tmp_path / f"config{n_per_class}.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, threads=1, synth=synth)))
        return config

    def test_peak_memory_flat_in_subject_count(self, tmp_path):
        bold_bytes = 20 * 8 * 8 * 6 * 8  # timepoints x voxels float64
        peaks = {}
        for n in (4, 4, 8):  # the first pass takes one-time allocations (imports, caches)
            config, out = self._config(tmp_path, n), tmp_path / f"run{n}"
            for stage in ("simulate", "extract", "fnc"):
                tracemalloc.start()
                try:
                    assert main([stage, "--config", str(config), "--out", str(out)]) == 0
                    peaks[stage, n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for stage in ("simulate", "extract", "fnc"):
            growth = peaks[stage, 8] - peaks[stage, 4]
            assert growth < bold_bytes, (stage, peaks[stage, 4], peaks[stage, 8])

    def test_thread_count_gives_identical_artifacts(self, tmp_path):
        config = self._config(tmp_path, 5)
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            for stage in ("simulate", "extract", "fnc"):
                args = [stage, "--config", str(config), "--out", str(out), "--threads", threads]
                assert main(args) == 0
        t1, t3 = tmp_path / "t1", tmp_path / "t3"
        files = sorted(p.relative_to(t1) for p in t1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(t3) for p in t3.rglob("*") if p.is_file())
        assert {str(f).split("/")[0] for f in files} == {"dataset", "features"}
        for rel in files:
            assert (t1 / rel).read_bytes() == (t3 / rel).read_bytes(), rel

    def test_truncated_bold_fails_extract_without_manifest(self, tmp_path, capsys):
        config, out = self._config(tmp_path, 3), tmp_path / "run"
        for stage in ("simulate", "extract"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert (out / "features" / "features.json").exists()
        bold = out / "dataset" / "s0003.bold.msmx"
        bold.write_bytes(bold.read_bytes()[:-8])
        capsys.readouterr()
        rc = main(["extract", "--config", str(config), "--out", str(out), "--threads", "3"])
        assert rc == 1
        assert str(bold) in capsys.readouterr().err
        assert not (out / "features" / "features.json").exists()


class TestMasterSeed:
    def test_file_seed_equals_flag_seed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        cfg = load_run_config(config)
        assert cfg == load_run_config(None, {"seed": 7})
        assert cfg.synth.seed == 7
        assert cfg.selection.seed == derive_seed(7, "selection")
        assert cfg.evaluation.seed == derive_seed(7, "evaluation")

    def test_no_seed_equals_seed_zero(self):
        assert load_run_config() == load_run_config(None, {"seed": 0})

    def test_flag_seed_overrides_file_seed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        assert load_run_config(config, {"seed": 3}) == load_run_config(None, {"seed": 3})

    def test_readme_config_loads(self, tmp_path):
        # the documented example must use only keys the loader accepts
        section = README.read_text().split("### Run configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = tmp_path / "config.json"
        config.write_text(block)
        cfg = load_run_config(config)
        assert cfg.seed == json.loads(block)["seed"]


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["simulate", "extract", "fnc", "kernel", "select", "evaluate", "report"]
    )
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed", "--threads", "--template", "--features", "--selection"):
            assert flag in text

    def test_console_entry_point(self):
        # the child must import the same package as this process
        src = str(Path(netresp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "netresp.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
