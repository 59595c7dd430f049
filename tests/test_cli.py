import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import netresp
from netresp._util import derive_seed
from netresp.cli import ConfigError, RunConfig, _load_features, load_run_config, main
from netresp.datamodel import read_manifest, read_matrix, write_matrix
from netresp.kernels import PabsKernelParams, apply_spectrum_fix, build_kernel_matrix
from netresp.scica import extract_subject

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


def _readme_config_block() -> str:
    """The example config document under the README's run configuration heading."""
    section = README.read_text().split("### Run configuration", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


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

    def test_kernel_dumps_the_class_set(self, pipeline_dir, tmp_path):
        # the dump took every subject, whatever evaluation.class_set named
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        evaluation = dict(TINY_CONFIG["evaluation"], class_set=["AD", "NR"])
        two = tmp_path / "two.json"
        two.write_text(json.dumps(dict(TINY_CONFIG, evaluation=evaluation)))
        args = ["kernel", "--config", str(two), "--out", str(run), "--selection", "fixed:0,1"]
        assert main(args) == 0
        doc = json.loads((run / "features" / "features.json").read_text())
        entries = [e for e in doc["subjects"] if e["label"] in ("AD", "NR")]
        assert len(entries) == 12
        dumped = json.loads((run / "kernel" / "subjects.json").read_text())
        assert dumped["subject_ids"] == [e["id"] for e in entries]
        k = read_matrix(run / "kernel" / "kernel.msmx")
        features = _load_features(run / "features", entries, len(doc["domains"]), False)
        raw = build_kernel_matrix(features, [0, 1], PabsKernelParams(), use_fnc=False).values
        assert np.array_equal(k, apply_spectrum_fix(raw, PabsKernelParams()))

    def test_svg_escapes_metric_names(self, tmp_path):
        # class names reach the plot as metric names: 'A&B' and 'C<D' made
        # report.svg malformed XML
        summary = tmp_path / "run" / "eval" / "summary.csv"
        summary.parent.mkdir(parents=True)
        names = ["macro_pr_auc", "ap_A&B", "ap_C<D"]
        rows = [f"{name},0.5,0.25,0.75,0.0,1.0" for name in names]
        summary.write_text("\n".join(["metric,median,q1,q3,whisker_lo,whisker_hi", *rows]) + "\n")
        assert main(["report", "--out", str(tmp_path / "run")]) == 0
        svg = xml.dom.minidom.parse(str(summary.parent / "report.svg"))
        assert [t.firstChild.data for t in svg.getElementsByTagName("text")][-3:] == names

    def test_clip_default_on_dumped_kernel(self, pipeline_dir, tmp_path):
        # build_kernel_matrix gives the raw kernel; the dump carries the
        # configured spectrum fix, clip by default
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        args = ["kernel", "--config", str(config), "--out", str(run), "--features", "sm+fnc"]
        assert main(args + ["--selection", "fixed:0,1,2"]) == 0
        k = read_matrix(run / "kernel" / "kernel.msmx")
        assert np.linalg.eigvalsh(k).min() >= -1e-8
        doc = json.loads((run / "features" / "features.json").read_text())
        features = _load_features(run / "features", doc["subjects"], len(doc["domains"]), True)
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

    def test_select_threads_byte_identical(self, pipeline_dir, tmp_path):
        # every worker thread reads the one inner partition list
        config, out = pipeline_dir
        written = []
        for threads in ("1", "3"):
            run = tmp_path / f"threads{threads}"
            run.mkdir()
            for name in ("dataset", "features"):
                (run / name).symlink_to(out / name)
            args = ["select", "--config", str(config), "--out", str(run), "--features", "sm+fnc"]
            assert main(args + ["--threads", threads]) == 0
            sel = run / "selection"
            written.append({p.name: p.read_bytes() for p in sorted(sel.iterdir())})
        assert list(written[0]) == ["result.json", "selection_meta.json", "trace.csv"]
        assert written[0] == written[1]

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


# settings a stage would take silently or fail on halfway, each with that
# stage: every one must be a configuration error before anything is touched
BAD_SETTINGS = [
    # a float count would raise TypeError mid-stage, in extract after
    # features.json is removed
    ("evaluate", "evaluation", "repeats", 2.5),
    ("select", "selection", "beam_width", 1.5),
    ("select", "selection", "inner_repeats", 1.5),
    ("extract", "scica", "max_iters", 10.5),
    # ... or run a protocol other than the one recorded: 3 folds for 2.5,
    # an SMO step cap that never fires for 1.01, one repeat for true
    ("evaluate", "evaluation", "outer_folds", 2.5),
    ("evaluate", "svm", "max_passes", 1.01),
    ("evaluate", "evaluation", "repeats", True),
    # a repeated class would score F1 0 and weigh double; a string would
    # split into one-letter classes
    ("evaluate", "evaluation", "class_set", ["AD", "AD", "MS", "NR"]),
    ("evaluate", "evaluation", "class_set", "AD"),
    # a comma split each summary.csv row of that class, which report then
    # rejected; a line break split the row in two
    ("evaluate", "evaluation", "class_set", ["AD,MS", "NR"]),
    ("evaluate", "evaluation", "class_set", ["AD", "MS\nNR"]),
    ("simulate", "synth", "class_counts", {"A,D": 8, "MS": 8}),
    # a count below 1 would simulate one subject; one class or a repeated
    # one would fail in write_subjects
    ("simulate", "synth", "class_counts", {"AD": 0, "MS": 8, "NR": 4}),
    ("simulate", "synth", "class_counts", {"AD": -4, "MS": 8, "NR": 4}),
    ("simulate", "synth", "class_counts", {"AD": 8}),
    ("simulate", "synth", "class_counts", [["AD", 4], ["AD", 4], ["MS", 4]]),
    # a float count or grid size would be truncated
    ("simulate", "synth", "class_counts", {"AD": 8.5, "MS": 8, "NR": 4}),
    ("simulate", "synth", "grid", [8, 8, 6.5]),
]

# one row per float setting: NaN or an infinity, as JSON configs may spell
# them, would pass the range checks or meet only a range message (as for
# kernel.combine_weight), and count_scale Infinity would raise OverflowError
NON_FINITE_SETTINGS = [
    ("simulate", "synth", "count_scale", float("inf")),
    ("simulate", "synth", "spatial_effect", float("nan")),
    ("simulate", "synth", "spatial_scatter", float("inf")),
    ("simulate", "synth", "fnc_effect", float("nan")),
    ("simulate", "synth", "noise_sigma", float("nan")),
    ("simulate", "synth", "map_noise", float("inf")),
    ("extract", "scica", "tol", float("inf")),
    ("extract", "scica", "constraint_weight", float("nan")),
    ("select", "kernel", "gamma", float("inf")),
    ("select", "kernel", "fnc_gamma", float("inf")),
    ("select", "kernel", "combine_weight", float("nan")),
    ("evaluate", "svm", "C", float("inf")),
    ("evaluate", "svm", "smo_tol", float("inf")),
]

# one row per bounded setting, each just outside its bound: a count below
# its minimum, a float below 0 or, where it must be positive, at 0, and
# combine_weight above 1; each message names the key and the value, for
# grid and class_counts the entry at fault
RANGE_SETTINGS = [
    ("simulate", "synth", "grid", [8, 8, 1]),
    ("simulate", "synth", "n_components", 0),
    ("simulate", "synth", "n_domains", 0),
    ("simulate", "synth", "timepoints", 1),
    ("simulate", "synth", "class_counts", {"AD": 8, "MS": 8, "NR": 0}),
    ("simulate", "synth", "count_scale", 0),
    ("simulate", "synth", "informative_components", -1),
    ("simulate", "synth", "spatial_effect", -0.1),
    ("simulate", "synth", "spatial_scatter", -0.1),
    ("simulate", "synth", "fnc_effect", -0.1),
    ("simulate", "synth", "noise_sigma", -0.1),
    ("simulate", "synth", "map_noise", -0.1),
    ("extract", "scica", "max_iters", 0),
    ("extract", "scica", "tol", 0),
    ("extract", "scica", "constraint_weight", -0.1),
    ("extract", "scica", "pca_retained", 0),
    ("select", "kernel", "gamma", 0),
    ("select", "kernel", "fnc_gamma", 0),
    ("select", "kernel", "combine_weight", -0.1),
    ("select", "kernel", "combine_weight", 1.5),
    ("evaluate", "svm", "C", 0),
    ("evaluate", "svm", "smo_tol", 0),
    ("evaluate", "svm", "max_passes", 0),
    ("select", "selection", "beam_width", 0),
    ("select", "selection", "inner_folds", 1),
    ("select", "selection", "inner_repeats", 0),
    ("evaluate", "evaluation", "outer_folds", 1),
    ("evaluate", "evaluation", "repeats", 0),
    ("evaluate", "evaluation", "permutation_rounds", 0),
]

# synth values of the wrong shape: a grid that is not 3 sizes, class counts
# that are neither an object nor [name, count] pairs; each message names the
# key and the whole value
SHAPE_SETTINGS = [
    ("grid", 8),
    ("grid", [8, 8]),
    ("grid", [8, 8, 8, 8]),
    ("grid", "abc"),
    ("class_counts", 5),
    ("class_counts", [["AD"]]),
]


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [
            "synth.sigma_typo",
            # removed keys, whose code paths no run took
            "scica.nonlinearity",
            "kernel.ridge_lambda",
            "svm.class_weighted",
            "selection.scorer",
            "selection.domain_order",
            "selection.extra_passes",
        ],
    )
    def test_unknown_nested_key_exits_2(self, tmp_path, capsys, key):
        section, name = key.split(".")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {name: 1}}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config section '{section}': unknown key '{name}'" in capsys.readouterr().err

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

    def test_manifest_scale_order_not_integers_exits_1(self, pipeline_dir, tmp_path, capsys):
        # [1.5, true, 2.9, ...] was read as (1, 1, 2, ...)
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("dataset",))
        manifest = run / "dataset" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["scale_order"] = [1.5, True, 2.9] + doc["scale_order"][3:]
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["extract", "--config", str(config), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and "scale_order" in err and "1.5" in err
        assert not (run / "features").exists()

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
        "text, reason",
        [
            # each was a traceback: KeyError 'whisker_lo', then IndexError
            ("metric,median\nmacro_f1,0.9\n", "missing column 'q1'"),
            ("", "missing column 'metric'"),
            ("metric,median,q1,q3,whisker_lo,whisker_hi\nmacro_f1,0.9\n", "line 2 has 2 fields"),
            # exited 1 naming neither the file nor the value's place
            (
                "metric,median,q1,q3,whisker_lo,whisker_hi\nmacro_f1,1,1,1,1,1\nap_AD,x,0,1,0,1\n",
                "line 3, column 'median': 'x' is not a number",
            ),
            # drawn as y1="nan" and y1="-inf"
            (
                "metric,median,q1,q3,whisker_lo,whisker_hi\nmacro_f1,nan,1,1,inf,1\n",
                "line 2, column 'median': 'nan' is not a finite number",
            ),
            (
                "metric,median,q1,q3,whisker_lo,whisker_hi\nmacro_f1,1,1,1,-inf,1\n",
                "line 2, column 'whisker_lo': '-inf' is not a finite number",
            ),
        ],
        ids=["two-columns", "empty", "short-row", "not-a-number", "nan", "infinite"],
    )
    def test_malformed_summary_exits_1(self, tmp_path, capsys, text, reason):
        summary = tmp_path / "run" / "eval" / "summary.csv"
        summary.parent.mkdir(parents=True)
        summary.write_text(text)
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {summary}: {reason}")
        assert not (summary.parent / "report.svg").exists()

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
        "planted, reason", [([99, 0], "index 99 out of range"), ([0, 0], "repeats a component")]
    )
    def test_truth_indices_not_components_exits_1(
        self, pipeline_dir, tmp_path, capsys, planted, reason
    ):
        # [99, 0] on a 4-component cohort was scored as recall 0.5
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        truth = run / "dataset" / "ground_truth.json"
        truth.parent.mkdir()
        truth.write_text(json.dumps({"informative_indices": planted}))
        capsys.readouterr()
        args = ["select", "--config", str(config), "--out", str(run), "--selection", "fixed:0,1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: 'informative_indices' ")
        assert reason in err
        assert not (run / "selection").exists()

    def test_empty_truth_indices_give_null_recall(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        truth = run / "dataset" / "ground_truth.json"
        truth.parent.mkdir()
        truth.write_text(json.dumps({"informative_indices": []}))
        args = ["select", "--config", str(config), "--out", str(run), "--selection", "fixed:0,1"]
        assert main(args) == 0
        meta = json.loads((run / "selection" / "selection_meta.json").read_text())
        assert meta["informative_indices"] == [] and meta["recall"] is None

    def test_kernel_without_fixed_selection_exits_2(self, tmp_path, capsys):
        # the mode alone is a config error, so no features need to exist
        capsys.readouterr()
        assert main(["kernel", "--out", str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel dump requires --selection fixed:")

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
        for entry in doc["subjects"]:  # without flags to count, the matrices are checked
            del entry["converged"]
        doc_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["select", "--config", str(config), "--out", str(run)]) == 1
        assert "error: 2 domain labels for 6 components" in capsys.readouterr().err

    def test_fnc_time_course_columns_checked(self, pipeline_dir, tmp_path, capsys):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        doc = json.loads((run / "features" / "features.json").read_text())
        entry = doc["subjects"][1]
        tc = run / "features" / entry["tc"]
        write_matrix(read_matrix(tc)[:, :5], tc)
        capsys.readouterr()
        assert main(["fnc", "--config", str(config), "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: subject {entry['id']}: time courses have 5 columns, "
            "expected 6, one per 'domains' entry\n"
        )

    @pytest.mark.parametrize(
        "keys, value, command, selection, message",
        [
            # each was a TypeError traceback, except the silent success noted
            (("subjects",), 7, "select", "ssfs", "'subjects'"),
            (("subjects",), 7, "fnc", "ssfs", "'subjects'"),
            (("domains",), 5, "select", "ssfs", "'domains'"),
            (("domains",), 5, "select", "fixed:0,1", "'domains'"),  # exited 0
            (("domains",), ["D0", 3], "evaluate", "fixed:0,1", "'domains'"),
            (("domains",), None, "kernel", "fixed:0,1", "'domains'"),
            (("subjects", 0, "label"), ["AD"], "select", "fixed:0,1", "subject entry 0: 'label'"),
            (("subjects", 0, "sm"), 5, "evaluate", "fixed:0,1", "subject entry 0: 'sm'"),
            (("subjects", 0, "fnc"), None, "evaluate", "fixed:0,1", "subject entry 0: 'fnc'"),
            # 11 domains for 6 components: exited 0 and wrote best_set [0, 8]
            (("domains",), ["D0"] * 11, "select", "fixed:0,8", "subject entry 0: 'converged'"),
            # K is its length; was reported as a 'converged' count fault
            (("domains",), [], "kernel", "fixed:0,1", "'domains'"),
            # fnc wrote features/../escaped.fnc.msmx; the file names were read
            # wherever they pointed
            (("subjects", 0, "id"), "../escaped", "fnc", "ssfs", "subject entry 0: 'id'"),
            (("subjects", 0, "sm"), "sub/s.sm.msmx", "evaluate", "fixed:0,1", "subject entry 0: 'sm'"),
            (("subjects", 1, "fnc"), "..", "kernel", "fixed:0,1", "subject entry 1: 'fnc'"),
        ],
    )
    def test_features_json_shape_exits_1(
        self, pipeline_dir, tmp_path, capsys, keys, value, command, selection, message
    ):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        doc_path = run / "features" / "features.json"
        doc = json.loads(doc_path.read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        doc_path.write_text(json.dumps(doc))
        capsys.readouterr()
        args = [command, "--config", str(config), "--out", str(run), "--features", "sm+fnc"]
        assert main(args + ["--selection", selection]) == 1
        assert capsys.readouterr().err.startswith(f"error: {doc_path}: {message} must be a")
        assert not (run / "selection").exists()

    @pytest.mark.parametrize("command", ["fnc", "select"])
    def test_repeated_features_id_exits_1(self, pipeline_dir, tmp_path, capsys, command):
        # fnc wrote both FNCs to s0000.fnc.msmx, so subject 0 took subject
        # 1's, and select exited 0
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("features",))
        doc_path = run / "features" / "features.json"
        doc = json.loads(doc_path.read_text())
        doc["subjects"][1]["id"] = "s0000"
        doc_path.write_text(json.dumps(doc))
        capsys.readouterr()
        args = [command, "--config", str(config), "--out", str(run), "--features", "sm+fnc"]
        assert main(args) == 1
        message = f"error: {doc_path}: subject entry 1: duplicate subject id 's0000'"
        assert capsys.readouterr().err.startswith(message)

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
        assert f"config section '{section}': unknown key 'seed'" in capsys.readouterr().err

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
        err = capsys.readouterr().err
        assert "threads must be " in err and f"got {threads!r}" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_invalid_threads_flag_exits_2(self, tmp_path, capsys, threads):
        rc = main(["simulate", "--threads", threads, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err

    @staticmethod
    def _config_error(pipeline_dir, tmp_path, capsys, command, section, updates) -> str:
        """stderr of `command` run with `updates` to one config section on a
        copy of the pipeline's inputs; it must exit 2 and change no file."""
        _, out = pipeline_dir
        run = _run_dir(tmp_path, out, copied=("dataset", "features", "selection"))
        doc = dict(TINY_CONFIG, **{section: dict(TINY_CONFIG.get(section, {}), **updates)})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))  # NaN and infinities as JSON's NaN, Infinity
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        capsys.readouterr()
        rc = main([command, "--config", str(config), "--out", str(run), "--features", "sm+fnc"])
        assert rc == 2
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, value",
        BAD_SETTINGS,
        ids=[f"{s}.{k}={json.dumps(v, separators=(',', ':'))}" for _, s, k, v in BAD_SETTINGS],
    )
    def test_bad_setting_exits_2_and_touches_nothing(
        self, pipeline_dir, tmp_path, capsys, command, section, key, value
    ):
        err = self._config_error(pipeline_dir, tmp_path, capsys, command, section, {key: value})
        assert f"invalid {section} config: {key}" in err

    @pytest.mark.parametrize(
        "command, section, key, value",
        NON_FINITE_SETTINGS,
        ids=[f"{s}.{k}={v}" for _, s, k, v in NON_FINITE_SETTINGS],
    )
    def test_non_finite_float_setting_exits_2(
        self, pipeline_dir, tmp_path, capsys, command, section, key, value
    ):
        err = self._config_error(pipeline_dir, tmp_path, capsys, command, section, {key: value})
        assert f"invalid {section} config: {key} must be a finite number" in err

    @pytest.mark.parametrize(
        "command, section, key, value",
        RANGE_SETTINGS,
        ids=[f"{s}.{k}={json.dumps(v, separators=(',', ':'))}" for _, s, k, v in RANGE_SETTINGS],
    )
    def test_out_of_range_setting_names_key_and_value(
        self, pipeline_dir, tmp_path, capsys, command, section, key, value
    ):
        err = self._config_error(pipeline_dir, tmp_path, capsys, command, section, {key: value})
        assert f"invalid {section} config: {key}" in err
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):  # grid and class_counts: the entry at fault is the last
            value = value[-1]
        assert f"got {value!r}" in err

    @pytest.mark.parametrize(
        "key, value",
        SHAPE_SETTINGS,
        ids=[f"synth.{k}={json.dumps(v, separators=(',', ':'))}" for k, v in SHAPE_SETTINGS],
    )
    def test_synth_shape_error_names_key_and_value(
        self, pipeline_dir, tmp_path, capsys, key, value
    ):
        err = self._config_error(pipeline_dir, tmp_path, capsys, "simulate", "synth", {key: value})
        assert f"invalid synth config: {key}" in err
        assert f"got {value!r}" in err

    def test_components_the_grid_cannot_hold_exit_2(self, pipeline_dir, tmp_path, capsys):
        # was a RuntimeError traceback from placing the template's components
        updates = {"n_components": 1000, "grid": [16, 16, 8]}
        err = self._config_error(pipeline_dir, tmp_path, capsys, "simulate", "synth", updates)
        assert "synth.n_components 1000 is too many for synth.grid [16, 16, 8]" in err

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_class_set_name_missing_from_data_exits_2(
        self, pipeline_dir, tmp_path, capsys, command
    ):
        # a dropped name would run the protocol over the AD and MS subjects alone
        updates = {"class_set": ["AD", "MS", "XX"]}
        err = self._config_error(pipeline_dir, tmp_path, capsys, command, "evaluation", updates)
        assert "evaluation.class_set names 'XX'" in err


class TestMatrixReads:
    """A fixed selection is checked before any subject matrix is read."""

    @staticmethod
    def _counted_reads(monkeypatch) -> list:
        from netresp import cli

        reads = []

        def counting(path):
            reads.append(path)
            return read_matrix(path)

        monkeypatch.setattr(cli, "read_matrix", counting)
        return reads

    @pytest.mark.parametrize("command", ["kernel", "evaluate"])
    def test_out_of_range_fixed_set_reads_nothing(
        self, pipeline_dir, tmp_path, monkeypatch, capsys, command
    ):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("features",))
        reads = self._counted_reads(monkeypatch)
        capsys.readouterr()
        args = [command, "--config", str(config), "--out", str(run), "--selection", "fixed:0,99"]
        assert main(args) == 2
        assert "fixed selection index 99 out of range" in capsys.readouterr().err
        assert reads == []

    def test_malformed_fixed_set_exits_2_without_features(self, tmp_path, monkeypatch, capsys):
        # the set is parsed with the config, before the stage looks for its inputs
        reads = self._counted_reads(monkeypatch)
        capsys.readouterr()
        assert main(["evaluate", "--out", str(tmp_path / "empty"), "--selection", "fixed:x"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad fixed selection 'fixed:x'")
        assert reads == []

    def test_fixed_select_reads_no_matrix(self, pipeline_dir, tmp_path, monkeypatch):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("dataset", "features"))
        reads = self._counted_reads(monkeypatch)
        args = ["select", "--config", str(config), "--out", str(run), "--selection", "fixed:0,1"]
        assert main(args) == 0
        assert reads == []
        expected = {
            "best_set": [0, 1],
            "best_score": None,
            "mode": "fixed:0,1",
            "features": "sm",
            "final_beam": [{"set": [0, 1], "score": None}],
        }
        result = (run / "selection" / "result.json").read_text()
        assert result == json.dumps(expected, indent=2) + "\n"
        # no search: the trace is its header alone, and no stage had ties
        assert (run / "selection" / "trace.csv").read_text() == "stage,candidate,score,kept\n"
        truth = json.loads((out / "dataset" / "ground_truth.json").read_text())
        planted = truth["informative_indices"]
        hits = len(set(planted) & {0, 1})
        meta = {
            "top_ties": [],
            "informative_indices": planted,
            "recall": hits / len(planted),
            "precision": hits / 2,
        }
        written = (run / "selection" / "selection_meta.json").read_text()
        assert written == json.dumps(meta, indent=2) + "\n"


def test_rank_deficient_extraction_runs_through_evaluate(tmp_path):
    """With fewer whitened rows than components the maps are rank-deficient,
    so extract solves the time courses by lstsq and the later stages run."""
    synth = dict(TINY_CONFIG["synth"], n_components=4, n_domains=2, informative_components=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY_CONFIG, synth=synth, scica={"pca_retained": 2})))
    out = tmp_path / "run"
    for stage in ("simulate", "extract", "fnc", "select", "evaluate"):
        args = [stage, "--config", str(config), "--out", str(out), "--features", "sm+fnc"]
        assert main(args[:5] if stage in ("simulate", "extract", "fnc") else args) == 0, stage
    doc = json.loads((out / "features" / "features.json").read_text())
    for entry in doc["subjects"]:
        bold = read_matrix(out / "dataset" / f"{entry['id']}.bold.msmx")
        maps = read_matrix(out / "features" / entry["sm"])
        xz = (bold - bold.mean(axis=0)) / bold.std(axis=0)
        expected = np.linalg.lstsq(maps.T, xz.T, rcond=None)[0].T
        tc = read_matrix(out / "features" / entry["tc"])
        assert tc.tobytes() == np.ascontiguousarray(expected).tobytes(), entry["id"]


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

    def test_each_stage_holds_one_subject_working_set(self, tmp_path):
        # at the n105 sizes one subject's bold, 164 x 2048 doubles, is the
        # largest array. simulate holds the bold being made, the one being
        # written, the template and a subject's maps; extract holds the bold,
        # z-scored in place, its centred copy and the template and maps
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 1, "synth": {"class_counts": {"AD": 3, "MS": 3}}}))
        bold_bytes = 164 * 2048 * 8
        budget = {"simulate": 4.5, "extract": 4.25, "fnc": 1.0}  # in bolds
        peaks = {}
        for run in ("warm", "measured"):  # the first pass takes one-time allocations
            out = tmp_path / run
            for stage in budget:
                tracemalloc.start()
                try:
                    args = [stage, "--config", str(config), "--out", str(out), "--template", "n105"]
                    assert main(args) == 0
                    peaks[stage] = tracemalloc.get_traced_memory()[1] / bold_bytes
                finally:
                    tracemalloc.stop()
        assert all(peaks[stage] <= budget[stage] for stage in budget), peaks

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

    def test_in_place_extract_writes_what_a_copy_gives(self, tmp_path):
        # extract hands each bold it reads to extract_subject to be z-scored in
        # place; the library's default call works on a copy of the caller's array
        config, out = self._config(tmp_path, 3), tmp_path / "run"
        for stage in ("simulate", "extract"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        cfg = load_run_config(config)
        manifest = read_manifest(out / "dataset" / "manifest.json")
        seed = derive_seed(cfg.seed, "extract")
        for n, entry in enumerate(manifest.entries):
            bold = read_matrix(entry["bold"])
            kept = bold.copy()
            f = extract_subject(
                bold, manifest.template, cfg.scica, seed=derive_seed(seed, "subject", n)
            )
            assert bold.tobytes() == kept.tobytes()
            for kind, m in (("sm", f.spatial_maps), ("tc", f.time_courses)):
                write_matrix(m, tmp_path / "library.msmx")
                written = out / "features" / f"{entry['id']}.{kind}.msmx"
                assert (tmp_path / "library.msmx").read_bytes() == written.read_bytes()

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



class TestFailedStages:
    """A stage that fails leaves no output the next stage would take as its own."""

    def test_failed_fnc_keeps_features_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, threads=1)))
        run, good = tmp_path / "run", tmp_path / "good"
        for stage in ("simulate", "extract"):
            assert main([stage, "--config", str(config), "--out", str(run)]) == 0
        shutil.copytree(run / "features", good / "features")
        doc_path = run / "features" / "features.json"
        doc = doc_path.read_bytes()
        tc = run / "features" / "s0003.tc.msmx"
        intact = tc.read_bytes()
        tc.write_bytes(intact[:-8])
        capsys.readouterr()
        assert main(["fnc", "--config", str(config), "--out", str(run)]) == 1
        assert str(tc) in capsys.readouterr().err
        assert doc_path.read_bytes() == doc
        tc.write_bytes(intact)
        for out in (run, good):
            assert main(["fnc", "--config", str(config), "--out", str(out)]) == 0
        files = sorted(p.name for p in (good / "features").iterdir())
        assert sorted(p.name for p in (run / "features").iterdir()) == files
        for name in files:
            assert (run / "features" / name).read_bytes() == (good / "features" / name).read_bytes()

    def test_failed_select_and_evaluate_leave_no_hand_off(self, pipeline_dir, tmp_path, capsys):
        # 7 folds for 4 NR subjects: both stages fail after their config checks
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("dataset", "features"), copied=("selection", "eval"))
        selection = dict(TINY_CONFIG["selection"], inner_folds=7)
        evaluation = dict(TINY_CONFIG["evaluation"], outer_folds=7)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(TINY_CONFIG, selection=selection, evaluation=evaluation)))
        for stage in ("select", "evaluate"):
            assert main([stage, "--config", str(bad), "--out", str(run)]) == 1
        assert not (run / "selection" / "result.json").exists()
        assert not (run / "eval" / "summary.csv").exists()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(run)]) == 1
        assert "(run select first)" in capsys.readouterr().err
        assert main(["report", "--config", str(config), "--out", str(run)]) == 1
        assert "(run evaluate first)" in capsys.readouterr().err


    @pytest.mark.parametrize("stage", ["extract", "select", "evaluate", "kernel", "report"])
    def test_failed_stage_leaves_none_of_its_outputs(self, pipeline_dir, tmp_path, stage):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("dataset",), copied=("features", "selection", "eval"))
        args = ["--config", str(config), "--out", str(run), "--features", "sm+fnc"]
        assert main(["kernel", *args, "--selection", "fixed:0,1"]) == 0
        assert main(["report", *args]) == 0  # an earlier test re-ran evaluate
        outputs = {
            "extract": ["features.json"],
            "select": ["result.json", "trace.csv", "selection_meta.json"],
            "evaluate": ["report.csv", "summary.csv", "eval_meta.json", "report.svg"],
            "kernel": ["kernel.msmx", "subjects.json"],
            "report": ["report.svg"],
        }[stage]
        dirs = {"extract": "features", "select": "selection", "kernel": "kernel"}
        stage_dir = run / dirs.get(stage, "eval")
        assert all((stage_dir / name).exists() for name in outputs)
        # each stage fails past its config checks: select and evaluate on 7
        # folds for 4 NR subjects (they left their old trace.csv, report.csv
        # and the rest beside the removed hand-off), kernel on a truncated
        # maps file, report on a summary without its quartiles and extract on
        # a dataset path that does not exist
        selection = dict(TINY_CONFIG["selection"], inner_folds=7)
        evaluation = dict(TINY_CONFIG["evaluation"], outer_folds=7)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(TINY_CONFIG, selection=selection, evaluation=evaluation)))
        extra = []
        if stage == "kernel":
            maps = run / "features" / "s0003.sm.msmx"
            maps.write_bytes(maps.read_bytes()[:-8])
            extra = ["--selection", "fixed:0,1"]
        elif stage == "report":
            (run / "eval" / "summary.csv").write_text("metric,median\nmacro_f1,1\n")
        elif stage == "extract":
            extra = ["--template", str(tmp_path / "missing")]
        args = [stage, "--config", str(bad), "--out", str(run), "--features", "sm+fnc"]
        assert main(args + extra) == 1
        assert [name for name in outputs if (stage_dir / name).exists()] == []


class TestKernelStages:
    """select, evaluate and kernel read each subject's maps only while they
    factor them, and never read time courses."""

    def test_time_courses_are_not_read(self, pipeline_dir, tmp_path):
        config, out = pipeline_dir
        run = _run_dir(tmp_path, out, linked=("dataset",), copied=("features",))
        for tc in (run / "features").glob("*.tc.msmx"):
            tc.unlink()
        best = json.loads((out / "selection" / "result.json").read_text())["best_set"]
        fixed = ["--selection", "fixed:" + ",".join(map(str, best))]
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "features").symlink_to(out / "features")
        args = ["--config", str(config), "--features", "sm+fnc"]
        assert main(["select", "--out", str(run), *args]) == 0
        assert main(["evaluate", "--out", str(run), *args, *fixed]) == 0
        assert main(["kernel", "--out", str(run), *args, *fixed]) == 0
        assert main(["kernel", "--out", str(ref), *args, *fixed]) == 0
        for stage, name in [("selection", "result.json"), ("selection", "trace.csv"),
                            ("selection", "selection_meta.json"), ("eval", "report.csv"),
                            ("eval", "summary.csv")]:
            assert (run / stage / name).read_bytes() == (out / stage / name).read_bytes(), name
        for name in ("kernel.msmx", "subjects.json"):
            assert (run / "kernel" / name).read_bytes() == (ref / "kernel" / name).read_bytes()

    def test_evaluate_and_kernel_hold_no_cohort_maps(self, tmp_path):
        # at the n105 sizes one subject's maps, 105 x 2048 doubles, are its
        # largest feature array. The stages hold each subject's FNC and the
        # Q factor of its six selected maps and, while factoring, one
        # subject's maps; the budget allows one more subject's maps
        n_subjects, maps_bytes = 8, 105 * 2048 * 8
        held = n_subjects * (105 * 105 + 2048 * 6) * 8
        budget = 2 * maps_bytes + held
        assert budget < n_subjects * maps_bytes  # one copy of the cohort's maps
        config = tmp_path / "config.json"
        evaluation = {"class_set": ["AD", "MS"], "outer_folds": 2, "repeats": 2}
        synth = {"class_counts": {"AD": n_subjects // 2, "MS": n_subjects // 2}}
        config.write_text(json.dumps({"threads": 1, "synth": synth, "evaluation": evaluation}))
        out = tmp_path / "run"
        args = ["--config", str(config), "--out", str(out), "--template", "n105"]
        for stage in ("simulate", "extract", "fnc"):
            assert main([stage, *args]) == 0
        args += ["--features", "sm+fnc", "--selection", "fixed:50,55,6,13,10,9"]
        peaks = {}
        for _ in ("warm", "measured"):  # the first pass takes one-time allocations
            for stage in ("evaluate", "kernel"):
                tracemalloc.start()
                try:
                    assert main([stage, *args]) == 0
                    peaks[stage] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert all(peak <= budget for peak in peaks.values()), (peaks, budget)


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
        config = tmp_path / "config.json"
        config.write_text(_readme_config_block())
        cfg = load_run_config(config)
        assert cfg.seed == json.loads(config.read_text())["seed"]

    def test_readme_config_lists_every_key(self, tmp_path):
        # ... and name every key a config may set
        config = tmp_path / "config.json"
        config.write_text(_readme_config_block())
        load_run_config(config)
        fields = [f for f in dataclasses.fields(RunConfig) if f.init]
        sections = {f.name: f.default for f in fields if dataclasses.is_dataclass(f.default)}
        settable = {f.name for f in fields if f.name not in sections}
        for name, default in sections.items():
            settable |= {f"{name}.{f.name}" for f in dataclasses.fields(default) if f.name != "seed"}
        documented = set()
        for key, value in json.loads(config.read_text()).items():
            documented |= {f"{key}.{k}" for k in value} if key in sections else {key}
        assert documented == settable

    def test_package_exports_what_the_readme_example_imports(self):
        # the package namespace is the library example's calls, no more
        section = README.read_text().split("## Library use\n", 1)[1]
        example = section.split("```python\n", 1)[1].split("```", 1)[0]
        imported = [
            alias.name
            for node in ast.walk(ast.parse(example))
            if isinstance(node, ast.ImportFrom) and node.module == "netresp"
            for alias in node.names
        ]
        assert sorted(netresp.__all__) == sorted(imported)
        assert all(hasattr(netresp, name) for name in netresp.__all__)


class TestRunConfig:
    """load_run_config merges the given flags into the file and derives once."""

    @staticmethod
    def _load(tmp_path, doc, **flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        return load_run_config(config, flags)

    @pytest.mark.parametrize("template, sizes", [("n53", (53, 7)), ("n105", (105, 6))])
    def test_template_preset_sets_synth_sizes(self, tmp_path, template, sizes):
        cfg = self._load(tmp_path, {"synth": {"n_components": 8}}, template=template)
        assert (cfg.synth.n_components, cfg.synth.n_domains) == sizes

    def test_flag_template_overrides_file_preset(self, tmp_path):
        cfg = self._load(tmp_path, {"template": "n53"}, template="default")
        assert cfg.synth.n_components == 20
        assert cfg == load_run_config()

    def test_flag_ssfs_keeps_file_beam_width(self, tmp_path):
        doc = {"selection_mode": "sfs", "selection": {"beam_width": 3}}
        assert self._load(tmp_path, doc).selection.beam_width == 1
        assert self._load(tmp_path, doc, selection_mode="ssfs").selection.beam_width == 3

    @pytest.mark.parametrize("doc", [{}, {"selection": {"beam_width": 3}}])
    def test_sfs_is_beam_width_one(self, tmp_path, doc):
        assert self._load(tmp_path, doc, selection_mode="sfs").selection.beam_width == 1

    @pytest.mark.parametrize(
        "mode, fixed", [("ssfs", None), ("fixed:3,0", (3, 0)), ("fixed: 1,,2 ", (1, 2))]
    )
    def test_fixed_set_parsed_with_the_config(self, mode, fixed):
        cfg = load_run_config(None, {"selection_mode": mode})
        assert cfg.fixed == fixed and cfg.selection_mode == mode

    @pytest.mark.parametrize(
        "mode, reason",
        [
            ("fixed:x", "bad fixed selection"),
            ("fixed:", "must be a non-empty list"),
            ("fixed:2,2", "repeats a component"),
            ("fixed:-1", "index -1 out of range"),
            ("greedy", "selection_mode must be"),
        ],
    )
    def test_bad_selection_mode_is_config_error(self, mode, reason):
        with pytest.raises(ConfigError, match=reason):
            load_run_config(None, {"selection_mode": mode})

    @pytest.mark.parametrize("key", ["selection_mode", "template"])
    def test_non_string_mode_or_template_exits_2(self, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: ["ssfs"]}))
        assert main(["extract", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be a string" in capsys.readouterr().err

    def test_simulate_rejects_template_path(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "o"), "--template", str(tmp_path)])
        assert rc == 2
        assert "simulate supports template presets" in capsys.readouterr().err

    def test_simulate_fixed_x_exits_2(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "o"), "--selection", "fixed:x"])
        assert rc == 2
        assert not (tmp_path / "o").exists()


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
