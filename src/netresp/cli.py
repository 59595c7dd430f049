"""Command-line pipeline: simulate, extract, fnc, kernel, select, evaluate, report.

Each stage writes its artifacts under the output directory and later stages
read them back, so expensive steps (extraction) are not repeated when only
selection or evaluation settings change. Exit codes: 0 success, 1 data/I-O
error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ._util import (
    check_fields,
    check_indices,
    check_keys,
    check_subject_entries,
    derive_seed,
    parallel_imap,
    read_json_object,
)
from .datamodel import (
    ManifestError,
    SubjectFeatures,
    check_fnc,
    read_manifest,
    read_matrix,
    write_matrix,
    write_subjects,
)
from .evaluation import SUMMARY_COLUMNS, EvalConfig, EvalError, run_experiment
from .fnc import compute_fnc
from .kernels import PabsKernelParams, apply_spectrum_fix, build_kernel_matrix
from .scica import ScicaConfig, extract_subject
from .selection import TRACE_HEADER, SelectionError, SsfsConfig, ssfs
from .svm import SvmConfig
from .synth import SynthConfig, make_subject, plan_cohort

# No stage calls these in-memory collectors; perfbench/tracing.py wraps them
# by name here, so they stay bound (tests/test_traced_names.py)
from .datamodel import load_dataset, write_dataset  # noqa: F401
from .synth import generate_cohort  # noqa: F401


class ConfigError(ValueError):
    pass


# synth sizes of the template presets; any other template is a dataset path
_TEMPLATE_PRESETS = {
    "default": {},
    "n53": {"n_components": 53, "n_domains": 7},
    "n105": {"n_components": 105, "n_domains": 6},
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every run setting, derived once: section seeds from the master seed,
    the template preset's synth sizes, beam width 1 for `sfs`, and the
    component indices of a `fixed:` selection (`fixed`, None otherwise)."""

    seed: int = 0
    threads: int = 1
    features: str = "sm"  # sm | sm+fnc
    selection_mode: str = "ssfs"  # ssfs | sfs | fixed:<i,j,...>
    template: str = "default"  # default | n53 | n105 | <path>
    synth: SynthConfig = SynthConfig()
    scica: ScicaConfig = ScicaConfig()
    kernel: PabsKernelParams = PabsKernelParams()
    svm: SvmConfig = SvmConfig()
    selection: SsfsConfig = SsfsConfig()
    evaluation: EvalConfig = EvalConfig()
    fixed: tuple[int, ...] | None = dataclasses.field(default=None, init=False)

    def __post_init__(self):
        check_fields(self, {"threads": 1}, error=ConfigError)
        if self.features not in ("sm", "sm+fnc"):
            raise ConfigError(f"features must be 'sm' or 'sm+fnc', got {self.features!r}")
        for key in ("selection_mode", "template"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key} must be a string, got {getattr(self, key)!r}")
        mode = self.selection_mode
        if mode.startswith("fixed:"):
            try:
                indices = [int(x) for x in mode.split(":", 1)[1].split(",") if x.strip() != ""]
            except ValueError as e:
                raise ConfigError(f"bad fixed selection {mode!r}: {e}") from e
            fixed = check_indices(indices, None, "fixed selection", ConfigError)
            object.__setattr__(self, "fixed", tuple(fixed))
        elif mode not in ("ssfs", "sfs"):
            raise ConfigError(
                f"selection_mode must be 'ssfs', 'sfs' or 'fixed:<list>', got {mode!r}"
            )
        # every section seed derives from the one master seed; a preset sets the synth sizes
        derived = {
            "synth": {"seed": self.seed, **_TEMPLATE_PRESETS.get(self.template, {})},
            "selection": {"seed": derive_seed(self.seed, "selection")},
            "evaluation": {"seed": derive_seed(self.seed, "evaluation")},
        }
        if mode == "sfs":  # SFS is SSFS with a beam of one
            derived["selection"]["beam_width"] = 1
        for name, updates in derived.items():
            try:
                section = dataclasses.replace(getattr(self, name), **updates)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"invalid {name} config: {e}") from e
            object.__setattr__(self, name, section)

    @property
    def use_fnc(self) -> bool:
        return self.features == "sm+fnc"


def _section_from_dict(cls, data, name: str):
    # section seeds derive from the master seed, so none is settable
    settable = {f.name for f in dataclasses.fields(cls)} - {"seed"}
    check_keys(data, (), settable, f"config section {name!r}", ConfigError)
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {name} config: {e}") from e


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build the RunConfig of an optional JSON file with the CLI flags that
    were given (the non-None `overrides`) merged over it.

    Unknown keys anywhere in the document are rejected by name.
    """
    data = {} if path is None else read_json_object(path, error=ConfigError)
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.init}
    check_keys(data, (), defaults, "config", ConfigError)
    for key, value in data.items():
        if dataclasses.is_dataclass(defaults[key]):
            data[key] = _section_from_dict(type(defaults[key]), value, key)
    return RunConfig(**data)


# ---------------------------------------------------------------- commands


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.template not in _TEMPLATE_PRESETS:
        raise ConfigError(
            f"simulate supports template presets {', '.join(map(repr, _TEMPLATE_PRESETS))}; "
            f"got {cfg.template!r} (external template paths apply to extract)"
        )
    try:
        plan = plan_cohort(cfg.synth)
    except RuntimeError as e:  # the overlap constraint leaves no room for a component
        k, grid = cfg.synth.n_components, list(cfg.synth.grid)
        raise ConfigError(f"synth.n_components {k} is too many for synth.grid {grid}: {e}") from e
    (truth_path,) = _clear_outputs(out_dir, "simulate")
    subjects = parallel_imap(
        lambda i: make_subject(plan, i)[0], range(len(plan.labels)), cfg.threads
    )
    manifest_path = write_subjects(plan.template, plan.class_set, subjects, truth_path.parent)
    truth_doc = {
        "informative_indices": list(plan.informative_indices),
        "class_set": list(plan.class_set),
        "counts": {c: plan.labels.count(c) for c in plan.class_set},
        "seed": cfg.synth.seed,
    }
    truth_path.write_text(json.dumps(truth_doc, indent=2) + "\n")
    print(
        f"simulated {len(plan.labels)} subjects, {plan.template.n_components} components, "
        f"{plan.template.n_voxels} voxels -> {manifest_path}"
    )
    return 0


def _write_features(feat_dir: Path, entry: dict, f: SubjectFeatures) -> dict:
    """Write one subject's maps and time courses; return its features.json entry."""
    sid = entry["id"]
    write_matrix(f.spatial_maps, feat_dir / f"{sid}.sm.msmx")
    write_matrix(f.time_courses, feat_dir / f"{sid}.tc.msmx")
    return {
        "id": sid,
        "label": entry["label"],
        "group": entry["group"],
        "sm": f"{sid}.sm.msmx",
        "tc": f"{sid}.tc.msmx",
        "converged": [bool(c) for c in f.converged],
    }


def cmd_extract(cfg: RunConfig, out_dir: Path) -> int:
    (doc_path,) = _clear_outputs(out_dir, "extract")
    manifest_path = out_dir / "dataset" / "manifest.json"
    if cfg.template not in _TEMPLATE_PRESETS:  # an external dataset directory or manifest
        p = Path(cfg.template)
        manifest_path = p / "manifest.json" if p.is_dir() else p
    manifest = read_manifest(manifest_path)
    feat_dir = doc_path.parent
    feat_dir.mkdir(parents=True, exist_ok=True)

    def one(bold):
        # each bold is read fresh and used nowhere else, so it is handed over
        # to be z-scored in place
        return extract_subject(bold, manifest.template, cfg.scica, copy=False)

    feats = parallel_imap(one, manifest.bolds(), cfg.threads)
    # each subject's features are passed straight to the writer, so nothing
    # holds them while the next subject is extracted
    entries = [_write_features(feat_dir, e, next(feats)) for e in manifest.entries]
    doc = {
        "subjects": entries,
        "class_set": list(manifest.class_set),
        "domains": list(manifest.template.domains),
    }
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")
    n_bad = sum(not all(e["converged"]) for e in entries)
    print(f"extracted {len(entries)} subjects ({n_bad} with non-converged components)")
    return 0


def _features_doc(out_dir: Path) -> dict:
    """features.json, with its subject entries and domains checked."""
    doc_path = out_dir / "features" / "features.json"
    hint = " (run extract first)"
    doc = read_json_object(doc_path, ("subjects", "domains"), None, ManifestError, hint)
    domains = doc["domains"]
    # the kernel stages take K, the component count, from 'domains'
    if not isinstance(domains, list) or not domains or not all(isinstance(d, str) for d in domains):
        raise ManifestError(
            f"{doc_path}: 'domains' must be a non-empty list of names, got {domains!r}"
        )
    # each id names the fnc stage's <id>.fnc.msmx, and each file name a file
    # beside features.json; fnc is added by the fnc stage
    required, names = ("id", "label", "sm", "tc"), ("id", "sm", "tc", "fnc")
    entries = check_subject_entries(doc["subjects"], required, None, names, doc_path, ManifestError)
    for n, entry in enumerate(entries):
        # extract writes one flag per component, so the count is checked without a read
        converged = entry.get("converged")
        if isinstance(converged, list) and len(converged) != len(domains):
            raise ManifestError(
                f"{doc_path}: subject entry {n}: 'converged' must be a flag per 'domains' "
                f"entry, got {len(converged)} flags for {len(domains)} domains"
            )
    return doc


@dataclasses.dataclass(frozen=True)
class StoredFeatures:
    """One subject's features as a kernel stage holds them: its id, its
    component count K (one per features.json 'domains' entry) and its
    checked FNC, with its spatial maps left in their matrix file.

    `spatial_maps` reads that file each time it is asked for, into a new
    array checked to have K rows; `kernels.subspace_factors` asks once per
    subject and factor set, so a stage holds no subject's maps between
    factor sets. Time courses are not read.
    """

    subject_id: str
    n_components: int
    maps_path: Path
    fnc: np.ndarray | None

    @property
    def spatial_maps(self) -> np.ndarray:
        maps = read_matrix(self.maps_path)
        if maps.shape[0] != self.n_components:
            raise ManifestError(
                f"{self.n_components} domain labels for {maps.shape[0]} components "
                f"in {self.maps_path}"
            )
        return maps


def _load_features(
    feat_dir: Path, entries: list[dict], n_components: int, need_fnc: bool
) -> list[StoredFeatures]:
    """The subjects' features, as listed by their features.json entries; each
    FNC is read and checked here when `need_fnc`, the maps when factored."""
    features = []
    for entry in entries:
        if need_fnc and "fnc" not in entry:
            raise ManifestError(f"subject {entry['id']}: FNC not computed (run fnc first)")
        fnc = check_fnc(read_matrix(feat_dir / entry["fnc"]), n_components) if need_fnc else None
        features.append(StoredFeatures(entry["id"], n_components, feat_dir / entry["sm"], fnc))
    return features


def cmd_fnc(cfg: RunConfig, out_dir: Path) -> int:
    doc = _features_doc(out_dir)
    feat_dir = out_dir / "features"
    n_components = len(doc["domains"])
    for entry in doc["subjects"]:
        tc = read_matrix(feat_dir / entry["tc"])
        if tc.shape[1] != n_components:
            raise ManifestError(
                f"subject {entry['id']}: time courses have {tc.shape[1]} columns, "
                f"expected {n_components}, one per 'domains' entry"
            )
        name = f"{entry['id']}.fnc.msmx"
        write_matrix(compute_fnc(tc), feat_dir / name)
        entry["fnc"] = name
    (feat_dir / "features.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"computed FNC matrices for {len(doc['subjects'])} subjects")
    return 0


def _stage_inputs(cfg: RunConfig, out_dir: Path, command: str):
    """features.json, its entries of the subjects in the configured classes,
    the component set (the fixed selection, else selection/result.json's
    best set, None for a select that searches) and the stage's output paths,
    cleared once the config checks have passed: a config error touches no
    file, and a stage that fails later leaves none of its old outputs."""
    doc = _features_doc(out_dir)
    labels = {e["label"] for e in doc["subjects"]}
    class_set = cfg.evaluation.class_set
    missing = [c for c in class_set if c not in labels]
    if missing:
        raise ConfigError(
            f"evaluation.class_set names {missing[0]!r}, but no subject in features.json "
            f"has that label (labels: {sorted(labels)})"
        )
    entries = [e for e in doc["subjects"] if e["label"] in class_set]
    n, fixed = len(doc["domains"]), cfg.fixed
    selected = None if fixed is None else check_indices(fixed, n, "fixed selection", ConfigError)
    outputs = _clear_outputs(out_dir, command)
    if selected is None and command != "select":
        path = out_dir / "selection" / "result.json"
        result = read_json_object(path, ("best_set",), None, ManifestError, " (run select first)")
        selected = check_indices(result["best_set"], n, f"{path}: 'best_set'", ManifestError)
    return doc, entries, selected, outputs


def cmd_select(cfg: RunConfig, out_dir: Path) -> int:
    doc, entries, fixed, outputs = _stage_inputs(cfg, out_dir, "select")
    truth_path = out_dir / "dataset" / "ground_truth.json"
    planted = None
    if truth_path.exists():
        truth = read_json_object(truth_path, ("informative_indices",), None, ManifestError)
        # an empty list is valid: recall is then null
        planted = check_indices(
            truth["informative_indices"],
            len(doc["domains"]),
            f"{truth_path}: 'informative_indices'",
            ManifestError,
            empty_ok=True,
        )

    if fixed is not None:  # an unscored set and no search: reads no matrix
        final_beam, trace, ties = [(fixed, None)], TRACE_HEADER, []
    else:
        result = ssfs(
            _load_features(out_dir / "features", entries, len(doc["domains"]), cfg.use_fnc),
            [e["label"] for e in entries],
            doc["domains"],
            cfg.selection,
            cfg.kernel,
            cfg.svm,
            class_set=cfg.evaluation.class_set,
            use_fnc=cfg.use_fnc,
            threads=cfg.threads,
        )
        final_beam, trace, ties = result.final_beam, result.trace_csv(), result.top_ties()

    best_set, best_score = list(final_beam[0][0]), final_beam[0][1]
    result_path, trace_path, meta_path = outputs
    result_path.parent.mkdir(parents=True, exist_ok=True)
    out = {
        "best_set": best_set,
        "best_score": best_score,
        "mode": cfg.selection_mode,
        "features": cfg.features,
        "final_beam": [{"set": list(s), "score": sc} for s, sc in final_beam],
    }
    result_path.write_text(json.dumps(out, indent=2) + "\n")
    trace_path.write_text(trace)
    meta: dict = {"top_ties": ties}
    if planted is not None:
        hits = len(set(planted) & set(best_set))
        meta["informative_indices"] = planted
        meta["recall"] = hits / len(planted) if planted else None
        meta["precision"] = hits / len(best_set)
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"selected components {best_set} (mode {cfg.selection_mode})")
    return 0


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> int:
    doc, entries, selected, outputs = _stage_inputs(cfg, out_dir, "evaluate")
    features = _load_features(out_dir / "features", entries, len(doc["domains"]), cfg.use_fnc)
    labels = [e["label"] for e in entries]
    eval_cfg = cfg.evaluation
    report = run_experiment(
        features, labels, selected, cfg.kernel, cfg.svm, eval_cfg, use_fnc=cfg.use_fnc
    )
    report_path, summary_path, meta_path, _ = outputs  # report.svg is report's to draw
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_report_csv())
    summary_path.write_text(report.to_summary_csv())
    meta = {
        "selected": selected,
        "features": cfg.features,
        "class_set": list(eval_cfg.class_set),
        "outer_folds": eval_cfg.outer_folds,
        "repeats": eval_cfg.repeats,
        "seed": eval_cfg.seed,
        "unconverged_solves": report.unconverged_solves,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    agg = report.aggregates()
    print(
        f"evaluated {len(labels)} subjects on components {list(selected)}: "
        f"median macro PR-AUC {agg['macro_pr_auc'].median:.3f}, "
        f"median macro F1 {agg['macro_f1'].median:.3f}"
    )
    if report.unconverged_solves:
        solves = len(report.rows) * len(eval_cfg.class_set)
        print(
            f"warning: {report.unconverged_solves} of {solves} SMO solves stopped at the "
            f"svm.max_passes step cap without converging",
            file=sys.stderr,
        )
    return 0


def cmd_kernel(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.fixed is None:
        raise ConfigError("kernel dump requires --selection fixed:<list>")
    doc, entries, selected, (kernel_path, ids_path) = _stage_inputs(cfg, out_dir, "kernel")
    features = _load_features(out_dir / "features", entries, len(doc["domains"]), cfg.use_fnc)
    kernel = build_kernel_matrix(features, selected, cfg.kernel, use_fnc=cfg.use_fnc)
    kernel_path.parent.mkdir(parents=True, exist_ok=True)
    # the dump is the whole cohort's kernel with the spectrum fix applied to
    # the full matrix; the CV fixes each training block on its own, and the
    # fix of the full matrix is not the fix of its blocks
    write_matrix(apply_spectrum_fix(kernel.values, cfg.kernel), kernel_path)
    ids = {"subject_ids": list(kernel.subject_ids), "selected": selected}
    ids_path.write_text(json.dumps(ids, indent=2) + "\n")
    print(f"wrote {len(features)}x{len(features)} kernel for components {selected}")
    return 0


def _svg_box_plot(rows: list[dict]) -> str:
    """Render summary rows, their numbers parsed, as a standalone SVG box
    plot (no plot library)."""
    width, height = 640, 360
    margin_l, margin_r, margin_t, margin_b = 60, 20, 30, 90
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n = len(rows)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def sy(v: float) -> float:
        return margin_t + (1.0 - v) * plot_h

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        out.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{tick:.2f}</text>'
        )
    box_w = min(60.0, plot_w / max(n, 1) * 0.5)
    for i, row in enumerate(rows):
        cx = margin_l + plot_w * (i + 0.5) / n
        lo, q1, med, q3, hi = (row[c] for c in ("whisker_lo", "q1", "median", "q3", "whisker_hi"))
        # metric names hold class names, whose & or < would break the XML
        name = row["metric"].replace("&", "&amp;").replace("<", "&lt;")
        out.append(
            f'<line x1="{cx:.1f}" y1="{sy(lo):.1f}" x2="{cx:.1f}" y2="{sy(hi):.1f}" '
            f'stroke="#444"/>'
        )
        for v in (lo, hi):
            out.append(
                f'<line x1="{cx - box_w / 4:.1f}" y1="{sy(v):.1f}" '
                f'x2="{cx + box_w / 4:.1f}" y2="{sy(v):.1f}" stroke="#444"/>'
            )
        out.append(
            f'<rect x="{cx - box_w / 2:.1f}" y="{sy(q3):.1f}" width="{box_w:.1f}" '
            f'height="{max(sy(q1) - sy(q3), 0.5):.1f}" fill="#7fb3d5" stroke="#2c3e50"/>'
        )
        out.append(
            f'<line x1="{cx - box_w / 2:.1f}" y1="{sy(med):.1f}" '
            f'x2="{cx + box_w / 2:.1f}" y2="{sy(med):.1f}" stroke="#c0392b" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{cx:.1f}" y="{height - margin_b + 16}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" '
            f'transform="rotate(-40 {cx:.1f} {height - margin_b + 16})">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_report(cfg: RunConfig, out_dir: Path) -> int:
    (svg_path,) = _clear_outputs(out_dir, "report")
    summary_path = out_dir / "eval" / "summary.csv"
    if not summary_path.exists():
        raise ManifestError(f"summary not found: {summary_path} (run evaluate first)")
    lines = summary_path.read_text().strip().splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in SUMMARY_COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"{summary_path}: missing column {missing[0]!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ManifestError(
                f"{summary_path}: line {n} has {len(fields)} fields, the header {len(header)}"
            )
        row = dict(zip(header, fields))
        for column in SUMMARY_COLUMNS[1:]:
            where, text = f"{summary_path}: line {n}, column {column!r}", row[column]
            try:
                row[column] = float(text)
            except ValueError:
                raise ManifestError(f"{where}: {text!r} is not a number") from None
            if not np.isfinite(row[column]):  # float() reads 'nan' and 'inf'
                raise ManifestError(f"{where}: {text!r} is not a finite number")
        rows.append(row)
    svg_path.write_text(_svg_box_plot(rows))
    print(f"wrote box plot for {len(rows)} metrics -> {svg_path}")
    return 0


# ------------------------------------------------------------------ driver

# each stage's function, its help text and the files it writes under the
# output directory, which it clears once its config has passed. evaluate
# also clears report.svg, drawn from its summary; fnc clears nothing, so a
# failed fnc leaves extract's features.json valid
_COMMANDS = {
    "simulate": (cmd_simulate, "generate a synthetic dataset (manifest + matrix containers)",
                 ("dataset/ground_truth.json",)),  # write_subjects clears the manifest
    "extract": (cmd_extract, "run constrained ICA against the dataset template",
                ("features/features.json",)),
    "fnc": (cmd_fnc, "compute per-subject FNC matrices from extracted time courses", ()),
    "kernel": (cmd_kernel, "dump the subject kernel matrix for a fixed component set",
               ("kernel/kernel.msmx", "kernel/subjects.json")),
    "select": (cmd_select, "run (soft) sequential forward selection over domains",
               ("selection/result.json", "selection/trace.csv", "selection/selection_meta.json")),
    "evaluate": (cmd_evaluate, "outer cross-validation of the selected component set",
                 ("eval/report.csv", "eval/summary.csv", "eval/eval_meta.json", "eval/report.svg")),
    "report": (cmd_report, "render summary.csv as an SVG box plot", ("eval/report.svg",)),
}


def _clear_outputs(out_dir: Path, command: str) -> list[Path]:
    """The paths of `command`'s outputs, in `_COMMANDS` order, each file removed."""
    paths = [out_dir / name for name in _COMMANDS[command][2]]
    for path in paths:
        path.unlink(missing_ok=True)
    return paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netresp",
        description="Multi-scale network-feature pipeline for medication-response prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=description, description=description)
        p.add_argument("--config", type=str, default=None, help="JSON run config (default: built-in defaults)")
        p.add_argument("--out", type=str, required=True, help="pipeline output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker thread cap (default: config value or 1; results do not depend on it)",
        )
        p.add_argument(
            "--template",
            type=str,
            default=None,
            help="template preset n53|n105|default, or a dataset path for extract",
        )
        p.add_argument(
            "--features",
            type=str,
            default=None,
            choices=["sm", "sm+fnc"],
            help="feature set: spatial maps alone or maps plus FNC",
        )
        p.add_argument(
            "--selection",
            dest="selection_mode",
            type=str,
            default=None,
            help="selection mode: ssfs | sfs | fixed:<comma-separated indices>",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every flag but these is named after the config key it overrides
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
        cfg = load_run_config(args.config, flags)
        # each stage makes the directories it writes once its config has passed
        return _COMMANDS[args.command][0](cfg, Path(args.out))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    # ManifestError and MatrixFormatError are ValueErrors
    except (OSError, ValueError, SelectionError, EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
