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

from ._util import derive_seed, parallel_imap
from .datamodel import (
    Manifest,
    ManifestError,
    SubjectFeatures,
    read_manifest,
    read_matrix,
    write_matrix,
    write_subjects,
)
from .evaluation import EvalConfig, EvalError, run_experiment
from .fnc import compute_fnc
from .kernels import PabsKernelParams, apply_spectrum_fix, build_kernel_matrix
from .scica import ScicaConfig, extract_subject
from .selection import SelectionError, SelectionResult, SsfsConfig, ssfs
from .svm import SvmConfig
from .synth import SynthConfig, make_subject, plan_cohort

# No stage calls these in-memory collectors; perfbench/tracing.py wraps them
# by name here, so they stay bound (tests/test_traced_names.py)
from .datamodel import load_dataset, write_dataset  # noqa: F401
from .synth import generate_cohort  # noqa: F401


class ConfigError(ValueError):
    pass


_SECTIONS = {
    "synth": SynthConfig,
    "scica": ScicaConfig,
    "kernel": PabsKernelParams,
    "svm": SvmConfig,
    "selection": SsfsConfig,
    "evaluation": EvalConfig,
}
_TOP_KEYS = {"seed", "threads", "features", "selection_mode", "template"} | set(_SECTIONS)


@dataclasses.dataclass(frozen=True)
class RunConfig:
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

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if isinstance(self.threads, bool) or not isinstance(self.threads, int) or self.threads < 1:
            raise ConfigError(f"threads must be an integer >= 1, got {self.threads!r}")
        # every section seed derives from the one master seed
        for name, seed in (
            ("synth", self.seed),
            ("selection", derive_seed(self.seed, "selection")),
            ("evaluation", derive_seed(self.seed, "evaluation")),
        ):
            object.__setattr__(self, name, dataclasses.replace(getattr(self, name), seed=seed))
        if self.features not in ("sm", "sm+fnc"):
            raise ConfigError(f"features must be 'sm' or 'sm+fnc', got {self.features!r}")
        mode = self.selection_mode
        if mode not in ("ssfs", "sfs") and not mode.startswith("fixed:"):
            raise ConfigError(
                f"selection_mode must be 'ssfs', 'sfs' or 'fixed:<list>', got {mode!r}"
            )


def _section_from_dict(cls, data: dict, path: str):
    # section seeds derive from the master seed, so none is settable
    fields = {f.name for f in dataclasses.fields(cls)} - {"seed"}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown config key: {path}.{sorted(unknown)[0]}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {path} config: {e}") from e


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    Unknown keys anywhere in the document are rejected by name.
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}: invalid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    kwargs: dict = {}
    for key in ("seed", "threads", "features", "selection_mode", "template"):
        if key in data:
            kwargs[key] = data[key]
    for key, cls in _SECTIONS.items():
        if key in data:
            if not isinstance(data[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            kwargs[key] = _section_from_dict(cls, data[key], key)
    cfg = RunConfig(**kwargs)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply the CLI flags that were given."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(cfg, **updates)


def _apply_template_preset(cfg: RunConfig) -> SynthConfig:
    synth = cfg.synth
    if cfg.template == "n53":
        return dataclasses.replace(synth, n_components=53, n_domains=7)
    if cfg.template == "n105":
        return dataclasses.replace(synth, n_components=105, n_domains=6)
    if cfg.template == "default":
        return synth
    raise ConfigError(
        f"simulate supports template presets 'default', 'n53', 'n105'; "
        f"got {cfg.template!r} (external template paths apply to extract)"
    )


# ---------------------------------------------------------------- commands


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    synth_cfg = _apply_template_preset(cfg)
    plan = plan_cohort(synth_cfg)
    dataset_dir = out_dir / "dataset"
    subjects = parallel_imap(
        lambda i: make_subject(plan, i)[0], range(len(plan.labels)), cfg.threads
    )
    manifest_path = write_subjects(plan.template, plan.class_set, subjects, dataset_dir)
    truth_doc = {
        "informative_indices": list(plan.informative_indices),
        "class_set": list(plan.class_set),
        "counts": {c: plan.labels.count(c) for c in plan.class_set},
        "seed": synth_cfg.seed,
    }
    (dataset_dir / "ground_truth.json").write_text(json.dumps(truth_doc, indent=2) + "\n")
    print(
        f"simulated {len(plan.labels)} subjects, {plan.template.n_components} components, "
        f"{plan.template.n_voxels} voxels -> {manifest_path}"
    )
    return 0


def _manifest_for(cfg: RunConfig, out_dir: Path) -> Manifest:
    manifest = out_dir / "dataset" / "manifest.json"
    if cfg.template not in ("default", "n53", "n105"):
        # external dataset directory or manifest path
        p = Path(cfg.template)
        manifest = p / "manifest.json" if p.is_dir() else p
    return read_manifest(manifest)


def cmd_extract(cfg: RunConfig, out_dir: Path) -> int:
    manifest = _manifest_for(cfg, out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    doc_path = feat_dir / "features.json"
    doc_path.unlink(missing_ok=True)
    seed = derive_seed(cfg.seed, "extract")

    def one(item):
        idx, subject = item
        return extract_subject(
            subject.bold, manifest.template, cfg.scica, seed=derive_seed(seed, "subject", idx)
        )

    entries = []
    feats = parallel_imap(one, enumerate(manifest.subjects()), cfg.threads)
    for subject, f in zip(manifest.entries, feats):
        sid = subject["id"]
        write_matrix(f.spatial_maps, feat_dir / f"{sid}.sm.msmx")
        write_matrix(f.time_courses, feat_dir / f"{sid}.tc.msmx")
        entries.append(
            {
                "id": sid,
                "label": subject["label"],
                "group": subject["group"],
                "sm": f"{sid}.sm.msmx",
                "tc": f"{sid}.tc.msmx",
                "converged": [bool(c) for c in f.converged],
            }
        )
    doc = {
        "subjects": entries,
        "class_set": list(manifest.class_set),
        "domains": list(manifest.template.domains),
    }
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")
    n_bad = sum(not all(e["converged"]) for e in entries)
    print(f"extracted {len(entries)} subjects ({n_bad} with non-converged components)")
    return 0


def _checked(doc, keys, where) -> dict:
    """`doc` when it is a JSON object holding every key in `keys`."""
    if not isinstance(doc, dict):
        raise ManifestError(f"{where}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ManifestError(f"{where}: missing key {missing[0]!r}")
    return doc


def _read_json(path: Path, keys, stage: str) -> dict:
    """The JSON object at `path` holding every key in `keys`; `stage` is the
    one that writes it, named when the file is missing."""
    if not path.exists():
        raise ManifestError(f"not found: {path} (run {stage} first)")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: invalid JSON: {e}") from e
    return _checked(doc, keys, path)


def _features_doc(out_dir: Path) -> tuple[Path, dict]:
    """features.json, with its subject entries checked; and its path."""
    doc_path = out_dir / "features" / "features.json"
    doc = _read_json(doc_path, ("subjects", "domains"), "extract")
    for n, entry in enumerate(doc["subjects"]):
        _checked(entry, ("id", "label", "sm", "tc"), f"{doc_path}: subject entry {n}")
    return doc_path, doc


def _read_features(feat_dir: Path, entry: dict, need_fnc: bool) -> SubjectFeatures:
    """One subject's features, as listed by its features.json entry."""
    fnc = None
    if need_fnc:
        if "fnc" not in entry:
            raise ManifestError(f"subject {entry['id']}: FNC not computed (run fnc first)")
        fnc = read_matrix(feat_dir / entry["fnc"])
    return SubjectFeatures(
        spatial_maps=read_matrix(feat_dir / entry["sm"]),
        time_courses=read_matrix(feat_dir / entry["tc"]),
        fnc=fnc,
        subject_id=entry["id"],
    )


def _load_features(out_dir: Path, need_fnc: bool):
    doc_path, doc = _features_doc(out_dir)
    features = [_read_features(doc_path.parent, e, need_fnc) for e in doc["subjects"]]
    return features, [e["label"] for e in doc["subjects"]], doc


def cmd_fnc(cfg: RunConfig, out_dir: Path) -> int:
    doc_path, doc = _features_doc(out_dir)
    doc_path.unlink()
    for entry in doc["subjects"]:
        f = _read_features(doc_path.parent, entry, need_fnc=False)
        name = f"{entry['id']}.fnc.msmx"
        write_matrix(compute_fnc(f.time_courses), doc_path.parent / name)
        entry["fnc"] = name
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"computed FNC matrices for {len(doc['subjects'])} subjects")
    return 0


def _load_class_features(cfg: RunConfig, out_dir: Path):
    """Features and labels of the subjects in the configured classes that
    the data has, plus the features document and that class set."""
    features, labels, doc = _load_features(out_dir, need_fnc=cfg.features == "sm+fnc")
    class_set = tuple(c for c in cfg.evaluation.class_set if c in set(labels))
    if len(class_set) < 2:
        raise ConfigError(
            f"need at least 2 of the configured classes in the data, have {class_set}"
        )
    kept = [i for i, lab in enumerate(labels) if lab in class_set]
    return [features[i] for i in kept], [labels[i] for i in kept], doc, class_set


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _component_indices(values, n_components: int, what: str, error) -> list[int]:
    """`values` when it is a non-empty list of distinct integer component
    indices below `n_components`; otherwise raises `error` naming `what`."""
    if not isinstance(values, list) or not values:
        raise error(f"{what} must be a non-empty list of component indices, got {values!r}")
    for i in values:
        if not _is_int(i):
            raise error(f"{what} holds {i!r}, not an integer")
        if not 0 <= i < n_components:
            raise error(f"{what} index {i} out of range")
    if len(set(values)) != len(values):
        raise error(f"{what} repeats a component: {values}")
    return values


def _parse_fixed(mode: str, n_components: int) -> list[int]:
    try:
        indices = [int(x) for x in mode.split(":", 1)[1].split(",") if x.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad fixed selection {mode!r}: {e}") from e
    return _component_indices(indices, n_components, "fixed selection", ConfigError)


def cmd_select(cfg: RunConfig, out_dir: Path) -> int:
    use_fnc = cfg.features == "sm+fnc"
    features, labels, doc, class_set = _load_class_features(cfg, out_dir)
    truth_path = out_dir / "dataset" / "ground_truth.json"
    planted = None
    if truth_path.exists():
        truth = _read_json(truth_path, ("informative_indices",), "simulate")
        planted = truth["informative_indices"]
        if not isinstance(planted, list) or not all(_is_int(i) for i in planted):
            raise ManifestError(
                f"{truth_path}: 'informative_indices' must be a list of integers, got {planted!r}"
            )
        if planted:  # an empty list is valid: recall is then null
            what = f"{truth_path}: 'informative_indices'"
            _component_indices(planted, features[0].n_components, what, ManifestError)
    sel_dir = out_dir / "selection"
    sel_dir.mkdir(parents=True, exist_ok=True)

    if cfg.selection_mode.startswith("fixed:"):
        indices = _parse_fixed(cfg.selection_mode, features[0].n_components)
        result = SelectionResult(
            best_set=tuple(indices),
            best_score=float("nan"),
            beam_trace=(),
            final_beam=((tuple(indices), float("nan")),),
        )
    else:
        sel_cfg = cfg.selection
        if cfg.selection_mode == "sfs":
            sel_cfg = dataclasses.replace(sel_cfg, beam_width=1)
        result = ssfs(
            features,
            labels,
            doc["domains"],
            sel_cfg,
            cfg.kernel,
            cfg.svm,
            class_set=class_set,
            use_fnc=use_fnc,
            threads=cfg.threads,
        )

    out = {
        "best_set": list(result.best_set),
        "best_score": None if np.isnan(result.best_score) else result.best_score,
        "mode": cfg.selection_mode,
        "features": cfg.features,
        "final_beam": [
            {"set": list(s), "score": None if np.isnan(sc) else sc}
            for s, sc in result.final_beam
        ],
    }
    (sel_dir / "result.json").write_text(json.dumps(out, indent=2) + "\n")
    (sel_dir / "trace.csv").write_text(result.trace_csv())  # header only for a fixed set
    meta: dict = {"top_ties": result.top_ties()}
    if planted is not None:
        hits = len(set(planted) & set(result.best_set))
        meta["informative_indices"] = planted
        meta["recall"] = hits / len(planted) if planted else None
        meta["precision"] = hits / len(result.best_set)
    (sel_dir / "selection_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"selected components {list(result.best_set)} (mode {cfg.selection_mode})")
    return 0


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> int:
    use_fnc = cfg.features == "sm+fnc"
    features, labels, doc, class_set = _load_class_features(cfg, out_dir)

    if cfg.selection_mode.startswith("fixed:"):
        selected = _parse_fixed(cfg.selection_mode, features[0].n_components)
    else:
        result_path = out_dir / "selection" / "result.json"
        selected = _component_indices(
            _read_json(result_path, ("best_set",), "select")["best_set"],
            features[0].n_components,
            f"{result_path}: 'best_set'",
            ManifestError,
        )

    eval_cfg = dataclasses.replace(cfg.evaluation, class_set=class_set)
    report = run_experiment(
        features,
        labels,
        selected,
        cfg.kernel,
        cfg.svm,
        eval_cfg,
        use_fnc=use_fnc,
    )
    eval_dir = out_dir / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    (eval_dir / "report.csv").write_text(report.to_report_csv())
    (eval_dir / "summary.csv").write_text(report.to_summary_csv())
    meta = {
        "selected": [int(i) for i in selected],
        "features": cfg.features,
        "class_set": list(class_set),
        "outer_folds": eval_cfg.outer_folds,
        "repeats": eval_cfg.repeats,
        "seed": eval_cfg.seed,
        "unconverged_solves": report.unconverged_solves,
    }
    (eval_dir / "eval_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    agg = report.aggregates()
    print(
        f"evaluated {len(labels)} subjects on components {list(selected)}: "
        f"median macro PR-AUC {agg['macro_pr_auc'].median:.3f}, "
        f"median macro F1 {agg['macro_f1'].median:.3f}"
    )
    if report.unconverged_solves:
        solves = len(report.rows) * len(class_set)
        print(
            f"warning: {report.unconverged_solves} of {solves} SMO solves stopped at the "
            f"svm.max_passes step cap without converging",
            file=sys.stderr,
        )
    return 0


def cmd_kernel(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.selection_mode.startswith("fixed:"):
        raise ConfigError("kernel dump requires --selection fixed:<list>")
    use_fnc = cfg.features == "sm+fnc"
    features = _load_features(out_dir, need_fnc=use_fnc)[0]
    selected = _parse_fixed(cfg.selection_mode, features[0].n_components)
    kernel = build_kernel_matrix(features, selected, cfg.kernel, use_fnc=use_fnc)
    kdir = out_dir / "kernel"
    kdir.mkdir(parents=True, exist_ok=True)
    # the dump is the kernel a training block would see: spectrum-fixed
    write_matrix(apply_spectrum_fix(kernel.values, cfg.kernel), kdir / "kernel.msmx")
    (kdir / "subjects.json").write_text(
        json.dumps({"subject_ids": list(kernel.subject_ids), "selected": selected}, indent=2)
        + "\n"
    )
    print(f"wrote {len(features)}x{len(features)} kernel for components {selected}")
    return 0


def _svg_box_plot(rows: list[dict]) -> str:
    """Render summary rows as a standalone SVG box plot (no plot library)."""
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
        lo, q1 = float(row["whisker_lo"]), float(row["q1"])
        med, q3, hi = float(row["median"]), float(row["q3"]), float(row["whisker_hi"])
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
            f'transform="rotate(-40 {cx:.1f} {height - margin_b + 16})">{row["metric"]}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_report(cfg: RunConfig, out_dir: Path) -> int:
    summary_path = out_dir / "eval" / "summary.csv"
    if not summary_path.exists():
        raise ManifestError(f"summary not found: {summary_path} (run evaluate first)")
    lines = summary_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    svg = _svg_box_plot(rows)
    (out_dir / "eval" / "report.svg").write_text(svg)
    print(f"wrote box plot for {len(rows)} metrics -> {out_dir / 'eval' / 'report.svg'}")
    return 0


# ------------------------------------------------------------------ driver

_COMMANDS = {
    "simulate": cmd_simulate,
    "extract": cmd_extract,
    "fnc": cmd_fnc,
    "kernel": cmd_kernel,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netresp",
        description="Multi-scale network-feature pipeline for medication-response prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "generate a synthetic dataset (manifest + matrix containers)",
        "extract": "run constrained ICA against the dataset template",
        "fnc": "compute per-subject FNC matrices from extracted time courses",
        "kernel": "dump the subject kernel matrix for a fixed component set",
        "select": "run (soft) sequential forward selection over domains",
        "evaluate": "outer cross-validation of the selected component set",
        "report": "render summary.csv as an SVG box plot",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
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
            type=str,
            default=None,
            help="selection mode: ssfs | sfs | fixed:<comma-separated indices>",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {
            "seed": args.seed,
            "threads": args.threads,
            "template": args.template,
            "features": args.features,
            "selection_mode": args.selection,
        }
        cfg = load_run_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    # ManifestError and MatrixFormatError are ValueErrors
    except (OSError, ValueError, SelectionError, EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
