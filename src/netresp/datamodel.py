"""Core domain types, the on-disk matrix container, and dataset manifests.

Everything downstream works on plain float64 numpy arrays; the types here
wrap them with validated shapes and metadata, and are immutable after
construction (arrays are marked read-only) so they can be shared freely
across parallel workers.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

MAGIC = b"MSMX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")  # magic, version u32, rows u64, cols u64


class MatrixFormatError(ValueError):
    """A matrix container file violates the binary format."""


class BadMagicError(MatrixFormatError):
    pass


class BadVersionError(MatrixFormatError):
    pass


class TruncatedPayloadError(MatrixFormatError):
    """Payload byte count does not match the header (short or trailing bytes)."""


class NonFiniteValueError(MatrixFormatError):
    """A NaN or infinity was found where finite data is required."""


class ManifestError(ValueError):
    """A dataset manifest is malformed or internally inconsistent."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array with all-finite entries."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteValueError(f"{name} contains NaN or infinite values")
    return m


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def write_matrix(m, path) -> None:
    """Write a matrix to `path` in the binary container format.

    Layout: magic ``MSMX``, format version (u32 LE), rows (u64 LE),
    cols (u64 LE), then rows*cols float64 LE values in row-major order.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols)
    payload = m.astype("<f8", copy=False).tobytes(order="C")
    Path(path).write_bytes(header + payload)


def read_matrix(path) -> np.ndarray:
    """Read a matrix container file; exact inverse of :func:`write_matrix`.

    Raises BadMagicError, BadVersionError, TruncatedPayloadError or
    NonFiniteValueError depending on which part of the contract is broken.
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: expected magic {MAGIC!r}, got {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than header")
    _, version, rows, cols = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise BadVersionError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + rows * cols * 8
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    m = values.astype(np.float64).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise NonFiniteValueError(f"{path}: payload contains non-finite values")
    return m


@dataclass(frozen=True)
class Template:
    """Reference spatial maps (components x voxels) with domain labels."""

    maps: np.ndarray
    component_ids: tuple[str, ...]
    domains: tuple[str, ...]
    scale_order: tuple[int, ...] | None = None

    def __post_init__(self):
        maps = _frozen(as_matrix(self.maps, "template maps"))
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "component_ids", tuple(self.component_ids))
        object.__setattr__(self, "domains", tuple(self.domains))
        if self.scale_order is not None:
            object.__setattr__(self, "scale_order", tuple(int(s) for s in self.scale_order))
        k = maps.shape[0]
        if k < 1:
            raise ValueError("template needs at least one component")
        if len(self.component_ids) != k or len(self.domains) != k:
            raise ValueError(
                f"component_ids/domains length must match {k} template rows"
            )
        if self.scale_order is not None and len(self.scale_order) != k:
            raise ValueError(f"scale_order length must match {k} template rows")
        if len(set(self.component_ids)) != k:
            raise ValueError("duplicate component ids in template")
        variances = maps.var(axis=1)
        dead = np.flatnonzero(variances <= 0.0)
        if dead.size:
            raise ValueError(f"template rows with zero variance: {dead.tolist()}")

    @property
    def n_components(self) -> int:
        return self.maps.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.maps.shape[1]


@dataclass(frozen=True)
class Subject:
    """One subject's BOLD matrix (timepoints x voxels) plus labels."""

    id: str
    bold: np.ndarray
    label: str
    group: str

    def __post_init__(self):
        bold = _frozen(as_matrix(self.bold, f"bold[{self.id}]"))
        object.__setattr__(self, "bold", bold)
        if bold.shape[0] < 2:
            raise ValueError(f"subject {self.id}: needs at least 2 timepoints")

    @property
    def n_timepoints(self) -> int:
        return self.bold.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.bold.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A template plus subjects sharing its voxel space."""

    template: Template
    subjects: tuple[Subject, ...]
    class_set: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "class_set", tuple(self.class_set))
        if len(self.class_set) < 2:
            raise ValueError("class_set needs at least 2 classes")
        if len(set(self.class_set)) != len(self.class_set):
            raise ValueError("class_set contains duplicates")
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate subject ids: {dupes}")
        v = self.template.n_voxels
        for s in self.subjects:
            if s.n_voxels != v:
                raise ValueError(
                    f"subject {s.id}: {s.n_voxels} voxels, template has {v}"
                )
            if s.label not in self.class_set:
                raise ValueError(f"subject {s.id}: label {s.label!r} not in class_set")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    def labels(self) -> list[str]:
        return [s.label for s in self.subjects]

    def subject_ids(self) -> list[str]:
        return [s.id for s in self.subjects]

    def subset(self, class_set) -> "Dataset":
        """Restrict to subjects whose label is in `class_set` (order kept)."""
        class_set = tuple(class_set)
        kept = tuple(s for s in self.subjects if s.label in class_set)
        return Dataset(self.template, kept, class_set)


@dataclass(frozen=True)
class SubjectFeatures:
    """Per-subject outputs of constrained ICA: maps, time courses, FNC.

    `fnc` stays None until computed. `converged` carries the per-component
    convergence flags of the extraction (None for synthetic features).
    `subject_id` names the subject in kernel errors and dumps; features
    without one are named `s%04d` after their position in the cohort.
    """

    spatial_maps: np.ndarray
    time_courses: np.ndarray
    fnc: np.ndarray | None = None
    converged: np.ndarray | None = None
    subject_id: str | None = None

    def __post_init__(self):
        sm = _frozen(as_matrix(self.spatial_maps, "spatial_maps"))
        tc = _frozen(as_matrix(self.time_courses, "time_courses"))
        object.__setattr__(self, "spatial_maps", sm)
        object.__setattr__(self, "time_courses", tc)
        if tc.shape[1] != sm.shape[0]:
            raise ValueError(
                f"time_courses has {tc.shape[1]} columns, expected {sm.shape[0]}"
            )
        if self.fnc is not None:
            fnc = _frozen(as_matrix(self.fnc, "fnc"))
            object.__setattr__(self, "fnc", fnc)
            k = sm.shape[0]
            if fnc.shape != (k, k):
                raise ValueError(f"fnc shape {fnc.shape}, expected ({k}, {k})")
            if np.abs(fnc - fnc.T).max() > 1e-12:
                raise ValueError("fnc is not symmetric")
            if np.any(np.diag(fnc) != 1.0):
                raise ValueError("fnc diagonal must be exactly 1")
        if self.converged is not None:
            conv = np.asarray(self.converged, dtype=bool)
            conv.setflags(write=False)
            object.__setattr__(self, "converged", conv)

    @property
    def n_components(self) -> int:
        return self.spatial_maps.shape[0]

    def with_fnc(self, fnc) -> "SubjectFeatures":
        return replace(self, fnc=fnc)


_MANIFEST_KEYS = {"template", "domains", "class_set", "subjects"}
_MANIFEST_OPTIONAL = {"component_ids", "scale_order"}
_SUBJECT_KEYS = {"id", "bold", "label", "group"}


def load_dataset(manifest_path) -> Dataset:
    """Load and fully validate a dataset from a JSON manifest.

    The manifest lists the template matrix path, per-component domain tags,
    the class set and per-subject ``{id, bold, label, group}`` entries.
    Paths are resolved relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ManifestError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ManifestError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise ManifestError(f"{manifest_path}: manifest must be a JSON object")
    unknown = set(manifest) - _MANIFEST_KEYS - _MANIFEST_OPTIONAL
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    missing = _MANIFEST_KEYS - set(manifest)
    if missing:
        raise ManifestError(f"missing manifest keys: {sorted(missing)}")

    base = manifest_path.parent

    def _resolve(rel) -> Path:
        p = base / rel
        if not p.exists():
            raise ManifestError(f"referenced file not found: {p}")
        return p

    maps = read_matrix(_resolve(manifest["template"]))
    domains = manifest["domains"]
    if not isinstance(domains, list) or len(domains) != maps.shape[0]:
        raise ManifestError(
            f"domains must list one tag per template row ({maps.shape[0]})"
        )
    component_ids = manifest.get(
        "component_ids", [f"c{i:03d}" for i in range(maps.shape[0])]
    )
    template = Template(
        maps=maps,
        component_ids=component_ids,
        domains=[str(d) for d in domains],
        scale_order=manifest.get("scale_order"),
    )

    subjects = []
    for entry in manifest["subjects"]:
        if not isinstance(entry, dict):
            raise ManifestError("subject entries must be JSON objects")
        bad = set(entry) - _SUBJECT_KEYS
        if bad:
            raise ManifestError(f"unknown subject keys: {sorted(bad)}")
        miss = _SUBJECT_KEYS - set(entry)
        if miss:
            raise ManifestError(f"subject entry missing keys: {sorted(miss)}")
        bold = read_matrix(_resolve(entry["bold"]))
        subjects.append(
            Subject(
                id=str(entry["id"]),
                bold=bold,
                label=str(entry["label"]),
                group=str(entry["group"]),
            )
        )

    try:
        return Dataset(
            template=template,
            subjects=tuple(subjects),
            class_set=tuple(str(c) for c in manifest["class_set"]),
        )
    except ValueError as e:
        raise ManifestError(str(e)) from e


def write_dataset(dataset: Dataset, out_dir) -> Path:
    """Write `dataset` as manifest.json plus matrix containers under `out_dir`.

    Returns the manifest path. Output is byte-deterministic for equal inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix(dataset.template.maps, out_dir / "template.msmx")
    manifest = {
        "template": "template.msmx",
        "domains": list(dataset.template.domains),
        "component_ids": list(dataset.template.component_ids),
        "class_set": list(dataset.class_set),
        "subjects": [],
    }
    if dataset.template.scale_order is not None:
        manifest["scale_order"] = list(dataset.template.scale_order)
    for s in dataset.subjects:
        bold_name = f"{s.id}.bold.msmx"
        write_matrix(s.bold, out_dir / bold_name)
        manifest["subjects"].append(
            {"id": s.id, "bold": bold_name, "label": s.label, "group": s.group}
        )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path
