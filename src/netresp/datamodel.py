"""Core domain types, the on-disk matrix container, and dataset manifests.

Everything downstream works on plain float64 numpy arrays; the types here
wrap them with validated shapes and metadata, and are immutable after
construction (arrays are marked read-only) so they can be shared freely
across parallel workers.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import (
    check_class_names, check_file_name, check_int, check_subject_entries, read_json_object
)

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
    """A read-only C-contiguous view of `arr`; the caller's own array keeps
    its write flag, and a contiguous one is not copied."""
    view = np.ascontiguousarray(arr).view()
    view.setflags(write=False)
    return view


def check_fnc(fnc, k: int) -> np.ndarray:
    """`fnc` as a read-only K x K matrix: finite, symmetric, unit diagonal."""
    fnc = _frozen(as_matrix(fnc, "fnc"))
    if fnc.shape != (k, k):
        raise ValueError(f"fnc shape {fnc.shape}, expected ({k}, {k})")
    if np.abs(fnc - fnc.T).max() > 1e-12:
        raise ValueError("fnc is not symmetric")
    if np.any(np.diag(fnc) != 1.0):
        raise ValueError("fnc diagonal must be exactly 1")
    return fnc


def write_matrix(m, path) -> None:
    """Write a matrix to `path` in the binary container format.

    Layout: magic ``MSMX``, format version (u32 LE), rows (u64 LE),
    cols (u64 LE), then rows*cols float64 LE values in row-major order.
    The payload is written straight from the array's buffer.
    """
    m = as_matrix(m, f"matrix for {path}").astype("<f8", copy=False)
    rows, cols = m.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        f.write(m.data)


def read_matrix(path) -> np.ndarray:
    """Read a matrix container file; exact inverse of :func:`write_matrix`.

    The payload is read into one new array, which the caller owns and may
    write to. Raises BadMagicError, BadVersionError, TruncatedPayloadError
    or NonFiniteValueError depending on which part of the contract is
    broken; the file size is checked before the array is allocated.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if head[:4] != MAGIC:
            raise BadMagicError(f"{path}: expected magic {MAGIC!r}, got {head[:4]!r}")
        if len(head) < _HEADER.size:
            raise TruncatedPayloadError(f"{path}: file shorter than header")
        _, version, rows, cols = _HEADER.unpack(head)
        if version != FORMAT_VERSION:
            raise BadVersionError(f"{path}: unsupported format version {version}")
        expected = _HEADER.size + rows * cols * 8
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise TruncatedPayloadError(
                f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}"
            )
        m = np.empty((rows, cols), dtype="<f8")
        if f.readinto(m) != expected - _HEADER.size:
            raise TruncatedPayloadError(f"{path}: file changed size while being read")
    m = m.astype(np.float64, copy=False)
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
        ids = self.component_ids
        if not isinstance(ids, (list, tuple)) or not all(isinstance(c, str) for c in ids):
            raise ValueError(f"component_ids must be a list of strings, got {ids!r}")
        object.__setattr__(self, "component_ids", tuple(ids))
        domains = self.domains
        if not isinstance(domains, (list, tuple)) or not all(isinstance(d, str) for d in domains):
            raise ValueError(f"domains must be a list of strings, got {domains!r}")
        object.__setattr__(self, "domains", tuple(domains))
        order = self.scale_order
        if order is not None:
            if not isinstance(order, (list, tuple)):
                raise ValueError(f"scale_order must be a list of integers, got {order!r}")
            order = tuple(check_int(s, "each scale_order entry") for s in order)
            object.__setattr__(self, "scale_order", order)
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
    """One subject's BOLD matrix (timepoints x voxels) plus labels.

    The bold's shape is checked here, its values where they are used:
    :func:`write_matrix` and `scica.extract_subject` reject NaN and
    infinities, so a bold is checked once on each path.
    """

    id: str
    bold: np.ndarray
    label: str
    group: str

    def __post_init__(self):
        bold = _frozen(np.ascontiguousarray(self.bold, dtype=np.float64))
        object.__setattr__(self, "bold", bold)
        if bold.ndim != 2 or bold.shape[0] < 2:
            raise ValueError(
                f"subject {self.id}: bold must be 2-D with at least 2 timepoints, "
                f"got shape {bold.shape}"
            )

    @property
    def n_voxels(self) -> int:
        return self.bold.shape[1]


def _checked_subjects(template: Template, class_set: tuple, subjects):
    """Yield `subjects`, each checked against Dataset's invariants as it
    arrives: ids unique plain file names, labels in `class_set`, the
    template's voxel count."""
    check_class_names(class_set, "class_set")
    ids: set[str] = set()
    v = template.n_voxels
    for s in subjects:
        # its bold is written to <id>.bold.msmx
        check_file_name(s.id, "subject id", ValueError)
        if s.id in ids:
            raise ValueError(f"duplicate subject id: {s.id!r}")
        if s.n_voxels != v:
            raise ValueError(f"subject {s.id}: {s.n_voxels} voxels, template has {v}")
        if s.label not in class_set:
            raise ValueError(f"subject {s.id}: label {s.label!r} not in class_set")
        ids.add(s.id)
        yield s


@dataclass(frozen=True)
class Dataset:
    """A template plus subjects sharing its voxel space."""

    template: Template
    subjects: tuple[Subject, ...]
    class_set: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_set", check_class_names(self.class_set, "class_set"))
        subjects = tuple(_checked_subjects(self.template, self.class_set, self.subjects))
        object.__setattr__(self, "subjects", subjects)

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)


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
            object.__setattr__(self, "fnc", check_fnc(self.fnc, sm.shape[0]))
        if self.converged is not None:
            object.__setattr__(self, "converged", _frozen(np.asarray(self.converged, dtype=bool)))

    @property
    def n_components(self) -> int:
        return self.spatial_maps.shape[0]


_MANIFEST_KEYS = ("template", "domains", "class_set", "subjects")
_MANIFEST_OPTIONAL = ("component_ids", "scale_order")
_SUBJECT_KEYS = ("id", "bold", "label", "group")


@dataclass(frozen=True)
class Manifest:
    """A validated dataset manifest: template, class set and subject entries
    ``{id, bold, label, group}``, `bold` resolved to an existing path."""

    template: Template
    class_set: tuple[str, ...]
    entries: tuple[dict, ...]

    def bolds(self):
        """Yield each entry's bold matrix, read only when it is asked for
        into a new array that the caller owns and may write to, its shape
        checked against the template."""
        v = self.template.n_voxels
        for entry in self.entries:
            bold = read_matrix(entry["bold"])
            t, n_voxels = bold.shape
            if n_voxels != v:
                raise ManifestError(f"subject {entry['id']}: {n_voxels} voxels, template has {v}")
            if t < 2:
                raise ManifestError(f"subject {entry['id']}: needs at least 2 timepoints")
            yield bold

    def subjects(self):
        """Yield each entry's Subject, reading its bold matrix only when the
        subject is asked for."""
        return (Subject(**dict(e, bold=b)) for e, b in zip(self.entries, self.bolds()))


def read_manifest(manifest_path) -> Manifest:
    """Load and validate a JSON dataset manifest, leaving bold matrices unread.

    The manifest lists the template matrix path, per-component domain tags,
    the class set and per-subject ``{id, bold, label, group}`` entries.
    Paths are resolved relative to the manifest's directory. The manifest's
    structure, the template, the subject entries against Dataset's
    invariants and the existence of every referenced file are checked here;
    :meth:`Manifest.bolds` reads and checks the subjects' bolds.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, _MANIFEST_KEYS, _MANIFEST_OPTIONAL, ManifestError)
    class_set = check_class_names(
        manifest["class_set"], f"{manifest_path}: 'class_set'", ManifestError
    )
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
            f"{manifest_path}: 'domains' must list one tag per template row ({maps.shape[0]})"
        )
    component_ids = manifest.get(
        "component_ids", [f"c{i:03d}" for i in range(maps.shape[0])]
    )
    try:
        template = Template(
            maps=maps,
            component_ids=component_ids,
            domains=domains,
            scale_order=manifest.get("scale_order"),
        )
    except ValueError as e:
        raise ManifestError(f"{manifest_path}: {e}") from e

    # extract writes <id>.sm.msmx and the rest, so an id is a plain file name
    subjects = check_subject_entries(
        manifest["subjects"], _SUBJECT_KEYS, (), ("id",), manifest_path, ManifestError
    )
    for n, entry in enumerate(subjects):
        if entry["label"] not in class_set:
            raise ManifestError(
                f"{manifest_path}: subject entry {n}: label {entry['label']!r} not in class_set"
            )
    entries = tuple(dict(entry, bold=_resolve(entry["bold"])) for entry in subjects)
    return Manifest(template, class_set, entries)


def load_dataset(manifest_path) -> Dataset:
    """Load and fully validate a dataset from a JSON manifest, every
    subject's bold matrix in memory (see :func:`read_manifest`)."""
    manifest = read_manifest(manifest_path)
    return Dataset(manifest.template, tuple(manifest.subjects()), manifest.class_set)


def write_subjects(template: Template, class_set, subjects, out_dir) -> Path:
    """Write a dataset as manifest.json plus matrix containers under `out_dir`,
    taking `subjects` one at a time from any iterable.

    Each subject is checked against Dataset's invariants as it arrives. Any
    old manifest is removed before the first matrix is written, and the new
    one is written last, so a failed write leaves no manifest. Returns the
    manifest path. Output is byte-deterministic for equal inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    write_matrix(template.maps, out_dir / "template.msmx")
    manifest = {
        "template": "template.msmx",
        "domains": list(template.domains),
        "component_ids": list(template.component_ids),
        "class_set": list(class_set),
        "subjects": [],
    }
    if template.scale_order is not None:
        manifest["scale_order"] = list(template.scale_order)
    for s in _checked_subjects(template, class_set, subjects):
        bold_name = f"{s.id}.bold.msmx"
        write_matrix(s.bold, out_dir / bold_name)
        manifest["subjects"].append(
            {"id": s.id, "bold": bold_name, "label": s.label, "group": s.group}
        )
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def write_dataset(dataset: Dataset, out_dir) -> Path:
    """Write an in-memory `dataset` with :func:`write_subjects`."""
    return write_subjects(dataset.template, dataset.class_set, dataset.subjects, out_dir)
