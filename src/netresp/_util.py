"""Seed derivation, the checks of outside input (numbers, JSON objects,
subject entries, component indices, class names) and deterministic
parallel mapping shared across modules. Each input check takes the error
class to raise, so each caller keeps its own exit code."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def derive_seed(master: int, *keys) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and context keys.

    Uses SHA-256 of the rendered key tuple, so derivation is reproducible
    across processes and Python versions (no hash randomization).
    """
    text = repr((int(master),) + tuple(keys)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def is_int(x) -> bool:
    """True for an integer, numpy's included, but not for a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_int(value, name: str, minimum=None, error=ValueError) -> int:
    """`value` as an int; `error` naming `name` and the value when it is a
    float, a bool or anything else that is not an integer, or is below
    `minimum`."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    _check_bound(value, name, minimum, False, error)
    return int(value)


def check_fields(config, minimum=None, positive=(), error=ValueError) -> None:
    """Raise `error` naming the field and its value when a field of dataclass
    `config` annotated `int` holds anything but an integer, one annotated
    `float` holds NaN or an infinity (JSON configs may spell both), a bool or
    anything else that is not a real number, or either is below its bound in
    `minimum` (field name to bound) or, named in `positive`, is not above 0.
    A field annotated `int | None` or `float | None` may hold None; fields of
    other types are not checked."""
    minimum = minimum or {}
    for field in dataclasses.fields(config):
        name, value = field.name, getattr(config, field.name)
        kind = getattr(field.type, "__name__", str(field.type))  # a class or, postponed, a str
        if kind.endswith(" | None") and value is None:
            continue
        kind = kind.removesuffix(" | None")
        if kind == "int":
            check_int(value, name, error=error)
        elif kind == "float":
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise error(f"{name} must be a finite number, got {value!r}")
        else:
            continue
        _check_bound(value, name, minimum.get(name), name in positive, error)


def _check_bound(value, name: str, minimum, positive: bool, error) -> None:
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value!r}")
    if positive and not value > 0:
        raise error(f"{name} must be positive, got {value!r}")


def check_keys(doc, required, allowed, where, error) -> dict:
    """`doc` when it is a JSON object holding every key in `required` and,
    unless `allowed` is None, no key outside `required` and `allowed`;
    otherwise raises `error` naming `where` and the first key at fault."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise error(f"{where}: missing key {missing[0]!r}")
    unknown = [] if allowed is None else sorted(set(doc) - set(required) - set(allowed))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}")
    return doc


def check_file_name(value, what, error) -> None:
    """Raise `error` naming `what` and the value unless `value` is a plain
    file name: a non-empty string other than '.' and '..', with no '/',
    '\\' or NUL, so a path joined from it stays in its directory."""
    plain = isinstance(value, str) and value not in ("", ".", "..")
    if not plain or any(c in value for c in "/\\\0"):
        raise error(f"{what} must be a plain file name, got {value!r}")


def check_subject_entries(entries, required, allowed, names, where, error) -> list:
    """`entries` when it is a list of JSON objects, each passing
    :func:`check_keys` for `required` and `allowed`, with a string under
    each key in `required`, a plain file name under each key in `names`
    that it holds and an id that no earlier entry has; otherwise raises
    `error` naming `where`, the entry and the key."""
    if not isinstance(entries, list):
        raise error(f"{where}: 'subjects' must be a list of entries, got {entries!r}")
    ids = set()
    for n, entry in enumerate(entries):
        at = f"{where}: subject entry {n}"
        check_keys(entry, required, allowed, at, error)
        for key in required:
            if not isinstance(entry[key], str):
                raise error(f"{at}: {key!r} must be a string, got {entry[key]!r}")
        for key in names:
            if key in entry:
                check_file_name(entry[key], f"{at}: {key!r}", error)
        if entry["id"] in ids:
            raise error(f"{at}: duplicate subject id {entry['id']!r}")
        ids.add(entry["id"])
    return entries


def read_json_object(path, required=(), allowed=None, error=ValueError, hint: str = "") -> dict:
    """The JSON object at `path`, its keys checked by :func:`check_keys`;
    `error` names the file when it is missing (followed by `hint`), is not
    JSON or fails the check."""
    path = Path(path)
    if not path.exists():
        raise error(f"not found: {path}{hint}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON: {e}") from e
    return check_keys(doc, required, allowed, path, error)


def check_indices(values, n: int | None, what: str, error=ValueError, empty_ok=False) -> list[int]:
    """`values` as a list when it is a list, tuple or range of distinct
    integer indices in [0, n), or >= 0 when `n` is None, non-empty unless
    `empty_ok`; otherwise raises `error` naming `what`. A float or a bool
    is not an index."""
    kind = "list of integers" if empty_ok else "non-empty list of integers"
    if not isinstance(values, (list, tuple, range)) or not (values or empty_ok):
        raise error(f"{what} must be a {kind}, got {values!r}")
    for i in values:
        if not is_int(i):
            raise error(f"{what} must be a {kind}; it holds {i!r}, not an integer")
        if i < 0 or (n is not None and i >= n):
            raise error(f"{what} index {i} out of range" + ("" if n is None else f" [0, {n})"))
    if len(set(values)) != len(values):
        raise error(f"{what} repeats a component; indices must be distinct: {list(values)}")
    return [int(i) for i in values]


def check_class_names(names, what: str, error=ValueError) -> tuple[str, ...]:
    """`names` as a tuple when it is a list or tuple of at least 2 distinct
    strings, none holding a comma or a line break (each names a column of a
    csv row); otherwise raises `error` naming `what`."""
    strings = isinstance(names, (list, tuple)) and all(isinstance(c, str) for c in names)
    if not strings or len(names) < 2 or len(set(names)) != len(names):
        raise error(f"{what} must be a list of at least 2 distinct class names, got {names!r}")
    for name in names:
        if any(c in name for c in ",\n\r"):
            raise error(f"{what}: class name {name!r} holds a comma or a line break")
    return tuple(names)


def parallel_imap(fn, items, threads: int = 1):
    """Lazily map `fn` over `items`, optionally with a thread pool.

    Results are yielded in input order, so output is independent of the
    worker count; `fn` must be pure. At most `threads` items are in flight,
    the one handed to the caller included: a call is submitted only when
    the caller asks for its next result.
    """
    if threads is None or threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for x in items:
            if len(pending) == threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, x))
        while pending:
            yield pending.popleft().result()


def parallel_map(fn, items, threads: int = 1) -> list:
    """:func:`parallel_imap` gathered into a list."""
    return list(parallel_imap(fn, items, threads))
