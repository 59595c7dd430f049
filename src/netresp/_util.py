"""Seed derivation, integer and float checks and deterministic parallel
mapping shared across modules."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor


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


def check_int(value, name: str) -> int:
    """`value` as an int; ValueError naming `name` when it is a float, a
    bool or anything else that is not an integer."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_float_fields(config) -> None:
    """ValueError naming the field when a field of dataclass `config` that is
    annotated `float` holds NaN or an infinity (JSON configs may spell both),
    a bool or anything else that is not a real number."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.type not in ("float", float):
            continue
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ValueError(f"{field.name} must be a finite number, got {value!r}")


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
