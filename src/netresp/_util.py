"""Seed derivation and deterministic parallel mapping shared across modules."""

from __future__ import annotations

import hashlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor


def derive_seed(master: int, *keys) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and context keys.

    Uses SHA-256 of the rendered key tuple, so derivation is reproducible
    across processes and Python versions (no hash randomization).
    """
    text = repr((int(master),) + tuple(keys)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


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
