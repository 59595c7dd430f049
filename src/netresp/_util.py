"""Seed derivation and deterministic parallel mapping shared across modules."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor


def derive_seed(master: int, *keys) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and context keys.

    Uses SHA-256 of the rendered key tuple, so derivation is reproducible
    across processes and Python versions (no hash randomization).
    """
    text = repr((int(master),) + tuple(keys)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map `fn` over `items`, optionally with a thread pool.

    Results are gathered in input order, so output is independent of the
    worker count; `fn` must be pure.
    """
    items = list(items)
    if threads is None:
        threads = 1
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
