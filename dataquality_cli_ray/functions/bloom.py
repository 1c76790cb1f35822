"""Vectorized Bloom filter over 64-bit key arrays.

Scale role (100 TB): a persisted dedup index partition can hold
billions of (hash, winner) rows, while an incremental batch typically
hits few of them. A per-partition Bloom sidecar (~1.2 bytes/key at
1 % fpr) lets the partition task decide "no possible hit → skip the
index read" from a tiny file before touching the data parquet. Bloom
filters have NO false negatives, so exactness is preserved: negative
keys are definitively absent from the index; positives are verified
against the real index rows as before.

Double hashing (Kirsch & Mitzenmacher 2006): ``pos_i = h1 + i*h2``
simulates k independent hash functions from two 64-bit mixes. The bit
count is rounded UP to a power of two so the reduction is a mask, not
a uint64 modulo (integer division costs ~100 ns/element — the round-2
minhash lesson, CLAUDE.md).
"""
from __future__ import annotations

import math

import numpy as np

from .hashing import GOLDEN, splitmix64


def bloom_params(n_keys: int, fpr: float = 0.01) -> tuple[int, int]:
    """(m_bits, k) for ``n_keys`` at target false-positive rate —
    m = -n·ln p / ln²2 rounded up to a power of two (≥ 64), k = the
    optimum for the ROUNDED m (more bits → fewer probes needed)."""
    n = max(1, int(n_keys))
    m = max(64.0, -n * math.log(max(1e-12, min(0.5, fpr))) / math.log(2) ** 2)
    m_bits = 1 << math.ceil(math.log2(m))
    k = max(1, min(16, round(m_bits / n * math.log(2))))
    return m_bits, k


def _h1h2(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = keys.astype(np.uint64, copy=False).view(np.uint64)
    h1 = splitmix64(u)
    h2 = splitmix64(u ^ GOLDEN) | np.uint64(1)
    return h1, h2


def bloom_build(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """Bit array (uint64 words, little-endian bit order) with every
    key's k positions set. Associative: OR of per-block builds over
    the same (m_bits, k) equals one build over the concatenation."""
    assert m_bits & (m_bits - 1) == 0, "m_bits must be a power of two"
    bits = np.zeros(m_bits >> 6, dtype=np.uint64)
    if len(keys) == 0:
        return bits
    mask = np.uint64(m_bits - 1)
    h1, h2 = _h1h2(np.asarray(keys))
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) & mask
        np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
    return bits


def bloom_probe(keys: np.ndarray, bits: np.ndarray, k: int) -> np.ndarray:
    """Boolean membership mask: True = possibly present (verify
    against the real data), False = DEFINITELY absent."""
    m_bits = len(bits) << 6
    mask = np.uint64(m_bits - 1)
    keys = np.asarray(keys)
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    h1, h2 = _h1h2(keys)
    hit = np.ones(len(keys), dtype=bool)
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) & mask
        word = bits[(pos >> np.uint64(6)).astype(np.int64)]
        hit &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
        if not hit.any():
            break
    return hit
