"""Arrow ↔ numpy bridging helpers for vector (``list<float>``) columns
and binary payload columns.

The naive ``np.stack(col.to_pylist())`` round-trips every element
through a Python list (measured: the dominant cost of the embedding
pipelines at sf0.1); for fixed-length list columns the values buffer is
already the (n × d) matrix — reshape it without touching Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def ids_np(col) -> np.ndarray:
    """1-D numpy array of an id column without a ``to_pylist`` detour —
    zero-copy for null-free numeric columns (int64 ids measured ~20×
    faster per batch); strings come back as an object array built at C
    level, same layout ``np.asarray(to_pylist())`` would produce."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        # to_numpy would silently promote a nullable int64 id column to
        # float64-with-NaN (ids become 5.0-style floats in pair tables);
        # ids are expected non-null everywhere this helper is used.
        raise ValueError("ids_np: null values in id column")
    return arr.to_numpy(zero_copy_only=False)


def list_col_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, d) matrix from a fixed-length ``list<float>`` column —
    zero-copy from the Arrow values buffer (plus one cast if the stored
    dtype differs). Raises on ragged rows or null entries (embeddings
    are dense by construction; a silent mis-reshape would scramble
    every row after the first ragged one)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if arr.null_count:
        raise ValueError("list_col_to_matrix: null rows in vector column")
    vals = arr.flatten().to_numpy(zero_copy_only=False)
    if len(vals) % n:
        raise ValueError(
            f"list_col_to_matrix: ragged list column ({len(vals)} values "
            f"across {n} rows)")
    return vals.reshape(n, -1).astype(dtype, copy=False)


_EMPTY = np.empty(0, dtype=np.uint8)


def binary_rows(col) -> tuple[list[np.ndarray], np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray]:
    """Where each row of a ``binary``/``large_binary`` column sits, read
    off each chunk's offsets in place: (each chunk's data buffer as
    uint8, each row's chunk index, payload start in its chunk's buffer,
    payload length, validity). ``combine_chunks()`` would copy the whole
    payload (~1.2 µs/row for the image fixture, mostly page faults on
    the fresh buffer) even for a one-chunk column."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    n = len(col)
    start = np.zeros(n, dtype=np.int64)
    lens = np.zeros(n, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    cid = np.zeros(n, dtype=np.int64)
    datas, base = [], 0
    for c, ch in enumerate(chunks):
        m = len(ch)
        bufs = ch.buffers()
        datas.append(np.frombuffer(bufs[2], dtype=np.uint8)
                     if m and bufs[2] is not None else _EMPTY)
        if not m:
            continue
        off_dt = np.int64 if pa.types.is_large_binary(ch.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_dt)[
            ch.offset: ch.offset + m + 1].astype(np.int64)
        rows = slice(base, base + m)
        start[rows] = offs[:-1]
        lens[rows] = offs[1:] - offs[:-1]
        valid[rows] = True if ch.null_count == 0 else \
            np.asarray(ch.is_valid())
        cid[rows] = c
        base += m
    return datas, cid, start, lens, valid


def row_prefixes(datas: list[np.ndarray], cid: np.ndarray,
                 start: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """(len(rows), k) uint8: the first ``k`` payload bytes of each of
    the ascending ``rows`` (each at least ``k`` long), located by
    :func:`binary_rows`."""
    out = np.empty((len(rows), k), dtype=np.uint8)
    cuts = np.searchsorted(cid[rows], np.arange(len(datas) + 1))
    for c, data in enumerate(datas):
        sel = slice(cuts[c], cuts[c + 1])
        out[sel] = data[start[rows[sel]][:, None] + np.arange(k)]
    return out
