"""Vectorized word n-gram hashing over the raw Arrow UTF-8 buffer.

Powers the corpus-level training-data operators (decontamination,
repetition stats): for every document in a batch, the uint64 hashes of
all word n-grams (split on single ASCII space, the exact semantics of
DuckDB ``string_split(text, ' ')``), with zero Python strings in the
hot path.

Key identity used throughout: because single-space-separated words
reconstruct the original byte span exactly (``' '.join(words[i:i+n])``
equals the substring from word i's start to word i+n-1's end, including
any empty tokens from doubled spaces), the hash of a word n-gram equals
:func:`~dataquality_cli_ray.functions.hashing.stable_hash64_array` of
the joined n-gram string. That makes the kernel testable against the
scalar path and keeps the DuckDB oracles honest (equal strings hash
equal; unequal strings collide with probability ~2^-64).

Vectorization: a polynomial prefix hash is a linear recurrence, so it
is computed with wraparound cumulative sums instead of a scan —
``s[t] = sum_{u<t} byte_u * Pinv^u`` (``Pinv`` = modular inverse of the
FNV prime mod 2^64, which exists because the prime is odd), and the
Horner-form hash of any span [i, j) is ``(s[j] - s[i]) * P^(j-1)``.
One cumsum + two gathers per batch, matching the memory-traffic
discipline of the round-2 kernel rewrites (BASELINE.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import FNV_OFFSET, FNV_PRIME, GOLDEN, splitmix64

# modular inverse of the FNV prime mod 2^64 (odd => invertible)
_PINV = np.uint64(pow(int(FNV_PRIME), -1, 1 << 64))

# grow-on-demand cumulative power tables, one per base, cached per
# process (Ray workers build them once; sized to the largest batch
# byte-segment seen)
_POW_SERIES: dict[int, np.ndarray] = {}


# tables above this length are built per call instead of cached —
# one pathological batch (e.g. a single 500 MB document) must not pin
# gigabytes in every worker for the process lifetime (same rule as the
# image-stage scratch cap, ADVICE r2)
_POW_CACHE_MAX = 1 << 24


def _pow_series(base: np.uint64, n: int) -> np.ndarray:
    t = _POW_SERIES.get(int(base))
    if t is None or len(t) < n:
        size = max(n, 1 << 16)
        t = np.full(size, base, dtype=np.uint64)
        t[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            np.cumprod(t, out=t)  # uint64 wraps mod 2^64 (C semantics)
        if size <= _POW_CACHE_MAX:
            _POW_SERIES[int(base)] = t
    return t


def lower_filled(texts) -> pa.Array:
    """Normalize any text sequence to a non-null, lowercased Arrow
    string array — the shared input form (``lower(coalesce(t, ''))``)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array(
            ["" if t is None else str(t) for t in texts], type=pa.string())
    texts = pc.utf8_lower(pc.fill_null(texts, ""))
    if isinstance(texts, pa.ChunkedArray):  # compute may re-chunk
        texts = texts.combine_chunks()
    return texts


def word_bounds(arr: pa.Array) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Word-boundary decomposition of a (lowered, non-null) string
    array's byte buffer under single-space split semantics.

    Returns ``(seg, ws, we, word_offs, w_per_doc)``:

    - ``seg``: the batch's contiguous UTF-8 byte segment;
    - ``ws``/``we``: global byte start/end (exclusive) of every word,
      doc-major order;
    - ``word_offs``: doc i's words are ``ws[word_offs[i]:word_offs[i+1]]``;
    - ``w_per_doc``: words per doc (always >= 1 — '' is one empty word).
    """
    nd = len(arr)
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=odt)[
        arr.offset: arr.offset + nd + 1].astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    a0 = int(offs[0])
    offs = offs - a0
    seg = data[a0: a0 + int(offs[-1])]
    sp = np.flatnonzero(seg == 0x20).astype(np.int64)
    d_sp = np.searchsorted(offs, sp, side="right") - 1
    docs = np.arange(nd, dtype=np.int64)
    # word starts = doc start + (space+1); word ends = spaces + doc end.
    # lexsort by (doc, position) merges them; positions never tie
    # within a doc (a space is strictly inside its doc's span).
    ws = np.concatenate([offs[:-1], sp + 1])
    ws_doc = np.concatenate([docs, d_sp])
    o = np.lexsort((ws, ws_doc))
    ws = ws[o]
    we = np.concatenate([sp, offs[1:]])
    we_doc = np.concatenate([d_sp, docs])
    o = np.lexsort((we, we_doc))
    we = we[o]
    w_per_doc = np.bincount(ws_doc, minlength=nd)
    word_offs = np.zeros(nd + 1, dtype=np.int64)
    np.cumsum(w_per_doc, out=word_offs[1:])
    return seg, ws, we, word_offs, w_per_doc


def spans_to_strings(seg: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> pa.Array:
    """Materialize byte spans of one batch segment as an Arrow string
    array (one gather — call on already-reduced span sets, e.g.
    per-batch distinct grams or chunk windows)."""
    lens = (ends - starts).astype(np.int64)
    out_offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_offs[1:])
    total = int(out_offs[-1])
    if total >= (1 << 31):  # int32 Arrow offsets guard
        raise ValueError("span bytes exceed one string array")
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(out_offs[:-1], lens) + np.repeat(starts, lens))
    data = seg[idx] if total else np.empty(0, dtype=np.uint8)
    return pa.StringArray.from_buffers(
        len(lens), pa.py_buffer(out_offs.astype(np.int32).tobytes()),
        pa.py_buffer(data.tobytes()))


def word_ngram_spans_batch(
    texts, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Byte spans of every word n-gram: ``(seg, starts, ends,
    gram_offs)`` with doc i's grams at ``[gram_offs[i], gram_offs[i+1])``
    (doc-major positional order). Shared by the hash kernel and the
    count partial."""
    arr = lower_filled(texts)
    nd = len(arr)
    if nd == 0:
        e = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint8), e, e, np.zeros(1, dtype=np.int64)
    seg, ws, we, word_offs, w_per_doc = word_bounds(arr)
    g = np.maximum(w_per_doc - (n - 1), 0)
    gram_offs = np.zeros(nd + 1, dtype=np.int64)
    np.cumsum(g, out=gram_offs[1:])
    G = int(gram_offs[-1])
    if G == 0:
        e = np.empty(0, dtype=np.int64)
        return seg, e, e, gram_offs
    doc_of_g = np.repeat(np.arange(nd, dtype=np.int64), g)
    k = np.arange(G, dtype=np.int64) - gram_offs[doc_of_g]
    si = word_offs[doc_of_g] + k
    return seg, ws[si], we[si + (n - 1)], gram_offs


def hash_spans(seg: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """uint64 polynomial hash of byte spans via prefix sums — equals
    ``stable_hash64_array`` of each span's string (see module
    docstring)."""
    L = len(seg)
    pinv = _pow_series(_PINV, L + 1)
    ppow = _pow_series(FNV_PRIME, L + 1)
    s = np.zeros(L + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.cumsum(seg.astype(np.uint64) * pinv[:L], out=s[1:])
        # (s[j]-s[i]) * P^(j-1) = Horner-form polynomial hash of the
        # span; for an empty span the product is 0 regardless of the
        # (then out-of-range, numpy-wrapped) power index.
        poly = (s[ends] - s[starts]) * ppow[ends - 1]
        return splitmix64(
            poly ^ ((ends - starts).astype(np.uint64) * GOLDEN)
            ^ FNV_OFFSET)


def word_ngram_hashes_batch(
    texts, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """uint64 hashes of every word n-gram for a whole batch of texts.

    Returns ``(hashes, offsets)`` with doc i's n-gram hashes at
    ``hashes[offsets[i]:offsets[i+1]]`` in positional order (not
    deduplicated — use :func:`~.hashing.dedupe_per_doc` for set
    semantics).

    Semantics (chosen to be expressible as a DuckDB oracle):

    - words = ``lower(coalesce(text, ''))`` split on single ASCII
      space; doubled spaces yield empty tokens, and the empty string
      yields one empty word — exactly ``string_split(lower(t), ' ')``;
    - a document with fewer than n words contributes ZERO n-grams
      (``generate_series(1, len(words)-n+1)`` convention);
    - the hash of a gram equals ``stable_hash64_array`` of the joined
      gram string (see module docstring).
    """
    seg, starts, ends, gram_offs = word_ngram_spans_batch(texts, n)
    if len(starts) == 0:
        return np.empty(0, dtype=np.uint64), gram_offs
    return hash_spans(seg, starts, ends), gram_offs


def word_counts_batch(texts) -> np.ndarray:
    """Words per document under the same split semantics (int64).
    Always >= 1: the empty string is one empty word."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array(
            ["" if t is None else str(t) for t in texts], type=pa.string())
    texts = pc.fill_null(texts, "")
    n_sp = pc.count_substring(texts, " ")
    return n_sp.to_numpy(zero_copy_only=False).astype(np.int64) + 1
