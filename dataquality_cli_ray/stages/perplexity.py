"""KenLM-style character n-gram perplexity scorer as a ``map_batches``
task stage.

Reference analogue: the running-moment accumulators A2/A3
(``simple_engine.go:277-293``) — a per-row numeric score from
incremental state — generalized to an n-gram language model. Public
technique: interpolated/add-k smoothed char trigram LM (the CCNet /
Gopher-style "perplexity filter" uses KenLM the same way).

Model: hashed trigram + bigram count tables (size D, uint64 polynomial
hash — process-independent). Score = average -log2 P(c_i | c_{i-2}
c_{i-1}) with add-k smoothing, i.e. bits/char; natural text scores low,
gibberish high. Built deterministically from a seed corpus in
whole-corpus passes (:func:`train_char_lm`) and shipped pre-built via
``ray.put``; callers cache the scorer once per worker process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(1000003)


def _hash_grams(b: np.ndarray, n: int, dim: int) -> np.ndarray:
    """Bucket ids of all n-grams of a uint8 byte array (vectorized)."""
    if len(b) < n:
        return np.empty(0, dtype=np.int64)
    m = len(b) - n + 1
    h = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            h = h * _P + b[j : m + j].astype(np.uint64)
    return (h % np.uint64(dim)).astype(np.int64)


def train_char_lm(texts, dim: int = 1 << 18, order: int = 3) -> dict:
    """Count tables for the trigram LM from an iterable of texts, in
    whole-corpus passes: every non-empty text is encoded once as
    ``"  t "`` (lowered, utf-8), the concatenation is hashed once per
    gram order, windows that cross a text boundary are dropped, and
    ``np.unique`` counts the rest. The counts are then scattered into
    ``np.zeros(dim)``, which touches only the pages of buckets that
    occur: a dense ``bincount(minlength=dim)`` would make both 2 MiB
    tables resident in every process that builds the model. The tables
    equal the per-text ``np.add.at`` counts exactly."""
    enc = [f"  {t.lower()} ".encode("utf-8", "ignore") for t in texts if t]
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
    ends = np.cumsum([len(e) for e in enc], dtype=np.int64)
    tables = []
    for n in (order, order - 1):
        h = _hash_grams(buf, n, dim)
        # a window starting in the last n-1 bytes of a text runs into
        # the next one
        inside = np.ones(len(h), dtype=bool)
        for j in range(1, n):
            cut = ends - j
            inside[cut[(cut >= 0) & (cut < len(h))]] = False
        buckets, counts = np.unique(h[inside], return_counts=True)
        table = np.zeros(dim, dtype=np.float64)
        table[buckets] = counts
        tables.append(table)
    tri, bi = tables
    return {"tri": tri, "bi": bi, "dim": dim, "order": order, "k": 0.1, "vocab": 64.0}


def score_texts_batch(model: dict, texts) -> np.ndarray:
    """Bits/char for a whole batch in one pass: the tri/bi-gram hashes
    roll over the Arrow UTF-8 data buffer of the "  t "-padded batch
    (windows crossing text boundaries dropped by a vectorized gather),
    and per-text means come from one ``add.reduceat`` — the per-text
    :func:`score_text` loop spent ~50 µs/row in numpy call overhead.

    ``texts`` may be a ``pa.Array``/``pa.ChunkedArray`` (fast path: no
    Python strings materialized) or any sequence. When ``dim`` is a
    power of two ≤ 2^32 the rolling hash runs in uint32 —
    bucket-identical to the uint64 form because ``% dim`` depends only
    on the low bits (pinned by ``test_ppl_arrow_matches_list_path``).
    Per-position probabilities are identical to ``score_text``; the
    per-text mean differs only in float summation order (≤ ~1 ulp)."""
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array([None if t is None else str(t) for t in texts],
                         type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    m = len(texts)
    scores = np.full(m, np.inf, dtype=np.float64)
    if m == 0:
        return scores
    dim, order, k, V = model["dim"], model["order"], model["k"], model["vocab"]
    # old semantics: falsy texts ("" or None) score inf -> null them out
    # so they contribute zero padded bytes / zero windows
    masked = pc.if_else(pc.equal(texts, ""), pa.scalar(None, pa.string()),
                        texts)
    lowered = pc.utf8_lower(masked)
    padded = pc.binary_join_element_wise(
        pa.scalar(" "), lowered, pa.scalar(""), pa.scalar(" "))
    padded = padded.fill_null("")
    if isinstance(padded, pa.ChunkedArray):
        padded = padded.combine_chunks()
    off_dt = np.int64 if pa.types.is_large_string(padded.type) else np.int32
    bufs = padded.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dt)[
        padded.offset: padded.offset + m + 1].astype(np.int64)
    arr = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.empty(0, dtype=np.uint8)
    lens = offs[1:] - offs[:-1]
    if int(offs[-1]) < order:
        return scores
    fast = dim > 0 and (dim & (dim - 1)) == 0 and dim <= (1 << 32)

    def roll_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
        """(n)-gram and (n-1)-gram bucket streams in one sweep: the
        n-gram hash extends the (n-1)-gram hash by one step (same
        recurrence), so the pair costs n+1 vector passes, not 2n-1."""
        total = int(offs[-1])
        with np.errstate(over="ignore"):
            if fast:
                h = arr[: total - n + 2].astype(np.uint32)
                for j in range(1, n - 1):
                    h = h * np.uint32(1000003) + arr[j: total - n + 2 + j]
                lo = h & np.uint32(dim - 1)          # (n-1)-gram buckets
                h = (h[: total - n + 1] * np.uint32(1000003)
                     + arr[n - 1: total])
                return h & np.uint32(dim - 1), lo
            h = arr[: total - n + 2].astype(np.uint64)
            for j in range(1, n - 1):
                h = h * _P + arr[j: total - n + 2 + j]
            lo = (h % np.uint64(dim)).astype(np.int64)
            h = h[: total - n + 1] * _P + arr[n - 1: total]
            return (h % np.uint64(dim)).astype(np.int64), lo

    h3_all, h2_all = roll_pair(order)
    # int32 index temps: window counts and buffer offsets are < 2^31
    # for any sane batch (guarded), and the three occurrence-length
    # temps are real memory traffic at full worker width
    counts = np.maximum(lens - order + 1, 0).astype(np.int32)
    co = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(counts, out=co[1:])
    keep = np.flatnonzero(counts > 0)
    if not len(keep):
        return scores
    if int(offs[-1]) > np.iinfo(np.int32).max:
        raise ValueError("batch text buffer exceeds 2 GiB; split the batch")
    idx = (np.arange(int(co[-1]), dtype=np.int32)
           - np.repeat(co[:-1], counts)
           + np.repeat(offs[:-1].astype(np.int32), counts))
    # explicit float64 upcast after the gather: the tables may be held
    # in (exactly-representable) float32 for cache footprint, and a
    # float32 + python-float would otherwise stay float32
    p = ((model["tri"][h3_all[idx]].astype(np.float64) + k)
         / (model["bi"][h2_all[idx]].astype(np.float64) + k * V))
    logs = -np.log2(p)
    sums = np.add.reduceat(logs, co[:-1][keep])
    scores[keep] = sums / counts[keep]
    return scores


def score_text(model: dict, text: str) -> float:
    """Bits/char of one text under the model (add-k smoothing)."""
    if not text:
        return float("inf")
    dim, order, k, V = model["dim"], model["order"], model["k"], model["vocab"]
    b = np.frombuffer(f"  {text.lower()} ".encode("utf-8", "ignore"), dtype=np.uint8)
    h3 = _hash_grams(b, order, dim)
    h2 = _hash_grams(b, order - 1, dim)[: len(h3)]
    if len(h3) == 0:
        return float("inf")
    p = ((model["tri"][h3].astype(np.float64) + k)
         / (model["bi"][h2].astype(np.float64) + k * V))
    return float(-np.log2(p).mean())


class PerplexityScorer:
    """Task stage: adds ``ppl`` (bits/char) and optionally
    ``rule_high_perplexity``. The count tables ship once per worker via
    the ObjectRef (callers cache the scorer per worker process);
    per-batch work is numpy table lookups."""

    def __init__(self, model_ref, text_col: str = "caption_trimmed",
                 max_ppl: float | None = None):
        if "ObjectRef" in type(model_ref).__name__:
            import ray
            model = ray.get(model_ref)
        else:
            model = model_ref
        # count tables as float32: counts are small integers (< 2^24),
        # exactly representable, so gather-then-upcast is BIT-IDENTICAL
        # to float64 tables while halving the randomly-gathered cache
        # footprint (the scorer's only non-sequential memory access)
        self.model = dict(model)
        self.model["tri"] = np.asarray(model["tri"], dtype=np.float32)
        self.model["bi"] = np.asarray(model["bi"], dtype=np.float32)
        self.text_col = text_col
        self.max_ppl = max_ppl

    def __call__(self, batch: pa.Table) -> pa.Table:
        scores = score_texts_batch(self.model, batch[self.text_col])
        # inf (empty text) -> large sentinel; such rows are already
        # dropped by null_blank, keep the column finite for Arrow/SQL.
        scores = np.where(np.isfinite(scores), scores, 999.0)
        out = batch.append_column("ppl", pa.array(scores, type=pa.float64()))
        if self.max_ppl is not None:
            out = out.append_column(
                "rule_high_perplexity", pa.array(scores > self.max_ppl)
            )
        return out
