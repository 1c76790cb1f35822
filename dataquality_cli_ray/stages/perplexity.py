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
gibberish high. Scoring reads the batch's ``CaptionGrams``
(``functions/text.py``), whose rolling hash the flagship's fused stage
shares with the langid scorer. Built deterministically from a seed corpus in
whole-corpus passes (:func:`train_char_lm`). :class:`PerplexityScorer`
takes that model object; a Ray plan ships it pre-built via ``ray.put``
and builds the scorer once per worker process from the fetched model.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.text import CaptionGrams, lower, narrow_dim

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
    ``"  t "`` (utf-8, lowered by ``text.lower`` as the scorers are),
    the concatenation is hashed once per gram order, windows that cross
    a text boundary are dropped, and ``np.unique`` counts the rest. The
    counts are then scattered into ``np.zeros(dim)``, which touches only
    the pages of buckets that occur: a dense ``bincount(minlength=dim)``
    would make both 2 MiB tables resident in every process that builds
    the model. The tables equal the per-text ``np.add.at`` counts."""
    enc = [f"  {t} ".encode("utf-8", "ignore")
           for t in lower([t for t in texts if t]).to_pylist()]
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


def score_texts_batch(model: dict, texts, grams: CaptionGrams | None = None
                      ) -> np.ndarray:
    """Bits/char for a whole batch in one pass over the batch's
    :class:`CaptionGrams` (``grams`` when the caller shares one, else
    built from ``texts``): the tri/bi-gram hashes are its rolling hashes
    of every ``"  t "`` buffer position, each position's -log2 P is
    computed once, and per-text means come from one ``add.reduceat``
    over each row's windows (the windows that cross into the next row
    are the gaps between them) — the per-text :func:`score_text` loop
    spent ~50 µs/row in numpy call overhead. ``""`` and None score inf.

    ``texts`` may be a ``pa.Array``/``pa.ChunkedArray`` (no Python
    strings materialized) or any sequence. When ``dim`` is a power of
    two ≤ 2^32 the rolling hash runs in uint32 — bucket-identical to
    the uint64 form because ``% dim`` depends only on the low bits
    (pinned by ``test_ppl_arrow_matches_list_path``). Per-position
    probabilities are identical to ``score_text``; the per-text mean
    differs only in float summation order (≤ ~1 ulp)."""
    g = CaptionGrams(texts) if grams is None else grams
    return np.concatenate([_block_scores(model, b) for _, b in g.blocks()])


def _block_scores(model: dict, g: CaptionGrams) -> np.ndarray:
    """Bits/char of each row of ``g`` (see :func:`score_texts_batch`)."""
    scores = np.full(g.m, np.inf, dtype=np.float64)
    dim, order, k, V = model["dim"], model["order"], model["k"], model["vocab"]
    # a padded empty text is 3 bytes and a null none: neither is scored
    counts = np.where(g.lens > 3, np.maximum(g.lens - order + 1, 0), 0)
    keep = np.flatnonzero(counts)
    if not len(keep):
        return scores
    narrow = narrow_dim(dim)
    h3 = g.hashes(order, wide=not narrow)
    h2 = g.hashes(order - 1, wide=not narrow)[: len(h3)]
    if narrow:
        b3, b2 = h3 & np.uint32(dim - 1), h2 & np.uint32(dim - 1)
    else:
        # np.take refuses uint64 indices (no safe cast to intp); every
        # bucket is < dim, so the int64 view holds the same values
        b3 = (h3 % np.uint64(dim)).view(np.int64)
        b2 = (h2 % np.uint64(dim)).view(np.int64)
    # np.take, not fancy indexing: the same values, 1.6-1.8 → 1.3 µs/row
    # on the flagship's 262,144-entry tables (kernel_probe). Explicit
    # float64 upcast after the gather: the tables may be held in
    # (exactly-representable) float32 for cache footprint, and a
    # float32 + python-float would otherwise stay float32
    p = ((np.take(model["tri"], b3).astype(np.float64) + k)
         / (np.take(model["bi"], b2).astype(np.float64) + k * V))
    # one trailing slot so a window run ending at the buffer's last
    # position still has an end index
    logs = np.empty(len(p) + 1, dtype=np.float64)
    np.log2(p, out=logs[:-1])
    logs[-1] = 0.0
    # [start, end) of each scored row's windows; the odd segments of
    # the reduceat are the gaps between rows and are dropped
    bounds = np.empty(2 * len(keep), dtype=np.intp)
    bounds[0::2] = g.offs[:-1][keep]
    bounds[1::2] = bounds[0::2] + counts[keep]
    sums = np.add.reduceat(logs, bounds)[0::2]
    # -(a + b) == (-a) + (-b) exactly, so negating the sums equals
    # summing the negated logs
    scores[keep] = -sums / counts[keep]
    return scores


def score_text(model: dict, text: str) -> float:
    """Bits/char of one text under the model (add-k smoothing): the
    per-text oracle of :func:`score_texts_batch`, lowered alike."""
    if not text:
        return float("inf")
    dim, order, k, V = model["dim"], model["order"], model["k"], model["vocab"]
    t = lower([text])[0].as_py()
    b = np.frombuffer(f"  {t} ".encode("utf-8", "ignore"), dtype=np.uint8)
    h3 = _hash_grams(b, order, dim)
    h2 = _hash_grams(b, order - 1, dim)[: len(h3)]
    if len(h3) == 0:
        return float("inf")
    p = ((model["tri"][h3].astype(np.float64) + k)
         / (model["bi"][h2].astype(np.float64) + k * V))
    return float(-np.log2(p).mean())


class PerplexityScorer:
    """Task stage: adds ``ppl`` (bits/char) and optionally
    ``rule_high_perplexity``. Takes the model object (the
    :func:`train_char_lm` dict): a Ray plan ships it once per worker and
    caches the scorer per worker process (``exchange.worker_cached``);
    per-batch work is numpy table lookups. A caller that already holds
    the batch's :class:`CaptionGrams` of ``text_col`` passes it as
    ``grams`` (the flagship's fused stage shares one with langid)."""

    def __init__(self, model: dict, text_col: str = "caption_trimmed",
                 max_ppl: float | None = None):
        # count tables as float32: counts are small integers (< 2^24),
        # exactly representable, so gather-then-upcast is BIT-IDENTICAL
        # to float64 tables while halving the randomly-gathered cache
        # footprint (the scorer's only non-sequential memory access)
        self.model = dict(model)
        self.model["tri"] = np.asarray(model["tri"], dtype=np.float32)
        self.model["bi"] = np.asarray(model["bi"], dtype=np.float32)
        self.text_col = text_col
        self.max_ppl = max_ppl

    def __call__(self, batch: pa.Table,
                 grams: CaptionGrams | None = None) -> pa.Table:
        scores = score_texts_batch(self.model, batch[self.text_col], grams)
        # inf (empty text) -> large sentinel; such rows are already
        # dropped by null_blank, keep the column finite for Arrow/SQL.
        scores = np.where(np.isfinite(scores), scores, 999.0)
        out = batch.append_column("ppl", pa.array(scores, type=pa.float64()))
        if self.max_ppl is not None:
            out = out.append_column(
                "rule_high_perplexity", pa.array(scores > self.max_ppl)
            )
        return out
