"""Image-caption alignment scoring (CLIP-archetype quality filter).

LAION-style curation keeps an (image, caption) pair only when a
vision-language model scores them as matching (CLIP cosine >= ~0.28,
Schuhmann et al. 2021) — for web-scale image corpora this filter is as
load-bearing as langid or perplexity. No pretrained vision-language
model exists in this sandbox, so the two ENCODERS are deterministic
stand-ins (clearly labeled, same policy as the fake codec,
``functions/imagefake.py``):

- image tower: 4x4 RGB grid-mean signature (48-d, exact integer cell
  sums) -> fixed seeded projection -> L2 normalize;
- text tower: hashed-unigram bag (same word-split semantics as the
  corpus ops, ``functions/wordgrams.py``) over an int8-quantized
  embedding table -> exact integer per-doc sums -> L2 normalize;
- align_score = cosine(image_emb, caption_emb).

The Ray-side plumbing is the real component and mirrors what a real
CLIP scorer needs: one fused ``map_batches`` stage (decode + both
towers + score; image bytes never re-enter the object store),
zero-copy Arrow binary-buffer access, the projection tables built once
per worker process (module-level cache — the tasks-over-actor-pools
convention, CLAUDE.md), undecodable rows quarantined with a null
score, and a threshold keep flag. Swap :func:`_towers` for real model
weights when an image library / checkpoint is available.

Kernel-traffic design (the round-2/3 bandwidth lessons, BASELINE.md):
every accumulation is EXACT INTEGER, so summation order is free and
batch-split invariance (required by the golden oracle) is automatic —
no float-order pinning needed:

- caption sums run over a SWAR-packed table: 4 biased-uint16 lanes per
  uint64 word (int8 weight + 128 per token per lane; segments are cut
  at 256 tokens so a lane can never overflow), which cuts the
  per-token gather+reduce traffic 2x/4x vs a float32 (T, 64) gather
  (measured 16 -> ~6 us/row);
- image cell sums use reshape-sums with uint16/uint32 accumulators
  when the shape divides the grid (bit-equal to the general reduceat
  fallback because integer sums are exact; measured 10 -> 4 us/row).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import imagefake as IF
from ..functions.arrays import binary_rows, row_prefixes
from ..functions.wordgrams import word_ngram_hashes_batch
from .image_stages import payload_blocks

GRID = 4
_FEAT = GRID * GRID * 3          # 48-d raw image signature
_MAXSEG = 256                    # tokens per packed segment (lane bound)
_TOWERS: dict = {}               # (d, buckets, seed) -> tower tables


def _towers(d: int, buckets: int, seed: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_img float32 (48, d), txt_q int8 (buckets, d), txt_packed
    uint64 (buckets, d//4)) — fixed tables, built once per worker
    process. Stand-in for real model weights (see module docstring).

    ``txt_packed`` holds the SAME weights as ``txt_q`` biased by +128
    into 4 uint16 lanes per uint64 word, so a packed segment sum of
    <= 256 tokens never carries across lanes."""
    assert d % 4 == 0, "text tower dim must pack into uint64 lanes"
    key = (d, buckets, seed)
    p = _TOWERS.get(key)
    if p is None:
        if len(_TOWERS) >= 4:    # bound worker memory across configs
            _TOWERS.clear()
        rng = np.random.default_rng([seed, d, buckets])
        p_img = (rng.standard_normal((_FEAT, d)) / np.sqrt(_FEAT)
                 ).astype(np.float32)
        txt_q = rng.integers(-127, 128, size=(buckets, d), dtype=np.int8)
        biased = (txt_q.astype(np.int64) + 128).astype(np.uint64)
        packed = np.zeros((buckets, d // 4), dtype=np.uint64)
        for lane in range(4):
            packed |= biased[:, lane::4] << np.uint64(16 * lane)
        _TOWERS[key] = p = (p_img, txt_q, packed)
    return p


def caption_embed_batch(texts, d: int = 64, buckets: int = 4096,
                        seed: int = 4242) -> np.ndarray:
    """(n, d) L2-normalized caption embeddings (fake text tower).

    Hashed-unigram bag: each word hashes to one row of the int8
    embedding table; the doc vector is the exact integer sum of its
    token rows (packed-lane kernel, see module docstring), so the
    result is independent of any batch split. Word split = the
    corpus-ops convention (``word_ngram_hashes_batch``: lower,
    single-space split; the empty string is one empty word, so every
    doc has >= 1 unigram)."""
    _, _, packed = _towers(d, buckets, seed)
    hashes, offs = word_ngram_hashes_batch(texts, 1)
    n = len(offs) - 1
    counts = np.diff(offs).astype(np.int64)
    if len(hashes) == 0:
        return np.zeros((n, d), dtype=np.float32)
    b = (hashes & np.uint64(buckets - 1)).astype(np.int64)
    tok_p = packed[b]                              # (T, d//4) gather
    n_seg = np.maximum(1, -(-counts // _MAXSEG))   # segments per doc
    seg0 = np.cumsum(n_seg) - n_seg                # doc -> first segment
    if n_seg.max() == 1:
        seg_starts = offs[:-1].astype(np.int64)
    else:                                          # split long docs
        s_tot = int(n_seg.sum())
        within = np.arange(s_tot) - np.repeat(seg0, n_seg)
        seg_starts = np.repeat(offs[:-1].astype(np.int64), n_seg) \
            + within * _MAXSEG
    ps = np.add.reduceat(
        tok_p, seg_starts.clip(max=len(b) - 1), axis=0)   # (S, d//4)
    un = np.empty((ps.shape[0], d), dtype=np.int32)
    for lane in range(4):
        un[:, lane::4] = ((ps >> np.uint64(16 * lane))
                          & np.uint64(0xFFFF)).astype(np.int32)
    if ps.shape[0] != n:                           # fold split docs
        un = np.add.reduceat(un, seg0, axis=0)
    # remove the +128-per-token lane bias; values < 2^24, exact float32
    sums = un.astype(np.float32) \
        - np.float32(128.0) * counts.astype(np.float32)[:, None]
    sums[counts == 0] = 0.0                        # guard (unigrams: none)
    norm = np.sqrt(np.einsum("ij,ij->i", sums, sums))
    return sums / np.maximum(norm, np.float32(1e-12))[:, None]


def _grid_cell_sums(px: np.ndarray) -> np.ndarray:
    """(k, GRID, GRID, 3) exact int64 per-cell pixel sums of a
    (k, h, w, 3) uint8 stack. Reshape-sum fast path with narrow
    accumulators when the shape divides the grid (the fixture's
    16/32/64 sizes always do), general reduceat otherwise —
    bit-identical because integer sums are order-free."""
    k, hh, ww, _ = px.shape
    if hh % GRID == 0 and ww % GRID == 0:
        ry, rx = hh // GRID, ww // GRID
        dt1 = np.uint16 if ry <= 257 else np.int64
        dt2 = np.uint32 if ry * rx <= (1 << 32) // 256 else np.int64
        rs = px.reshape(k, GRID, ry, ww, 3).sum(axis=2, dtype=dt1)
        return rs.reshape(k, GRID, GRID, rx, 3).sum(
            axis=3, dtype=dt2).astype(np.int64)
    yb = (np.arange(GRID) * hh) // GRID
    xb = (np.arange(GRID) * ww) // GRID
    rs = np.add.reduceat(px, yb, axis=1, dtype=np.int64)
    return np.add.reduceat(rs, xb, axis=2)


def _image_embed_batch(col, d: int, buckets: int, seed: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """((n, d) L2-normalized image embeddings, ok mask) — fake image
    tower over the FIMG payloads. Rows that fail the header parse get
    ok=False and a zero embedding. The payload chunks are read in place
    (:func:`binary_rows`, no ``combine_chunks`` copy); the same-shape
    grouping follows ``DecodeImageStage._pixel_features``."""
    p_img, _, _ = _towers(d, buckets, seed)
    datas, cid, start, lens, notnull = binary_rows(col)
    n = len(start)
    emb = np.zeros((n, d), dtype=np.float32)
    ok = np.zeros(n, dtype=bool)
    io = np.flatnonzero(notnull & (lens >= 9))
    if len(io) == 0:
        return emb, ok
    hdr = row_prefixes(datas, cid, start, io, 9)
    magic = np.frombuffer(IF.MAGIC, dtype=np.uint8)
    code_valid = np.zeros(256, dtype=bool)
    code_valid[list(IF.CODE_FMTS)] = True
    w = hdr[:, 5].astype(np.int64) | (hdr[:, 6].astype(np.int64) << 8)
    h = hdr[:, 7].astype(np.int64) | (hdr[:, 8].astype(np.int64) << 8)
    parsed = ((hdr[:, :4] == magic).all(axis=1)
              & code_valid[hdr[:, 4]]
              & (lens[io] == 9 + w * h * 3) & (w > 0) & (h > 0))
    good, w_of, h_of = io[parsed], w[parsed], h[parsed]
    ok[good] = True
    shape_keys = h_of * 65536 + w_of
    for key in np.unique(shape_keys):
        idxs = good[shape_keys == key]
        h, w = int(key >> 16), int(key & 0xFFFF)
        for j0, flat in payload_blocks(datas, cid, start, idxs, h * w * 3):
            px = flat.reshape(len(flat), h, w, 3)
            if h < GRID:   # tiny images: nearest-upsample to grid size
                px = np.repeat(px, -(-GRID // h), axis=1)
            if w < GRID:
                px = np.repeat(px, -(-GRID // w), axis=2)
            hh, ww = px.shape[1], px.shape[2]
            cs = _grid_cell_sums(px)                    # exact int64
            ycnt = np.diff(np.append((np.arange(GRID) * hh) // GRID, hh))
            xcnt = np.diff(np.append((np.arange(GRID) * ww) // GRID, ww))
            area = (ycnt[:, None] * xcnt[None, :]).astype(np.float64)
            mean = cs / area[None, :, :, None]          # float64, exact in
            feat = ((mean - 127.5) / 127.5).astype(np.float32).reshape(
                len(flat), _FEAT)
            e = np.einsum("ik,kj->ij", feat, p_img)     # no-BLAS projection
            norm = np.sqrt(np.einsum("ij,ij->i", e, e))
            emb[idxs[j0: j0 + len(flat)]] = \
                e / np.maximum(norm, np.float32(1e-12))[:, None]
    return emb, ok


class CaptionAlignStage:
    """Fused decode + dual-tower + cosine stage for ``map_batches``
    (``batch_format="pyarrow"``). Adds ``align_score`` (float64, null
    when the image is undecodable) and ``keep_align`` (bool, false for
    undecodable rows). Stateless across batches; the projection tables
    live in the per-worker module cache."""

    def __init__(self, threshold: float = 0.0, d: int = 64,
                 buckets: int = 4096, seed: int = 4242,
                 bytes_col: str = "bytes", caption_col: str = "caption"):
        self.threshold = threshold
        self.d, self.buckets, self.seed = d, buckets, seed
        self.bytes_col, self.caption_col = bytes_col, caption_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        img, ok = _image_embed_batch(batch[self.bytes_col],
                                     self.d, self.buckets, self.seed)
        cap = caption_embed_batch(batch[self.caption_col],
                                  self.d, self.buckets, self.seed)
        score = np.einsum("ij,ij->i", img, cap).astype(np.float64)
        out = batch.append_column(
            "align_score", pa.array(score, type=pa.float64(), mask=~ok))
        return out.append_column(
            "keep_align", pa.array(ok & (score >= self.threshold)))
