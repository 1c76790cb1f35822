"""Multimodal (image / audio / video) stages — ``map_batches`` task
stages over opaque ``binary`` columns with typed metadata.

The sandbox has no image/audio libraries, so the CODEC is the
deterministic fake in ``functions/imagefake.py`` (clearly marked); the
Ray-side plumbing — schema, batch sizing for wide binary rows, stage
signature, error quarantine, output layout — is real and tested.

Error quarantine mirrors the reference's per-file ``Error`` capture
(``internal/engine/simple_engine.go:49``, collected not fatal at
``cmd/describe.go:336-338``): a corrupt payload sets
``rule_decode_error`` + ``decode_err`` instead of failing the job.

Batch-size note: rows carry the encoded payload, so a batch's payload
bytes × worker concurrency must fit the worker heaps. The flagship
passes whole read work units (a few thousand rows, ~10 MB of payload
at the fixture's image sizes); the decode walks the payload column's
chunks in place and its pixel kernel works through a bounded scratch
slab, so the stage itself adds no payload-sized buffer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import imagecodec as IC
from ..functions import imagefake as IF
from ..functions.arrays import binary_rows, row_prefixes

# per-worker scratch for DecodeImageStage's same-shape payload blocks,
# keyed by row width (bytes) — avoids a fresh multi-MB allocation (page
# faults + zeroing) per batch per shape group. SCRATCH_TARGET_BYTES
# bounds the rows processed per inner iteration so the slab stays
# cache-resident (see the kernel comment in DecodeImageStage).
SCRATCH_TARGET_BYTES = 1 << 20
_SCRATCH: dict = {}


def payload_blocks(datas, cid, start, idxs, hw3: int):
    """``(j0, flat)`` over the FIMG payloads of rows ``idxs`` (one shape
    group of ``hw3`` pixel bytes; ``cid``/``start`` from ``binary_rows``)
    in blocks of about SCRATCH_TARGET_BYTES: ``flat`` is a (rows, hw3)
    view of the per-worker scratch slab holding rows ``idxs[j0:
    j0 + len(flat)]`` until the next block. One slice copy per row (a
    fancy-index gather: 10.6 vs 0.9 us/row); a whole-group buffer (MBs)
    spills to DRAM, adding 3 shared-bus passes over the payload (the
    bus set the 8-vs-32 CPU scaling ratio, BASELINE.md round-4)."""
    k = len(idxs)
    sub = max(1, SCRATCH_TARGET_BYTES // hw3)
    buf = _SCRATCH.get(hw3)
    if buf is None or buf.shape[0] < min(k, sub):
        if len(_SCRATCH) >= 16:   # bound worker memory across
            _SCRATCH.clear()      # many distinct image shapes
        buf = _SCRATCH[hw3] = np.empty((min(k, sub), hw3), dtype=np.uint8)
    cids, starts9 = cid[idxs].tolist(), (start[idxs] + 9).tolist()
    for j0 in range(0, k, sub):
        flat = buf[: min(sub, k - j0)]
        for j, (c, s) in enumerate(zip(cids[j0: j0 + sub],
                                       starts9[j0: j0 + sub])):
            flat[j] = datas[c][s: s + hw3]
        yield j0, flat


class DecodeImageStage:
    """Decode + validate payloads in two parts.

    - **The payload parse** (always): validates magic, format code,
      payload size and the ``w``/``h`` meta, gives rows the FIMG parse
      rejected one try through Pillow when it is importable, and adds
      rule_decode_error (bool), decode_err (string), dec_w/dec_h
      (int32).
    - **The pixel-feature pass** (``features=True``, the default): adds
      brightness, contrast (float64) and ahash (int64 average-hash of
      the decoded pixels) for the rows that parsed; 0 elsewhere.

    The feature pass reads every pixel and is ~95 % of the stage (one
    4,096-row fixture batch in one process: 0.4 µs/row for the parse,
    ~10 µs/row for both parts). A caller that reads none of the three
    feature columns passes ``features=False`` (the flagship's fused
    stage, unless its ``min_contrast`` gate is on).

    The header parse is vectorized over each Arrow chunk's binary
    buffers in place (no ``combine_chunks`` copy, no per-row bytes
    objects); the per-pixel work is batched by grouping same-shape
    images into one stack per shape, so the numpy reductions amortize
    their per-call overhead across the group (a real JPEG decode would
    stay a per-row C call, but the feature kernels batch the same way).
    Values are identical to the per-image formulation
    (``IF.decode_image`` + integer sums + ``IF.average_hash64``).
    """

    def __init__(self, bytes_col: str = "bytes", validate_meta: bool = True,
                 features: bool = True):
        self.bytes_col = bytes_col
        self.validate_meta = validate_meta
        self.features = features

    def __call__(self, batch: pa.Table) -> pa.Table:
        err, dec_w, dec_h, todo = self._parse(batch)
        out = batch.append_column("rule_decode_error",
                                  pa.array(np.not_equal(err, None)))
        out = out.append_column("decode_err", pa.array(err, type=pa.string()))
        out = out.append_column("dec_w", pa.array(dec_w))
        out = out.append_column("dec_h", pa.array(dec_h))
        if self.features:
            bright, contrast, ahash = self._pixel_features(len(batch), *todo)
            out = out.append_column("brightness", pa.array(bright))
            out = out.append_column("contrast", pa.array(contrast))
            out = out.append_column("ahash", pa.array(ahash))
        return out

    def _parse(self, batch: pa.Table):
        """(err, dec_w, dec_h, todo): per-row error strings (None =
        decodable), decoded dims, and what the pixel-feature pass needs
        — each chunk's data buffer, each row's chunk index and payload
        start, the decodable FIMG rows with their dims, and the
        (row, pixels) pairs Pillow decoded."""
        datas, cid, start, lens, notnull = binary_rows(batch[self.bytes_col])
        n = len(start)
        err = np.full(n, None, dtype=object)
        dec_w = np.zeros(n, dtype=np.int32)
        dec_h = np.zeros(n, dtype=np.int32)
        okhdr = notnull & (lens >= 9)
        err[np.flatnonzero(~okhdr)] = "bad magic"
        io = np.flatnonzero(okhdr)
        good = np.empty(0, dtype=np.int64)
        w_of = h_of = np.empty(0, dtype=np.int64)
        if len(io):
            hdr = row_prefixes(datas, cid, start, io, 9)
            magic = np.frombuffer(IF.MAGIC, dtype=np.uint8)
            m_ok = (hdr[:, :4] == magic).all(axis=1)
            err[io[~m_ok]] = "bad magic"
            code = hdr[:, 4].astype(np.int64)
            w = hdr[:, 5].astype(np.int64) | (hdr[:, 6].astype(np.int64) << 8)
            h = hdr[:, 7].astype(np.int64) | (hdr[:, 8].astype(np.int64) << 8)
            code_valid = np.zeros(256, dtype=bool)
            code_valid[list(IF.CODE_FMTS)] = True
            c_ok = code_valid[code]
            for j in np.flatnonzero(m_ok & ~c_ok):
                err[io[j]] = f"unknown fmt code {code[j]}"
            expected = 9 + w * h * 3
            s_ok = lens[io] == expected
            for j in np.flatnonzero(m_ok & c_ok & ~s_ok):
                err[io[j]] = f"payload size {lens[io[j]]} != {expected[j]}"
            parsed = m_ok & c_ok & s_ok
            dec_w[io[parsed]] = w[parsed]
            dec_h[io[parsed]] = h[parsed]
            meta_ok = np.ones(len(io), dtype=bool)
            if self.validate_meta and "w" in batch.column_names:
                wc, hc = batch["w"], batch["h"]
                # or-of-validity: a row with ANY non-null meta field is
                # checkable; its null field (filled with -1 below) can
                # never equal a decoded dimension, so it flags a
                # mismatch rather than silently passing
                have = np.asarray(
                    pa.compute.or_(wc.is_valid(), hc.is_valid()),
                    dtype=bool)
                wm = np.asarray(wc.cast(pa.int64()).fill_null(-1))
                hm = np.asarray(hc.cast(pa.int64()).fill_null(-1))
                mism = have[io] & ((w != wm[io]) | (h != hm[io]))
                for j in np.flatnonzero(parsed & mism):
                    err[io[j]] = (f"meta {wm[io[j]]}x{hm[io[j]]} "
                                  f"!= decoded {w[j]}x{h[j]}")
                meta_ok = ~mism
            gsel = parsed & meta_ok
            good = io[gsel]
            w_of, h_of = w[gsel], h[gsel]
        # real-codec fallback (import-gated like the Lance reader): rows
        # the FIMG header parse rejected get one try through Pillow when
        # it's importable — absent in this sandbox, so the branch is a
        # no-op here
        pil = []
        if IC.HAVE_PIL:
            for i in np.flatnonzero(notnull & np.not_equal(err, None)):
                blob = datas[cid[i]][start[i]: start[i] + lens[i]].tobytes()
                try:
                    arr, _fmt = IC.decode_rgb(blob)
                except Exception:
                    continue
                hh, ww = arr.shape[:2]
                if self.validate_meta and "w" in batch.column_names:
                    wv, hv = batch["w"][i].as_py(), batch["h"][i].as_py()
                    if (wv is not None or hv is not None) and (
                            wv != ww or hv != hh):
                        err[i] = (f"meta {-1 if wv is None else wv}x"
                                  f"{-1 if hv is None else hv}"
                                  f" != decoded {ww}x{hh}")
                        continue
                dec_w[i], dec_h[i] = ww, hh
                err[i] = None
                pil.append((i, arr))
        return err, dec_w, dec_h, (datas, cid, start, good, w_of, h_of, pil)

    @staticmethod
    def _pixel_features(n, datas, cid, start, good, w_of, h_of, pil):
        """(brightness, contrast, ahash) for the rows the parse found
        decodable; 0 for every other row."""
        bright = np.zeros(n, dtype=np.float64)
        contrast = np.zeros(n, dtype=np.float64)
        ahash = np.zeros(n, dtype=np.int64)
        # group same-shape images; per-group pixel kernels amortize the
        # numpy call overhead (values identical to per-image form)
        shape_keys = h_of * 65536 + w_of
        for key in np.unique(shape_keys):
            sel = shape_keys == key
            idxs = good[sel]
            h, w = int(key >> 16), int(key & 0xFFFF)
            hw3 = h * w * 3
            # one scratch block at a time (payload_blocks); the sum and
            # einsum reductions use numpy's buffered iteration (no int64
            # temp), and per-block results are exact integer sums
            npix = hw3
            ys = (np.arange(8) * h // 8).clip(0, h - 1)
            xs = (np.arange(8) * w // 8).clip(0, w - 1)
            # the same 8x8 pixel grid sample as the per-image form
            samp = ((ys[:, None] * w + xs[None, :]) * 3).reshape(-1)
            samp = (samp[:, None] + np.arange(3)).reshape(-1)
            for j0, flat in payload_blocks(datas, cid, start, idxs, hw3):
                ids = idxs[j0: j0 + len(flat)]
                # exact integer sums on the uint8 pixels (no float32
                # expansion); mean/std from the exact sums in float64:
                # population std = sqrt(E[x^2] - E[x]^2)
                s1 = flat.sum(axis=1, dtype=np.int64).astype(np.float64)
                s2 = np.einsum("ij,ij->i", flat, flat,
                               dtype=np.int64).astype(np.float64)
                mu = s1 / npix
                bright[ids] = mu
                contrast[ids] = np.sqrt(np.maximum(s2 / npix - mu * mu,
                                                   0.0))
                small = np.ascontiguousarray(
                    flat[:, samp].reshape(-1, 64, 3).astype(
                        np.float32).mean(axis=2).reshape(-1, 64))
                # threshold mean per row: on a CONTIGUOUS (k, 64)
                # float32 array the axis reduction uses the same
                # pairwise summation order as the per-image 1-D
                # .mean(), so this is bit-identical to the per-row
                # loop it replaced (~10 us/row of numpy call
                # overhead); pinned by
                # test_axis_mean_bit_identical_to_per_row
                thr = small.mean(axis=1, dtype=np.float32)[:, None]
                bits = small > thr
                # integer multiply+sum, NOT matmul: 2-D matmul on
                # uint64 silently goes through float64, losing low bits
                ahash[ids] = (bits.astype(np.uint64)
                              * IF._AHASH_POW2[None, :]
                              ).sum(axis=1).view(np.int64)
        # Pillow-decoded rows: the same feature math, one image at a time
        for i, arr in pil:
            flat_i = arr.reshape(-1).astype(np.int64)
            npix_i = flat_i.size
            mu_i = flat_i.sum() / npix_i
            var_i = (flat_i * flat_i).sum() / npix_i - mu_i * mu_i
            bright[i] = mu_i
            contrast[i] = np.sqrt(max(var_i, 0.0))
            ahash[i] = IF.average_hash64(arr)
        return bright, contrast, ahash


class ResizeImageStage:
    """Re-encode every decodable image at (out_w, out_h) via
    nearest-neighbour resize; adds ``bytes_resized`` (null when the
    source is corrupt)."""

    def __init__(self, out_w: int, out_h: int, bytes_col: str = "bytes",
                 fmt_col: str = "fmt"):
        self.out_w, self.out_h = out_w, out_h
        self.bytes_col, self.fmt_col = bytes_col, fmt_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch[self.bytes_col].to_pylist()
        out = []
        for blob in data:
            try:
                # codec dispatch: FIMG always; real formats when Pillow
                # is importable (imagecodec.HAVE_PIL)
                arr, fmt = IC.decode_rgb(blob)
                out.append(IC.encode_rgb(
                    IF.resize_nearest(arr, self.out_w, self.out_h), fmt))
            except Exception:
                out.append(None)
        return batch.append_column("bytes_resized", pa.array(out, type=pa.binary()))


class FrameSampleStage:
    """Video frame sampling over the deterministic fake container
    (``functions/imagefake.encode_video`` — swap ``IF.decode_video``
    for a real codec call when one is available; the explode shape,
    schema, quarantine and batch sizing stay the same).

    EXPLODES rows: one output row per sampled frame (frames 0, every_n,
    2*every_n, ...) with the frame re-encoded standalone plus its
    ahash; a corrupt container yields ONE quarantine row
    (frame_idx = -1, null bytes, decode_err set) so lineage keeps the
    video."""

    def __init__(self, every_n: int = 30, bytes_col: str = "bytes",
                 id_col: str = "video_id"):
        self.every_n = every_n
        self.bytes_col, self.id_col = bytes_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch[self.bytes_col].to_pylist()
        ids = batch[self.id_col].to_pylist()
        out_id, out_idx, out_bytes, out_ahash = [], [], [], []
        out_n, out_fps, out_err = [], [], []
        for vid, blob in zip(ids, data):
            try:
                frames, fmt, fps = IF.decode_video(blob)
            except (IF.CorruptVideoError, IF.CorruptImageError) as e:
                out_id.append(vid); out_idx.append(-1)
                out_bytes.append(None); out_ahash.append(0)
                out_n.append(0); out_fps.append(0); out_err.append(str(e))
                continue
            for fi in range(0, len(frames), self.every_n):
                out_id.append(vid); out_idx.append(fi)
                out_bytes.append(IF.encode_image(frames[fi], fmt))
                out_ahash.append(IF.average_hash64(frames[fi]))
                out_n.append(len(frames)); out_fps.append(fps)
                out_err.append(None)
        return pa.table({
            self.id_col: pa.array(out_id),
            "frame_idx": pa.array(out_idx, type=pa.int32()),
            "frame_bytes": pa.array(out_bytes, type=pa.binary()),
            "frame_ahash": pa.array(out_ahash, type=pa.int64()),
            "n_frames": pa.array(out_n, type=pa.int32()),
            "fps": pa.array(out_fps, type=pa.int32()),
            "decode_err": pa.array(out_err, type=pa.string()),
        })


class AudioFeatureStage:
    """Audio feature extraction — STUB with a deterministic fake: treats
    the payload as PCM s16le and emits rms/duration columns so the
    plumbing is testable without an audio library."""

    def __init__(self, bytes_col: str = "audio_bytes", sample_rate: int = 16000):
        self.bytes_col = bytes_col
        self.sample_rate = sample_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch[self.bytes_col].to_pylist()
        rms = np.zeros(len(data), dtype=np.float64)
        dur = np.zeros(len(data), dtype=np.float64)
        for i, blob in enumerate(data):
            if blob:
                x = np.frombuffer(blob[: len(blob) // 2 * 2], dtype=np.int16).astype(np.float64)
                if len(x):
                    rms[i] = float(np.sqrt(np.mean(x * x)))
                    dur[i] = len(x) / self.sample_rate
        out = batch.append_column("audio_rms", pa.array(rms))
        return out.append_column("audio_sec", pa.array(dur))
