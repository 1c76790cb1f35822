"""Deterministic video + audio fixture tables (multimodal coverage).

Same determinism contract as the image fixture: every row derives from
``default_rng([seed, row_id])``, so any subset regenerates identically
on any worker — no wall clock, no Python hash(). A small fraction of
rows is deliberately corrupted to exercise the quarantine paths.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import imagefake as IF

SEED = 42
_FMTS = ["png", "jpeg", "bmp", "webp"]


def gen_video_rows(ids: np.ndarray, seed: int = SEED) -> pa.Table:
    vids, blobs, nfr, fpss, caps = [], [], [], [], []
    for i in ids:
        rng = np.random.default_rng([seed, int(i)])
        n_frames = 4 + int(i) % 9
        w, h = 8 + int(i) % 5, 6 + int(i) % 4
        fmt = _FMTS[int(i) % len(_FMTS)]
        fps = 12 + (int(i) % 3) * 6
        frames = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
                  for _ in range(n_frames)]
        blob = IF.encode_video(frames, fmt, fps)
        if int(i) % 41 == 7:          # ~2.4 % corrupt containers
            blob = blob[: len(blob) // 2]
        vids.append(f"vid{int(i):07d}")
        blobs.append(blob)
        nfr.append(n_frames)
        fpss.append(fps)
        caps.append(f"clip {int(i)} of {n_frames} frames")
    return pa.table({
        "video_id": pa.array(vids),
        "bytes": pa.array(blobs, type=pa.binary()),
        "n_frames_meta": pa.array(nfr, type=pa.int32()),
        "fps_meta": pa.array(fpss, type=pa.int32()),
        "caption": pa.array(caps),
    })


def gen_audio_rows(ids: np.ndarray, seed: int = SEED,
                   sample_rate: int = 16000) -> pa.Table:
    aids, blobs = [], []
    for i in ids:
        rng = np.random.default_rng([seed, int(i)])
        dur = 0.05 + (int(i) % 10) * 0.02           # 50–230 ms
        n = int(dur * sample_rate)
        t = np.arange(n) / sample_rate
        freq = 100.0 + (int(i) % 50) * 17.0
        amp = 2000.0 + (int(i) % 7) * 1500.0
        x = amp * np.sin(2 * np.pi * freq * t) \
            + rng.normal(0, 200.0, n)
        blob = np.clip(x, -32768, 32767).astype("<i2").tobytes()
        if int(i) % 53 == 11:                        # some empty payloads
            blob = b""
        aids.append(f"aud{int(i):07d}")
        blobs.append(blob)
    return pa.table({
        "audio_id": pa.array(aids),
        "audio_bytes": pa.array(blobs, type=pa.binary()),
    })


def _write_once(path: str, marker_tbl_fn) -> str:
    marker = path + ".done"
    if os.path.exists(marker):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(marker_tbl_fn(), path)
    with open(marker, "w") as f:
        f.write("ok")
    return path


def generate_videos_parquet(n_rows: int, out_dir: str = "/tmp/dqray_fixtures",
                            seed: int = SEED) -> str:
    return _write_once(
        os.path.join(out_dir, f"videos_n{n_rows}_s{seed}.parquet"),
        lambda: gen_video_rows(np.arange(n_rows), seed))


def generate_audio_parquet(n_rows: int, out_dir: str = "/tmp/dqray_fixtures",
                           seed: int = SEED) -> str:
    return _write_once(
        os.path.join(out_dir, f"audio_n{n_rows}_s{seed}.parquet"),
        lambda: gen_audio_rows(np.arange(n_rows), seed))
