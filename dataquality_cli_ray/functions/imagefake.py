"""Deterministic stand-in image codec.

The sandbox ships no image libraries (no PIL / cv2), so real JPEG/PNG
decode is STUBBED per the build contract: the *codec* is a fake, but the
Ray-side plumbing (binary column schema, the decode task stage, batch
sizing, error quarantine, PSNR invariant) is real and tested.

Format (little-endian):
    b"FIMG" | fmt_code:u8 | w:u16 | h:u16 | payload
payload = raw uint8 RGB (h*w*3 bytes); for "lossy" formats (jpeg, webp)
the stored samples are quantized to steps of 4 (``(v >> 2) << 2 | 2``),
which bounds per-pixel error to ±2 → PSNR ≈ 46 dB, comfortably over the
40 dB north-rule bar, while remaining fully deterministic.

``decode_image`` raises ``CorruptImageError`` on malformed bytes so the
pipeline's error-quarantine path (reference analogue: per-file ``Error``
field, ``internal/engine/simple_engine.go:49``) has something real to
catch.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"FIMG"
FMT_CODES = {"jpeg": 1, "png": 2, "webp": 3, "bmp": 4}
CODE_FMTS = {v: k for k, v in FMT_CODES.items()}
LOSSY_FMTS = {"jpeg", "webp"}


class CorruptImageError(ValueError):
    pass


def encode_image(arr: np.ndarray, fmt: str) -> bytes:
    """Encode an (h, w, 3) uint8 array. Lossy formats quantize to step 4."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8")
    h, w = arr.shape[:2]
    payload = arr
    if fmt in LOSSY_FMTS:
        payload = ((arr >> 2) << 2) | 2
    header = MAGIC + struct.pack("<BHH", FMT_CODES[fmt], w, h)
    return header + payload.tobytes()


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode to ((h, w, 3) uint8, fmt). Raises CorruptImageError."""
    if data is None or len(data) < 9 or data[:4] != MAGIC:
        raise CorruptImageError("bad magic")
    code, w, h = struct.unpack("<BHH", data[4:9])
    if code not in CODE_FMTS:
        raise CorruptImageError(f"unknown fmt code {code}")
    expected = 9 + w * h * 3
    if len(data) != expected:
        raise CorruptImageError(f"payload size {len(data)} != {expected}")
    arr = np.frombuffer(data[9:], dtype=np.uint8).reshape(h, w, 3)
    return arr, CODE_FMTS[code]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


def resize_nearest(arr: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbour resize (the deterministic stand-in for a real
    resampling kernel)."""
    h, w = arr.shape[:2]
    ys = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    xs = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return arr[ys[:, None], xs[None, :]]


_AHASH_POW2 = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def average_hash64(arr: np.ndarray) -> int:
    """aHash: 8x8 grayscale downsample, bit = pixel > mean. Public
    perceptual-hash baseline; stands in for the reference corpus' phash.

    Nearest-neighbour resize selects pixels, so graying AFTER the
    resize touches 64 pixels instead of the whole image, and the bit
    pack is one vector dot — both value-identical to (and ~20× faster
    than) the gray-everything + per-bit-loop formulation."""
    small3 = resize_nearest(arr, 8, 8)
    small = small3.astype(np.float32).mean(axis=2)
    bits = (small > small.mean()).flatten()
    # integer multiply+sum (matmul on uint64 can detour through float64)
    out = np.uint64((bits.astype(np.uint64) * _AHASH_POW2).sum())
    return int(np.int64(out))


# ---------------------------------------------------------------- video
# Deterministic stand-in video CONTAINER (same contract as the image
# codec: the codec is a fake, the Ray-side plumbing is real). Format:
#   b"FVID" | fmt_code:u8 | n_frames:u16 | fps:u8 | concatenated
#   encode_image() blobs (self-delimiting: each carries its own w/h)

MAGIC_VIDEO = b"FVID"


class CorruptVideoError(ValueError):
    pass


def encode_video(frames: list, fmt: str, fps: int = 24) -> bytes:
    """Encode a list of (h, w, 3) uint8 frames as one container blob."""
    if not frames:
        raise ValueError("need at least one frame")
    head = MAGIC_VIDEO + struct.pack("<BHB", FMT_CODES[fmt], len(frames),
                                     fps)
    return head + b"".join(encode_image(f, fmt) for f in frames)


def decode_video(data: bytes) -> tuple[list, str, int]:
    """Decode a container blob → (frames, fmt, fps); raises
    CorruptVideoError on malformed bytes."""
    if data is None or len(data) < 8 or data[:4] != MAGIC_VIDEO:
        raise CorruptVideoError("bad video magic/length")
    fmt_code, n_frames, fps = struct.unpack("<BHB", data[4:8])
    if fmt_code not in CODE_FMTS:
        raise CorruptVideoError(f"unknown fmt code {fmt_code}")
    frames = []
    off = 8
    for _ in range(n_frames):
        if off + 9 > len(data):
            raise CorruptVideoError("truncated frame header")
        _, w, h = struct.unpack("<BHH", data[off + 4: off + 9])
        end = off + 9 + w * h * 3
        if end > len(data):
            raise CorruptVideoError("truncated frame payload")
        arr, _ = decode_image(data[off:end])
        frames.append(arr)
        off = end
    if off != len(data):
        raise CorruptVideoError("trailing bytes after last frame")
    return frames, CODE_FMTS[fmt_code], fps
