"""Deterministic hashing primitives: stable 64-bit hashes, shingles,
MinHash, SimHash, rolling fingerprints.

All hashes are process-independent (no Python ``hash()``) so that
partials computed on different Ray workers agree. Vectorized with numpy
where the input is already array-shaped.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MERSENNE61 = np.uint64((1 << 61) - 1)
FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def stable_hash64(s: str | bytes) -> int:
    """Stable 64-bit hash of a string (blake2b truncation)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "ignore")
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")


_KNUTH32 = np.uint64(2654435761)  # Knuth multiplicative constant (2^32/phi)
_U32_MOD = np.uint64(1) << np.uint64(32)


def knuth_u32(ids: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-uniform u32 from integer ids:
    ``(id * 2654435761) mod 2^32`` (Knuth multiplicative hashing,
    TAOCP vol. 3 §6.4). The ONE integer hash both engines evaluate
    bit-identically — DuckDB: ``(id * 2654435761) % 4294967296`` —
    so split/sample/shard decisions derived from it are SQL-oracle
    checkable with no float round-trip. For sequential ids the output
    is a low-discrepancy Weyl-like sequence: splits and shard loads
    come out *more* balanced than iid-random. Not adversarial-grade;
    ids must stay below 2^31 for the SQL side (BIGINT product).

    Returns uint64 values in [0, 2^32).
    """
    with np.errstate(over="ignore"):
        return (np.asarray(ids).astype(np.uint64) * _KNUTH32) % _U32_MOD


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public-domain mixer) — in place on uint64."""
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


# power table for the vectorized polynomial hash, grown on demand
# (per-process cache; Ray workers build it once per process)
_POW_CACHE: dict[int, np.ndarray] = {}


def _pow_table(n: int, prime: np.uint64 = FNV_PRIME) -> np.ndarray:
    t = _POW_CACHE.get(int(prime))
    if t is None or len(t) < n:
        size = max(n, 4096)
        t = np.full(size, prime, dtype=np.uint64)
        t[0] = np.uint64(1)
        np.cumprod(t, out=t)  # uint64 wraps mod 2^64 (C semantics)
        _POW_CACHE[int(prime)] = t
    return t


def _stable_hash64_arrow(arr: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """One polynomial-hash pass over the raw UTF-8/binary buffer —
    zero Python strings: h(doc) = splitmix64(sum_j byte_j * P^(len-1-j)
    mod 2^64, xor len*golden). Nulls hash to 0."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
            or pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type)):
        arr = pa.compute.cast(arr, pa.string())
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    large = (pa.types.is_large_string(arr.type)
             or pa.types.is_large_binary(arr.type))
    bufs = arr.buffers()
    odt = np.int64 if large else np.int32
    offs = np.frombuffer(bufs[1], dtype=odt)[
        arr.offset : arr.offset + n + 1].astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    lens = np.diff(offs)
    start, end = int(offs[0]), int(offs[-1])
    seg = data[start:end]
    total = end - start
    table = _pow_table(int(lens.max()) + 1 if n else 1)
    # exponent per byte = distance from its doc's end (Horner weights)
    e = (np.repeat(offs[1:], lens) - np.int64(1)
         - (np.arange(total, dtype=np.int64) + start))
    with np.errstate(over="ignore"):
        terms = seg.astype(np.uint64) * table[e]
        c = np.zeros(total + 1, dtype=np.uint64)
        np.cumsum(terms, out=c[1:])
        sums = c[offs[1:] - start] - c[offs[:-1] - start]
        # fold in a nonzero offset so "" doesn't mix to 0 (the null
        # sentinel): splitmix64(0) == 0
        h = splitmix64(sums ^ (lens.astype(np.uint64) * GOLDEN)
                        ^ FNV_OFFSET)
    if arr.null_count:
        h[arr.is_null().to_numpy(zero_copy_only=False)] = 0
    return h.view(np.int64)


def stable_hash64_array(texts) -> np.ndarray:
    """Vector of stable 64-bit content hashes as int64 (two's
    complement). Accepts a pyarrow (Chunked)Array — the fast path, one
    vectorized polynomial-hash pass over the raw UTF-8 buffer, zero
    Python strings — or any Python sequence (converted through Arrow).
    Nulls hash to 0.

    Round-3 algorithm change (per-row blake2b loop → vectorized
    FNV-prime polynomial + splitmix64 finalizer): values are
    internal-only (dedup group keys, exchange partition ids) and never
    surface in query outputs, so no golden depends on them."""
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        return _stable_hash64_arrow(texts)
    arr = pa.array(
        [None if t is None else str(t) for t in texts], type=pa.string())
    return _stable_hash64_arrow(arr)


def char_shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Distinct rolling FNV-1a hashes of all k-char shingles (uint64)."""
    b = text.lower().encode("utf-8", "ignore")
    if len(b) < k:
        b = b + b" " * (k - len(b))
    arr = np.frombuffer(b, dtype=np.uint8)
    n = len(arr) - k + 1
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = (h ^ arr[j : n + j].astype(np.uint64)) * FNV_PRIME
    return np.unique(h)


def char_shingle_hashes_batch(
    texts, k: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling FNV-1a k-char shingle hashes for a WHOLE batch of texts
    in one vectorized pass: returns ``(hashes, offsets)`` where doc i's
    shingles are ``hashes[offsets[i]:offsets[i+1]]`` (positional order,
    NOT deduplicated — dedupe with :func:`dedupe_per_doc` when set
    semantics are needed; MinHash minima are unaffected by duplicates).

    Texts are concatenated into one byte array; the rolling hash is
    computed over the concatenation with k vector ops total, then
    windows crossing document boundaries are discarded by a vectorized
    gather. Matches :func:`char_shingle_hashes` value-for-value
    (including the pad-to-k behavior for short/empty texts)."""
    bs = []
    for t in texts:
        b = (t or "").lower().encode("utf-8", "ignore")
        if len(b) < k:
            b = b + b" " * (k - len(b))
        bs.append(b)
    if not bs:
        return np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64)
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=len(bs))
    arr = np.frombuffer(b"".join(bs), dtype=np.uint8)
    n = len(arr) - k + 1
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = (h ^ arr[j : n + j].astype(np.uint64)) * FNV_PRIME
    # valid window starts per doc: [start_d, start_d + len_d - k]
    counts = lens - k + 1
    starts = np.zeros(len(bs), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    offsets = np.zeros(len(bs) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(offsets[:-1], counts)
           + np.repeat(starts, counts))
    return h[idx], offsets


def dedupe_per_doc(
    hashes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document distinct (sorted) hash sets from a batched
    (hashes, offsets) pair — the vectorized analogue of the
    ``np.unique`` in :func:`char_shingle_hashes`."""
    n_docs = len(offsets) - 1
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((hashes, doc_idx))
    h, d = hashes[order], doc_idx[order]
    keep = np.ones(len(h), dtype=bool)
    if len(h) > 1:
        keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    h, d = h[keep], d[keep]
    counts = np.bincount(d, minlength=n_docs)
    new_offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    return h, new_offsets


class MinHasher:
    """num_perm-wise MinHash over uint64 shingle hash sets.

    Per-permutation mixing h_i(x) = ((a_i * x + b_i) wrapped mod 2^64)
    mod p (p = 2^61 - 1), seeded deterministically; mergeable across
    batches/workers. NOTE: because the multiply wraps mod 2^64 before
    the mod-p reduction, this is a deterministic mixing hash, not a true
    universal-hash family — Jaccard estimates carry a small extra bias
    beyond the 1/sqrt(num_perm) sampling error (acceptable for LSH
    candidate generation; exact verification follows anyway).
    """

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self.a = rng.integers(1, int(MERSENNE61), num_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(MERSENNE61), num_perm, dtype=np.uint64)

    @staticmethod
    def _mod_m61(t: np.ndarray) -> np.ndarray:
        """Exact t mod (2^61-1) for uint64 t via the Mersenne shift/mask
        identity — no integer division (the naive ``% M61`` is ~10×
        slower, it was the dedup hot spot). In-place on t."""
        lo = t & MERSENNE61
        lo += t >> np.uint64(61)
        np.subtract(lo, MERSENNE61, out=lo, where=lo >= MERSENNE61)
        return lo

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(num_perm,) uint64 minhash signature of a shingle-hash set."""
        if len(shingles) == 0:
            return np.full(self.num_perm, int(MERSENNE61), dtype=np.uint64)
        x = (shingles & MERSENNE61)[:, None].astype(np.uint64)
        with np.errstate(over="ignore"):
            vals = self._mod_m61(x * self.a[None, :] + self.b[None, :])
        return vals.min(axis=0)

    def signatures_batch(
        self, hashes: np.ndarray, offsets: np.ndarray,
        chunk_shingles: int = 1024,
    ) -> np.ndarray:
        """(n_docs, num_perm) uint64 signatures for a whole batch of
        shingle sets at once (``hashes``/``offsets`` as produced by
        :func:`char_shingle_hashes_batch`).

        Processes the shingle stream in FIXED windows of
        ``chunk_shingles`` rows through two reused (chunk × num_perm)
        work buffers (~1 MB each at 1024×128): the multiply/add/mod
        intermediates never leave cache, vs the old per-8192-shingle
        8 MB matrix whose ~5 passes all hit DRAM (this host's shared
        ~28 GB/s bus is the scaling bottleneck — measured 1.17 s →
        0.60 s single-threaded on 1 M shingles). Docs spanning a window
        boundary fold via running ``np.minimum`` into ``out`` (min is
        associative — bit-identical to :meth:`signature` per document).
        """
        n_docs = len(offsets) - 1
        out = np.full((n_docs, self.num_perm), int(MERSENNE61),
                      dtype=np.uint64)
        S = len(hashes)
        if S == 0 or n_docs == 0:
            return out
        xm = (hashes & MERSENNE61).astype(np.uint64, copy=False)
        C = chunk_shingles
        buf = np.empty((C, self.num_perm), dtype=np.uint64)
        tmp = np.empty((C, self.num_perm), dtype=np.uint64)
        offs = offsets.astype(np.int64, copy=False)
        with np.errstate(over="ignore"):
            for s0 in range(0, S, C):
                s1 = min(s0 + C, S)
                m = s1 - s0
                np.multiply(xm[s0:s1, None], self.a[None, :], out=buf[:m])
                np.add(buf[:m], self.b[None, :], out=buf[:m])
                # in-place _mod_m61: tmp = t >> 61 BEFORE masking t
                np.right_shift(buf[:m], np.uint64(61), out=tmp[:m])
                buf[:m] &= MERSENNE61
                buf[:m] += tmp[:m]
                np.subtract(buf[:m], MERSENNE61, out=buf[:m],
                            where=buf[:m] >= MERSENNE61)
                # docs intersecting this window; empty-in-window docs
                # (ends == starts) are dropped, so reduceat indices are
                # strictly increasing
                d_lo = int(np.searchsorted(offs, s0, "right")) - 1
                d_hi = int(np.searchsorted(offs, s1, "left"))
                starts = np.clip(offs[d_lo:d_hi], s0, s1)
                ends = np.clip(offs[d_lo + 1:d_hi + 1], s0, s1)
                keep = ends > starts
                docs = np.arange(d_lo, d_hi)[keep]
                st = (starts[keep] - s0).astype(np.int64)
                mins = np.minimum.reduceat(buf[:m], st, axis=0)
                out[docs] = np.minimum(out[docs], mins)
        return out

    def band_keys(self, sig: np.ndarray, bands: int) -> np.ndarray:
        """Hash each of `bands` row-groups of the signature to one uint64
        LSH bucket key (band index folded in)."""
        rows = self.num_perm // bands
        keys = np.empty(bands, dtype=np.uint64)
        for bi in range(bands):
            chunk = sig[bi * rows : (bi + 1) * rows]
            h = FNV_OFFSET ^ np.uint64(bi)
            with np.errstate(over="ignore"):
                for v in chunk:
                    h = (h ^ v) * FNV_PRIME
            keys[bi] = h
        return keys

    def band_keys_batch(self, sigs: np.ndarray, bands: int) -> np.ndarray:
        """(n_docs, bands) uint64 LSH keys for a signature matrix —
        vectorized over documents (loop is bands × rows = num_perm
        vector ops). Value-identical to :meth:`band_keys` per row."""
        rows = self.num_perm // bands
        n = len(sigs)
        keys = np.empty((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for bi in range(bands):
                h = np.full(n, FNV_OFFSET ^ np.uint64(bi), dtype=np.uint64)
                for r in range(rows):
                    h = (h ^ sigs[:, bi * rows + r]) * FNV_PRIME
                keys[:, bi] = h
        return keys


def simhash64(shingles: np.ndarray) -> int:
    """64-bit SimHash of a set of shingle hashes (unit weights)."""
    if len(shingles) == 0:
        return 0
    bits = ((shingles[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = bits.astype(np.int64).sum(axis=0) * 2 - len(shingles)
    out = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    # two's-complement int64 so the value fits Arrow int64 columns
    return int(np.array([out], dtype=np.uint64).view(np.int64)[0])


def simhash64_batch(hashes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n_docs,) int64 SimHashes for a batch of DISTINCT shingle sets
    (``hashes``/``offsets`` per :func:`dedupe_per_doc` — duplicates
    change SimHash votes, so dedupe first to match :func:`simhash64`).
    Bit votes are summed per document with ``np.add.reduceat``; chunked
    so the (shingles × 64) bit matrix stays small."""
    n_docs = len(offsets) - 1
    counts = np.diff(offsets)
    votes = np.zeros((n_docs, 64), dtype=np.int64)
    d0 = 0
    chunk_shingles = 131072
    while d0 < n_docs:
        d1 = d0 + 1
        while d1 < n_docs and offsets[d1 + 1] - offsets[d0] <= chunk_shingles:
            d1 += 1
        seg = hashes[offsets[d0]:offsets[d1]]
        if len(seg):
            bits = ((seg[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)).astype(np.int64)
            starts = (offsets[d0:d1] - offsets[d0]).astype(np.int64)
            # reduceat mis-handles empty leading segments; guaranteed
            # non-empty docs here is NOT assumed — mask below fixes them
            nonempty = counts[d0:d1] > 0
            red = np.add.reduceat(bits, np.minimum(starts, len(seg) - 1), axis=0)
            votes[d0:d1][nonempty] = red[nonempty]
        d0 = d1
    sign = votes * 2 - counts[:, None]
    out = np.zeros(n_docs, dtype=np.uint64)
    for i in range(64):
        out |= (sign[:, i] > 0).astype(np.uint64) << np.uint64(i)
    out[counts == 0] = 0
    return out.view(np.int64)


def hamming64(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Element-wise Hamming distance between uint64 arrays."""
    x = np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.uint64(b) if np.isscalar(b) else np.asarray(b, dtype=np.uint64))
    # vectorized popcount via byte-table
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    cnt = np.zeros(x.shape, dtype=np.int64)
    for shift in range(0, 64, 8):
        cnt += table[(x >> np.uint64(shift)) & np.uint64(0xFF)]
    return cnt


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two distinct-hash sets."""
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


def rolling_fingerprints(text: str, k: int = 8, window: int = 16) -> np.ndarray:
    """Winnowing document fingerprints: min rolling-hash per window of
    k-char shingle hashes (robust local fingerprints; public algorithm
    from Schleimer et al., SIGMOD 2003)."""
    # char_shingle_hashes returns the *sorted distinct* set; winnowing needs
    # positional order, so hash the shingles positionally here.
    b = text.lower().encode("utf-8", "ignore")
    if len(b) < k:
        return np.array([stable_hash64(text)], dtype=np.uint64)
    arr = np.frombuffer(b, dtype=np.uint8)
    n = len(arr) - k + 1
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = (h ^ arr[j : n + j].astype(np.uint64)) * FNV_PRIME
    if n <= window:
        return np.unique(h.min(keepdims=True))
    strides = np.lib.stride_tricks.sliding_window_view(h, window)
    return np.unique(strides.min(axis=1))
