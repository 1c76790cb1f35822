"""Deterministic synthetic image+caption table (BASELINE.json
``input_hint`` schema) — the flagship pipeline's test/bench input.

Schema: image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
caption:string, phash:int64  (FIXTURES.md §3).

Every row is generated from ``np.random.default_rng([seed, row_id])``
— fully deterministic, independent of sharding/order, no wall clock.
Planted populations (probabilities are per-row, disjoint ranges of a
single uniform draw so the mix is exact in expectation):

- captions in 3 pseudo-languages with disjoint vocabularies (langid),
- gibberish (high perplexity / unknown lang),
- blank / whitespace-only (null_blank), too-short / too-long
  (length_bounds), digit- or punctuation-heavy (char_class),
- PII insertions (email/phone/ssn/ip/url) and toxicity words (scrub),
- fmt = bmp slice (fmt_whitelist) and corrupt byte payloads
  (decode_error quarantine),
- phash duplicate clusters of 2-50 plus ONE hot phash bucket (~1 % of
  all rows) to exercise the combiner/salted dedup path.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import imagefake as IF

SEED = 42

VOCAB = {
    "latinish": (
        "lorem ipsum dolor sit amet consectetur adipiscing elit sed eiusmod "
        "tempor incididunt labore dolore magna aliqua enim minim veniam quis "
        "nostrud exercitation ullamco laboris nisi aliquip commodo consequat"
    ).split(),
    "nordish": (
        "fjord skog berg vatn himmel vind sten bjork elv sno hav strand "
        "gammel liten stor varm kald lys mork regn sol vinter sommer host "
        "vakker rolig dyp hoy smal bred frisk"
    ).split(),
    "vowelish": (
        "aloha kai moana lani hale pua nui iki ohana mahalo hula kona lei "
        "makai mauka pono wiki kapu luau keiki kumu hana mele olu wela anu "
        "akamai nani loa hou maka"
    ).split(),
}
LANGS = sorted(VOCAB)

PII_SNIPPETS = (
    "contact me at jane.doe@example.com",
    "email bob_smith99@mail.example.org now",
    "call 415-555-0132 today",
    "my number is +1 650-555-0199 ok",
    "ssn is 078-05-1120 kept private",
    "server at 192.168.10.25 port open",
    "see https://example.com/a/b?q=1 for more",
)
TOX_SNIPPETS = ("what a frak", "totally gorram thing", "smeg happens",
                "full of dreck", "oh felgercarb again")

SIZES = np.array([16, 32, 64], dtype=np.int32)
SIZE_P = np.array([0.5, 0.35, 0.15])
FMTS = np.array(["jpeg", "png", "webp", "bmp"], dtype=object)
FMT_P = np.array([0.55, 0.25, 0.12, 0.08])

# caption population mix (cumulative ranges over one uniform draw)
_POP = (
    ("blank", 0.020),
    ("whitespace", 0.010),
    ("short", 0.020),
    ("long", 0.015),
    ("digits", 0.020),
    ("punct", 0.020),
    ("gibberish", 0.060),
    # remainder: natural caption in one of LANGS
)

HOT_PHASH = 7777777777
N_HOT_FRAC = 0.01
CLUSTER_FRAC = 0.05


def seed_corpus(n_per_lang: int = 300, seed: int = SEED) -> tuple[list[str], list[str]]:
    """Deterministic labeled training corpus for the langid / perplexity
    models (built from the same vocabularies, disjoint rng stream).
    Words are drawn as ``rng.integers(0, len(words), k)`` into a numpy
    word array: the same stream as ``rng.choice(words, k)`` without
    converting the word list on every draw."""
    texts, labels = [], []
    for li, lang in enumerate(LANGS):
        rng = np.random.default_rng([seed, 999_000_001, li])
        words = np.asarray(VOCAB[lang], dtype=object)
        for _ in range(n_per_lang):
            k = int(rng.integers(6, 25))
            texts.append(" ".join(words[rng.integers(0, len(words), k)]))
        labels += [lang] * n_per_lang
    return texts, labels


def _gibberish(rng) -> str:
    chars = np.array(list("abcdefghijklmnopqrstuvwxyzqxzjvw"), dtype=object)
    k = int(rng.integers(20, 120))
    s = "".join(rng.choice(chars, k))
    # insert spaces at random-ish points so it still tokenizes
    out = []
    i = 0
    while i < len(s):
        j = i + int(rng.integers(3, 11))
        out.append(s[i:j])
        i = j
    return " ".join(out)


def _caption(rng) -> str:
    u = float(rng.random())
    acc = 0.0
    pop = "natural"
    for name, p in _POP:
        acc += p
        if u < acc:
            pop = name
            break
    if pop == "blank":
        return ""
    if pop == "whitespace":
        return "   \t  "
    if pop == "short":
        return "ab"[: int(rng.integers(1, 3))]
    lang = LANGS[int(rng.integers(len(LANGS)))]
    words = VOCAB[lang]
    if pop == "long":
        base = " ".join(rng.choice(words, 220))
        return base  # > 1024 chars with avg word ~6 chars
    if pop == "digits":
        return " ".join(str(int(rng.integers(0, 10**8))) for _ in range(8))
    if pop == "punct":
        return " ".join("!!@@##$$%%^^&&**" for _ in range(4))
    if pop == "gibberish":
        return _gibberish(rng)
    k = int(rng.integers(5, 30))
    cap = " ".join(rng.choice(words, k))
    u2 = float(rng.random())
    if u2 < 0.08:
        cap = cap + " " + PII_SNIPPETS[int(rng.integers(len(PII_SNIPPETS)))]
    elif u2 < 0.13:
        cap = cap + " " + TOX_SNIPPETS[int(rng.integers(len(TOX_SNIPPETS)))]
    return cap


def _phash(rng, row_id: int, n_rows: int) -> int:
    u = float(rng.random())
    if u < N_HOT_FRAC:
        return HOT_PHASH
    if u < N_HOT_FRAC + CLUSTER_FRAC:
        # cluster id drawn from a pool sized so clusters average ~8 rows
        pool = max(2, int(n_rows * CLUSTER_FRAC / 8))
        return 1_000_000_000 + int(rng.integers(pool))
    return int(rng.integers(1 << 62))


def gen_rows(ids: np.ndarray, n_rows: int, seed: int = SEED) -> pa.Table:
    """Generate the table rows for the given absolute row ids."""
    image_id, blobs, ws, hs, fmts, caps, phashes = [], [], [], [], [], [], []
    for rid in ids:
        rid = int(rid)
        rng = np.random.default_rng([seed, rid])
        w = int(rng.choice(SIZES, p=SIZE_P))
        h = int(rng.choice(SIZES, p=SIZE_P))
        fmt = str(rng.choice(FMTS, p=FMT_P))
        # deterministic pixels: gradient + seeded noise
        gx = np.linspace(0, 255, w, dtype=np.float32)[None, :, None]
        gy = np.linspace(0, 255, h, dtype=np.float32)[:, None, None]
        noise = rng.integers(0, 64, (h, w, 3)).astype(np.float32)
        arr = np.clip((gx + gy) / 2 + noise, 0, 255).astype(np.uint8)
        enc_fmt = fmt if fmt in IF.FMT_CODES else "png"
        blob = IF.encode_image(arr, enc_fmt)
        if rng.random() < 0.01:
            blob = bytes(rng.integers(0, 256, 32, dtype=np.uint8))  # corrupt
        image_id.append(f"img-{rid:012d}")
        blobs.append(blob)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(_caption(rng))
        phashes.append(_phash(rng, rid, n_rows))
    return pa.table(
        {
            "image_id": pa.array(image_id, type=pa.string()),
            "bytes": pa.array(blobs, type=pa.binary()),
            "w": pa.array(ws, type=pa.int32()),
            "h": pa.array(hs, type=pa.int32()),
            "fmt": pa.array(fmts, type=pa.string()),
            "caption": pa.array(caps, type=pa.string()),
            "phash": pa.array(phashes, type=pa.int64()),
        }
    )


class GenImagesBatch:
    """map_batches fn over ``ray.data.range(n)`` blocks → image rows.

    ``offset`` shifts the range ids to absolute row ids so a chunk
    ``range(hi - lo)`` generates rows ``[lo, hi)`` bit-identically to a
    single full-table run (every row derives only from
    ``default_rng([seed, row_id])`` and the TOTAL ``n_rows``)."""

    def __init__(self, n_rows: int, seed: int = SEED, offset: int = 0):
        self.n_rows = n_rows
        self.seed = seed
        self.offset = offset

    def __call__(self, batch: pa.Table) -> pa.Table:
        return gen_rows(batch["id"].to_numpy() + self.offset,
                        self.n_rows, self.seed)


def generate_images_parquet(
    n_rows: int,
    out_dir: str = "/tmp/dqray_fixtures",
    seed: int = SEED,
    use_ray: bool = True,
    chunk_rows: int = 3_200_000,
) -> str:
    """Generate (cached) the fixture as partitioned parquet; returns the
    dataset directory. Uses Ray for parallel generation at scale.

    Large runs are generated in resumable ``chunk_rows`` chunks: each
    chunk writes to an underscore-prefixed temp subdir (invisible to
    parquet readers), is renamed into the dataset dir file-by-file, and
    records a ``_chunk_NNNN.done`` marker — a crash mid-generation (a
    multi-GB run outlives host session windows) loses at most one
    chunk on retry instead of the whole table. Chunked output is
    bit-identical per row to a single-run table (rows derive only from
    ``default_rng([seed, row_id])`` + total ``n_rows``)."""
    import shutil

    path = os.path.join(out_dir, f"images_n{n_rows}_s{seed}")
    marker = os.path.join(path, "_SUCCESS")
    if os.path.exists(marker):
        return path
    os.makedirs(path, exist_ok=True)
    if use_ray and n_rows > 20_000:
        import ray.data as rd

        for k, lo in enumerate(range(0, n_rows, chunk_rows)):
            hi = min(lo + chunk_rows, n_rows)
            done = os.path.join(path, f"_chunk_{k:04d}.done")
            if os.path.exists(done):
                continue
            tmp = os.path.join(path, f"_tmp_chunk_{k:04d}")
            if os.path.exists(tmp):
                shutil.rmtree(tmp)
            (
                rd.range(hi - lo)
                .map_batches(GenImagesBatch(n_rows, seed, offset=lo),
                             batch_format="pyarrow", batch_size=2048)
                # bounded file size: files are the read-task granularity
                # once the quality pipeline's ReadParquet fuses with its
                # kernel chain, so ~8k-row (~20 MB) files keep ~2-3
                # tasks per CPU in flight at bench scale instead of
                # 50-100k-row files that quantize the run into a few
                # coarse waves. bytes holds an (incompressible) encoded
                # image payload: storing it uncompressed skips a pure-
                # memcpy snappy decompress pass on EVERY read — the
                # layout choice a real image-parquet lake makes for
                # jpeg payloads
                .write_parquet(tmp, min_rows_per_file=8192,
                               max_rows_per_file=8192,
                               compression="none")
            )
            # publish: deterministic names so a re-publish after a
            # mid-rename crash overwrites instead of duplicating
            for i, f in enumerate(sorted(os.listdir(tmp))):
                os.replace(os.path.join(tmp, f),
                           os.path.join(path, f"chunk{k:04d}_{i:05d}.parquet"))
            os.rmdir(tmp)
            with open(done, "w") as f:
                f.write("ok")
    else:
        t = gen_rows(np.arange(n_rows), n_rows, seed)
        pq.write_table(t, os.path.join(path, "part-0.parquet"),
                       compression="none")
    with open(marker, "w") as f:
        f.write("ok")
    return path
