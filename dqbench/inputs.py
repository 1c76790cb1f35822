"""Seeded benchmark inputs, generated from the seed alone and cached per
seed under the benchmark's state dir.

Each input directory records a sha256 over its files, so a change to the
generators (``fixtures/images.py`` for the image table) reads as an input
change in the report, not as a speed change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SHINGLE_K = 5
NEARDUP_THRESHOLD = 0.7


def _digest(d: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode())
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _cached(state_dir: str, name: str, build) -> dict:
    """Build ``name`` into a temp dir once, publish it by rename, and
    return its ``meta.json`` (which ``build`` fills in). The program's
    input files live in ``data/``; oracles and metadata sit beside it."""
    final = os.path.join(state_dir, "inputs", name)
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "data"))
        meta = build(tmp)
        meta["digest"] = _digest(os.path.join(tmp, "data"))
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["dir"] = final
    meta["path"] = os.path.join(final, "data")
    return meta


def image_input(state_dir: str, seed: int, files: int, rows_per_file: int) -> dict:
    """``files`` parquet files of ``rows_per_file`` image+caption rows in
    the ``fixtures.images`` layout (uncompressed, bounded files)."""
    from dataquality_cli_ray.fixtures.images import gen_rows

    n = files * rows_per_file

    def build(d: str) -> dict:
        for i in range(files):
            ids = np.arange(i * rows_per_file, (i + 1) * rows_per_file)
            pq.write_table(gen_rows(ids, n, seed),
                           os.path.join(d, "data", f"part-{i:05d}.parquet"),
                           compression="none")
        return {"kind": "images", "rows": n, "files": files}

    return _cached(state_dir, f"images_s{seed}_{files}x{rows_per_file}", build)


def _shingles(text: str) -> set[str]:
    t = text.lower()
    return {t[i:i + SHINGLE_K] for i in range(len(t) - SHINGLE_K + 1)}


def exact_jaccard(a: str, b: str) -> float:
    """Character 5-shingle Jaccard over Python string sets — shares no
    code with the program's hashed shingles."""
    sa, sb = _shingles(a), _shingles(b)
    union = len(sa | sb)
    return len(sa & sb) / union if union else 1.0


def docs_input(state_dir: str, seed: int, n_docs: int) -> dict:
    """``n_docs`` documents of ~580 chars over a Zipf-weighted pseudo-word
    vocabulary. About a tenth of the documents sit in planted clusters: a
    base document plus 1-4 variants, each with 1-2 words replaced. The
    (base, variant) pairs are recorded with their exact Jaccard. Another
    twentieth are decoy pairs with 10-12 words replaced."""

    def build(d: str) -> dict:
        rng = np.random.default_rng([seed, 0xD0C5])
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        vocab = np.array(["".join(rng.choice(letters, int(k)))
                          for k in rng.integers(2, 10, 4000)], dtype=object)
        p = 1.0 / (np.arange(len(vocab)) + 10.0)
        p /= p.sum()

        def base_words() -> np.ndarray:
            return rng.choice(vocab, int(rng.integers(80, 105)), p=p)

        def edited(words: np.ndarray, k: int) -> str:
            w = words.copy()
            for j in rng.choice(len(w), k, replace=False):
                w[j] = rng.choice(vocab)
            return " ".join(w)

        texts: list[str] = []
        planted: list[tuple[int, int]] = []
        for _ in range(n_docs // 40):
            words = base_words()
            base = len(texts)
            texts.append(" ".join(words))
            for _ in range(int(rng.integers(1, 5))):
                planted.append((base, len(texts)))
                texts.append(edited(words, int(rng.integers(1, 3))))
        # decoys: ~11 of ~92 words replaced puts the exact Jaccard just
        # under the threshold, so some reach verification as candidates
        # and are rejected there
        for _ in range(n_docs // 40):
            words = base_words()
            texts.append(" ".join(words))
            texts.append(edited(words, int(rng.integers(10, 13))))
        while len(texts) < n_docs:
            texts.append(" ".join(base_words()))
        texts = texts[:n_docs]
        # spread clusters over the id space and the files' row order
        perm = rng.permutation(n_docs)
        ids = np.empty(n_docs, dtype=np.int64)
        ids[perm] = np.arange(n_docs)          # position k holds doc ids[k]
        pairs = []
        for a, b in planted:
            if b >= n_docs:
                continue
            ia, ib = int(ids[a]), int(ids[b])
            pairs.append([min(ia, ib), max(ia, ib),
                          exact_jaccard(texts[a], texts[b])])
        order = np.argsort(ids)
        tbl = pa.table({
            "doc_id": pa.array(ids[order], type=pa.int64()),
            "text": pa.array([texts[i] for i in order], type=pa.string()),
        })
        pq.write_table(tbl, os.path.join(d, "data", "docs.parquet"))
        with open(os.path.join(d, "planted.json"), "w") as f:
            json.dump(pairs, f)
        return {"kind": "docs", "rows": n_docs, "files": 1,
                "planted_pairs": len(pairs),
                "mean_chars": float(np.mean([len(t) for t in texts]))}

    meta = _cached(state_dir, f"docs_s{seed}_{n_docs}", build)
    with open(os.path.join(meta["dir"], "planted.json")) as f:
        meta["planted"] = [tuple(x) for x in json.load(f)]
    meta["path"] = os.path.join(meta["path"], "docs.parquet")
    return meta
