"""Language identification — a fastText-style hashed char-n-gram
classifier run in ``map_batches`` tasks (the scorer is built once per
worker process and cached by the caller, then scores every batch).

Reference analogue: the per-value type probe M3
(``adaptive_streaming_engine.go:221-234``) — classify each value once —
generalized to a linear text classifier. Public technique: char-n-gram
profiles (Cavnar & Trenkle) / fastText's hashed n-gram bag.

Model = {langs: [L], profiles: float32 (L, D) row-normalized}. Scoring a
batch is one (B, D) x (D, L) matmul; prediction = argmax cosine, score =
max cosine. Deterministic: hashing uses a fixed polynomial hash (no
PYTHONHASHSEED), training order-insensitive (pure counts). Training
counts the whole labeled corpus in one sparse pass (one hash over all
texts, one ``bincount`` per label), in the driver and in the
per-batch partials alike.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

from ..functions.text import ngram_hash_rows

DEFAULT_DIM = 4096
DEFAULT_N = 3


def _label_ngram_counts(texts, label_ids, n_labels: int, n: int,
                        dim: int) -> np.ndarray:
    """(n_labels, dim) float64 hashed n-gram counts summed per label in
    one sparse pass: :func:`ngram_hash_rows` over all texts, then one
    ``bincount`` keyed ``label * dim + bucket``. Texts whose label id is
    negative count nowhere. The counts are exact integers, so they equal
    the per-text rows of ``ngram_count_matrix`` summed per label."""
    row_of, buckets = ngram_hash_rows(texts, n, dim)
    lab = np.asarray(label_ids, dtype=np.int64)[row_of]
    keep = lab >= 0
    key = lab[keep] * dim + buckets[keep]
    return np.bincount(key, minlength=n_labels * dim).reshape(
        n_labels, dim).astype(np.float64)


def _profiles(counts: np.ndarray) -> np.ndarray:
    """Row-normalized float32 profiles of per-label count rows."""
    norms = np.linalg.norm(counts, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return (counts / norms).astype(np.float32)


def train_langid_model(
    texts, labels, dim: int = DEFAULT_DIM, n: int = DEFAULT_N
) -> dict:
    """Build per-language n-gram profiles from a labeled sample
    (driver-side; the sample is small by construction), counted by
    :func:`_label_ngram_counts` in one pass over the whole sample."""
    langs = sorted(set(labels))
    idx = {l: i for i, l in enumerate(langs)}
    counts = _label_ngram_counts(texts, [idx[l] for l in labels],
                                 len(langs), n, dim)
    return {"langs": langs, "profiles": _profiles(counts), "dim": dim, "n": n}


def merge_langid_partials(partials: list[dict]) -> dict:
    """Merge per-batch training partials {lang: count_vector} — the
    distributed-training path (partials are mergeable sums, same shape
    as the profiler's ColumnPartial merge)."""
    acc: dict[str, np.ndarray] = {}
    dim = n = None
    for p in partials:
        dim, n = p["dim"], p["n"]
        for lang, vec in p["counts"].items():
            if lang in acc:
                acc[lang] += vec
            else:
                acc[lang] = vec.copy()
    langs = sorted(acc)
    prof = np.stack([acc[l] for l in langs]).astype(np.float64)
    return {"langs": langs, "profiles": _profiles(prof), "dim": dim, "n": n}


class LangIdTrainPartials:
    """map_batches fn emitting one pickled {lang: ngram-count-vec}
    partial per batch — lets the model be trained over a Dataset without
    materializing it."""

    def __init__(self, text_col: str, label_col: str,
                 dim: int = DEFAULT_DIM, n: int = DEFAULT_N):
        self.text_col, self.label_col, self.dim, self.n = text_col, label_col, dim, n

    def __call__(self, batch: pa.Table) -> pa.Table:
        labels = batch[self.label_col].to_pylist()
        langs = sorted({l for l in labels if l is not None})
        idx = {l: i for i, l in enumerate(langs)}
        counts = _label_ngram_counts(
            batch[self.text_col], [idx.get(l, -1) for l in labels],
            len(langs), self.n, self.dim)
        acc = dict(zip(langs, counts))
        blob = pickle.dumps({"counts": acc, "dim": self.dim, "n": self.n})
        return pa.table({"partial": pa.array([blob], type=pa.binary())})


class LangIdScorer:
    """Task stage: adds ``lang`` (predicted) + ``lang_score``
    (max cosine) + ``rule_lang_unknown``.

    Pass ``model_ref`` as a ``ray.put`` ObjectRef so the (L, D) profile
    matrix ships to each worker ONCE (callers cache the scorer per
    worker process), not per batch; a plain dict also works for tests.
    """

    def __init__(self, model_ref, text_col: str = "caption_trimmed",
                 min_score: float | None = None):
        if "ObjectRef" in type(model_ref).__name__:
            import ray
            model = ray.get(model_ref)
        else:
            model = model_ref
        self.langs = np.asarray(model["langs"], dtype=object)
        # (L, D) float64 rows: each language's profile is gathered by
        # bucket id in the sparse scoring pass (row-contiguous gathers)
        self.profiles = model["profiles"].astype(np.float64)
        self.dim = model["dim"]
        self.n = model["n"]
        self.text_col = text_col
        self.min_score = min_score

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        m = len(col)
        # SPARSE cosine: the dense (rows, dim) count matrix moved
        # dim x 8 B per row through memory (the measured bandwidth
        # bottleneck at full parallelism — BASELINE.md round 3); the
        # per-(row, bucket) counts via sort/unique touch only the ~50
        # n-gram occurrences a caption actually has. The hash runs over
        # the Arrow UTF-8 buffer directly (no Python strings) and the
        # (row, bucket) composite key stays uint32 — both cut the
        # per-row memory traffic that inflated kernel cost at full
        # worker width (8->30 worker inflation 1.85x before, BASELINE).
        row_of, buckets = ngram_hash_rows(col, self.n, self.dim)
        sims = np.zeros((m, len(self.langs)), dtype=np.float64)
        if len(row_of):
            if m * self.dim < (1 << 32):
                key = (row_of.astype(np.uint32) * np.uint32(self.dim)
                       + buckets.astype(np.uint32))
            else:
                key = row_of.astype(np.int64) * self.dim + buckets
            uniq, cnt = np.unique(key, return_counts=True)
            rows = (uniq // self.dim).astype(np.int64)
            bkt = (uniq - rows * np.uint32(self.dim)).astype(np.int64) \
                if uniq.dtype == np.uint32 else uniq - rows * self.dim
            cf = cnt.astype(np.float64)
            norms = np.sqrt(np.bincount(rows, weights=cf * cf, minlength=m))
            norms[norms == 0] = 1.0
            for li in range(len(self.langs)):
                sims[:, li] = np.bincount(
                    rows, weights=cf * self.profiles[li][bkt], minlength=m)
            sims /= norms[:, None]
        best = sims.argmax(axis=1)
        score = sims[np.arange(m), best]
        lang = self.langs[best].astype(str)
        out = batch.append_column("lang_pred", pa.array(lang, type=pa.string()))
        out = out.append_column("lang_score", pa.array(score, type=pa.float64()))
        if self.min_score is not None:
            out = out.append_column(
                "rule_lang_unknown", pa.array(score < self.min_score)
            )
        return out
