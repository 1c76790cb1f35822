"""Language identification — a fastText-style hashed char-n-gram
classifier run in ``map_batches`` tasks. The flagship puts each model
object in the object store once per driver process and caches the
scorer per worker process on that model's ref, so plans over the same
model objects neither re-ship nor rebuild it.

Reference analogue: the per-value type probe M3
(``adaptive_streaming_engine.go:221-234``) — classify each value once —
generalized to a linear text classifier. Public technique: char-n-gram
profiles (Cavnar & Trenkle) / fastText's hashed n-gram bag.

Model = {langs: [L], profiles: float32 (L, D) row-normalized}. Scoring
counts each caption's hashed n-grams sparsely and takes its cosine with
every profile, all languages in one gather and one segmented sum over
the caption's (row, bucket) runs; prediction = argmax cosine, score =
max cosine. The n-grams come from the batch's ``CaptionGrams``
(``functions/text.py``): in the flagship's fused stage that one lowered
buffer and rolling hash also feed the perplexity scorer. Deterministic:
hashing uses a fixed polynomial hash (no PYTHONHASHSEED), training
order-insensitive (pure counts). Training counts the whole labeled
corpus in one sparse pass (one hash over all texts, one ``bincount``
per label), in the driver and in the per-batch partials alike.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

from ..functions.text import CaptionGrams, ngram_hash_rows

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
    matrix ships to each worker once per model object (the flagship
    caches the scorer per worker process on the ref), not per batch or
    per plan; a plain dict also works for tests.
    A caller that already holds the batch's :class:`CaptionGrams` of
    ``text_col`` passes it as ``grams`` (the flagship's fused stage
    shares one with the perplexity scorer); otherwise the call builds
    one.
    """

    def __init__(self, model_ref, text_col: str = "caption_trimmed",
                 min_score: float | None = None):
        if "ObjectRef" in type(model_ref).__name__:
            import ray
            model = ray.get(model_ref)
        else:
            model = model_ref
        self.langs = pa.array(list(model["langs"]), type=pa.string())
        # the (L + 1, dim) table the scoring pass gathers by bucket id:
        # the L float64 profiles, then a row of ones whose gathered
        # products become each run's squared count
        L = len(self.langs)
        self.table = np.ones((L + 1, model["dim"]), dtype=np.float64)
        self.table[:L] = model["profiles"]
        self.dim = int(model["dim"])
        self.n = model["n"]
        self.text_col = text_col
        self.min_score = min_score

    def __call__(self, batch: pa.Table,
                 grams: CaptionGrams | None = None) -> pa.Table:
        if grams is None:
            grams = CaptionGrams(batch[self.text_col])
        parts = [self._scores(g) for _, g in grams.blocks()]
        best = np.concatenate([b for b, _ in parts])
        score = np.concatenate([s for _, s in parts])
        out = batch.append_column("lang_pred", self.langs.take(best))
        out = out.append_column("lang_score", pa.array(score, type=pa.float64()))
        if self.min_score is not None:
            out = out.append_column(
                "rule_lang_unknown", pa.array(score < self.min_score)
            )
        return out

    def _scores(self, grams: CaptionGrams) -> tuple[np.ndarray, np.ndarray]:
        """(index into ``langs``, max cosine) of each row of ``grams``.

        SPARSE cosine: the dense (rows, dim) count matrix moved
        dim x 8 B per row through memory (the measured bandwidth
        bottleneck at full parallelism — BASELINE.md round 3); one
        in-place sort of the (row, bucket) keys gives the per-(row,
        bucket) counts, touching only the ~100 n-gram occurrences a
        caption actually has. The key stays uint32 where it fits.

        Every language is scored in one pass over the runs: one gather
        of the (L + 1, dim) table, each column times its run's count
        (the ones row twice, giving the squared count), and one
        segmented sum over each row's runs. Rows with no n-gram score 0
        with norm 1."""
        m, dim, L = grams.m, self.dim, len(self.langs)
        row_of, buckets = grams.ngram_rows(self.n, dim)
        sims = np.zeros((m, L), dtype=np.float64)
        if len(row_of):
            if m * dim < (1 << 32):
                key = row_of.view(np.uint32) * np.uint32(dim)
                key += buckets.view(np.uint32)
            else:
                key = row_of.astype(np.int64) * dim + buckets
            key.sort()
            # the distinct keys and their run lengths, as np.unique's
            # return_counts computes them
            first = np.empty(len(key), dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            cf = np.empty(len(starts), dtype=np.float64)
            np.subtract(starts[1:], starts[:-1], out=cf[:-1])
            cf[-1] = len(key) - starts[-1]
            if key.dtype == np.uint32 and dim & (dim - 1) == 0:
                k = key[starts]
                rows = k >> np.uint32(dim.bit_length() - 1)
                bkt = k & np.uint32(dim - 1)
            else:
                # the sort permutes keys within their row only, so each
                # run's row is its first window's
                rows = row_of[starts].astype(np.intp)
                bkt = key[starts] - rows * dim
            # every bucket is < dim, so "clip" only skips the bounds check
            g = np.take(self.table, bkt, axis=1, mode="clip")
            g *= cf
            g[L] *= cf
            # each row's first run
            rfirst = np.empty(len(rows), dtype=bool)
            rfirst[0] = True
            np.not_equal(rows[1:], rows[:-1], out=rfirst[1:])
            rstarts = np.flatnonzero(rfirst)
            sums = np.add.reduceat(g, rstarts, axis=1)
            sums[:L] /= np.sqrt(sums[L])
            sims[rows[rstarts]] = sums[:L].T
        best = sims.argmax(axis=1)
        return best, sims[np.arange(m), best]
