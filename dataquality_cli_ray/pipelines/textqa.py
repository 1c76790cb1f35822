"""Text-analysis operators over document tables: token counting,
quality scoring, language-ID, document fingerprinting.

Everything SQL-expressible is defined so the DuckDB oracle reproduces
it exactly (same regex strings — both engines are RE2 — same rounding);
langid and winnowing fingerprints are rows-only checks plus pytest
accuracy/property tests.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions import text as T
from ..functions.hashing import rolling_fingerprints
from ..stages.langid import LangIdScorer, LangIdTrainPartials, merge_langid_partials
from .exchange import worker_cached


def token_stats(ds: "rd.Dataset", text_col: str = "text",
                id_col: str = "doc_id") -> "rd.Dataset":
    """Per-doc counts: n_chars, n_tokens_ws, n_tokens_bpe, n_stopwords,
    n_digits, n_punct — all oracle-checkable with regexp_extract_all /
    length in DuckDB (same RE2 patterns)."""

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        return pa.table({
            id_col: batch[id_col],
            "n_chars": pc.utf8_length(txt).cast(pa.int64()),
            "n_tokens_ws": T.token_count_ws(txt).cast(pa.int64()),
            "n_tokens_bpe": T.token_count_bpe(txt).cast(pa.int64()),
            "n_stopwords": T.stopword_count(txt).cast(pa.int64()),
            "n_digits": T.count_regex(txt, "[0-9]").cast(pa.int64()),
            "n_punct": T.count_regex(txt, r"[^\sA-Za-z0-9]").cast(pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=8192, zero_copy_batch=True)


def quality_score_array(txt) -> pa.Array:
    """The composite-quality formula for one batch of texts (shared by
    :func:`quality_scores` and the classifier's weak labels)."""
    n = pc.utf8_length(txt).cast(pa.float64())
    toks = T.token_count_ws(txt).cast(pa.float64())
    stop = T.stopword_count(txt).cast(pa.float64())
    punct = T.count_regex(txt, r"[^\sA-Za-z0-9]").cast(pa.float64())
    safe_n = pc.max_element_wise(n, pa.scalar(1.0))
    safe_t = pc.max_element_wise(toks, pa.scalar(1.0))
    s1 = pc.min_element_wise(pc.divide(toks, pa.scalar(20.0)), pa.scalar(1.0))
    s2 = pc.subtract(pa.scalar(1.0), pc.divide(punct, safe_n))
    s3 = pc.min_element_wise(
        pc.multiply(pa.scalar(5.0), pc.divide(stop, safe_t)), pa.scalar(1.0))
    score = pc.add(
        pc.add(pc.multiply(pa.scalar(0.4), s1), pc.multiply(pa.scalar(0.3), s2)),
        pc.multiply(pa.scalar(0.3), s3),
    )
    # two-stage half-up rounding (functions.rounding) in Arrow kernels
    y = pc.divide(pc.floor(pc.add(pc.multiply(score, 1e8), 0.5)), 1e8)
    return pc.divide(pc.floor(pc.add(pc.multiply(y, 1e6), 0.5)), 1e6)


def quality_scores(ds: "rd.Dataset", text_col: str = "text",
                   id_col: str = "doc_id") -> "rd.Dataset":
    """Composite quality score in [0,1]:
        0.4·min(1, tokens/20) + 0.3·(1 − punct_frac) + 0.3·min(1, 5·stop_frac)
    rounded to 6 dp — the formula is simple arithmetic over the
    token_stats counts so the oracle reproduces it bit-for-bit."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch[id_col],
            "quality_score": quality_score_array(batch[text_col]),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=8192, zero_copy_batch=True)


def train_langid_on_dataset(
    ds: "rd.Dataset", text_col: str, label_col: str,
    dim: int = 4096, n: int = 3,
) -> dict:
    """Distributed langid training: per-batch count partials → driver
    merge (same mergeable-partial shape as the profiler)."""
    parts_ds = ds.select_columns([text_col, label_col]).map_batches(
        LangIdTrainPartials(text_col, label_col, dim, n),
        batch_format="pyarrow", batch_size=4096,
    )
    parts = []
    for b in parts_ds.iter_batches(batch_size=64, batch_format="pyarrow"):
        parts.extend(pickle.loads(x.as_py()) for x in b["partial"])
    return merge_langid_partials(parts)


def classify_language(
    ds: "rd.Dataset", model: dict, text_col: str = "text",
    id_col: str = "doc_id",
) -> "rd.Dataset":
    """(id, lang_pred, lang_score) via the scorer as stateless tasks
    with a per-worker-process scorer cache (same once-per-worker load
    semantics as an actor pool, none of the pool spin-up)."""
    ref = ray.put(model)

    def score(batch):
        return worker_cached(
            ("langid", ref.hex(), text_col),
            lambda: LangIdScorer(ray.get(ref), text_col=text_col))(batch)

    out = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=4096,
    )
    return out.select_columns([id_col, "lang_pred", "lang_score"])


def fingerprints(ds: "rd.Dataset", text_col: str = "text",
                 id_col: str = "doc_id") -> "rd.Dataset":
    """Per-doc fingerprints:
    - md5_fp: md5 hex of the lower/trimmed text (oracle: DuckDB
      ``md5(lower(trim(text)))``)
    - n_winnow: count of winnowing rolling-hash fingerprints
      (Schleimer et al. 2003; rows-only oracle)."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        md5s, nwin = [], []
        for t in texts:
            norm = (t or "").strip().lower()
            md5s.append(hashlib.md5(norm.encode("utf-8", "ignore")).hexdigest())
            nwin.append(len(rolling_fingerprints(norm)))
        return pa.table({
            id_col: batch[id_col],
            "md5_fp": pa.array(md5s, type=pa.string()),
            "n_winnow": pa.array(np.asarray(nwin, dtype=np.int64)),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=8192)


def token_length_histogram(ds: "rd.Dataset", text_col: str = "text",
                           bin_width: int = 8,
                           max_bins: int = 32) -> "rd.Dataset":
    """Corpus token-length distribution: fixed-width histogram over the
    whitespace token count, last bin open-ended — the length-diagnostic
    a training-data pipeline runs before choosing truncation/packing
    sizes.

    Scale shape: each block reduces to ≤ ``max_bins + 1`` (bin, n_docs)
    rows via a per-batch ``bincount`` combiner; only those tiny partials
    enter the ``groupby`` — the corpus itself never shuffles, so the
    exchange is O(blocks × bins) regardless of input size."""

    from ray.data.aggregate import Sum

    def combine(batch: pa.Table) -> pa.Table:
        toks = T.token_count_ws(batch[text_col]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        b = np.minimum(toks // bin_width, max_bins)
        cnt = np.bincount(b, minlength=max_bins + 1)
        nz = np.nonzero(cnt)[0]
        return pa.table({
            "bin": pa.array(nz.astype(np.int64)),
            "n_docs": pa.array(cnt[nz].astype(np.int64)),
        })

    combined = ds.select_columns([text_col]).map_batches(
        combine, batch_format="pyarrow", batch_size=8192,
        zero_copy_batch=True)
    agg = combined.groupby("bin").aggregate(
        Sum("n_docs", alias_name="n_docs"))

    def bounds(t: pa.Table) -> pa.Table:
        b = t["bin"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bin": t["bin"],
            "lo_tokens": pa.array(b * bin_width, type=pa.int64()),
            "n_docs": t["n_docs"],
        })

    return agg.map_batches(bounds, batch_format="pyarrow",
                           batch_size=4096)
