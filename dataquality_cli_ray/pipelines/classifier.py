"""Model-based quality filtering: a logistic-regression document
classifier trained DISTRIBUTED over the corpus — the quality-classifier
archetype of real LLM data pipelines (public method: the WebText-style
quality classifier of GPT-3, Brown et al. 2020 appendix A; fastText
quality classifiers in CCNet/RedPajama). The reference has no model
stage at all (heuristics only); here training and scoring are both
streaming Ray Data passes:

- features are cheap vectorized kernels over the Arrow UTF-8 buffer
  (token count, punctuation/stopword/digit fractions, mean word
  length) — no embedding, no Python strings;
- the raw text is featurized EXACTLY ONCE: a single pass materializes
  the compact (F+1)-float feature rows (~48 B/doc); full-batch
  gradient descent then runs every iteration as one ``map_batches``
  pass over the FEATURE dataset, emitting per-block gradient partials
  ``(X^T (sigmoid(Xw) - y), n)`` — a (F+1)-vector per block — reduced
  on the driver in block order (deterministic for a fixed plan, the
  same contract as ``similarity.ivf_centroids``);
- scoring/filtering is one stateless streaming pass with the weight
  vector broadcast via ``ray.put`` + the per-worker cache.

At 100 TB: the model is O(F) floats, every pass streams with
backpressure, and nothing but (F+2)-float partials ever leaves a task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import text as T
from ..functions.rounding import round_half_up
from .exchange import worker_get


FEATURE_NAMES = ["log_tokens", "punct_frac", "stop_frac",
                 "digit_frac", "mean_word_len"]


def doc_features(texts) -> np.ndarray:
    """(n, 5) float64 feature matrix from vectorized Arrow kernels:
    log1p(ws tokens), punctuation fraction, stopword fraction, digit
    fraction, mean word length. Deterministic, no Python strings."""
    n = pc.utf8_length(texts).cast(pa.float64()).to_numpy(
        zero_copy_only=False)
    toks = T.token_count_ws(texts).cast(pa.float64()).to_numpy(
        zero_copy_only=False)
    stop = T.stopword_count(texts).cast(pa.float64()).to_numpy(
        zero_copy_only=False)
    punct = T.count_regex(texts, r"[^\sA-Za-z0-9]").cast(
        pa.float64()).to_numpy(zero_copy_only=False)
    digit = T.count_regex(texts, r"[0-9]").cast(pa.float64()).to_numpy(
        zero_copy_only=False)
    safe_n = np.maximum(n, 1.0)
    safe_t = np.maximum(toks, 1.0)
    return np.column_stack([
        np.log1p(toks),
        punct / safe_n,
        stop / safe_t,
        digit / safe_n,
        n / safe_t,
    ])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def train_quality_lr(
    ds: "rd.Dataset", text_col: str, label_col: str,
    iters: int = 30, lr: float = 0.5, l2: float = 1e-4,
) -> dict:
    """Distributed full-batch logistic regression.

    The raw text is read and featurized EXACTLY ONCE: one pass
    materializes the compact (F+1)-float feature-plus-label rows
    (~48 B/doc, orders of magnitude below the text it replaces); the
    standardizer pass and every one of the ``iters`` gradient steps
    then stream the compact feature dataset, emitting per-block
    ``(grad, n)`` partials reduced on the driver in block order
    (deterministic for a fixed plan, the same contract as
    ``similarity.ivf_centroids``). Only O(F) floats move per block per
    pass. Returns the model dict (weights on STANDARDIZED features +
    the standardizer)."""
    F = len(FEATURE_NAMES)
    feat_cols = [f"f{i}" for i in range(F)]

    def feat_partial(batch: pa.Table) -> pa.Table:
        X = doc_features(batch[text_col])
        cols = {c: pa.array(X[:, i], type=pa.float64())
                for i, c in enumerate(feat_cols)}
        cols["y"] = batch[label_col].cast(pa.float64())
        return pa.table(cols)

    # the ONLY text-reading pass of the whole training loop
    feats = ds.select_columns([text_col, label_col]).map_batches(
        feat_partial, batch_format="pyarrow",
        batch_size=8192).materialize()

    def _xmat(batch: pa.Table) -> np.ndarray:
        return np.column_stack([
            batch[c].to_numpy(zero_copy_only=False) for c in feat_cols])

    def stat_partial(batch: pa.Table) -> pa.Table:
        X = _xmat(batch)
        return pa.table({
            "s": pa.array([X.sum(axis=0)]),
            "ss": pa.array([(X * X).sum(axis=0)]),
            "n": pa.array([float(len(X))]),
        })

    s = np.zeros(F)
    ss = np.zeros(F)
    n = 0.0
    for b in feats.map_batches(
            stat_partial, batch_format="pyarrow",
            batch_size=8192).iter_batches(batch_size=256,
                                          batch_format="pyarrow"):
        s += np.array(b["s"].to_pylist()).sum(axis=0)
        ss += np.array(b["ss"].to_pylist()).sum(axis=0)
        n += float(pc.sum(b["n"]).as_py())
    mu = s / max(n, 1.0)
    sd = np.sqrt(np.maximum(ss / max(n, 1.0) - mu * mu, 1e-12))

    w = np.zeros(F + 1)  # bias last
    for _ in range(iters):
        wref = ray.put({"w": w, "mu": mu, "sd": sd})

        def grad_partial(batch: pa.Table) -> pa.Table:
            m = worker_get(wref)
            X = (_xmat(batch) - m["mu"]) / m["sd"]
            Xb = np.column_stack([X, np.ones(len(X))])
            y = batch["y"].to_numpy(zero_copy_only=False)
            p = _sigmoid(Xb @ m["w"])
            return pa.table({"g": pa.array([Xb.T @ (p - y)]),
                             "n": pa.array([float(len(X))])})

        g = np.zeros(F + 1)
        gn = 0.0
        for b in feats.map_batches(
                grad_partial, batch_format="pyarrow",
                batch_size=8192).iter_batches(batch_size=256,
                                              batch_format="pyarrow"):
            g += np.array(b["g"].to_pylist()).sum(axis=0)
            gn += float(pc.sum(b["n"]).as_py())
        g = g / max(gn, 1.0) + l2 * np.r_[w[:-1], 0.0]
        w = w - lr * g
    return {"w": w, "mu": mu, "sd": sd, "features": FEATURE_NAMES}


def score_quality_lr(
    ds: "rd.Dataset", model: dict, text_col: str = "text",
    id_col: str = "doc_id", threshold: float | None = None,
) -> "rd.Dataset":
    """(id, prob, kept) per document in one streaming pass; with
    ``threshold`` the failing rows are filtered out instead of
    flagged. prob is two-stage-rounded to 6 dp (golden-oracle
    stable)."""
    ref = ray.put(model)

    def score(batch: pa.Table) -> pa.Table:
        m = worker_get(ref)
        X = (doc_features(batch[text_col]) - m["mu"]) / m["sd"]
        Xb = np.column_stack([X, np.ones(len(X))])
        p = round_half_up(_sigmoid(Xb @ m["w"]), 6)
        out = pa.table({id_col: batch[id_col],
                        "prob": pa.array(p, type=pa.float64())})
        if threshold is not None:
            return out.filter(pa.array(p >= threshold))
        return out

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=8192)


def quality_lr_pipeline(
    ds: "rd.Dataset", text_col: str = "text", id_col: str = "doc_id",
    label_threshold: float = 0.8, train_frac: float = 0.5,
    iters: int = 30,
) -> "rd.Dataset":
    """End-to-end model-based quality filter, the 100 TB shape: weak
    labels from the heuristic quality score (>= label_threshold),
    TRAIN ON A DETERMINISTIC HASH SAMPLE of the corpus
    (knuth_u32(id) < train_frac — training passes touch only the
    sample; at web scale you never run 30 epochs over everything),
    then score the FULL corpus in one streaming pass. Output:
    (id, prob) for every document."""
    from ..functions.hashing import knuth_u32
    from .textqa import quality_score_array

    thr = np.uint64(int(train_frac * 4294967296.0))

    def label(batch: pa.Table) -> pa.Table:
        q = quality_score_array(batch[text_col])
        lab = pc.greater_equal(q, pa.scalar(label_threshold)).cast(
            pa.int64())
        return pa.table({id_col: batch[id_col],
                         text_col: batch[text_col], "label": lab})

    def train_half(batch: pa.Table) -> pa.Table:
        u = knuth_u32(batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False))
        return batch.filter(pa.array(u < thr))

    labeled = ds.select_columns([id_col, text_col]).map_batches(
        label, batch_format="pyarrow", batch_size=8192)
    # no raw-text materialize: train_quality_lr's featurize pass is the
    # single execution of this plan, and what IT materializes is the
    # compact feature rows, not the text
    train_ds = labeled.map_batches(train_half, batch_format="pyarrow",
                                   batch_size=8192)
    model = train_quality_lr(train_ds, text_col, "label", iters=iters)
    return score_quality_lr(ds, model, text_col, id_col)
