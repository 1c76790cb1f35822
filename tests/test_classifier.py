"""Model-based quality classifier: distributed LR training converges
on a separable problem, the end-to-end pipeline is deterministic, and
it reproduces the weak-label rule it was trained on."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd_mod

from dataquality_cli_ray.pipelines import classifier as CL

SF = "/root/testdata/sf0.01"


def test_lr_converges_on_separable(ray_session):
    # label = 1 iff the doc has >= 8 ws tokens: linearly separable in
    # the log_tokens feature alone
    rng = np.random.default_rng(31)
    texts, labels = [], []
    for i in range(400):
        k = int(rng.integers(2, 20))
        texts.append(" ".join(f"w{j}" for j in range(k)))
        labels.append(int(k >= 8))
    ds = rd_mod.from_pandas(pd.DataFrame(
        {"text": texts, "label": labels})).repartition(4)
    model = CL.train_quality_lr(ds, "text", "label", iters=60, lr=1.0)
    scored = CL.score_quality_lr(
        ds.map_batches(lambda t: t.append_column(
            "doc_id", pa.array(np.arange(len(t)))),
            batch_format="pyarrow"),
        model).to_pandas()
    # can't rely on row order for labels; rescore directly
    X = (CL.doc_features(pa.array(texts)) - model["mu"]) / model["sd"]
    p = CL._sigmoid(np.column_stack([X, np.ones(len(X))]) @ model["w"])
    acc = ((p >= 0.5).astype(int) == np.array(labels)).mean()
    assert acc >= 0.97, f"separable accuracy {acc}"
    assert len(scored) == 400


def test_quality_lr_pipeline_deterministic(ray_session):
    from dataquality_cli_ray.sources.readers import read_parquet

    a = CL.quality_lr_pipeline(read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = CL.quality_lr_pipeline(read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (a["prob"].to_numpy() == b["prob"].to_numpy()).all()
    assert len(a) == 500 and a["prob"].between(0, 1).all()
    # the model mimics its weak-label teacher on the training rule
    from dataquality_cli_ray.pipelines import textqa as TQ
    qs = TQ.quality_scores(read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    y = (qs["quality_score"] >= 0.8).astype(int).to_numpy()
    pred = (a["prob"] >= 0.5).astype(int).to_numpy()
    assert (pred == y).mean() >= 0.85
