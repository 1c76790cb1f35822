"""Image-caption alignment stage (stages/align.py): batch-split
invariance, per-row scalar-reference equality, quarantine semantics."""
import numpy as np
import pyarrow as pa
import pytest

from dataquality_cli_ray.functions import imagefake as IF
from dataquality_cli_ray.functions.wordgrams import word_ngram_hashes_batch
from dataquality_cli_ray.stages.align import (
    GRID, CaptionAlignStage, _towers, caption_embed_batch)


def _mk_rows(n=64, seed=11):
    rng = np.random.default_rng(seed)
    words = "sunset beach dog car tree mountain red blue two one".split()
    ids, blobs, caps = [], [], []
    for i in range(n):
        w, h = int(rng.choice([4, 16, 32])), int(rng.choice([4, 16, 32]))
        arr = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        blob = IF.encode_image(arr, "png")
        if i % 17 == 5:
            blob = b"nope" + bytes(8)          # undecodable
        ids.append(f"t-{i:04d}")
        blobs.append(blob)
        caps.append(" ".join(rng.choice(words, int(rng.integers(1, 200)))))
    caps[3] = ""                               # blank caption still scores
    caps[7] = " ".join(rng.choice(words, 1000))   # > _MAXSEG: split path
    return pa.table({"image_id": ids,
                     "bytes": pa.array(blobs, type=pa.binary()),
                     "caption": caps})


def _scores(t: pa.Table, batch_size: int) -> np.ndarray:
    stage = CaptionAlignStage()
    outs = [stage(t.slice(o, batch_size))
            for o in range(0, t.num_rows, batch_size)]
    out = pa.concat_tables(outs)
    return out["align_score"].to_numpy(zero_copy_only=False)


def test_align_batch_split_invariance():
    t = _mk_rows(96)
    a = _scores(t, 96)
    b = _scores(t, 7)
    assert np.array_equal(a, b, equal_nan=True)   # bit-identical


def test_align_matches_scalar_reference():
    """Vectorized stage == straightforward per-row implementation."""
    t = _mk_rows(32)
    got = _scores(t, 32)
    d, buckets, seed = 64, 4096, 4242
    p_img, txt_q, _ = _towers(d, buckets, seed)
    for i in range(t.num_rows):
        blob = t["bytes"][i].as_py()
        try:
            arr, _ = IF.decode_image(blob)
        except IF.CorruptImageError:
            assert np.isnan(got[i])
            continue
        if arr.shape[0] < GRID:
            arr = np.repeat(arr, -(-GRID // arr.shape[0]), axis=0)
        if arr.shape[1] < GRID:
            arr = np.repeat(arr, -(-GRID // arr.shape[1]), axis=1)
        hh, ww = arr.shape[:2]
        yb = (np.arange(GRID) * hh) // GRID
        xb = (np.arange(GRID) * ww) // GRID
        mean = np.empty((GRID, GRID, 3), dtype=np.float64)
        for yi in range(GRID):
            for xi in range(GRID):
                y1 = hh if yi == GRID - 1 else yb[yi + 1]
                x1 = ww if xi == GRID - 1 else xb[xi + 1]
                cell = arr[yb[yi]:y1, xb[xi]:x1].astype(np.int64)
                s = cell.reshape(-1, 3).sum(axis=0)
                mean[yi, xi] = s / float((y1 - yb[yi]) * (x1 - xb[xi]))
        fv = ((mean.reshape(-1) - 127.5) / 127.5).astype(np.float32)
        e = np.einsum("ik,kj->ij", fv[None, :], p_img)[0]
        e = e / max(np.float32(np.sqrt(np.einsum("i,i->", e, e))),
                    np.float32(1e-12))
        hashes, _ = word_ngram_hashes_batch([t["caption"][i].as_py()], 1)
        # exact integer token-row sum: order-free, so plain int64 sum
        # is a fully independent reference for the packed-lane kernel
        acc_i = txt_q[(hashes & np.uint64(buckets - 1)).astype(np.int64)
                      ].astype(np.int64).sum(axis=0)
        acc = acc_i.astype(np.float32)
        c = acc / max(np.float32(np.sqrt(np.einsum("i,i->", acc, acc))),
                      np.float32(1e-12))
        want = np.float64(np.einsum("i,i->", e.astype(np.float32),
                                    c.astype(np.float32)))
        assert got[i] == pytest.approx(want, abs=0, rel=0), i


def test_align_quarantine_and_threshold():
    t = _mk_rows(64)
    out = CaptionAlignStage(threshold=0.1)(t)
    score = out["align_score"]
    keep = out["keep_align"].to_numpy(zero_copy_only=False)
    bad = np.asarray(score.is_null())
    assert bad.any()                # corrupt rows present
    assert not keep[bad].any()      # undecodable never kept
    s = score.to_numpy(zero_copy_only=False)
    fin = ~np.isnan(s)
    assert np.array_equal(keep[fin], s[fin] >= 0.1)
    assert np.nanmax(np.abs(s)) <= 1.0 + 1e-6


def test_align_rule_in_flagship(ray_session, images_path, models):
    """align_threshold wires the alignment rule into the flagship:
    align_score in the output, 'misaligned' as a drop_reason that
    fires only after every earlier rule passed, and the default
    config's output schema unchanged."""
    from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
    from dataquality_cli_ray.stages.rules import QualityConfig

    lm, pm = models
    base = images_quality_pipeline(
        images_path, QualityConfig(), langid_model=lm, ppl_model=pm).to_pandas().sort_values("image_id")
    assert "align_score" not in base.columns      # default: stage off
    cfg = QualityConfig(align_threshold=0.0)
    out = images_quality_pipeline(
        images_path, cfg, langid_model=lm, ppl_model=pm).to_pandas().sort_values("image_id")
    assert "align_score" in out.columns
    mis = out["drop_reason"] == "misaligned"
    assert mis.any()
    assert (out.loc[mis, "align_score"] < 0.0).all()
    # precedence: a row dropped as misaligned passed every earlier rule,
    # so its base-run drop_reason must have been dedup (later) or none
    prior = base.set_index("image_id").loc[
        out.loc[mis, "image_id"], "drop_reason"]
    assert prior.isin([None, np.nan, "phash_dup"]).all()
    # rows the base run dropped for an earlier reason keep that reason
    early = base["drop_reason"].notna() & (base["drop_reason"] != "phash_dup")
    same = out.set_index("image_id").loc[
        base.loc[early, "image_id"], "drop_reason"]
    assert (same.values == base.loc[early, "drop_reason"].values).all()


def test_image_size_rule(ray_session, images_path, models):
    """min_image_px / max_aspect fire as 'image_size' on DECODED dims,
    never on undecodable rows, and respect rule precedence."""
    import pyarrow.parquet as pq

    from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
    from dataquality_cli_ray.stages.rules import QualityConfig

    cfg = QualityConfig(min_image_px=17, max_aspect=2.5)
    out = images_quality_pipeline(
        images_path, cfg, langid_model=models[0], ppl_model=models[1]).to_pandas().set_index("image_id")
    meta = pq.read_table(images_path, columns=["image_id", "w", "h"]
                         ).to_pandas().set_index("image_id")
    m = out.join(meta)
    fired = m["drop_reason"] == "image_size"
    assert fired.any()
    lo = np.minimum(m["w"], m["h"])
    hi = np.maximum(m["w"], m["h"])
    should = (lo < 17) | (hi > 2.5 * lo)
    # every image_size drop satisfies the predicate on its (true) dims
    assert should[fired].all()
    # rows matching the predicate but NOT dropped as image_size were
    # taken by an earlier rule (heuristics or decode_error)
    other = m.loc[should & ~fired, "drop_reason"]
    assert other.notna().all()
    from dataquality_cli_ray.stages.rules import RULE_ORDER
    earlier = set(RULE_ORDER[:RULE_ORDER.index("image_size")])
    assert set(other.unique()) <= earlier


def test_caption_tower_properties():
    e = caption_embed_batch(["a dog on the beach", "a dog on the beach",
                             "stock chart numbers", ""])
    assert np.array_equal(e[0], e[1])            # same caption, same vector
    assert not np.array_equal(e[0], e[2])
    n = np.sqrt((e * e).sum(axis=1))
    assert np.allclose(n, 1.0, atol=1e-5)        # unit norm (incl. empty)


def test_low_information_rule(ray_session, images_path, models):
    """min_contrast fires as 'low_information' on the decode stage's
    pixel std, only for decodable rows, respecting rule precedence;
    a truly flat image reads contrast 0 and is always below any
    positive threshold."""
    import ray.data as rd

    from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
    from dataquality_cli_ray.stages.image_stages import DecodeImageStage
    from dataquality_cli_ray.stages.rules import RULE_ORDER, QualityConfig

    # flat image → population std exactly 0
    flat = IF.encode_image(np.full((8, 8, 3), 77, dtype=np.uint8), "png")
    one = pa.table({"image_id": ["flat-0"],
                    "bytes": pa.array([flat], type=pa.binary())})
    dec = DecodeImageStage(validate_meta=False)(one)
    assert dec["contrast"][0].as_py() == 0.0

    thr = 55.7  # fixture median-ish: fires on ~half the decodable rows
    cfg = QualityConfig(min_contrast=thr)
    out = images_quality_pipeline(
        images_path, cfg, langid_model=models[0], ppl_model=models[1]).to_pandas().set_index("image_id")
    fired = out["drop_reason"] == "low_information"
    assert fired.any()
    # recompute contrast independently over the same fixture
    contrast = (
        rd.read_parquet(images_path)
        .map_batches(DecodeImageStage(), batch_format="pyarrow")
        .select_columns(["image_id", "contrast", "dec_w"])
        .to_pandas().set_index("image_id"))
    m = out.join(contrast)
    should = (m["contrast"] < thr) & (m["dec_w"] > 0)
    # every low_information drop satisfies the predicate
    assert should[fired].all()
    # predicate rows not dropped as low_information went to earlier rules
    other = m.loc[should & ~fired, "drop_reason"]
    assert other.notna().all()
    earlier = set(RULE_ORDER[:RULE_ORDER.index("low_information")])
    assert set(other.unique()) <= earlier
