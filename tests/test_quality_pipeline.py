"""Flagship pipeline vs the straight-line golden oracle: keep/drop F1,
drop_reason equality, scrubbed-caption equality, PSNR invariant,
dedup winner semantics (north-rule acceptance tests)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from dataquality_cli_ray.fixtures.golden import golden_labels
from dataquality_cli_ray.functions import imagefake as IF
from dataquality_cli_ray.pipelines.quality import (
    images_quality_pipeline,
    lineage_summary,
)
from dataquality_cli_ray.stages.rules import QualityConfig


@pytest.fixture(scope="module")
def pipeline_and_golden(ray_session, images_path, models):
    cfg = QualityConfig()
    out = images_quality_pipeline(images_path, cfg).to_pandas()
    out = out.sort_values("image_id").reset_index(drop=True)
    rows = pq.read_table(images_path).to_pylist()
    lm, pm = models
    gold = pd.DataFrame(golden_labels(rows, cfg, lm, pm))
    gold = gold.sort_values("image_id").reset_index(drop=True)
    return out.merge(gold, on="image_id", suffixes=("", "_g"))


def test_keep_drop_f1(pipeline_and_golden):
    m = pipeline_and_golden
    tp = ((m["keep"]) & (m["keep_g"])).sum()
    fp = ((m["keep"]) & (~m["keep_g"])).sum()
    fn = ((~m["keep"]) & (m["keep_g"])).sum()
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f"F1 {f1}"


def test_drop_reason_exact(pipeline_and_golden):
    m = pipeline_and_golden
    assert (m["drop_reason"].fillna("") == m["drop_reason_g"].fillna("")).all()


def test_scrubbed_caption_exact(pipeline_and_golden):
    m = pipeline_and_golden
    assert (m["caption_scrubbed"] == m["caption_scrubbed_g"]).all()


def test_all_rules_fire(pipeline_and_golden):
    reasons = set(pipeline_and_golden["drop_reason"].dropna())
    for expected in ["null_blank", "length_bounds", "char_class",
                     "fmt_whitelist", "decode_error", "lang_unknown",
                     "phash_dup"]:
        assert expected in reasons, f"{expected} never fired"


def test_psnr_invariant(images_path):
    """Decoded pixels of pass-through bytes: lossless exact, lossy
    PSNR ≥ 40 dB (north rule)."""
    t = pq.read_table(images_path).to_pylist()
    checked = 0
    for r in t[:200]:
        try:
            arr, fmt = IF.decode_image(r["bytes"])
        except IF.CorruptImageError:
            continue
        # re-encode → decode must preserve pixels within the bar
        rt, _ = IF.decode_image(IF.encode_image(arr, fmt))
        p = IF.psnr(arr, rt)
        assert p >= 40.0 or p == float("inf")
        checked += 1
    assert checked > 100


def test_dedup_keeps_min_id(pipeline_and_golden):
    m = pipeline_and_golden
    dup = m[m["drop_reason"] == "phash_dup"]
    assert len(dup) > 0
    # for the hot bucket: exactly the min image_id of the group survives
    from dataquality_cli_ray.fixtures.images import HOT_PHASH
    hot = m[m["phash"] == HOT_PHASH]
    assert len(hot) > 1
    winner = hot["image_id"].min()
    losers = hot[hot["image_id"] != winner]
    # every loser is dropped; the reason is phash_dup unless an earlier
    # rule (RULE_ORDER) already fired for that row
    assert (~losers["keep"]).all()
    earlier = losers["drop_reason"] != "phash_dup"
    assert (losers.loc[~earlier, "drop_reason"] == "phash_dup").all()
    assert losers["drop_reason"].notna().all()


def test_lineage_summary(ray_session, pipeline_and_golden):
    import ray.data as rd

    m = pipeline_and_golden
    lin = lineage_summary(
        rd.from_pandas(m[["drop_reason"]])).to_pydict()
    assert sum(lin["n"]) == len(m)
    expected = m["drop_reason"].fillna("KEEP").value_counts().to_dict()
    got = {(k or "KEEP"): v for k, v in zip(lin["drop_reason"], lin["n"])}
    assert got == expected


def test_single_mode_matches_staged(ray_session, images_path, models,
                                    pipeline_and_golden, tmp_path):
    """dedup_mode='single' (one raw scan, labels spilled to parquet
    shards, no materialize in the plan) is row-identical to staged
    mode, and the spill dir holds the label shards as a resume point."""
    lm, pm = models
    spill = str(tmp_path / "labels")
    out = images_quality_pipeline(
        images_path, QualityConfig(), dedup_mode="single",
        langid_model=lm, ppl_model=pm, spill_dir=spill,
    ).to_pandas().sort_values("image_id").reset_index(drop=True)
    staged = pipeline_and_golden[list(out.columns)]
    pd.testing.assert_frame_equal(out, staged)
    import glob
    assert glob.glob(spill + "/*.parquet"), "label shards not written"


def test_dup_loser_modes_identical(ray_session, images_path):
    """driver / partitioned dup decisions are value-identical
    (partitioned is what mode='auto' selects at scale)."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.quality import phash_dup_losers

    def run(mode):
        proj = rd.read_parquet(images_path, columns=["phash", "image_id"])
        keys, winners = phash_dup_losers(proj, mode=mode)
        return dict(zip(keys.tolist(), winners.to_pylist()))

    ref = run("driver")
    assert len(ref) > 0          # fixture has a hot phash bucket
    assert run("partitioned") == ref

    # refs path over RAW blocks: per-block combine happens inside the
    # split tasks
    from dataquality_cli_ray.pipelines.quality import dup_losers_from_refs

    raw = rd.read_parquet(images_path, columns=["phash", "image_id"])
    k2, w2 = dup_losers_from_refs(raw.materialize().to_arrow_refs(),
                                  "phash", "image_id")
    assert dict(zip(k2.tolist(), w2.to_pylist())) == ref


def test_unknown_modes_rejected(ray_session, images_path):
    """A mode outside the supported set raises instead of silently
    running some other plan (modes are case-sensitive)."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.quality import phash_dup_losers

    for mode in ("broadcast", "Staged", "shuffle"):
        with pytest.raises(ValueError, match="dedup_mode"):
            images_quality_pipeline(images_path, QualityConfig(),
                                    dedup_mode=mode)
    proj = rd.read_parquet(images_path, columns=["phash", "image_id"])
    for mode in ("shuffle", "Driver"):
        with pytest.raises(ValueError, match="dup-loser mode"):
            phash_dup_losers(proj, mode=mode)


def test_pipeline_metrics_from_stats(ray_session, images_path, models):
    """pipeline_metrics parses Ray Data's executed stats into per-stage
    {wall_s, cpu_s, rows_out} (the north rule's per-stage throughput
    metrics) — operators present, flagship row count at the sink."""
    from dataquality_cli_ray.pipelines.quality import (
        images_quality_pipeline, pipeline_metrics)
    from dataquality_cli_ray.stages.rules import QualityConfig

    out = images_quality_pipeline(images_path, QualityConfig(),
                                  langid_model=models[0],
                                  ppl_model=models[1])
    n = 0                                # consume THIS plan (count()
    for b in out.iter_batches(batch_format="pyarrow"):   # runs a new one)
        n += b.num_rows
    m = pipeline_metrics(out)
    assert m, "no operators parsed from stats"
    measured = {op: r for op, r in m.items()
                if r["wall_s"] is not None and r["rows_out"] is not None}
    assert measured, f"no measured operators in {m}"
    for op, row in measured.items():
        assert set(row) >= {"wall_s", "cpu_s", "rows_out"}, (op, row)
        assert row["wall_s"] >= 0 and row["rows_out"] >= 0
    # the terminal operator emitted every surviving row
    assert max(r["rows_out"] for r in measured.values()) >= n > 0


FUSED_OP = ("ReadParquet->MapBatches(_fused_task_fn)"
            "->MapBatches(_mark_finalize_task_fn)")


def _executed_ops(ds) -> list[str]:
    """Operator names from the executed plan's stats ("Operator N
    <name>: ...")."""
    return [line.split(" ", 2)[2].rsplit(":", 1)[0]
            for line in ds.stats().splitlines()
            if line.startswith("Operator ")]


@pytest.fixture(scope="module")
def multi_file_images(images_path, tmp_path_factory):
    """The 600-row fixture as 4 parquet files (fewer than Ray's 200
    default read blocks, which would split each file)."""
    t = pq.read_table(images_path)
    d = tmp_path_factory.mktemp("images4")
    for i in range(4):
        pq.write_table(t.slice(i * 150, 150),
                       str(d / f"part-{i:05d}.parquet"), compression="none")
    return str(d)


def test_staged_plan_is_one_fused_operator(ray_session, models,
                                           multi_file_images):
    """One read task per file fuses with the kernel chain: the executed
    staged plan is ONE operator, with no SplitBlocks."""
    lm, pm = models
    ds = images_quality_pipeline(multi_file_images, QualityConfig(),
                                 dedup_mode="staged",
                                 langid_model=lm, ppl_model=pm)
    n = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))
    assert n == 600
    assert _executed_ops(ds) == [FUSED_OP]


def test_cli_shard_plan_is_one_fused_operator(ray_session,
                                              multi_file_images,
                                              tmp_path, monkeypatch):
    """cmd_quality's per-shard plan (here one 4-file shard) is the same
    single fused operator."""
    from argparse import Namespace

    from dataquality_cli_ray import cli
    from dataquality_cli_ray.state import checkpoint as CK

    plans = []
    real = CK.run_resumable

    def spy(files, out_dir, pipeline_fn, **kw):
        def fn(shard):
            plans.append(pipeline_fn(shard))
            return plans[-1]
        return real(files, out_dir, fn, **kw)

    monkeypatch.setattr(CK, "run_resumable", spy)
    assert cli.cmd_quality(Namespace(
        input=multi_file_images, output=str(tmp_path / "out"),
        shard_size=4, num_cpus=4, dedup_mode="auto", align_threshold=None,
        min_image_px=None, max_aspect=None, min_contrast=None)) == 0
    assert len(plans) == 1
    ds = plans[0]
    n = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))
    assert n == 600
    assert _executed_ops(ds) == [FUSED_OP]
