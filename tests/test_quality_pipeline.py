"""Flagship pipeline vs the straight-line golden oracle: keep/drop F1,
drop_reason equality, scrubbed-caption equality, PSNR invariant,
dedup winner semantics (north-rule acceptance tests)."""

import json
import os
import pathlib
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dataquality_cli_ray.fixtures.golden import golden_labels
from dataquality_cli_ray.functions import imagefake as IF
from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
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


def test_dup_loser_modes_identical(ray_session, images_path):
    """driver / partitioned dup decisions are value-identical
    (partitioned is what mode='auto' selects at scale)."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.quality import phash_dup_losers

    def run(mode):
        keys, winners = phash_dup_losers(images_path, mode=mode)
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


def test_driver_dup_losers_start_no_ray_job(ray_session, images_path,
                                            monkeypatch):
    """mode='driver' resolves the map with pyarrow in the calling
    process: with every Ray read path made to raise, it still returns
    the partitioned mode's map."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.quality import phash_dup_losers
    from dataquality_cli_ray.sources import readers

    def as_dict(m):
        return dict(zip(m[0].tolist(), m[1].to_pylist()))

    ref = as_dict(phash_dup_losers(images_path, mode="partitioned"))

    def no_ray(*a, **k):
        raise AssertionError("driver mode started a Ray read")

    monkeypatch.setattr(rd, "read_parquet", no_ray)
    monkeypatch.setattr(readers, "read_table", no_ray)
    assert as_dict(phash_dup_losers(images_path, mode="driver")) == ref


def test_dup_losers_null_keys_never_dups(ray_session, tmp_path):
    """Null keys form no dup group in either mode, and marking a block
    that holds a null flags only the real duplicate's loser — also for
    keys above 2**53, where a float64 round-trip of the key column
    would make K-1 equal to the dup key K."""
    from dataquality_cli_ray.pipelines.quality import (
        _mark_dup,
        phash_dup_losers,
    )

    K = 2**62 + 2
    cases = [([None, None, 5, 5, 7], ["a", "b", "c", "d", "e"], {5: "c"},
              [False, False, False, True, False]),
             ([None, K - 1, K, K], ["n", "x", "y", "z"], {K: "y"},
              [False, False, False, True])]
    for i, (phash, ids, want, marked) in enumerate(cases):
        t = pa.table({"phash": pa.array(phash, type=pa.int64()),
                      "image_id": ids})
        path = str(tmp_path / f"nulls{i}.parquet")
        pq.write_table(t, path)
        for mode in ("driver", "partitioned"):
            keys, winners = phash_dup_losers(path, mode=mode)
            assert dict(zip(keys.tolist(), winners.to_pylist())) == want
            got = _mark_dup(t, keys, winners)["rule_phash_dup"].to_pylist()
            assert got == marked, (mode, phash)


def test_stray_non_parquet_file_skipped(ray_session, images_path, models,
                                        pipeline_and_golden, tmp_path):
    """A non-parquet file next to the input's parquet files is skipped:
    the row probe and every read see the same .parquet file list, and
    the staged output equals the output without the stray file."""
    import shutil

    for name in os.listdir(images_path):
        if name.endswith(".parquet"):
            shutil.copy(os.path.join(images_path, name), tmp_path / name)
    (tmp_path / "notes.txt").write_text("not a parquet file\n")
    lm, pm = models
    out = images_quality_pipeline(
        str(tmp_path), QualityConfig(), langid_model=lm, ppl_model=pm,
    ).to_pandas().sort_values("image_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out,
                                  pipeline_and_golden[list(out.columns)])


def test_unknown_modes_rejected(ray_session, images_path):
    """A mode outside the supported set raises instead of silently
    running some other plan (modes are case-sensitive)."""
    from dataquality_cli_ray.pipelines.quality import phash_dup_losers

    for mode in ("single", "join", "broadcast", "Staged", "shuffle"):
        with pytest.raises(ValueError, match="dedup_mode"):
            images_quality_pipeline(images_path, QualityConfig(),
                                    dedup_mode=mode)
    for mode in ("shuffle", "Driver"):
        with pytest.raises(ValueError, match="dup-loser mode"):
            phash_dup_losers(images_path, mode=mode)


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


FUSED_OP = ("MapBatches(_read_units)->MapBatches(_fused_task_fn)"
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
    """The work-unit read fuses with the kernel chain: after the
    ``FromItems`` input of the planned units, the executed staged plan
    is ONE operator, with no ReadParquet and no SplitBlocks. The plan's
    block size cap and reservation switch live in the plan's own
    context; the process-wide context is left as it was."""
    import ray.data as rd

    lm, pm = models
    ctx = rd.DataContext.get_current()
    prev = ctx.target_max_block_size, ctx.op_resource_reservation_enabled
    ctx.target_max_block_size = 128 << 20
    try:
        ds = images_quality_pipeline(multi_file_images, QualityConfig(),
                                     dedup_mode="staged",
                                     langid_model=lm, ppl_model=pm)
        assert ctx.target_max_block_size == 128 << 20
        assert ctx.op_resource_reservation_enabled == prev[1]
    finally:
        ctx.target_max_block_size = prev[0]
    assert ds.context.target_max_block_size == 32 << 20
    assert ds.context.op_resource_reservation_enabled is False
    n = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))
    assert n == 600
    assert _executed_ops(ds) == ["FromItems", FUSED_OP]


def _cmd_quality(input_dir: str, out_dir: str, shard_size: int) -> None:
    from argparse import Namespace

    from dataquality_cli_ray import cli

    assert cli.cmd_quality(Namespace(
        input=input_dir, output=out_dir, shard_size=shard_size, num_cpus=4,
        dedup_mode="auto", align_threshold=None, min_image_px=None,
        max_aspect=None, min_contrast=None)) == 0


def test_cli_shard_plan_is_one_fused_operator(ray_session,
                                              multi_file_images,
                                              tmp_path, monkeypatch, capsys):
    """A cmd_quality run over 4 files in 2 shards builds ONE plan over
    all 4 files, and it executes as one fused operator that ends in the
    in-task shard write, with the flagship's scoped context (reservation
    off); ``lineage --per-shard`` prints rows in/out."""
    from argparse import Namespace

    from dataquality_cli_ray import cli
    from dataquality_cli_ray.state import checkpoint as CK

    plans, written = [], []
    real_run = CK.run_resumable
    real_write = getattr(CK, "_with_write_step", None)

    def spy(files, out_dir, pipeline_fn, **kw):
        def fn(pending):
            plans.append(list(pending))
            return pipeline_fn(pending)
        return real_run(files, out_dir, fn, **kw)

    def write_spy(ds, tmp_dirs):
        written.append(real_write(ds, tmp_dirs))
        return written[-1]

    monkeypatch.setattr(CK, "run_resumable", spy)
    monkeypatch.setattr(CK, "_with_write_step", write_spy, raising=False)
    out = tmp_path / "out"
    _cmd_quality(multi_file_images, str(out), shard_size=2)
    files = sorted(str(p) for p in pathlib.Path(multi_file_images).iterdir())
    assert plans == [files]
    assert len(written) == 1
    assert written[0].context.op_resource_reservation_enabled is False
    assert _executed_ops(written[0]) == [
        "FromItems", FUSED_OP + "->MapBatches(_write_parts)"]
    assert sorted(os.listdir(out)) == ["shard=0", "shard=1"]
    n = sum(pq.read_metadata(str(p)).num_rows for p in out.glob("*/*.parquet"))
    assert n == 600
    assert cli.cmd_lineage(Namespace(run_dir=str(out), json=False,
                                     per_shard=True)) == 0
    assert "shard=1: rows_in=300 rows_out=300" in capsys.readouterr().out


def _cli_output(out_dir: str):
    """(published rows sorted by image_id, per-shard manifests with the
    input fragments reduced to file names)."""
    parts, manifests = [], []
    for shard in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, shard)
        parts += [pq.read_table(os.path.join(d, f))
                  for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        with open(os.path.join(d, "manifest.json")) as f:
            m = json.load(f)
        m["input_fragments"] = [os.path.basename(p)
                                for p in m["input_fragments"]]
        manifests.append(m)
    return pa.concat_tables(parts).sort_by("image_id"), manifests


def test_cli_skips_underscore_parquet(ray_session, multi_file_images,
                                      tmp_path):
    """cmd_quality reads the files the flagship reads: a corrupt
    ``_stray.parquet`` in the input dir is skipped, and the output
    equals the output without it."""
    src = tmp_path / "in"
    shutil.copytree(multi_file_images, src)
    (src / "_stray.parquet").write_bytes(b"not a parquet file")
    _cmd_quality(str(src), str(tmp_path / "out"), shard_size=2)
    _cmd_quality(multi_file_images, str(tmp_path / "ref"), shard_size=2)
    got, manifests = _cli_output(str(tmp_path / "out"))
    ref, ref_manifests = _cli_output(str(tmp_path / "ref"))
    assert got.equals(ref) and manifests == ref_manifests
