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


def _group_by_dup_map(t, key_col="phash", id_col="image_id"):
    """The dup-loser map as one group_by of (min id, count) over every
    row, sorted by key."""
    import pyarrow.compute as pc

    g = t.group_by(key_col).aggregate([(id_col, "min"), (key_col, "count")])
    g = g.filter(pc.greater(g[f"{key_col}_count"], 1))
    keys = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(keys)
    return keys[order], g[f"{id_col}_min"].combine_chunks().take(
        pa.array(order))


def test_count_first_dup_map_equals_group_by():
    """The count-first pre-pass (np.unique over the keys, min id over
    the dup rows only) equals the group_by formulation on null keys,
    keys above 2**53 that differ only in their low bits, -2**63, a hot
    key, all-unique keys and an empty table, over two-chunk columns."""
    from dataquality_cli_ray.pipelines.quality import dup_losers_from_table

    big = 2**53
    cases = {
        "nulls": [None, 5, 5, None, 7, None, 5, 0],
        "above_2_53": [big + 1, big + 2, big + 1, big + 3, big + 2, big],
        "int64_min": [-2**63, 3, -2**63, 2**63 - 1, 2**63 - 1, 0],
        "hot": [9] * 500 + list(range(100)),
        "unique": list(range(50)),
        "empty": [],
    }
    for name, keys in cases.items():
        n = len(keys)
        ids = [f"id-{(i * 7919) % 1009:04d}" for i in range(n)]
        t = pa.table({"phash": pa.array(keys, pa.int64()),
                      "image_id": pa.array(ids, pa.string())})
        t = pa.concat_tables([t.slice(0, n // 2), t.slice(n // 2)])
        got_k, got_w = dup_losers_from_table(t)
        want_k, want_w = _group_by_dup_map(t)
        assert got_k.dtype == np.int64 and np.array_equal(got_k, want_k), name
        assert got_w.to_pylist() == want_w.to_pylist(), name
        assert len(got_k) == len(got_w), name


def test_stage_cache_keyed_on_whole_config(ray_session, models,
                                           monkeypatch):
    """The per-worker stage cache keys on both model refs and the whole
    config: two calls with the same refs and configs that differ only in
    ``max_perplexity`` label differently, and a repeat call with the
    same refs and config builds no second stage."""
    import ray

    from dataquality_cli_ray.fixtures.images import gen_rows
    from dataquality_cli_ray.pipelines import exchange
    from dataquality_cli_ray.pipelines import quality as Q

    built = []
    init = Q.QualityFusedStage.__init__

    def counting_init(self, cfg, *models):
        built.append(cfg)
        init(self, cfg, *models)

    monkeypatch.setattr(Q.QualityFusedStage, "__init__", counting_init)
    # an empty cache of this test's own: one the earlier tests filled
    # could reach its bound and clear between the calls below
    monkeypatch.setattr(exchange, "_WORKER_CACHE", {})
    batch = gen_rows(np.arange(600), 600)
    refs = {"langid_ref": ray.put(models[0]), "ppl_ref": ray.put(models[1]),
            "dup_ref": ray.put(Q.dup_losers_from_table(batch))}

    def reasons(cfg):
        out, = Q._label_task_fn(batch, cfg=cfg, **refs)
        return out["drop_reason"].to_pylist()

    loose = reasons(QualityConfig())
    strict = reasons(QualityConfig(max_perplexity=1.0))
    assert strict.count("high_perplexity") > loose.count("high_perplexity")
    assert reasons(QualityConfig()) == loose
    assert built == [QualityConfig(), QualityConfig(max_perplexity=1.0)]


def _plan_labels(ds, dup_map, cfg, lm, pm):
    from dataquality_cli_ray.pipelines.quality import quality_pipeline

    out = quality_pipeline(ds, dup_map, cfg, lm, pm).to_pandas()
    return out.sort_values("image_id").reset_index(drop=True)


def _local_labels(batch, dup_map, cfg, lm, pm):
    from dataquality_cli_ray.pipelines import quality as Q
    from dataquality_cli_ray.stages.rules import finalize_decision

    out = finalize_decision(Q._mark_dup(
        Q.QualityFusedStage(cfg, lm, pm)(batch), *dup_map, cfg.dedup_key,
        cfg.id_col)).select(Q._out_cols(cfg)).to_pandas()
    return out.sort_values("image_id").reset_index(drop=True)


def test_models_put_once_per_model_object(ray_session, models,
                                          monkeypatch):
    """Plans over the same model objects put each model once; a new
    model object (even an equal one) is put again, and so is every
    model in a new Ray session."""
    import ray

    from dataquality_cli_ray.fixtures.images import gen_rows
    from dataquality_cli_ray.pipelines import quality as Q

    lm, pm = dict(models[0]), dict(models[1])
    batch = gen_rows(np.arange(200), 200)
    ds = ray.data.from_arrow(batch)
    dup_map = Q.dup_losers_from_table(batch)
    puts = []
    put = ray.put
    monkeypatch.setattr(ray, "put", lambda v: puts.append(v) or put(v))

    def plan(lm, pm):
        return Q.quality_pipeline(ds, dup_map, QualityConfig(), lm, pm)

    def model_puts():
        return [id(v) for v in puts if isinstance(v, dict)]

    first = plan(lm, pm)
    assert model_puts() == [id(lm), id(pm)]
    plan(lm, pm)
    assert model_puts() == [id(lm), id(pm)]
    lm2 = dict(lm)
    last = plan(lm2, pm)
    assert model_puts() == [id(lm), id(pm), id(lm2)]
    ctx = ray.get_runtime_context()

    class NewSession:
        def get_node_id(self):
            return "another node"

        def get_job_id(self):
            return ctx.get_job_id()

    with monkeypatch.context() as m:
        m.setattr(ray, "get_runtime_context", NewSession)
        plan(lm2, pm)
    assert model_puts() == [id(lm), id(pm), id(lm2), id(lm2), id(pm)]
    monkeypatch.undo()
    pd.testing.assert_frame_equal(
        last.to_pandas().sort_values("image_id").reset_index(drop=True),
        first.to_pandas().sort_values("image_id").reset_index(drop=True))


def test_reused_langid_new_ppl_model_labels_follow_it(ray_session, models):
    """A plan that keeps the langid model object but passes a new
    perplexity model labels with the new one."""
    import ray

    from dataquality_cli_ray.fixtures.images import gen_rows, seed_corpus
    from dataquality_cli_ray.pipelines.quality import dup_losers_from_table
    from dataquality_cli_ray.stages.perplexity import train_char_lm

    lm, pm = models
    pm2 = train_char_lm(seed_corpus(seed=5)[0][:40])
    batch = gen_rows(np.arange(600), 600)
    ds = ray.data.from_arrow(batch)
    dup_map = dup_losers_from_table(batch)
    cfg = QualityConfig()
    before = _plan_labels(ds, dup_map, cfg, lm, pm)
    after = _plan_labels(ds, dup_map, cfg, lm, pm2)
    assert not np.array_equal(before["ppl"], after["ppl"])
    pd.testing.assert_frame_equal(
        after, _local_labels(batch, dup_map, cfg, lm, pm2))


def test_reused_models_new_dup_map_labels_follow_it(ray_session, models):
    """Plans over the same models and config but a different dup map
    mark ``phash_dup`` by the map each plan ships."""
    import ray

    from dataquality_cli_ray.fixtures.images import gen_rows
    from dataquality_cli_ray.pipelines.quality import (
        _empty_lookup, dup_losers_from_table)

    lm, pm = models
    batch = gen_rows(np.arange(600), 600)
    ds = ray.data.from_arrow(batch)
    cfg = QualityConfig()
    dup_map = dup_losers_from_table(batch)
    marked = _plan_labels(ds, dup_map, cfg, lm, pm)
    unmarked = _plan_labels(ds, _empty_lookup(), cfg, lm, pm)
    assert (marked["drop_reason"] == "phash_dup").sum() > 0
    assert (unmarked["drop_reason"] == "phash_dup").sum() == 0
    pd.testing.assert_frame_equal(
        unmarked, _local_labels(batch, _empty_lookup(), cfg, lm, pm))
    pd.testing.assert_frame_equal(_plan_labels(ds, dup_map, cfg, lm, pm),
                                  marked)


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


FUSED_OP = "MapBatches(_label_task_fn)"


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
    """One map step reads, labels and marks each work unit: after the
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


def _two_units(monkeypatch) -> None:
    """Plan ``multi_file_images`` (4 x 150 rows) at 4 CPUs as two
    two-file units, so the CLI runs the Ray plan, not one unit in this
    process."""
    from dataquality_cli_ray.sources import readers

    monkeypatch.setattr(readers, "UNIT_MIN_ROWS", 300)


@pytest.fixture()
def write_steps(monkeypatch):
    """The Datasets the CLI's runs append their shard write to (one per
    Ray plan; none for a unit labeled in this process)."""
    from dataquality_cli_ray.state import checkpoint as CK

    steps, real = [], CK._with_write_step

    def spy(ds, tmp_dirs):
        steps.append(real(ds, tmp_dirs))
        return steps[-1]

    monkeypatch.setattr(CK, "_with_write_step", spy)
    return steps


def test_cli_shard_plan_is_one_fused_operator(ray_session,
                                              multi_file_images,
                                              tmp_path, monkeypatch, capsys,
                                              write_steps):
    """A cmd_quality run over 4 files in 2 shards, planned as two
    two-file units, builds ONE plan over all 4 files, and it executes as
    one fused operator that ends in the in-task shard write, with the
    flagship's scoped context (reservation off); ``lineage --per-shard``
    prints rows in/out."""
    from argparse import Namespace

    from dataquality_cli_ray import cli
    from dataquality_cli_ray.state import checkpoint as CK

    _two_units(monkeypatch)
    plans, written = [], write_steps
    real_run = CK.run_resumable

    def spy(files, out_dir, pipeline_fn, **kw):
        def fn(pending):
            plans.append(list(pending))
            return pipeline_fn(pending)
        return real_run(files, out_dir, fn, **kw)

    monkeypatch.setattr(CK, "run_resumable", spy)
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


def test_cli_rerun_with_nothing_pending_trains_no_model(
        ray_session, multi_file_images, tmp_path, monkeypatch):
    """A rerun whose shards are all published builds no model: the
    seeded models are trained inside the plan, which ``run_resumable``
    builds only for pending shards. The published output is unchanged."""
    from dataquality_cli_ray.pipelines import quality as Q

    out = str(tmp_path / "out")
    _cmd_quality(multi_file_images, out, shard_size=2)
    before, before_manifests = _cli_output(out)

    def no_build(*a, **kw):
        raise AssertionError("models built with no shard pending")

    monkeypatch.setattr(Q, "build_models", no_build)
    _cmd_quality(multi_file_images, out, shard_size=2)
    after, after_manifests = _cli_output(out)
    assert after.equals(before) and after_manifests == before_manifests


def test_cli_runs_put_builtin_models_once(
        ray_session, multi_file_images, pipeline_and_golden, tmp_path,
        monkeypatch):
    """Two cmd_quality runs in one Ray session ship the built-in seeded
    models once: ``build_models`` returns the same pair, so the second
    plan reuses the first one's refs. Both runs publish the same rows,
    and those rows carry the golden oracle's labels."""
    import ray

    from dataquality_cli_ray.pipelines import quality as Q

    lm, pm = Q.build_models()
    monkeypatch.setattr(Q, "_MODEL_REFS", {})
    puts = []
    put = ray.put
    monkeypatch.setattr(ray, "put", lambda v: puts.append(v) or put(v))
    outs = []
    for run in ("a", "b"):
        _cmd_quality(multi_file_images, str(tmp_path / run), shard_size=2)
        outs.append(_cli_output(str(tmp_path / run))[0])
    assert [v for v in puts if v is lm or v is pm] == [lm, pm]
    assert outs[0].equals(outs[1])
    _assert_golden(outs[0], pipeline_and_golden)


def _assert_golden(got: pa.Table, m: pd.DataFrame) -> None:
    """``got`` (rows sorted by image_id) carries the golden oracle's
    labels (``pipeline_and_golden``)."""
    got = got.to_pandas()
    assert got["image_id"].tolist() == m["image_id"].tolist()
    for col in ("drop_reason", "caption_scrubbed"):
        assert got[col].fillna("").tolist() == \
            m[f"{col}_g"].fillna("").tolist(), col
    for col in ("keep", "lang_pred", "ppl", "pii_hits"):
        assert got[col].tolist() == m[col].tolist(), col


def _lineage_json(out_dir: str, capsys) -> str:
    from argparse import Namespace

    from dataquality_cli_ray import cli

    capsys.readouterr()
    assert cli.cmd_lineage(Namespace(run_dir=out_dir, json=True,
                                     per_shard=False)) == 0
    return capsys.readouterr().out


def test_cli_one_unit_runs_no_ray_plan(ray_session, multi_file_images,
                                       tmp_path, monkeypatch):
    """600 rows at 4 CPUs plan to one work unit: cmd_quality labels it
    in this process, appends no shard write to a Ray plan and builds no
    Dataset, and publishes every row."""
    import ray.data as rd

    from dataquality_cli_ray.state import checkpoint as CK

    def no_plan(*a, **kw):
        raise AssertionError("a Ray Data plan was built")

    monkeypatch.setattr(CK, "_with_write_step", no_plan)
    monkeypatch.setattr(rd, "from_items", no_plan)
    out = str(tmp_path / "out")
    _cmd_quality(multi_file_images, out, shard_size=2)
    assert _cli_output(out)[0].num_rows == 600
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_cli_in_process_equals_ray_plan(ray_session, multi_file_images,
                                        pipeline_and_golden, tmp_path,
                                        monkeypatch, capsys, write_steps):
    """One CLI input run two ways, as one unit labeled in this process
    and as a Ray plan of two units, publishes the same rows and
    manifests and the same ``lineage --json``; the rows carry the golden
    oracle's labels."""
    here, plan = str(tmp_path / "here"), str(tmp_path / "plan")
    _cmd_quality(multi_file_images, here, shard_size=3)
    assert write_steps == []
    with monkeypatch.context() as m:
        _two_units(m)
        _cmd_quality(multi_file_images, plan, shard_size=3)
    assert len(write_steps) == 1
    got, manifests = _cli_output(here)
    ref, ref_manifests = _cli_output(plan)
    assert got.equals(ref) and manifests == ref_manifests
    assert _lineage_json(here, capsys) == _lineage_json(plan, capsys)
    _assert_golden(got, pipeline_and_golden)


@pytest.mark.parametrize("ray_plan", [False, True])
def test_cli_zero_row_file_publishes_empty_shard(ray_session, images_path,
                                                 multi_file_images, tmp_path,
                                                 monkeypatch, write_steps,
                                                 ray_plan):
    """A zero-row input file publishes its own shard with rows_in =
    rows_out = 0, on either path: beside the 600-row input (one unit
    here, or two units in a Ray plan), and alone, which is always one
    unit (through the CLI, in this process; through
    ``images_quality_pipeline``, a Ray plan)."""
    from dataquality_cli_ray.state import checkpoint as CK

    src = tmp_path / "in"
    shutil.copytree(multi_file_images, src)
    pq.write_table(pq.read_table(images_path).slice(0, 0),
                   str(src / "part-00004.parquet"))
    if ray_plan:
        _two_units(monkeypatch)
    _cmd_quality(str(src), str(tmp_path / "out"), shard_size=1)
    assert len(write_steps) == int(ray_plan)
    got, manifests = _cli_output(str(tmp_path / "out"))
    assert got.num_rows == 600 and len(manifests) == 5
    assert (manifests[4]["rows_in"], manifests[4]["rows_out"]) == (0, 0)

    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    shutil.move(str(src / "part-00004.parquet"), empty)
    files = [os.path.join(empty, "part-00004.parquet")]
    out = str(tmp_path / "out_empty")
    if ray_plan:
        CK.run_resumable(
            files, out,
            lambda p: images_quality_pipeline(files, QualityConfig(),
                                              pending=p),
            shard_size=1, lineage_fn=CK.drop_reason_lineage)
    else:
        _cmd_quality(empty, out, shard_size=1)
    assert len(write_steps) == 2 * int(ray_plan)
    with open(os.path.join(out, "shard=0", "manifest.json")) as f:
        m = json.load(f)
    assert (m["rows_in"], m["rows_out"], m["lineage"]) == (0, 0, {})
    assert os.listdir(os.path.join(out, "shard=0")) == ["manifest.json"]


def test_cli_in_process_write_failure_resumes(ray_session, multi_file_images,
                                              tmp_path, monkeypatch,
                                              write_steps):
    """A write that fails after the first part of a unit labeled in this
    process fails the run (Ray retries no task here) and leaves that
    part in an unpublished ``shard=<i>.tmp``; a rerun publishes the same
    output as a clean run, with no orphan part."""
    import pyarrow.compute as pc

    from dataquality_cli_ray.state import checkpoint as CK

    real = CK._write_parts

    def write_first_file_then_fail(batch, *, tmp_dirs):
        first = pc.unique(batch["path"])[0]
        real(batch.filter(pc.equal(batch["path"], first)), tmp_dirs=tmp_dirs)
        raise OSError("disk full")

    out = str(tmp_path / "out")
    with monkeypatch.context() as m:
        m.setattr(CK, "_write_parts", write_first_file_then_fail)
        with pytest.raises(OSError, match="disk full"):
            _cmd_quality(multi_file_images, out, shard_size=2)
    assert sorted(os.listdir(out)) == ["shard=0.tmp", "shard=1.tmp"]
    assert len(os.listdir(os.path.join(out, "shard=0.tmp"))) == 1
    _cmd_quality(multi_file_images, out, shard_size=2)
    _cmd_quality(multi_file_images, str(tmp_path / "clean"), shard_size=2)
    assert write_steps == []
    got, manifests = _cli_output(out)
    ref, ref_manifests = _cli_output(str(tmp_path / "clean"))
    assert got.equals(ref) and manifests == ref_manifests
    assert sorted(os.listdir(out)) == ["shard=0", "shard=1"]


def test_default_fused_stage_computes_no_pixel_features(models, monkeypatch):
    """At the default config no rule reads brightness/contrast/ahash, so
    the fused stage runs only the decode's payload parse: with the
    pixel-feature pass made to raise it still labels a fixture batch as
    the golden oracle does. The ``min_contrast`` gate turns the pass on."""
    from dataquality_cli_ray.fixtures.images import gen_rows
    from dataquality_cli_ray.pipelines.quality import (
        QualityFusedStage, _mark_dup, dup_losers_from_table)
    from dataquality_cli_ray.stages.image_stages import DecodeImageStage
    from dataquality_cli_ray.stages.rules import finalize_decision

    def no_features(*a, **k):
        raise AssertionError("pixel features computed")

    monkeypatch.setattr(DecodeImageStage, "_pixel_features",
                        staticmethod(no_features))
    lm, pm = models
    cfg = QualityConfig()
    batch = gen_rows(np.arange(600), 600)
    out = QualityFusedStage(cfg, lm, pm)(batch)
    assert not {"brightness", "contrast", "ahash"} & set(out.column_names)
    out = finalize_decision(_mark_dup(out, *dup_losers_from_table(batch)))
    cols = ["image_id", "keep", "drop_reason", "caption_scrubbed",
            "lang_pred", "pii_hits"]
    gold = golden_labels(batch.to_pylist(), cfg, lm, pm)
    assert out.select(cols).to_pylist() == [{c: g[c] for c in cols}
                                            for g in gold]
    assert "decode_error" in set(out["drop_reason"].to_pylist())
    with pytest.raises(AssertionError, match="pixel features computed"):
        QualityFusedStage(QualityConfig(min_contrast=1.0), lm, pm)(batch)


def test_zero_row_batch_finalizes_typed(models):
    """The fused stage, dup marking and finalize_decision on a zero-row
    batch give zero rows with a bool ``keep`` and a string
    ``drop_reason`` (an untyped keep array made ``and`` raise)."""
    import numpy as np

    from dataquality_cli_ray.fixtures.images import gen_rows
    from dataquality_cli_ray.pipelines import quality as Q
    from dataquality_cli_ray.stages.rules import finalize_decision

    cfg = QualityConfig()
    batch = gen_rows(np.arange(4), 4).slice(0, 0)
    stage = Q.QualityFusedStage(cfg, *models)
    out = finalize_decision(Q._mark_dup(stage(batch),
                                        *Q.dup_losers_from_table(batch)))
    assert out.num_rows == 0
    assert out.schema.field("keep").type == pa.bool_()
    assert out.schema.field("drop_reason").type == pa.string()
