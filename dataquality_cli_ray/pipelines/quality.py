"""Flagship pipeline: language-ID + quality-filter + PII/toxicity-scrub
over image+caption tables (BASELINE.json north rule).

Stage graph (all lazy, streaming, backpressured; in the default staged
mode Ray fuses it into ONE operator, one task per input file):

    read_parquet (one block per file)           source tasks
      → QualityFusedStage                       rules → decode → drop bytes
                                                → langid → perplexity → scrub
                                                (tasks w/ per-worker model
                                                cache)
      → mark dup + finalize_decision            resolved loser map (staged,
                                                single) or distributed
                                                left join (join)

The dup pre-pass (a column-pruned scan of (phash, image_id) that never
touches image bytes) runs FIRST, in the calling process: the main pass
then starts with the resolved loser map. Up to 1 M footer rows it starts
no Ray job at all — pyarrow reads the two columns and one ``group_by``
resolves the map; above that, a per-batch pre-aggregation (one row per
phash per batch, bounding a hot phash's group to ≤ #blocks — the
combiner playing the role of salted two-phase groupby) feeds a
hash-partitioned task reduce (reference analogue: dedup is a *(doc
claim)* at ``CLAUDE.md:27``; the groupby-keep-first shape is SURVEY.md
§2.7/A10).

Stages run as stateless tasks with a per-worker-process model cache:
Ray reuses worker processes, so models still load once per worker, but
there is no fixed pool to fill or size, and the scheduler load-balances
blocks across every CPU (a fixed actor pool left ~25 % of the cluster
idle and paid seconds of actor spin-up per run — BASELINE.md).

Scale notes (100 TB):
- The loser map holds only phashes that HAVE a duplicate
  (≈ dup fraction × N). ``phash_dup_losers(mode="auto")`` switches the
  aggregation from an in-process pyarrow merge to a hash-partitioned
  task reduce above a footer-row threshold, and
  ``images_quality_pipeline(dedup_mode="join")`` replaces the loser map
  entirely with a hash-partitioned ``Dataset.join`` (see also
  ``pipelines.dedup.semi_join_filter``) — no driver-side dup state at
  any size.
- Image bytes never enter a shuffle; caption stages are Arrow
  zero-copy; models ship once per worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Min, Sum

from ..fixtures.images import seed_corpus
from ..stages.image_stages import DecodeImageStage
from ..stages.langid import LangIdScorer, train_langid_model
from ..stages.perplexity import PerplexityScorer, train_char_lm
from ..stages.rules import HeuristicRules, QualityConfig, finalize_decision
from ..stages.scrub import PiiScrubber

OUTPUT_COLS = [
    "image_id", "keep", "drop_reason", "caption_scrubbed",
    "lang_pred", "lang_score", "ppl", "pii_hits", "phash",
]


def _out_cols(cfg) -> list[str]:
    """Output schema; + align_score when the alignment rule is on."""
    if cfg is not None and cfg.align_threshold is not None:
        return OUTPUT_COLS + ["align_score"]
    return OUTPUT_COLS

# rows above which the dup aggregation stops merging in the calling
# process and uses the partitioned distributed reduce instead
# (mode="auto")
DUP_SHUFFLE_THRESHOLD_ROWS = 1_000_000

# fan-out of the partitioned dup reduce: stage-A tasks each split their
# combiner rows into this many hash partitions; stage-B runs one merge
# task per partition
DUP_PARTITIONS = 32

DUP_LOSER_MODES = ("auto", "driver", "partitioned")
DEDUP_MODES = ("staged", "single", "join")


def _ray_cpus() -> int:
    """CPUs of the current Ray cluster (NOT os.cpu_count(), which
    ignores ray.init(num_cpus=...))."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        import os
        return os.cpu_count() or 8


def build_models(seed: int = 42) -> tuple[dict, dict]:
    """Deterministic langid + perplexity models from the seeded corpus
    (the 'model artifacts' a worker would otherwise load from disk)."""
    texts, labels = seed_corpus(seed=seed)
    langid = train_langid_model(texts, labels)
    ppl = train_char_lm(texts)
    return langid, ppl


class _DupCombiner:
    """Per-batch pre-aggregation for dedup: one (key, winner, cnt) row
    per distinct key per batch — the combiner that defuses hot keys.
    The count is of the KEY, so null keys never count as duplicates."""

    def __init__(self, key_col: str = "phash", id_col: str = "image_id"):
        self.key_col, self.id_col = key_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = batch.group_by(self.key_col).aggregate(
            [(self.id_col, "min"), (self.key_col, "count")]
        )
        return g.rename_columns([self.key_col, "winner", "cnt"])


def _dup_combined(proj_ds: "rd.Dataset", key_col: str = "phash",
                  id_col: str = "image_id") -> "rd.Dataset":
    return proj_ds.map_batches(
        _DupCombiner(key_col, id_col), batch_format="pyarrow",
        batch_size=65536, zero_copy_batch=True,
    )


def dup_groups_dataset(proj_ds: "rd.Dataset") -> "rd.Dataset":
    """(phash, winner) for every phash with count > 1, as a DATASET —
    the fully distributed dup decision (feeds the join-based marking;
    only (phash, winner, cnt) combiner rows ever shuffle)."""
    agg = _dup_combined(proj_ds).repartition(64).groupby("phash").aggregate(
        Min("winner", alias_name="winner"),
        Sum("cnt", alias_name="cnt"),
    )
    return agg.filter(expr="cnt > 1").select_columns(["phash", "winner"])


def _dup_partition_ids(ph_arr: "pa.ChunkedArray | pa.Array",
                       P: int) -> np.ndarray:
    """Hash partition id per row from the int64 phash (Fibonacci mix
    before the mod so non-uniform low bits can't skew partitions)."""
    ph = ph_arr.to_numpy(zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        mixed = ph * np.uint64(0x9E3779B97F4A7C15)
    return (mixed % np.uint64(P)).astype(np.int64)


@ray.remote
def _dup_count_split_task(P: int, key_col: str,
                          *tables: pa.Table) -> list[pa.Table]:
    """Round 1, stage A of the partitioned dup reduce: ship ONLY the
    int columns (phash, cnt) — ~94 % of keys are global singletons, so
    exchanging the winner STRING for every key was over half the bytes
    and made the local group_by aggregate strings. Partitioning is one
    argsort + one take + P zero-copy slices (P filter passes over the
    table was the other measured cost).

    Accepts either combiner outputs (key, winner, cnt) or RAW blocks
    (any table containing key_col): raw blocks are counted inline, so
    a caller holding already-materialized blocks needs NO extra Dataset
    pass (a per-block combiner pass over B blocks costs B task
    launches; this folds it into the B/8 split tasks that run anyway)."""
    norm = []
    for x in tables:
        if "cnt" in x.column_names:
            norm.append(x.select([key_col, "cnt"]))
        else:
            g = x.select([key_col]).group_by(key_col).aggregate(
                [(key_col, "count")])
            norm.append(g.rename_columns([key_col, "cnt"]))
    t = pa.concat_tables(norm)
    if t.num_rows == 0:
        return [t] * P
    g = t.group_by(key_col).aggregate([("cnt", "sum")])
    t = g.rename_columns([key_col, "cnt"])
    part = _dup_partition_ids(t[key_col], P)
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    return [t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            for i in range(P)]


@ray.remote
def _dup_count_merge_task(key_col: str, *parts: pa.Table) -> np.ndarray:
    """Round 1, stage B: one partition's global counts → the partition's
    DUP KEYS ONLY (int64 array, O(dups))."""
    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    g = t.group_by(key_col).aggregate([("cnt", "sum")])
    g = g.filter(pc.greater(g["cnt_sum"], 1))
    return g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)


@ray.remote
def _dup_winner_task(keys_ref, key_col: str, id_col: str,
                     *tables: pa.Table) -> pa.Table:
    """Round 2: filter a group of combiner (or raw) blocks to the
    broadcast dup keys (sorted searchsorted membership) and return
    their per-task min-winner (key, winner) rows — O(duplicate keys),
    the only strings that move."""
    keys = ray.get(keys_ref) if hasattr(keys_ref, "hex") else keys_ref
    out = []
    for t in tables:
        if t.num_rows == 0 or len(keys) == 0:
            continue
        wcol = "winner" if "winner" in t.column_names else id_col
        ph = t[key_col].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(keys, ph), 0, len(keys) - 1)
        mask = keys[idx] == ph
        if mask.any():
            f = t.select([key_col, wcol]).filter(pa.array(mask))
            out.append(f.rename_columns([key_col, "winner"]))
    if not out:
        return pa.table({key_col: pa.array([], type=pa.int64()),
                         "winner": pa.array([], type=pa.string())})
    t = pa.concat_tables(out)
    # per-task min: bounds the merge's input to O(dup keys) per task
    # even when raw blocks carry every duplicate ROW (hot-key clusters)
    g = t.group_by(key_col).aggregate([("winner", "min")])
    return g.rename_columns([key_col, "winner"])


def _empty_lookup() -> tuple:
    return (np.empty(0, dtype=np.int64), pa.array([], type=pa.string()))


def _winner_merge_local(t: pa.Table, key_col: str,
                        winner_col: str = "winner") -> tuple:
    """(key, winner) rows → the VECTOR loser map: (sorted int64 keys,
    aligned Arrow winner strings). This tuple is the canonical dup-map
    format end to end — it pickles near-zero-copy (numpy + Arrow
    buffers), unlike the 100k+-entry Python dict it replaced, whose
    build/pickle/unpickle/re-vectorize round-trip was ~0.7 s of
    width-independent serial time per job (BASELINE.md F term)."""
    if t.num_rows == 0:
        return _empty_lookup()
    g = t.group_by(key_col).aggregate([(winner_col, "min")])
    keys = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(keys)
    winners = g[f"{winner_col}_min"].combine_chunks() \
        .take(pa.array(order))
    return keys[order], winners


@ray.remote
def _dup_winner_merge(key_col: str, *parts: pa.Table) -> tuple:
    return _winner_merge_local(pa.concat_tables(parts), key_col)


def dup_losers_from_refs(refs: list, key_col: str = "phash",
                         id_col: str = "image_id",
                         P: int = DUP_PARTITIONS) -> tuple:
    """The distributed dup decision: a two-ROUND hash-partitioned reduce
    over raw Ray tasks fed DIRECTLY by block ObjectRefs — no Ray Data
    plan at all (``Dataset.groupby`` benchmarked ~3× slower than even a
    single-threaded driver merge on this all-to-all of tiny rows — a
    manual exchange of pre-combined (key, winner, cnt) tables is the
    documented exception to Dataset-first). ``phash_dup_losers``'s
    "partitioned" mode feeds it combiner blocks; raw (key, id) blocks
    work too, combined inside the ~B/8 split tasks instead of a B-task
    Dataset combiner pass.

    Round 1 exchanges int-only (key, cnt) to find the global dup keys;
    round 2 broadcasts those keys (O(dups)) and pulls just their
    (key, winner) rows from the pinned blocks. The string column never
    rides the wide exchange (measured: the reduce fell from 12–14 s to
    ~3 s at 12.8 M rows / 32 CPUs). No driver-side state proportional
    to distinct keys; scales with CPUs at every stage. (P >= 2 always:
    with num_returns=1 Ray would hand the merge task the whole returned
    LIST instead of unpacking it per partition.)

    Identical output to phash_dup_losers (pinned by
    test_dup_loser_modes_identical)."""
    P = max(2, P)
    if not refs:
        return _empty_lookup()
    # group size adapts to cluster width: a fixed group of 8 left only
    # len(refs)/8 split tasks — an 8-way ceiling on a 32-CPU leg that
    # turned the whole round-1 exchange into width-independent overhead
    # (~5.6 s of the staged pre-chain at 25.6 M rows). Keep at least
    # 2 tasks/CPU for work-stealing balance; cap at 8 so narrow
    # clusters still get cross-block re-combining before the exchange.
    group = max(1, min(8, len(refs) // (2 * _ray_cpus())))
    split_outs = []
    for i in range(0, len(refs), group):
        split_outs.append(
            _dup_count_split_task.options(num_returns=P).remote(
                P, key_col, *refs[i : i + group]))
    key_parts = ray.get([
        _dup_count_merge_task.remote(key_col, *[s[p] for s in split_outs])
        for p in range(P)
    ])
    dup_keys = np.sort(np.concatenate(key_parts)) if key_parts else \
        np.empty(0, dtype=np.int64)
    if len(dup_keys) == 0:
        return _empty_lookup()
    keys_ref = ray.put(dup_keys)
    winner_parts = [
        _dup_winner_task.remote(keys_ref, key_col, id_col,
                                *refs[i : i + group])
        for i in range(0, len(refs), group)
    ]
    # overlap: the winner tasks run while the merge task waits on them
    return ray.get(_dup_winner_merge.remote(key_col, *winner_parts))


def _executed_block_refs(ds: "rd.Dataset") -> list:
    """Shared with the dedup exchanges — see dedup._executed_block_refs
    (avoids to_arrow_refs's ~0.7 s limit-1 schema re-execution)."""
    from .dedup import _executed_block_refs as impl

    return impl(ds)


def phash_dup_losers(source, key_col: str = "phash",
                     id_col: str = "image_id", mode: str = "auto") -> tuple:
    """The dup-loser map — (sorted int64 keys, aligned winner id Arrow
    strings) for every key with count > 1 (the vector form; see
    :func:`_winner_merge_local`) — over a parquet ``source`` (a file, a
    directory or a file list; a Lance dataset path in "partitioned"
    mode). Only the (key_col, id_col) columns are read, so image bytes
    never flow through this aggregation. Null keys are never dups.

    modes (any other raises ``ValueError``):
    - "auto": "driver" up to DUP_SHUFFLE_THRESHOLD_ROWS footer rows,
      else — and for inputs with no parquet file list (Lance) —
      "partitioned".
    - "driver": no Ray job. pyarrow reads the two columns in the calling
      process and one ``group_by`` resolves the map: O(#rows) memory
      for two columns, the fast path while they fit one machine
      (measured on 1 CPU against the three Ray executions it replaced:
      0.011 vs 0.24 s at 8,192 rows, 0.58 vs 1.35 s at 1 M rows).
    - "partitioned": a packed Ray read + per-batch combiner feeding the
      two-round hash-partitioned task reduce
      (:func:`dup_losers_from_refs`) — the 100 TB path; no driver state
      beyond the final dup-only map, scales with CPUs.

    For corpora where even the LOSER set outgrows a broadcast, use
    ``dup_groups_dataset`` + the join-based marking instead.
    """
    from ..sources.readers import read_table, table_rows

    if mode not in DUP_LOSER_MODES:
        raise ValueError(f"unknown dup-loser mode {mode!r}; "
                         f"expected one of {DUP_LOSER_MODES}")
    nrows, files = table_rows(source)
    if files == []:
        return _empty_lookup()
    if mode == "auto":
        mode = ("driver" if files is not None
                and nrows <= DUP_SHUFFLE_THRESHOLD_ROWS else "partitioned")
    if mode == "driver":
        if files is None:
            raise ValueError("dup-loser mode 'driver' reads parquet files; "
                             f"{source!r} has none")
        import pyarrow.parquet as pq

        t = pq.read_table(files, columns=[key_col, id_col])
        g = t.group_by(key_col).aggregate(
            [(id_col, "min"), (key_col, "count")])
        g = g.filter(pc.greater(g[f"{key_col}_count"], 1))
        return _winner_merge_local(g, key_col, f"{id_col}_min")
    # The read is PACKED into ~2 tasks/CPU: inputs written with small
    # bounded files (the fused-read layout) would otherwise spawn one
    # tiny per-file task whose open/footer overhead dominates a
    # two-column scan (measured 2.7 s packed vs 8.5 s per-file at 449
    # files / 3.2 M rows), but never more blocks than files
    # (oversplitting adds a SplitBlocks op).
    nb = max(2 * _ray_cpus(), 1)
    if files:
        nb = min(nb, len(files))
    proj = read_table(files or source, columns=[key_col, id_col],
                      override_num_blocks=nb)
    combined = _dup_combined(proj, key_col, id_col)
    return dup_losers_from_refs(_executed_block_refs(combined),
                                key_col, id_col)


def _mark_dup(batch: pa.Table, keys: np.ndarray,
              winners: "pa.Array") -> pa.Table:
    """rule_phash_dup = (phash in dup set) and (image_id != winner),
    fully vectorized: searchsorted on the int64 keys, then an ARROW
    take+not_equal over the candidate rows only — no Python-string
    round-trip of the whole id column (the old full ``to_pylist()``
    cost grew with the dup-row share: ~6 % of rows at the 25.6 M
    fixture means nearly every batch paid it)."""
    ph = batch["phash"].to_numpy(zero_copy_only=False)
    mask = np.zeros(len(batch), dtype=bool)
    if len(keys):
        idx = np.clip(np.searchsorted(keys, ph), 0, len(keys) - 1)
        cand = keys[idx] == ph
        if cand.any():
            rows = np.nonzero(cand)[0]
            ids = batch["image_id"].take(pa.array(rows))
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            w = winners.take(pa.array(idx[rows]))
            neq = pc.not_equal(ids, w)
            mask[rows] = neq.to_numpy(zero_copy_only=False)
    return batch.append_column("rule_phash_dup", pa.array(mask))


class QualityFusedStage:
    """The whole per-row model pipeline as ONE stage: rules → decode →
    (drop bytes) → langid → perplexity → scrub.

    All sub-stages are CPU-bound per-batch transforms with shared-
    nothing state, so fusing them eliminates inter-stage block handoffs
    — the kernels themselves are ~0.25 ms/row. Models are fetched from
    the object store ONCE per worker process (first call on a task
    worker, via the module cache below).
    """

    def __init__(self, cfg: QualityConfig, langid_ref, ppl_ref,
                 decode: bool = True):
        self.rules = HeuristicRules(cfg)
        self.decode = DecodeImageStage() if decode else None
        if cfg.align_threshold is not None:
            from ..stages.align import CaptionAlignStage
            self.align = CaptionAlignStage(threshold=cfg.align_threshold,
                                           caption_col=cfg.caption_col)
        else:
            self.align = None
        self.langid = LangIdScorer(langid_ref, min_score=cfg.langid_min_score)
        self.ppl = PerplexityScorer(ppl_ref, max_ppl=cfg.max_perplexity)
        self.scrub = PiiScrubber()
        self.min_px, self.max_aspect = cfg.min_image_px, cfg.max_aspect
        self.min_contrast = cfg.min_contrast

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.rules(batch)
        if self.decode is not None:
            out = self.decode(out)
        if (self.min_px is not None or self.max_aspect is not None) \
                and "dec_w" in out.column_names:
            # LAION-style size/aspect gate on the DECODED dims (both 0
            # for undecodable rows, which belong to decode_error)
            w = out["dec_w"].to_numpy(zero_copy_only=False).astype(np.int64)
            h = out["dec_h"].to_numpy(zero_copy_only=False).astype(np.int64)
            lo, hi = np.minimum(w, h), np.maximum(w, h)
            bad = np.zeros(len(w), dtype=bool)
            if self.min_px is not None:
                bad |= lo < self.min_px
            if self.max_aspect is not None:
                bad |= hi > self.max_aspect * lo
            out = out.append_column("rule_image_size",
                                    pa.array(bad & (lo > 0)))
        if self.min_contrast is not None \
                and "contrast" in out.column_names:
            # low-information gate on the decode stage's population-std
            # (near-solid images); decodable rows only — undecodable
            # ones have contrast 0 and belong to decode_error, which
            # precedes low_information in RULE_ORDER
            c = out["contrast"].to_numpy(zero_copy_only=False)
            dw = out["dec_w"].to_numpy(zero_copy_only=False)
            out = out.append_column(
                "rule_low_information",
                pa.array((c < self.min_contrast) & (dw > 0)))
        if self.align is not None:
            # needs the payload — runs before the bytes drop below;
            # rule fires only for DECODABLE rows below threshold
            # (undecodable rows are decode_error's, which precedes
            # misaligned in RULE_ORDER anyway)
            out = self.align(out)
            mis = pc.and_(pc.invert(out["keep_align"]),
                          pc.is_valid(out["align_score"]))
            out = out.drop_columns(["keep_align"])
            out = out.append_column("rule_misaligned", mis)
        # drop the image payload as soon as decode is done: labels flow
        # on without round-tripping megabytes per row through the object
        # store
        if "bytes" in out.column_names:
            out = out.drop_columns(["bytes"])
        out = self.langid(out)
        out = self.ppl(out)
        out = self.scrub(out)
        return out


# per-WORKER-PROCESS caches: Ray reuses worker processes across tasks,
# so state keyed by the objects' refs loads once per worker — actor
# `__init__` semantics without a fixed pool (see module docstring).
_STAGE_CACHE: dict = {}
_DUP_CACHE: dict = {}


def _fused_task_fn(batch: pa.Table, *, cfg, langid_ref, ppl_ref,
                   decode) -> pa.Table:
    key = (langid_ref.hex(), decode, cfg.align_threshold,
           cfg.min_image_px, cfg.max_aspect, cfg.min_contrast)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = QualityFusedStage(cfg, langid_ref, ppl_ref, decode=decode)
        _STAGE_CACHE[key] = stage
        if len(_STAGE_CACHE) > 8:          # old model generations
            for k in list(_STAGE_CACHE)[:-4]:
                del _STAGE_CACHE[k]
    return stage(batch)


def _mark_finalize_task_fn(batch: pa.Table, *, dup_ref,
                           select_cols=None) -> pa.Table:
    if dup_ref is None:
        out = finalize_decision(batch)
    else:
        key = dup_ref.hex()
        lookup = _DUP_CACHE.get(key)
        if lookup is None:
            lookup = ray.get(dup_ref)
            _DUP_CACHE.clear()
            _DUP_CACHE[key] = lookup
        out = finalize_decision(_mark_dup(batch, *lookup))
    # column selection folded in: a trailing select_columns would be
    # another operator, and every operator dilutes the fused op's share
    # under the executor's per-op resource reservation. A read with
    # include_paths=True keeps its ``path`` column (the CLI's in-task
    # shard write routes rows by it).
    if not select_cols:
        return out
    if "path" in out.column_names:
        select_cols = select_cols + ["path"]
    return out.select(select_cols)


def _mark_finalize_join(out: "rd.Dataset", dup_ds: "rd.Dataset",
                        num_partitions: int | None = None) -> "rd.Dataset":
    """Join-based dup marking: left-join the label stream (bytes already
    dropped) against the (phash, winner) dup dataset — zero driver-side
    dup state; the at-10^12-images path."""
    if num_partitions is None:
        # join aggregators are actors: more partitions than CPUs
        # deadlocks a small cluster, and a 4096-partition join of a
        # small dup table is pure overhead anyway
        num_partitions = max(2, min(64, _ray_cpus()))
    # repartition the dup side first: the hash-shuffle aggregator can
    # emit empty schema-less blocks that pyarrow's join rejects
    dup_side = dup_ds.rename_columns({"winner": "__winner"}).repartition(
        num_partitions)
    joined = out.join(dup_side, join_type="left_outer",
                      num_partitions=num_partitions, on=("phash",))

    def mark(t: pa.Table) -> pa.Table:
        isdup = pc.and_kleene(
            pc.is_valid(t["__winner"]),
            pc.not_equal(t["image_id"], t["__winner"]))
        t = t.append_column("rule_phash_dup",
                            isdup.combine_chunks() if isinstance(
                                isdup, pa.ChunkedArray) else isdup)
        t = t.drop_columns(["__winner"])
        return finalize_decision(t)

    return joined.map_batches(mark, batch_format="pyarrow", batch_size=65536)


def _fused(ds: "rd.Dataset", cfg: QualityConfig, langid_model, ppl_model,
           decode: bool) -> "rd.Dataset":
    """The fused per-row model stage over ``ds``, whole-block batches;
    the models ship once through the object store (default: the seeded
    :func:`build_models`)."""
    if langid_model is None or ppl_model is None:
        lm, pm = build_models()
        langid_model = langid_model or lm
        ppl_model = ppl_model or pm
    return ds.map_batches(
        _fused_task_fn,
        fn_kwargs={"cfg": cfg, "langid_ref": ray.put(langid_model),
                   "ppl_ref": ray.put(ppl_model), "decode": decode},
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def _mark_finalize(ds: "rd.Dataset", dup_map: tuple | None,
                   cfg: QualityConfig, select_output: bool) -> "rd.Dataset":
    """Mark dups against the resolved loser map (None: no dedup) and
    finalize, whole-block batches. Same remote args as :func:`_fused`,
    so Ray fuses the two into one operator."""
    return ds.map_batches(
        _mark_finalize_task_fn,
        fn_kwargs={"dup_ref": None if dup_map is None else ray.put(dup_map),
                   "select_cols": _out_cols(cfg) if select_output else None},
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def quality_pipeline(
    ds: "rd.Dataset",
    dup_map: tuple | None,
    cfg: QualityConfig | None = None,
    langid_model: dict | None = None,
    ppl_model: dict | None = None,
    decode: bool = True,
    select_output: bool = True,
    dup_ds: "rd.Dataset | None" = None,
) -> "rd.Dataset":
    """Assemble the flagship pipeline over an input Dataset.

    Dups are marked against ``dup_map`` (the loser map from
    :func:`phash_dup_losers`) or by joining ``dup_ds`` ((phash, winner)
    Dataset from :func:`dup_groups_dataset`); both None disables dedup
    marking.
    """
    cfg = cfg or QualityConfig()
    out = _fused(ds, cfg, langid_model, ppl_model, decode)
    if dup_ds is None:
        return _mark_finalize(out, dup_map, cfg, select_output)
    out = _mark_finalize_join(out, dup_ds)
    return out.select_columns(_out_cols(cfg)) if select_output else out


def _single_read_pipeline(
    ds: "rd.Dataset", cfg: QualityConfig, decode: bool,
    langid_model: dict | None = None, ppl_model: dict | None = None,
    select_output: bool = True, spill_dir: str | None = None,
) -> "rd.Dataset":
    """ONE pass over the raw input: read → kernels fused into a single
    operator producing the compact label rows (~190 B/row — the image
    payload never leaves the read task), streamed STRAIGHT TO PARQUET
    (``spill_dir``, one file per label block); the dup pre-pass then
    runs over a pruned 2-column read of the label shards (no second
    scan of the raw table — at 100 TB the pruned pre-pass read is the
    expensive part); finally a cheap mark+finalize pass over the label
    shards. Output is row-identical to the staged mode (same
    combiner/decision, pinned by ``test_single_mode_matches_staged``).

    Spilling the labels to parquet instead of ``materialize()`` removes
    the old "labels must fit the object store" caveat: the write
    streams with backpressure, nothing pins plasma across the dup
    decision, and the label shards double as a resume point (re-running
    the dup/mark phase never re-reads the raw table). ``spill_dir``
    defaults to a fresh temp dir; pass a durable path to keep the label
    shards as the checkpoint artifact."""
    import tempfile

    from ..sources.readers import parquet_files, read_parquet_fast

    if spill_dir is None:
        spill_dir = tempfile.mkdtemp(prefix="dq_single_labels_")
    _fused(ds, cfg, langid_model, ppl_model, decode).write_parquet(spill_dir)
    files = parquet_files(spill_dir)
    dup_map = phash_dup_losers(files, cfg.dedup_key, cfg.id_col)
    labels = read_parquet_fast(files, override_num_blocks=len(files))
    return _mark_finalize(labels, dup_map, cfg, select_output)


def images_quality_pipeline(
    input_path: str,
    cfg: QualityConfig | None = None,
    decode: bool = True,
    dedup_mode: str = "staged",
    **kw,
) -> "rd.Dataset":
    """End-to-end over a parquet images table.

    dedup_mode (any other value raises ``ValueError``):
    - "staged" (default): the dup pre-pass runs FIRST (it scans only
      (phash, image_id); see :func:`phash_dup_losers`); the main pass then gets
      the resolved loser map and Ray fuses read → kernels →
      mark(+select) into ONE operator at full parallelism. A single-op
      plan sidesteps the streaming executor's per-operator resource
      reservation, which caps a producer op at ~2/3 of the cluster
      whenever a downstream operator exists (measured 21.6 vs 29 busy
      CPUs of 32; see BASELINE.md).
    - "single": ONE scan of the raw table — kernels run fused with the
      read, compact labels stream straight to parquet shards, and the
      dup decision + marking run over the shards (no pruned pre-pass
      read of the raw table at all). The best mode when reading the
      input twice is expensive (remote storage / 100 TB) and when
      label rows ≪ input bytes. No object-store footprint: the label
      write backpressures, and the shards double as a resume point.
    - "join": fully distributed — the dup decision stays a Dataset and
      marking is a hash-partitioned left join (no driver dup state).

    Read strategy: ``override_num_blocks`` = the FILE COUNT. Ray's
    default asks for at least ``read_op_min_num_blocks`` (200) blocks,
    so below 200 files it plans ``ReadParquet->SplitBlocks(k)``, and
    Ray never fuses a split read with the maps after it: the encoded
    image bytes then cross the object store and the kernels run as a
    second operator on 1/k-file batches (measured 2.1 s vs 0.83 s for
    8 files / 8,192 rows on 1 CPU). One block per file keeps the read
    fusable; only a count ABOVE the file count inserts SplitBlocks.
    Fused, the encoded image bytes NEVER enter the object store: each
    read task decodes parquet and runs rules/decode/langid/ppl/scrub in
    place, emitting only the small label columns. Task granularity is
    per-FILE, so inputs should be written with bounded file sizes (the
    fixture writes 8k-row files); ``target_max_block_size`` is capped
    so Ray size-splits a large file's output inside its read task,
    bounding per-task transient memory. Lance inputs (no file count)
    keep Ray's default. Every read — main, pre-pass, single mode's
    label re-read — takes the ``.parquet`` file list the footer probe
    walked, so a stray non-parquet file in the input directory is
    skipped, not read."""
    if dedup_mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup_mode {dedup_mode!r}; "
                         f"expected one of {DEDUP_MODES}")
    cfg = cfg or QualityConfig()
    # cap block size so a fused read task's in-flight decode buffers
    # stay bounded even on inputs with huge row groups; 32 MiB of
    # encoded rows ≈ 13k images. Set on the context (execution is lazy
    # and reads the context at execution time, so set-and-leave).
    ctx = rd.DataContext.get_current()
    ctx.target_max_block_size = min(
        ctx.target_max_block_size or (128 << 20), 32 << 20)
    from ..sources.readers import read_table, table_rows

    # The staged plan fuses to ONE operator, so the streaming
    # executor's per-op resource reservation buys nothing — yet it
    # still withholds slots (measured 25.7 → 22.3 s at 25.6 M rows /
    # 32 CPUs with it disabled; steady busy 26.5 → 29+). The
    # DataContext is SNAPSHOTTED when the source Dataset is created, so
    # the flag is scoped to this plan: disabled before read_table,
    # restored right after the plan is assembled. The multi-op modes
    # (single's write + re-read, join's shuffle actors) keep the
    # reservation — it is load-bearing against starvation there.
    staged = dedup_mode == "staged"
    prev_reservation = ctx.op_resource_reservation_enabled
    if staged:
        ctx.op_resource_reservation_enabled = False
    try:
        # the probe also seeds the footer cache the reads plan from
        _, files = table_rows(input_path)
        src = files or input_path          # lance: no file list
        # one block per file: the per-file read task then fuses with the
        # kernel chain (lance keeps Ray's default)
        ds = read_table(src, override_num_blocks=len(files) if files
                        else None)
        if dedup_mode == "single":
            return _single_read_pipeline(ds, cfg, decode, **kw)
        if dedup_mode == "join":
            proj = read_table(src, columns=[cfg.dedup_key, cfg.id_col])
            return quality_pipeline(ds, None, cfg, decode=decode,
                                    dup_ds=dup_groups_dataset(proj), **kw)
        dup_map = phash_dup_losers(src, cfg.dedup_key, cfg.id_col)
        return quality_pipeline(ds, dup_map, cfg, decode=decode, **kw)
    finally:
        if staged:
            ctx.op_resource_reservation_enabled = prev_reservation


def pipeline_metrics(executed_ds: "rd.Dataset") -> dict:
    """Per-stage throughput metrics from Ray Data's own stats (north
    rule: 'per-stage throughput metrics'). Call AFTER consuming the
    dataset; returns {operator: {wall_s, cpu_s, rows_out}}."""
    import re

    stats = executed_ds.stats()
    out: dict[str, dict] = {}
    mult = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

    def total(block, label):
        m = re.search(label + r": .*?, ([0-9.]+)(ms|s|us) total", block)
        return float(m.group(1)) * mult[m.group(2)] if m else None

    for block in stats.split("Operator ")[1:]:
        header = block.split("\n", 1)[0]
        name = header.split(":", 1)[0].strip()
        m_rows = re.search(r"Output num rows per block: .*?, ([0-9]+) total",
                           block)
        out[name] = {
            "wall_s": total(block, "Remote wall time"),
            "cpu_s": total(block, "Remote cpu time"),
            "rows_out": int(m_rows.group(1)) if m_rows else None,
        }
    return out


def lineage_summary(out_ds: "rd.Dataset") -> pa.Table:
    """Per-rule drop counts + keep count (the A9-style rollup).

    Each block reduces to ≤ |rules|+1 (reason, count) rows inside
    ``map_batches`` (the same per-batch counters the mark stage's
    manifests use), then a streaming driver merge sums the tiny
    partials — no groupby sort-exchange over the full label dataset
    for a ≤ 20-row result."""

    def per_block(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(pc.fill_null(t["drop_reason"], "\x00KEEP")
                             .combine_chunks())
        return pa.table({"drop_reason": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    counts: dict = {}
    partials = out_ds.select_columns(["drop_reason"]).map_batches(
        per_block, batch_format="pyarrow")
    for b in partials.iter_batches(batch_format="pyarrow"):
        for v, n in zip(b["drop_reason"].to_pylist(), b["n"].to_pylist()):
            counts[v] = counts.get(v, 0) + n
    reasons = [None if k == "\x00KEEP" else k for k in counts]
    return pa.table({"drop_reason": pa.array(reasons, type=pa.string()),
                     "n": pa.array(list(counts.values()), type=pa.int64())})
