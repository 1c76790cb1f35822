"""Flagship pipeline: language-ID + quality-filter + PII/toxicity-scrub
over image+caption tables (BASELINE.json north rule).

Stage graph (all lazy, streaming, backpressured; Ray fuses it into ONE
operator, one task per work unit of ~total rows / (2 × CPUs) rows):

    read units (row groups, from footers)       source tasks
      → QualityFusedStage                       rules → decode → drop bytes
                                                → langid → perplexity → scrub
                                                (tasks w/ per-worker model
                                                cache)
      → mark dup + finalize_decision            resolved loser map

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
  task reduce above a footer-row threshold; only the final dup-only map
  is broadcast to the mark step.
- Image bytes never enter a shuffle; caption stages are Arrow
  zero-copy; models ship once per worker.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..fixtures.images import seed_corpus
from ..stages.image_stages import DecodeImageStage
from ..stages.langid import LangIdScorer, train_langid_model
from ..stages.perplexity import PerplexityScorer, train_char_lm
from ..stages.rules import HeuristicRules, QualityConfig, finalize_decision
from ..stages.scrub import PiiScrubber
from .exchange import (
    block_refs, cluster_cpus, group_size, partitions, split_refs)


def _out_cols(cfg: QualityConfig) -> list[str]:
    """Output schema, the id and dedup-key columns named by ``cfg``;
    + align_score when the alignment rule is on."""
    cols = [cfg.id_col, "keep", "drop_reason", "caption_scrubbed",
            "lang_pred", "lang_score", "ppl", "pii_hits", cfg.dedup_key]
    if cfg.align_threshold is not None:
        cols.append("align_score")
    return cols


# rows above which the dup aggregation stops merging in the calling
# process and uses the partitioned distributed reduce instead
# (mode="auto")
DUP_SHUFFLE_THRESHOLD_ROWS = 1_000_000

DUP_LOSER_MODES = ("auto", "driver", "partitioned")
DEDUP_MODES = ("staged",)


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


def _int_keys(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """The int64 key column as numpy, nulls filled with 0 (callers mask
    them out): ``to_numpy`` of a column holding a null returns float64,
    where distinct keys above 2**53 collide."""
    if col.null_count:
        col = pc.fill_null(col, 0)
    return col.to_numpy(zero_copy_only=False)


def _dup_key_hits(col: "pa.ChunkedArray | pa.Array",
                  keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, hit) per row: the row key's position in the sorted,
    non-empty dup ``keys`` and whether it is one. Null keys never hit."""
    ph = _int_keys(col)
    idx = np.clip(np.searchsorted(keys, ph), 0, len(keys) - 1)
    hit = keys[idx] == ph
    if col.null_count:
        hit &= pc.is_valid(col).to_numpy(zero_copy_only=False)
    return idx, hit


def _dup_counts(key_col: str, *tables: pa.Table) -> pa.Table:
    """Round 1, stage A of the partitioned dup reduce, run inside the
    exchange's split task: ship ONLY the int columns (phash, cnt) —
    ~94 % of keys are global singletons, so exchanging the winner
    STRING for every key was over half the bytes and made the local
    group_by aggregate strings.

    Accepts either combiner outputs (key, winner, cnt) or RAW blocks
    (any table containing key_col): raw blocks are counted inline, so
    a caller holding already-materialized blocks needs NO extra Dataset
    pass (a per-block combiner pass over B blocks costs B task
    launches; this folds it into the split tasks that run anyway)."""
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
        return t
    g = t.group_by(key_col).aggregate([("cnt", "sum")])
    return g.rename_columns([key_col, "cnt"])


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
        _, mask = _dup_key_hits(t[key_col], keys)
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
                         id_col: str = "image_id") -> tuple:
    """The distributed dup decision: a two-ROUND hash-partitioned reduce
    over raw Ray tasks fed DIRECTLY by block ObjectRefs — no Ray Data
    plan at all (``Dataset.groupby`` benchmarked ~3× slower than even a
    single-threaded driver merge on this all-to-all of tiny rows — a
    manual exchange of pre-combined (key, winner, cnt) tables is the
    documented exception to Dataset-first). ``phash_dup_losers``'s
    "partitioned" mode feeds it combiner blocks; raw (key, id) blocks
    work too, combined inside the exchange's split tasks instead of a
    B-task Dataset combiner pass.

    Round 1 exchanges int-only (key, cnt) to find the global dup keys;
    round 2 broadcasts those keys (O(dups)) and pulls just their
    (key, winner) rows from the pinned blocks. The string column never
    rides the wide exchange (measured: the reduce fell from 12–14 s to
    ~3 s at 12.8 M rows / 32 CPUs). No driver-side state proportional
    to distinct keys; scales with CPUs at every stage. The partition
    count, the partition function and the split fan-out are the shared
    exchange's (``exchange.partitions``, ``partition_ids``,
    ``split_refs``). A fixed P=32 was slower than that rule on the
    combiner blocks of 4 M rows with 6 % dups (median of 3 alternated
    processes, identical maps): 3.25 vs 2.96 s at 1 CPU (P=2), 1.22 vs
    1.09 s at 4 CPUs (P=4).

    Identical output to phash_dup_losers (pinned by
    test_dup_loser_modes_identical)."""
    if not refs:
        return _empty_lookup()
    P = partitions(len(refs))
    splits = split_refs(refs, key_col, P, partial(_dup_counts, key_col))
    key_parts = ray.get([
        _dup_count_merge_task.remote(key_col, *[s[p] for s in splits])
        for p in range(P)
    ])
    dup_keys = np.sort(np.concatenate(key_parts)) if key_parts else \
        np.empty(0, dtype=np.int64)
    if len(dup_keys) == 0:
        return _empty_lookup()
    keys_ref = ray.put(dup_keys)
    group = group_size(len(refs))     # the split tasks' block groups
    winner_parts = [
        _dup_winner_task.remote(keys_ref, key_col, id_col,
                                *refs[i : i + group])
        for i in range(0, len(refs), group)
    ]
    # overlap: the winner tasks run while the merge task waits on them
    return ray.get(_dup_winner_merge.remote(key_col, *winner_parts))


def dup_losers_from_table(t: pa.Table, key_col: str = "phash",
                          id_col: str = "image_id") -> tuple:
    """The dup-loser map of an in-memory table holding ``key_col`` and
    ``id_col``: one ``group_by`` in the calling process (null keys are
    never dups)."""
    g = t.group_by(key_col).aggregate([(id_col, "min"), (key_col, "count")])
    g = g.filter(pc.greater(g[f"{key_col}_count"], 1))
    return _winner_merge_local(g, key_col, f"{id_col}_min")


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
      process and :func:`dup_losers_from_table` resolves the map:
      O(#rows) memory for two columns, the fast path while they fit one
      machine (measured on 1 CPU against the three Ray executions it
      replaced: 0.011 vs 0.24 s at 8,192 rows, 0.58 vs 1.35 s at 1 M
      rows).
    - "partitioned": a packed Ray read + per-batch combiner feeding the
      two-round hash-partitioned task reduce
      (:func:`dup_losers_from_refs`) — the 100 TB path; no driver state
      beyond the final dup-only map, scales with CPUs.

    Where each wins (4-CPU / 15 GiB host, median of 3-5 runs, identical
    maps), driver vs partitioned: at 1 CPU 1.07 vs 2.67 s at 2 M rows,
    2.11 vs 4.34 s at 4 M, 4.68 vs 7.97 s at 8 M; at 4 CPUs 1.13 vs
    1.41, 2.43 vs 2.62, 5.35 vs 4.53 s. The driver merge also adds
    ~1.5 GB RSS at 8 M rows, so the threshold sits below the 4-CPU
    crossover. The same reduce over ``dedup.exact_dup_groups`` was
    4-43 % slower than "partitioned" (6.47 vs 4.53 s at 8 M rows / 4
    CPUs): the int-only first round is what makes it fast.
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

        return dup_losers_from_table(
            pq.read_table(files, columns=[key_col, id_col]), key_col, id_col)
    # The read is PACKED into ~2 tasks/CPU: inputs written with small
    # bounded files (the fused-read layout) would otherwise spawn one
    # tiny per-file task whose open/footer overhead dominates a
    # two-column scan (measured 2.7 s packed vs 8.5 s per-file at 449
    # files / 3.2 M rows), but never more blocks than files
    # (oversplitting adds a SplitBlocks op).
    nb = max(2 * cluster_cpus(), 1)
    if files:
        nb = min(nb, len(files))
    combined = read_table(
        files or source, columns=[key_col, id_col], override_num_blocks=nb,
    ).map_batches(_DupCombiner(key_col, id_col), batch_format="pyarrow",
                  batch_size=65536, zero_copy_batch=True)
    return dup_losers_from_refs(block_refs(combined), key_col, id_col)


def _mark_dup(batch: pa.Table, keys: np.ndarray, winners: "pa.Array",
              key_col: str = "phash", id_col: str = "image_id") -> pa.Table:
    """rule_phash_dup = (key in dup set) and (id != winner), fully
    vectorized: searchsorted on the int64 keys, then an ARROW
    take+not_equal over the candidate rows only — no Python-string
    round-trip of the whole id column (the old full ``to_pylist()``
    cost grew with the dup-row share: ~6 % of rows at the 25.6 M
    fixture means nearly every batch paid it)."""
    mask = np.zeros(len(batch), dtype=bool)
    if len(keys):
        idx, cand = _dup_key_hits(batch[key_col], keys)
        if cand.any():
            rows = np.nonzero(cand)[0]
            ids = batch[id_col].take(pa.array(rows))
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
    worker, via the module cache below). A text-only table (no image
    payload column) skips the decode and the gates on its columns.
    """

    def __init__(self, cfg: QualityConfig, langid_ref, ppl_ref):
        self.rules = HeuristicRules(cfg)
        self.decode = DecodeImageStage()
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
        if self.decode.bytes_col in out.column_names:
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


def _fused_task_fn(batch: pa.Table, *, cfg, langid_ref, ppl_ref) -> pa.Table:
    key = (langid_ref.hex(), cfg.align_threshold,
           cfg.min_image_px, cfg.max_aspect, cfg.min_contrast)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = QualityFusedStage(cfg, langid_ref, ppl_ref)
        _STAGE_CACHE[key] = stage
        if len(_STAGE_CACHE) > 8:          # old model generations
            for k in list(_STAGE_CACHE)[:-4]:
                del _STAGE_CACHE[k]
    return stage(batch)


def _mark_finalize_task_fn(batch: pa.Table, *, dup_ref, cfg) -> pa.Table:
    key = dup_ref.hex()
    lookup = _DUP_CACHE.get(key)
    if lookup is None:
        lookup = ray.get(dup_ref)
        _DUP_CACHE.clear()
        _DUP_CACHE[key] = lookup
    out = finalize_decision(
        _mark_dup(batch, *lookup, cfg.dedup_key, cfg.id_col))
    # column selection folded in: a trailing select_columns would be
    # another operator, and every operator dilutes the fused op's share
    # under the executor's per-op resource reservation. A read's
    # ``path`` column is kept (the CLI's in-task shard write routes rows
    # by it).
    cols = _out_cols(cfg)
    if "path" in out.column_names:
        cols.append("path")
    return out.select(cols)


def quality_pipeline(
    ds: "rd.Dataset",
    dup_map: tuple,
    cfg: QualityConfig | None = None,
    langid_model: dict | None = None,
    ppl_model: dict | None = None,
) -> "rd.Dataset":
    """Assemble the flagship pipeline over an input Dataset: the fused
    per-row model stage, then dup marking against ``dup_map`` (the loser
    map from :func:`phash_dup_losers` or :func:`dup_losers_from_table`)
    and the keep/drop decision, both as whole-block batches. The two
    steps share their remote args, so Ray fuses them with the read into
    one operator. The models ship once through the object store
    (default: the seeded :func:`build_models`)."""
    cfg = cfg or QualityConfig()
    if langid_model is None or ppl_model is None:
        lm, pm = build_models()
        langid_model = langid_model or lm
        ppl_model = ppl_model or pm
    out = ds.map_batches(
        _fused_task_fn,
        fn_kwargs={"cfg": cfg, "langid_ref": ray.put(langid_model),
                   "ppl_ref": ray.put(ppl_model)},
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    return out.map_batches(
        _mark_finalize_task_fn,
        fn_kwargs={"dup_ref": ray.put(dup_map), "cfg": cfg},
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def images_quality_pipeline(
    input_path: str,
    cfg: QualityConfig | None = None,
    dedup_mode: str = "staged",
    langid_model: dict | None = None,
    ppl_model: dict | None = None,
    pending: list[str] | None = None,
) -> "rd.Dataset":
    """End-to-end over a parquet images table: the dup pre-pass runs
    FIRST (it scans only (phash, image_id); see
    :func:`phash_dup_losers`), then the main pass gets the resolved
    loser map and Ray fuses read → kernels → mark(+select) into ONE
    operator. ``dedup_mode`` must be "staged", this plan (any other
    value raises ``ValueError``).

    This plan was the fastest in every regime measured against the two
    it replaced (4-CPU host, 512 MiB object store, dqbench image input,
    identical output frames). One raw scan with the labels spilled to
    parquet: 0.90 s vs this plan's 0.58 s at 8,192 rows / 1 CPU, 2.63 vs
    1.45 s at 65,536 rows / 4 CPUs. Marking by a hash-partitioned join:
    6.36 vs 0.25 s at 8,192 rows / 4 CPUs, and no finish at 1 CPU.

    A parquet input is read in work units planned from its footers
    (:func:`~..sources.readers.read_parquet_units`): about two per CPU,
    large files split at row-group boundaries and small files packed
    together, so neither the file count nor one large file sets the
    task count. Both reads take the ``.parquet`` file list the footer
    probe walked, so a stray non-parquet file in the input directory is
    skipped, not read. A Lance input keeps Ray's reader.

    ``pending`` (a subset of the input's files) makes the plan read only
    those files and adds a ``path`` column naming each row's file, while
    the dup map still covers every file of ``input_path``: the quality
    CLI's resumable run (``state.checkpoint.run_resumable``) routes rows
    to their shards by it."""
    if dedup_mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup_mode {dedup_mode!r}; "
                         f"expected one of {DEDUP_MODES}")
    cfg = cfg or QualityConfig()
    from ..sources.readers import read_parquet_units, read_table, table_rows

    # Two context settings scoped to this plan. Ray snapshots the
    # DataContext when the read Dataset is created, so they are set
    # before the read and restored once the plan is assembled:
    # - a 32 MiB block-size cap: Ray's output buffer concatenates a
    #   unit's pieces into blocks up to this size before the kernels
    #   see them, so it bounds a task's in-flight decode buffers;
    # - the streaming executor's per-op resource reservation is off: the
    #   plan is ONE operator, so the reservation buys nothing, yet it
    #   still withholds slots (measured 25.7 → 22.3 s at 25.6 M rows /
    #   32 CPUs with it disabled; steady busy 26.5 → 29+).
    ctx = rd.DataContext.get_current()
    prev = ctx.target_max_block_size, ctx.op_resource_reservation_enabled
    ctx.target_max_block_size = min(prev[0] or (128 << 20), 32 << 20)
    ctx.op_resource_reservation_enabled = False
    try:
        # the probe also seeds the footer cache the read plans from
        _, files = table_rows(input_path)
        if files is not None:
            ds = read_parquet_units(files if pending is None else pending,
                                    cluster_cpus(),
                                    with_path=pending is not None)
        elif pending is None:
            ds = read_table(input_path)          # lance: no file list
        else:
            raise ValueError(f"pending= needs a parquet input; "
                             f"{input_path!r} has no file list")
        dup_map = phash_dup_losers(files or input_path, cfg.dedup_key,
                                   cfg.id_col)
        return quality_pipeline(ds, dup_map, cfg, langid_model, ppl_model)
    finally:
        ctx.target_max_block_size, ctx.op_resource_reservation_enabled = prev


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
