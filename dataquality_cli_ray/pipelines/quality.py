"""Flagship pipeline: language-ID + quality-filter + PII/toxicity-scrub
over image+caption tables (BASELINE.json north rule).

Stage graph (all lazy, streaming, backpressured): ONE map step, one
task per work unit of ~total rows / CPUs rows:

    work units (row groups, from footers)       from_items, one per block
      → _label_task_fn, per batch of the unit's pieces (≤ PIECE_MAX_BYTES):
          read                                  pyarrow, the unit's row groups
          QualityFusedStage                     rules → decode → drop bytes
                                                → langid → perplexity → scrub
          mark dup + finalize_decision          resolved loser map

An input of ONE unit skips Ray Data: the calling process runs the same
``_label_task_fn`` eagerly and returns an already-executed Dataset (see
:func:`images_quality_pipeline`).

The dup pre-pass (a column-pruned scan of (phash, image_id) that never
touches image bytes) runs FIRST, in the calling process: the main pass
then starts with the resolved loser map. Up to 1 M footer rows it starts
no Ray job at all — pyarrow reads the two columns, ``np.unique`` counts
the keys and a ``group_by`` of the dup rows picks the winners; above
that, a per-batch pre-aggregation (one row per phash per batch, bounding
a hot phash's group to ≤ #blocks — the combiner playing the role of
salted two-phase groupby) feeds a
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

from collections.abc import Iterator
from functools import cache, partial
from itertools import chain

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..fixtures.images import seed_corpus
from ..functions.text import CaptionGrams
from ..sources.readers import read_unit
from ..stages.image_stages import DecodeImageStage
from ..stages.langid import LangIdScorer, train_langid_model
from ..stages.perplexity import PerplexityScorer, train_char_lm
from ..stages.rules import HeuristicRules, QualityConfig, finalize_decision
from ..stages.scrub import PiiScrubber
from .exchange import (
    block_refs, cluster_cpus, executed_dataset, group_size, partitions,
    split_refs, worker_cached)


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
    (the 'model artifacts' a worker would otherwise load from disk).
    Each trainer counts the whole corpus in one numpy pass; the models
    are bit-identical to per-text training (pinned in tests).

    Built once per process and seed: every call returns the same pair
    (~4.3 MB held for the life of the process), so a process that runs
    several plans trains once and :func:`_model_refs` puts the pair
    once per Ray session. Every array in it is read-only; a changed
    model is a new dict (the object-identity contract of
    :func:`_model_refs`)."""
    return _seeded_models(seed)


@cache
def _seeded_models(seed: int) -> tuple[dict, dict]:
    # the memo behind build_models, keyed by the seed alone however the
    # caller passes it (build_models() and build_models(seed=42) share)
    texts, labels = seed_corpus(seed=seed)
    models = train_langid_model(texts, labels), train_char_lm(texts)
    for m in models:
        for v in m.values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
    return models


def _dup_combine(batch: pa.Table, *, key_col: str, id_col: str) -> pa.Table:
    """Per-batch pre-aggregation for dedup: one (key, winner, cnt) row
    per distinct key per batch — the combiner that defuses hot keys.
    The count is of the KEY, so null keys never count as duplicates."""
    g = batch.group_by(key_col).aggregate([(id_col, "min"),
                                           (key_col, "count")])
    return g.rename_columns([key_col, "winner", "cnt"])


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
def _dup_winner_task(keys, key_col: str, id_col: str,
                     *tables: pa.Table) -> pa.Table:
    """Round 2: filter a group of combiner (or raw) blocks to the
    broadcast dup keys (sorted searchsorted membership) and return
    their per-task min-winner (key, winner) rows — O(duplicate keys),
    the only strings that move."""
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
    ``id_col``, in the calling process: ``np.unique`` counts the int64
    keys (null keys are never dups), then the min id is taken over the
    dup rows only — equal to one ``group_by`` of (min id, count) over
    every row (pinned in tests), in a quarter of its time or less."""
    col = t[key_col]
    keys = _int_keys(col)
    if col.null_count:
        keys = keys[pc.is_valid(col).to_numpy(zero_copy_only=False)]
    keys, counts = np.unique(keys, return_counts=True)
    keys = keys[counts > 1]
    if not len(keys):
        return _empty_lookup()
    rows = pa.array(np.flatnonzero(_dup_key_hits(col, keys)[1]))
    return _winner_merge_local(
        pa.table({key_col: col.take(rows), "winner": t[id_col].take(rows)}),
        key_col)


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
    - "driver": no Ray job. pyarrow reads the two columns of each file in
      the calling process and :func:`dup_losers_from_table` resolves
      the map:
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

        # per-file reads skip read_table's discovery: 19 vs 40 ms, 64 files
        return dup_losers_from_table(pa.concat_tables(
            [pq.ParquetFile(f).read(columns=[key_col, id_col]) for f in files],
            promote_options="permissive"), key_col, id_col)
    combined = read_table(
        files or source, columns=[key_col, id_col],
    ).map_batches(_dup_combine, fn_kwargs={"key_col": key_col,
                                           "id_col": id_col},
                  batch_format="pyarrow", batch_size=65536,
                  zero_copy_batch=True)
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
    — the kernels themselves cost ~10-13 µs·cpu/row at the default
    config (one 4,096-row fixture batch in one process;
    ``scripts/kernel_probe.py``). langid and perplexity share the
    batch's lowered, padded caption buffer and, block by block, one
    rolling hash (``functions.text.CaptionGrams``). It takes the two
    model objects; ``_label_task_fn`` fetches them from the object store
    and builds the stage once per worker process, model pair and config
    (``exchange.worker_cached``). A text-only
    table (no image payload column) skips the decode and the gates on
    its columns.

    The decode always runs its payload parse (decode_error and the
    decoded dims). Its pixel-feature pass runs only when the
    ``min_contrast`` gate is on: that gate is the only reader of a
    pixel feature, and the output select drops all three.
    """

    def __init__(self, cfg: QualityConfig, langid_model, ppl_model):
        self.rules = HeuristicRules(cfg)
        self.decode = DecodeImageStage(features=cfg.min_contrast is not None)
        if cfg.align_threshold is not None:
            from ..stages.align import CaptionAlignStage
            self.align = CaptionAlignStage(threshold=cfg.align_threshold,
                                           caption_col=cfg.caption_col)
        else:
            self.align = None
        self.langid = LangIdScorer(langid_model,
                                   min_score=cfg.langid_min_score)
        self.ppl = PerplexityScorer(ppl_model, max_ppl=cfg.max_perplexity)
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
        # one lowered, padded caption buffer for the batch; block by
        # block, one rolling hash serves both n-gram scorers
        grams = CaptionGrams(out[self.langid.text_col])
        out = pa.concat_tables([
            self.ppl(self.langid(out.slice(lo, g.m), g), g)
            for lo, g in grams.blocks()])
        out = self.scrub(out)
        return out


def _label_task_fn(batch: pa.Table, *, cfg, langid_ref, ppl_ref, dup_ref,
                   units: bool = False, with_path: bool = False):
    """The plan's one map step: label ``batch`` (with ``units``, each
    batch :func:`~..sources.readers.read_unit` reads for the units it
    lists) with the fused stage, dup marking and the keep/drop decision,
    yielding one labeled table per batch; a ``path`` column is kept for
    the CLI."""
    # the fused stage is built once per worker, model pair and config;
    # the loser map is not in the key: each task fetches its plan's own
    stage = worker_cached(
        (langid_ref.hex(), ppl_ref.hex(), cfg),
        lambda: QualityFusedStage(cfg, ray.get(langid_ref), ray.get(ppl_ref)))
    lookup = ray.get(dup_ref)
    batches = read_unit(zip(chain(*batch["paths"].to_pylist()),
                            chain(*batch["row_groups"].to_pylist())),
                        with_path=with_path) if units else (batch,)
    for t in batches:
        out = finalize_decision(
            _mark_dup(stage(t), *lookup, cfg.dedup_key, cfg.id_col))
        yield out.select(_out_cols(cfg) + (
            ["path"] if "path" in out.column_names else []))


# per-DRIVER-PROCESS map id(model) -> (model, ref, session) of the last
# plan's model pair: a plan over the same model objects reuses their
# refs instead of putting them again. The entry holds the model, so its
# id is not reused while the entry lives, and ``is`` confirms the hit;
# the session's (node, job) ids drop refs of an earlier Ray session or
# connection. Only the last pair is kept: a caller that passes fresh
# models to every plan would otherwise pin old ones.
_MODEL_REFS: dict = {}


def _model_refs(*models) -> list:
    """An object-store ref for each of ``models``, put only when it is a
    model object the last call did not put in this Ray session (a model
    changed in place keeps its old ref: pass a new object instead)."""
    ctx = ray.get_runtime_context()
    session = ctx.get_node_id(), ctx.get_job_id()
    refs = []
    for m in models:
        hit = _MODEL_REFS.get(id(m))
        refs.append(hit[1] if hit is not None and hit[0] is m
                    and hit[2] == session else ray.put(m))
    _MODEL_REFS.clear()
    _MODEL_REFS.update((id(m), (m, r, session))
                       for m, r in zip(models, refs))
    return refs


def _label_kwargs(dup_map: tuple, cfg: QualityConfig,
                  langid_model: dict | None, ppl_model: dict | None,
                  **units) -> dict:
    """:func:`_label_task_fn`'s keyword arguments. A model left None is
    :func:`build_models`' seeded one, which is the same object on every
    call. Either way the models ship once per driver process and Ray
    session per model object (:func:`_model_refs`): a later plan over
    the same objects reuses their refs, so each worker keeps the fused
    stage it built for them. ``dup_map`` ships once per plan."""
    if langid_model is None or ppl_model is None:
        lm, pm = build_models()
        langid_model = lm if langid_model is None else langid_model
        ppl_model = pm if ppl_model is None else ppl_model
    langid_ref, ppl_ref = _model_refs(langid_model, ppl_model)
    return {"cfg": cfg, "langid_ref": langid_ref, "ppl_ref": ppl_ref,
            "dup_ref": ray.put(dup_map), **units}


def _label_step(ds: "rd.Dataset", *args, **units) -> "rd.Dataset":
    """``ds`` with :func:`_label_task_fn` as one whole-block map step
    (arguments as :func:`_label_kwargs`)."""
    return ds.map_batches(
        _label_task_fn, fn_kwargs=_label_kwargs(*args, **units),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def quality_pipeline(
    ds: "rd.Dataset",
    dup_map: tuple,
    cfg: QualityConfig | None = None,
    langid_model: dict | None = None,
    ppl_model: dict | None = None,
) -> "rd.Dataset":
    """The flagship pipeline over any input Dataset (a Lance table, an
    in-memory frame): ONE map step running the fused model stage, dup
    marking against ``dup_map`` (from :func:`phash_dup_losers` or
    :func:`dup_losers_from_table`) and the keep/drop decision."""
    return _label_step(ds, dup_map, cfg or QualityConfig(), langid_model,
                       ppl_model)


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
    :func:`phash_dup_losers`), then ONE map step reads, labels and marks
    each work unit against the resolved loser map. ``dedup_mode`` must
    be "staged", this plan (any other value raises ``ValueError``).

    It beat the two plans it replaced in every regime measured (4-CPU
    host, dqbench input): a raw scan with the labels spilled to parquet
    (0.90 vs 0.58 s at 8,192 rows / 1 CPU) and marking by a join (6.36
    vs 0.25 s at 8,192 rows / 4 CPUs).

    A parquet input is read in work units planned from its footers
    (:func:`~..sources.readers.plan_units`): one per CPU, large files
    split at row-group boundaries and small files packed together; the
    plan is ``from_items`` (a unit per block) and the map step, which
    reads each unit with :func:`~..sources.readers.read_unit`. Not
    ``read_parquet``'s read operator: Ray splits a read whose unit size
    passes the plan's 32 MiB block cap (one 252 MiB unit at 100,000
    fixture rows / 1 CPU), and a split read is not fused with the map
    step. Both reads take the ``.parquet`` file list the footer probe walked, so a
    stray non-parquet file in the input directory is skipped, not read.
    A Lance input keeps Ray's reader and :func:`quality_pipeline`.

    An input that plans to ONE work unit (any input at 1 CPU; the
    crossover is measured in :func:`pending_labels`, which shares the
    rule) is labeled in this process, by the same
    :func:`_label_task_fn`, and returned as an already-executed Dataset
    (``exchange.executed_dataset``): draining, counting or converting it
    starts no executor, task worker or ``AutoscalingRequester`` call.
    The task reads its unit one batch of at most
    ``readers.PIECE_MAX_BYTES`` at a time, as a Ray worker would; only
    the labels (no image bytes) are held whole. The labeling then runs
    in this call, not in the drain, and a failure in it (an OOM kill of
    this process included) is not retried by Ray: it is raised from
    this call, or takes this process down.

    ``pending`` (a subset of the input's files) makes the plan read only
    those files and adds a ``path`` column naming each row's file, while
    the dup map still covers every file of ``input_path``: the quality
    CLI's resumable run (``state.checkpoint.run_resumable``) routes rows
    to their shards by it (:func:`pending_labels` is the CLI's entry)."""
    return _staged_plan(input_path, cfg or QualityConfig(), dedup_mode,
                        langid_model, ppl_model, pending)


def pending_labels(files: list[str], cfg: QualityConfig,
                   pending: list[str]) -> "rd.Dataset | Iterator[pa.Table]":
    """The quality CLI's plan: :func:`images_quality_pipeline` over the
    ``pending`` subset of the parquet ``files``, with the seeded models.
    The in-process rule is the flagship's: when ``pending`` plans to ONE
    work unit (:func:`~..sources.readers.parquet_units` at the cluster's
    CPUs: any input at 1 CPU, up to ``UNIT_MIN_ROWS`` rows at 4), this
    process runs the unit's task itself,
    :func:`_label_task_fn` with the same refs, and returns its generator
    of labeled tables, which the CLI writes as they come, never holding
    the unit's labels whole. A Ray execution there
    would run that one task anyway, after paying its fixed cost: three
    more session processes (a task worker and two Ray Data actors; the
    dqbench ``quality_cli`` peak RSS fell 705 → 498 MB without them)
    and their CPU on every op.

    Crossover (``scripts/op_probe.py --cli``: ``cmd_quality`` +
    ``lineage_report``, medians of 20 ops in two alternated runs, ms,
    Ray plan → this process): at 1 CPU 1,024 rows 75-80 → 27, 8,192
    rows 183-188 → 122-130, 12,000 rows 198-211 → 171-196; at 4 CPUs
    4,096 rows 129-132 → 86-95. Session CPU per op fell 70-120 ms. At 4
    CPUs 8,192 rows are two units and keep the Ray plan (143-158 ms);
    forced into one unit here they took 132-140 ms, so one unit is a
    conservative bound."""
    return _staged_plan(files, cfg, "staged", None, None, pending,
                        stream=True)


def _staged_plan(input_path, cfg: QualityConfig, dedup_mode: str,
                 langid_model, ppl_model, pending, stream: bool = False):
    # both entries' plan: footer probe, dup map, units, then the label
    # step. One unit runs its task here, and the plan is the task's
    # generator with ``stream`` (the CLI), else an executed Dataset of
    # the task's tables
    if dedup_mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup_mode {dedup_mode!r}; "
                         f"expected one of {DEDUP_MODES}")
    from ..sources.readers import parquet_units, read_table, table_rows

    # Two context settings scoped to this plan. Ray snapshots the
    # DataContext when the source Dataset is created, so they are set
    # before it and restored once the plan is assembled:
    # - a 32 MiB block-size cap: Ray's output buffer joins the labeled
    #   tables a task yields into blocks up to this size before a step
    #   fused after it (the CLI's shard write) sees them;
    # - the streaming executor's per-op resource reservation is off: the
    #   plan is ONE operator, so the reservation buys nothing, yet it
    #   still withholds slots (measured 25.7 → 22.3 s at 25.6 M rows /
    #   32 CPUs with it disabled; steady busy 26.5 → 29+).
    ctx = rd.DataContext.get_current()
    prev = ctx.target_max_block_size, ctx.op_resource_reservation_enabled
    ctx.target_max_block_size = min(prev[0] or (128 << 20), 32 << 20)
    ctx.op_resource_reservation_enabled = False
    try:
        # the probe also seeds the footer cache the units are planned from
        _, files = table_rows(input_path)
        if files is None and pending is not None:
            raise ValueError(f"pending= needs a parquet input; "
                             f"{input_path!r} has no file list")
        dup_map = phash_dup_losers(files or input_path, cfg.dedup_key,
                                   cfg.id_col)
        if files is None:
            ds = read_table(input_path)          # lance: no file list
            return _label_step(ds, dup_map, cfg, langid_model, ppl_model)
        units = parquet_units(files if pending is None else pending,
                              cluster_cpus())
        items = [{"paths": [f for f, _ in u], "row_groups": [g for _, g in u]}
                 for u in units]
        args = dup_map, cfg, langid_model, ppl_model
        kw = {"units": True, "with_path": pending is not None}
        if len(units) == 1:
            labeled = _label_task_fn(pa.Table.from_pylist(items),
                                     **_label_kwargs(*args, **kw))
            return labeled if stream else executed_dataset(list(labeled))
        ds = rd.from_items(items, override_num_blocks=len(units))
        return _label_step(ds, *args, **kw)
    finally:
        ctx.target_max_block_size, ctx.op_resource_reservation_enabled = prev
