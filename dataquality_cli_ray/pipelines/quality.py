"""Flagship pipeline: language-ID + quality-filter + PII/toxicity-scrub
over image+caption tables (BASELINE.json north rule).

Stage graph (all lazy, streaming, backpressured; in the default staged
mode Ray fuses it into ONE operator, one task per input file):

    read_parquet (one block per file)           source tasks
      → QualityFusedStage                       rules → decode → drop bytes
                                                → langid → perplexity → scrub
                                                (tasks w/ per-worker model
                                                cache, or an actor pool)
      → mark dup + finalize_decision            broadcast loser map (default)
                                                or distributed left join

The dup pre-pass (a column-pruned scan of (phash, image_id) that never
touches image bytes) runs FIRST, in the calling process, in the default
``staged`` mode: the main pass then starts with the resolved loser map.
Only ``dedup_mode="broadcast"`` runs the pre-pass as a detached Ray task
CONCURRENTLY with the main scan, with the mark stage waiting on its
result.

Per-batch pre-aggregation (one row per phash per batch) bounds a hot
phash's group to ≤ #blocks — the combiner playing the role of salted
two-phase groupby (reference analogue: dedup is a *(doc claim)* at
``CLAUDE.md:27``; the groupby-keep-first shape is SURVEY.md §2.7/A10).

Execution-model note (tasks vs actor pool): both are supported
(``compute=``). Stateless tasks with a per-worker-process model cache
are the default — Ray reuses worker processes, so models still load
once per worker, but there is no fixed pool to fill, no pool-width
tuning, and the scheduler load-balances blocks across every CPU (the
fixed pool left ~25 % of the cluster idle and paid seconds of actor
spin-up per run — measured, see BASELINE.md). The actor-pool path is
kept for stages whose state is too heavy for lazy first-call loading.

Scale notes (100 TB):
- The loser-map broadcast holds only phashes that HAVE a duplicate
  (≈ dup fraction × N). ``phash_dup_losers(mode="auto")`` switches the
  aggregation from driver-merge to a ``groupby`` shuffle above a
  footer-row threshold, and ``images_quality_pipeline(dedup_mode=
  "join")`` replaces the broadcast entirely with a hash-partitioned
  ``Dataset.join`` (see also ``pipelines.dedup.semi_join_filter``) —
  no driver-side dup state at any size.
- Image bytes never enter a shuffle; caption stages are Arrow
  zero-copy; models ship once per worker/actor.
"""

from __future__ import annotations

import os

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

# rows above which the dup aggregation stops merging on the driver and
# uses the partitioned distributed reduce instead (mode="auto");
# env-overridable for A/B tuning
DUP_SHUFFLE_THRESHOLD_ROWS = int(
    os.environ.get("DQRAY_DUP_SHUFFLE_THRESHOLD", 1_000_000))

# fan-out of the partitioned dup reduce: stage-A tasks each split their
# combiner rows into this many hash partitions; stage-B runs one merge
# task per partition
DUP_PARTITIONS = 32


def _parquet_rows(path: str) -> tuple[int, int | None]:
    """(total rows, file count or None) from table metadata only.

    Parquet: footers via :func:`..sources.readers.parquet_footer_rows`
    (thread pool + seeds the shared footer cache so the pipeline's
    subsequent reads plan without re-reading them). Lance: manifest
    row count (north rule reads Lance tables when the lib exists)."""
    from ..sources.readers import table_rows

    return table_rows(path)


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
    (the 'model artifacts' an actor would otherwise load from disk)."""
    texts, labels = seed_corpus(seed=seed)
    langid = train_langid_model(texts, labels)
    ppl = train_char_lm(texts)
    return langid, ppl


class _DupCombiner:
    """Per-batch pre-aggregation for dedup: one (phash, winner, cnt) row
    per distinct phash per batch — the combiner that defuses hot keys."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = batch.group_by("phash").aggregate(
            [("image_id", "min"), ("phash", "count")]
        )
        return g.rename_columns(["phash", "winner", "cnt"])


def _dup_combined(proj_ds: "rd.Dataset") -> "rd.Dataset":
    return proj_ds.map_batches(
        _DupCombiner(), batch_format="pyarrow", batch_size=65536,
        zero_copy_batch=True,
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
    (any table containing key_col): raw blocks are counted inline,
    which lets single-scan mode feed the reduce its already-
    materialized label blocks with NO extra Dataset pass (a per-block
    combiner pass over B blocks costs B task launches; this folds it
    into the B/8 split tasks that run anyway)."""
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
    """The two-round partitioned dup reduce fed DIRECTLY by block
    ObjectRefs — no Ray Data plan at all. Single-scan mode uses this
    over its already-materialized label blocks: the per-block combine
    happens inside the ~B/8 split tasks instead of a B-task Dataset
    combiner pass (B is large for label blocks — one per input file).

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


def _dup_losers_partitioned(combined: "rd.Dataset",
                            P: int = DUP_PARTITIONS) -> dict[int, str]:
    """Distributed dup decision as a two-ROUND hash-partitioned reduce
    over raw Ray tasks (Dataset.groupby benchmarked ~3× slower than
    even the single-threaded driver merge on this all-to-all of tiny
    rows — a manual exchange of pre-combined (phash, winner, cnt)
    tables is the documented exception to Dataset-first).

    Round 1 exchanges int-only (phash, cnt) to find the global dup
    keys; round 2 broadcasts those keys (O(dups)) and pulls just their
    (phash, winner) rows from the pinned combiner blocks. The string
    column never rides the wide exchange (measured: the reduce fell
    from 12–14 s to ~3 s at 12.8 M rows / 32 CPUs).

    No driver-side state proportional to distinct keys: the driver only
    touches block refs, the dup-key array and the final dup-loser map
    (all O(actual duplicates)). Scales with CPUs at every stage.

    (P >= 2 always — enforced in dup_losers_from_refs: with
    num_returns=1 Ray would hand the merge task the whole returned
    LIST instead of unpacking it per partition.)"""
    return dup_losers_from_refs(_executed_block_refs(combined), P=P)


def _executed_block_refs(ds: "rd.Dataset") -> list:
    """Shared with the dedup exchanges — see dedup._executed_block_refs
    (avoids to_arrow_refs's ~0.7 s limit-1 schema re-execution)."""
    from .dedup import _executed_block_refs as impl

    return impl(ds)


def phash_dup_losers(proj_ds: "rd.Dataset", mode: str = "auto",
                     approx_rows: int | None = None) -> tuple:
    """The dup-loser map — (sorted int64 phash keys, aligned winner
    image_id Arrow strings) for every phash with count > 1 (the vector
    form; see :func:`_winner_merge_local`).

    proj_ds must contain exactly (phash, image_id) — the caller does a
    column-pruned read so bytes never flow through this aggregation.

    modes (the per-batch combiner runs in all — one row per phash per
    batch, bounding a hot key's contribution to ≤ #blocks):
    - "auto": "driver" below DUP_SHUFFLE_THRESHOLD_ROWS (pass
      approx_rows from parquet footers; unknown → driver), else
      "partitioned".
    - "driver": stream the combined rows to the driver and merge,
      vectorized on the int64 key. O(#distinct phash) driver memory —
      the fast path while the key space fits one machine.
    - "partitioned": two-stage hash-partitioned reduce over Ray tasks
      (:func:`_dup_losers_partitioned`) — the 100 TB path; no driver
      state beyond the final dup-only map, scales with CPUs.
    - "shuffle": ``Dataset.groupby(phash)`` over the combined rows —
      semantically identical to "partitioned" but benchmarked ~3×
      slower (sort-based exchange of tiny rows); kept as the
      Dataset-API reference implementation.
      (For corpora where even the LOSER set outgrows a broadcast, use
      ``dup_groups_dataset`` + the join-based marking instead.)
    """
    if mode == "auto":
        mode = ("partitioned" if approx_rows is not None
                and approx_rows > DUP_SHUFFLE_THRESHOLD_ROWS else "driver")
    combined = _dup_combined(proj_ds)
    if mode == "partitioned":
        return _dup_losers_partitioned(combined)
    if mode == "shuffle":
        agg = combined.repartition(64).groupby("phash").aggregate(
            Min("winner", alias_name="winner"),
            Sum("cnt", alias_name="cnt"),
        )
        dup = agg.filter(expr="cnt > 1")
        parts = list(dup.iter_batches(batch_size=65536,
                                      batch_format="pyarrow"))
        if not parts:
            return _empty_lookup()
        return _winner_merge_local(pa.concat_tables(parts), "phash")
    import pandas as pd

    # driver merge in two int-dominated phases — shipping the STRING
    # winner column for every distinct key was the measured cost (the
    # merge itself is a fast int64 groupby):
    # (1) stream only (phash:int64, cnt:int64) combiner rows, count-sum
    #     on the driver to find the few globally-duplicated keys;
    # (2) filter the SAME combined stream's (phash, winner) rows to
    #     those keys (broadcast sorted-key filter on workers) and
    #     resolve min-winner over the tiny dup subset only.
    # consumed twice (counts, then filtered winners): pin the combined
    # rows — (phash, winner, cnt), one row per key per batch — in the
    # object store so the scan+combine doesn't run twice
    combined = combined.materialize()
    counts_only = combined.select_columns(["phash", "cnt"])
    ph_l, c_l = [], []
    for b in counts_only.iter_batches(batch_size=262144,
                                      batch_format="pyarrow"):
        ph_l.append(b["phash"].to_numpy(zero_copy_only=False))
        c_l.append(b["cnt"].to_numpy(zero_copy_only=False))
    if not ph_l:
        return _empty_lookup()
    ph = np.concatenate(ph_l)
    cnt = np.concatenate(c_l)
    totals = pd.Series(cnt).groupby(pd.Series(ph), sort=False).sum()
    dup_keys = totals.index.to_numpy()[totals.to_numpy() > 1]
    if len(dup_keys) == 0:
        return _empty_lookup()
    dup_sorted = np.sort(dup_keys)
    keys_ref = ray.put(dup_sorted)

    def only_dups(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        kk = t["phash"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(keys, kk), 0, len(keys) - 1)
        return t.filter(pa.array(keys[idx] == kk))

    dup_rows = combined.select_columns(["phash", "winner"]).map_batches(
        only_dups, batch_format="pyarrow", batch_size=262144)
    parts = list(dup_rows.iter_batches(batch_size=262144,
                                       batch_format="pyarrow"))
    if not parts:
        return _empty_lookup()
    return _winner_merge_local(pa.concat_tables(parts), "phash")


def _staged_prepass(input_path: str, cfg, nrows, nfiles) -> tuple:
    """The staged dup pre-pass: pruned packed Dataset scan + the
    auto-mode reduce. (A raw-pyarrow-task variant that skipped the Ray
    Data plan was benchmarked at 25.6 M rows and saved nothing — the
    cost is the two-column read itself, not the executor ramp — so the
    single Dataset path stays.)"""
    from ..sources.readers import read_table

    nb = max(2 * _ray_cpus(), 1)
    if nfiles:
        nb = min(nb, nfiles)
    proj = read_table(input_path, columns=[cfg.dedup_key, cfg.id_col],
                      override_num_blocks=nb)
    return phash_dup_losers(proj, mode="auto", approx_rows=nrows)


@ray.remote(num_cpus=0)
def _dup_prepass_task(input_path: str, key_col: str, id_col: str,
                      approx_rows: int | None,
                      n_files: int | None = None) -> tuple:
    """The dedup aggregation as a detached task so it streams
    CONCURRENTLY with the main scan (num_cpus=0: the inner Ray Data job
    schedules its own tasks; this shell only drives it).

    The pruned read is PACKED into ~2 tasks/CPU: inputs written with
    small bounded files (the fused-read layout) would otherwise spawn
    one tiny per-file task whose open/footer overhead dominates a
    two-column scan (measured 2.7 s packed vs 8.5 s per-file at 449
    files / 3.2 M rows)."""
    from ..sources.readers import read_table

    nb = max(2 * _ray_cpus(), 1)
    if n_files:
        nb = min(nb, n_files)   # never ask for more blocks than files:
        #                         oversplitting adds a SplitBlocks op
    proj = read_table(input_path, columns=[key_col, id_col],
                      override_num_blocks=nb)
    return phash_dup_losers(proj, mode="auto", approx_rows=approx_rows)


def _dup_lookup(dup_map) -> tuple[np.ndarray, "pa.Array"]:
    """Normalize a dup map to (sorted int64 keys, aligned winner Arrow
    strings). The canonical producer format IS that tuple
    (:func:`_winner_merge_local` — numpy + Arrow, near-zero-copy
    pickle); a plain dict (external callers, tests) is converted
    here once, not per batch."""
    if isinstance(dup_map, tuple):
        return dup_map
    if not dup_map:
        return _empty_lookup()
    keys = np.fromiter(dup_map.keys(), dtype=np.int64, count=len(dup_map))
    order = np.argsort(keys)
    winners = pa.array(
        np.asarray(list(dup_map.values()), dtype=object)[order],
        type=pa.string())
    return keys[order], winners


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
    the object store ONCE per worker process (actor ``__init__``, or
    first call on a task worker via the module cache below).
    """

    def __init__(self, cfg: QualityConfig, langid_ref, ppl_ref,
                 decode: bool = True, keep_bytes: bool = False):
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
        self.keep_bytes = keep_bytes
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
        # store (keep_bytes=True for pass-through sinks)
        if not self.keep_bytes and "bytes" in out.column_names:
            out = out.drop_columns(["bytes"])
        out = self.langid(out)
        out = self.ppl(out)
        out = self.scrub(out)
        return out


# per-WORKER-PROCESS caches for the stateless-task path: Ray reuses
# worker processes across tasks, so state keyed by the objects' refs
# loads once per worker — the actor-pool `__init__` semantics without a
# fixed pool (see module docstring).
_STAGE_CACHE: dict = {}
_DUP_CACHE: dict = {}


def _fused_task_fn(batch: pa.Table, *, cfg, langid_ref, ppl_ref,
                   decode, keep_bytes) -> pa.Table:
    key = (langid_ref.hex() if hasattr(langid_ref, "hex") else id(langid_ref),
           decode, keep_bytes, cfg.align_threshold,
           cfg.min_image_px, cfg.max_aspect, cfg.min_contrast)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = QualityFusedStage(cfg, langid_ref, ppl_ref,
                                  decode=decode, keep_bytes=keep_bytes)
        _STAGE_CACHE[key] = stage
        if len(_STAGE_CACHE) > 8:          # old model generations
            for k in list(_STAGE_CACHE)[:-4]:
                del _STAGE_CACHE[k]
    return stage(batch)


def _mark_finalize_task_fn(batch: pa.Table, *, dup_ref,
                           select_cols=None) -> pa.Table:
    if dup_ref is None:
        out = finalize_decision(batch)
        return out.select(select_cols) if select_cols else out
    key = dup_ref.hex() if hasattr(dup_ref, "hex") else id(dup_ref)
    lookup = _DUP_CACHE.get(key)
    if lookup is None:
        dup = ray.get(dup_ref)             # blocks until pre-pass done
        if hasattr(dup, "hex") or "ObjectRef" in type(dup).__name__:
            dup = ray.get(dup)             # task-handle indirection
        lookup = _dup_lookup(dup)
        _DUP_CACHE.clear()
        _DUP_CACHE[key] = lookup
    out = finalize_decision(_mark_dup(batch, *lookup))
    # column selection folded in: a trailing select_columns would be a
    # THIRD operator, and every operator dilutes the fused op's share
    # under the executor's per-op resource reservation
    return out.select(select_cols) if select_cols else out


class _MarkFinalizeStage:
    """Actor form of mark+finalize (compute="actors")."""

    def __init__(self, dup_ref=None):
        if dup_ref is None:
            self.lookup = None
        else:
            dup = ray.get(dup_ref) if "ObjectRef" in type(dup_ref).__name__ \
                else dup_ref
            if "ObjectRef" in type(dup).__name__:
                dup = ray.get(dup)
            self.lookup = _dup_lookup(dup)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.lookup is None:
            return finalize_decision(batch)
        return finalize_decision(_mark_dup(batch, *self.lookup))


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


def quality_pipeline(
    ds: "rd.Dataset",
    dup_map: dict[int, str] | None,
    cfg: QualityConfig | None = None,
    langid_model: dict | None = None,
    ppl_model: dict | None = None,
    decode: bool = True,
    select_output: bool = True,
    model_concurrency: int | tuple | None = None,
    batch_size: int | None = None,
    keep_bytes: bool = False,
    compute: str = "tasks",
    dup_ref=None,
    dup_ds: "rd.Dataset | None" = None,
) -> "rd.Dataset":
    """Assemble the flagship pipeline over an input Dataset.

    Exactly one of ``dup_map`` (in-driver dict), ``dup_ref`` (ObjectRef
    to a dict — possibly the pending result of a concurrent pre-pass
    task), or ``dup_ds`` ((phash, winner) Dataset → join marking) should
    be set; all None disables dedup marking.
    """
    cfg = cfg or QualityConfig()
    if langid_model is None or ppl_model is None:
        lm, pm = build_models()
        langid_model = langid_model or lm
        ppl_model = ppl_model or pm

    langid_ref = ray.put(langid_model)
    ppl_ref = ray.put(ppl_model)
    if dup_ref is None and dup_map is not None:
        dup_ref = ray.put(dup_map)

    if compute == "actors":
        if model_concurrency is None:
            # fixed pool sized from the RAY cluster, not os.cpu_count()
            # — they differ under ray.init(num_cpus=N), and a fixed
            # pool larger than the cluster deadlocks. ~3/4 of the
            # cluster for the model stage, the rest for read/consume —
            # a pool that takes every CPU starves its own input.
            model_concurrency = max(2, int(_ray_cpus() * 0.75))
        out = ds.map_batches(
            QualityFusedStage,
            fn_constructor_kwargs={
                "cfg": cfg, "langid_ref": langid_ref, "ppl_ref": ppl_ref,
                "decode": decode, "keep_bytes": keep_bytes,
            },
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=model_concurrency, zero_copy_batch=True,
        )
    else:
        out = ds.map_batches(
            _fused_task_fn,
            fn_kwargs={
                "cfg": cfg, "langid_ref": langid_ref, "ppl_ref": ppl_ref,
                "decode": decode, "keep_bytes": keep_bytes,
            },
            batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        )

    if dup_ds is not None:
        out = _mark_finalize_join(out, dup_ds)
    elif compute == "actors":
        out = out.map_batches(
            _MarkFinalizeStage, fn_constructor_kwargs={"dup_ref": dup_ref},
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=(1, 8), zero_copy_batch=True,
        )
    else:
        # fusion barrier when the dup map may still be pending: with
        # identical remote args Ray fuses read -> fused -> mark into ONE
        # task chain, and every first-wave task would then block inside
        # mark's ray.get(dup_ref) — idling the whole cluster until the
        # pre-pass finishes. A differing num_cpus keeps mark a separate
        # (cheap, bytes-free) operator that streams behind the heavy op.
        # Both knobs are load-bearing:
        # - concurrency cap: without it HUNDREDS of mark tasks launch
        #   and park in ray.get — each parked worker pins its input
        #   block, and the memory backpressure throttles the producer
        #   the pre-pass needs to finish ahead of (38 s vs 26 s, 3.2 M).
        # - num_cpus=0: any positive value RESERVES slots for the
        #   (parked or 35 ms-cheap) mark tasks for the whole run — at
        #   0.5 × 16 the fused op was capped at 24/32 CPUs end-to-end,
        #   measured ~22 busy and 39 s vs 29 busy and 25 s at 6.4 M.
        #   Zero-cpu tasks oversubscribe by at most the cap × 35 ms.
        mark_args = {"num_cpus": 0, "concurrency": 16} if (
            dup_ref is not None and dup_map is None) else {}
        out = out.map_batches(
            _mark_finalize_task_fn,
            fn_kwargs={"dup_ref": dup_ref,
                       "select_cols": _out_cols(cfg) if select_output else None},
            batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True, **mark_args,
        )
        return out
    if select_output:
        out = out.select_columns(_out_cols(cfg))
    return out


def _single_read_pipeline(
    ds: "rd.Dataset", cfg: QualityConfig, decode: bool,
    langid_model: dict | None = None, ppl_model: dict | None = None,
    select_output: bool = True, batch_size: int | None = None,
    keep_bytes: bool = False, spill_dir: str | None = None,
) -> "rd.Dataset":
    """ONE pass over the raw input: read → kernels fused into a single
    operator producing the compact label rows (~190 B/row — the image
    payload never leaves the read task), streamed STRAIGHT TO PARQUET
    (``spill_dir``, one file per label block); the dup decision then
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
    shards as the checkpoint artifact.

    ``keep_bytes=True`` (pass-through sinks) carries the payload column
    into the label shards — single mode then pays a disk round-trip for
    the full payload; staged mode is the better fit there."""
    import tempfile

    if langid_model is None or ppl_model is None:
        lm, pm = build_models()
        langid_model = langid_model or lm
        ppl_model = ppl_model or pm
    langid_ref = ray.put(langid_model)
    ppl_ref = ray.put(ppl_model)
    if spill_dir is None:
        spill_dir = tempfile.mkdtemp(prefix="dq_single_labels_")
    ds.map_batches(
        _fused_task_fn,
        fn_kwargs={"cfg": cfg, "langid_ref": langid_ref,
                   "ppl_ref": ppl_ref, "decode": decode,
                   "keep_bytes": keep_bytes},
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ).write_parquet(spill_dir)
    from ..sources.readers import read_parquet_fast

    nrows, nfiles = _parquet_rows(spill_dir)
    nb = max(2 * _ray_cpus(), 1)
    if nfiles:
        nb = min(nb, nfiles)
    proj = read_parquet_fast(spill_dir,
                             columns=[cfg.dedup_key, cfg.id_col],
                             override_num_blocks=nb)
    dup_map = phash_dup_losers(proj, mode="auto", approx_rows=nrows)
    dup_ref = ray.put(dup_map)
    return read_parquet_fast(
        spill_dir, override_num_blocks=nfiles or None).map_batches(
        _mark_finalize_task_fn,
        fn_kwargs={"dup_ref": dup_ref,
                   "select_cols": _out_cols(cfg) if select_output else None},
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )


def images_quality_pipeline(
    input_path: str,
    cfg: QualityConfig | None = None,
    decode: bool = True,
    dup_map: dict[int, str] | None = None,
    dedup_mode: str = "staged",
    **kw,
) -> "rd.Dataset":
    """End-to-end over a parquet images table.

    dedup_mode:
    - "single": ONE scan of the raw table — kernels run fused with the
      read, compact labels stream straight to parquet shards, and the
      dup decision + marking run over the shards (no pruned pre-pass
      read of the raw table at all). The best mode when reading the
      input twice is expensive (remote storage / 100 TB) and when
      label rows ≪ input bytes. No object-store footprint: the label
      write backpressures, and the shards double as a resume point.
    - "staged" (default): the dedup aggregation runs FIRST at full
      cluster width (a few seconds — it scans only (phash, image_id));
      the main pass then gets the resolved loser map and Ray fuses
      read → kernels → mark(+select) into ONE operator at full
      parallelism. A single-op plan sidesteps the streaming executor's
      per-operator resource reservation, which caps a producer op at
      ~2/3 of the cluster whenever a downstream operator exists
      (measured 21.6 vs 29 busy CPUs of 32; see BASELINE.md).
    - "broadcast": the dedup aggregation runs as a DETACHED task over
      the pruned scan, CONCURRENTLY with the main pass; the loser map
      arrives at the final mark stage as an ObjectRef. Overlaps the
      pre-pass but splits the plan into two operators (reservation cap
      above) — keeps the cluster fed during the pre-pass window at the
      price of a slower steady state.
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
    keep Ray's default."""
    cfg = cfg or QualityConfig()
    # cap block size so a fused read task's in-flight decode buffers
    # stay bounded even on inputs with huge row groups; 32 MiB of
    # encoded rows ≈ 13k images. Set on the context (execution is lazy
    # and reads the context at execution time, so set-and-leave).
    ctx = rd.DataContext.get_current()
    ctx.target_max_block_size = min(
        ctx.target_max_block_size or (128 << 20), 32 << 20)
    from ..sources.readers import read_table

    # The staged (and resolved-dup-map) plan fuses to ONE operator, so
    # the streaming executor's per-op resource reservation buys nothing
    # — yet it still withholds slots (measured 25.7 → 22.3 s at 25.6 M
    # rows / 32 CPUs with it disabled; steady busy 26.5 → 29+). The
    # DataContext is SNAPSHOTTED when the source Dataset is created, so
    # the flag is scoped to this plan: disabled before read_table,
    # restored right after the plan is assembled. Multi-op modes
    # (broadcast's parked mark stage, join's shuffle actors) keep the
    # reservation — it is load-bearing against starvation there.
    single_op_plan = dedup_mode == "staged" or dup_map is not None
    prev_reservation = ctx.op_resource_reservation_enabled
    if single_op_plan:
        ctx.op_resource_reservation_enabled = False
    try:
        nrows, nfiles = _parquet_rows(input_path)
        # one block per file: the per-file read task then fuses with the
        # kernel chain (lance, nfiles None, keeps Ray's default)
        ds = read_table(input_path, override_num_blocks=nfiles or None)
        if dedup_mode == "single" and dup_map is None:
            return _single_read_pipeline(ds, cfg, decode, **kw)
        if dedup_mode == "join" and dup_map is None:
            proj = read_table(input_path,
                              columns=[cfg.dedup_key, cfg.id_col])
            return quality_pipeline(ds, None, cfg, decode=decode,
                                    dup_ds=dup_groups_dataset(proj), **kw)
        if dup_map is None:
            if dedup_mode == "staged":
                # run the pre-pass DIRECTLY from the driver: the
                # detached shell task added 1-2 s (task launch + a
                # second in-worker footer prefetch) that the staged
                # mode, which blocks on the result anyway, has no
                # reason to pay
                dup_map = _staged_prepass(input_path, cfg, nrows, nfiles)
            else:
                dup_ref = _dup_prepass_task.remote(
                    input_path, cfg.dedup_key, cfg.id_col, nrows, nfiles)
                return quality_pipeline(ds, None, cfg, decode=decode,
                                        dup_ref=dup_ref, **kw)
        return quality_pipeline(ds, dup_map, cfg, decode=decode, **kw)
    finally:
        if single_op_plan:
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
