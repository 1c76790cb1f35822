"""``describe`` — the reference's column profiler, Ray-Data-first.

Reference lifecycle (``cmd/describe.go:261-280`` →
``internal/engine/adaptive_streaming_engine.go:83-123``): one engine per
file, per-column accumulators updated row-at-a-time, finalized into
``DescribeResult``/``ColumnStats`` (``simple_engine.go:25-50``).

Ray-native shape: ``map_batches`` emits one pickled
``dict[col -> ColumnPartial]`` per block (tiny — raw rows never leave
their block), two distributed 256-way tree-merge levels fold the
per-block partials (the merge is associative, property-tested), and the
driver finishes the fold over the ≤ ~B/65536 survivors before
``finalize`` yields the stats table. This is a pure streaming
aggregation: no shuffle, no materialization of the input, the partial
structs are O(columns × caps) regardless of input size, and the driver
is never the bottleneck — at 100 TB (~10^6 blocks) it merges ~16 maps.
"""

from __future__ import annotations

import pickle
from typing import Any

import pyarrow as pa

import ray.data

from ..state.sketches import (
    ColumnPartial,
    merge_partial_maps,
    partials_for_table,
)


SKETCH_CAPS = {"unique_cap": 1 << 14, "topk_cap": 1 << 12,
               "values_cap": 1 << 16}


class _PartialStats:
    """Stateless map_batches fn: Arrow block -> one-row table carrying a
    pickled partials map."""

    def __init__(self, columns: list[str] | None = None, mode: str = "exact"):
        self.columns = columns
        self.caps = SKETCH_CAPS if mode == "sketch" else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        partials = partials_for_table(batch, self.columns, caps=self.caps)
        blob = pickle.dumps(partials)
        return pa.table({"partial": pa.array([blob], type=pa.binary())})


class _MergePartials:
    """Tree-merge level: fold up to batch_size pickled partial maps into
    one (merge is associative — pinned by the state-merge property
    tests), so the driver never sees more than ~B/256^levels partials."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        maps = [pickle.loads(x.as_py()) for x in batch["partial"]]
        blob = pickle.dumps(merge_partial_maps(maps))
        return pa.table({"partial": pa.array([blob], type=pa.binary())})


def column_partials(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
    batch_size: int | None = 65536,
    mode: str = "exact",
) -> dict[str, ColumnPartial]:
    """Run the partial-stats pass, tree-reduce the per-block partials in
    two distributed merge levels (256-way each: 10^6 input blocks reach
    the driver as ≤ ~16 partials), and finish the fold on the driver."""
    part_ds = ds.map_batches(
        _PartialStats(columns, mode),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    for _ in range(2):
        part_ds = part_ds.map_batches(
            _MergePartials(), batch_format="pyarrow", batch_size=256)
    merged: dict[str, ColumnPartial] = {}
    for b in part_ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        maps = [pickle.loads(x.as_py()) for x in b["partial"]]
        merged = merge_partial_maps(([merged] if merged else []) + maps)
    return merged


def describe(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
    batch_size: int | None = 65536,
    mode: str = "exact",
    sample_frac: float | None = None,
    seed: int = 42,
) -> pa.Table:
    """Per-column stats table (the reference's ColumnStats, §2.5 A1-A7).

    Output columns: column, kind, inferred_type, n, nulls, mean, std,
    min, max, q25, q50, q75, unique, top, freq, min_str, max_str.

    mode (the reference's engine-selection surface, cmd/describe.go:261-266):
    - "exact": default caps — distincts/quantiles exact until the
      documented caps, then sketch fallback.
    - "sketch": small caps — bounded memory per column regardless of
      cardinality (HLL distincts, subsampled quantiles, heavy-hitter
      mode); the 100 TB profile mode.

    sample_frac: optional row sampling before profiling — the principled
    replacement for the live engine's size-tiered every-Nth-row gates
    (adaptive_streaming_engine.go:173-181, O4): seeded
    ``random_sample`` instead of order-dependent modulo.
    """
    if sample_frac is not None and sample_frac < 1.0:
        ds = ds.random_sample(sample_frac, seed=seed)
    merged = column_partials(ds, columns, batch_size, mode=mode)
    order = columns or list(merged.keys())
    rows = [merged[c].finalize() for c in order if c in merged]
    return _rows_to_table(rows)


def describe_file(
    path,
    mode: str = "exact",
    columns: list[str] | None = None,
    max_tasks: int = 256,
) -> pa.Table:
    """Profile local parquet file(s) with ROW-GROUP read granularity.

    ``describe(rd.read_parquet(...))`` on a single large file is
    serialized behind one ReadParquet task (Ray's read granularity is
    per-file): measured 1.4 s for a 600 k × 16 table whose stats cost
    0.2 s single-threaded. Here each raw task reads a contiguous run of row
    groups with pyarrow and folds them into one ``ColumnPartial`` map;
    the driver (or a remote tree level past 64 tasks) finishes the
    fold in deterministic (file, row-group) order. Scale shape: tasks =
    min(max_tasks, row groups), each O(columns × caps) output —
    the same per-file fan-out as ``describe_directory``, pushed down to
    row groups. Same output schema as ``describe``."""
    import pyarrow.parquet as pq

    import ray

    from ..sources.readers import parquet_files

    caps = SKETCH_CAPS if mode == "sketch" else None
    files = parquet_files(path)
    units = [(f, rg) for f in files
             for rg in range(pq.ParquetFile(f).metadata.num_row_groups)]
    if not units:
        return _rows_to_table([])
    # pack contiguous units into <= max_tasks groups (order-preserving)
    n_tasks = min(max_tasks, len(units))
    per = (len(units) + n_tasks - 1) // n_tasks
    groups = [units[i:i + per] for i in range(0, len(units), per)]

    @ray.remote
    def part(grp):
        merged: dict = {}
        pf_cache: dict = {}
        for f, rg in grp:
            pf = pf_cache.get(f) or pf_cache.setdefault(f, pq.ParquetFile(f))
            t = pf.read_row_group(rg, columns=columns)
            m = partials_for_table(t, columns, caps=caps)
            merged = merge_partial_maps(([merged] if merged else []) + [m])
        return merged

    @ray.remote
    def fold(*maps):
        return merge_partial_maps([m for m in maps if m])

    refs = [part.remote(g) for g in groups]
    while len(refs) > 64:                       # remote tree levels
        refs = [fold.remote(*refs[i:i + 32])
                for i in range(0, len(refs), 32)]
    maps = [m for m in ray.get(refs) if m]
    merged = merge_partial_maps(maps) if maps else {}
    order = columns or list(merged.keys())
    rows = [merged[c].finalize() for c in order if c in merged]
    return _rows_to_table(rows)


def describe_directory(
    files: list[str], mode: str = "exact", columns: list[str] | None = None,
) -> dict[str, pa.Table]:
    """Profile MANY parquet files — the reference's actual headline
    workload (41-file directory, README.md:108-119, one engine per file
    fanned over a worker pool, cmd/describe.go:208-226).

    Shape: one RAW Ray task per file (a justified raw-task use — the
    per-file jobs are fully independent, and one Ray Data job per file
    would pay 41 streaming-executor spin-ups while a single Dataset
    over all files loses the per-FILE stat grouping without a shuffle).
    Each task streams its file's row groups through the same mergeable
    ``ColumnPartial`` machinery and returns only the finalized stats
    table (O(columns), never rows)."""
    import ray

    caps = SKETCH_CAPS if mode == "sketch" else None

    @ray.remote
    def one_file(path: str):
        import pyarrow.parquet as pq

        pf = pq.ParquetFile(path)
        merged: dict = {}
        for rb in pf.iter_batches(batch_size=65536, columns=columns):
            t = pa.Table.from_batches([rb])
            m = partials_for_table(t, columns, caps=caps)
            merged = merge_partial_maps(([merged] if merged else []) + [m])
        rows = [p.finalize() for p in merged.values()]
        return path, _rows_to_table(rows)

    out = ray.get([one_file.remote(f) for f in files])
    return dict(out)


def key_columns(stats: pa.Table, limit: int = 3) -> list[str]:
    """Reference O2 (cmd/describe.go:458-473): first `limit` columns
    that look analytically interesting — numeric with mean > 0, or
    string with unique > 100."""
    out = []
    for i in range(stats.num_rows):
        kind = stats["kind"][i].as_py()
        mean = stats["mean"][i].as_py()
        uniq = stats["unique"][i].as_py()
        if (kind == "numeric" and (mean or 0) > 0) or (
                kind == "string" and (uniq or 0) > 100):
            out.append(stats["column"][i].as_py())
            if len(out) >= limit:
                break
    return out


def detailed_analysis_targets(
    per_table: dict[str, pa.Table], limit: int = 3,
    null_pct_gt: float = 5.0, rows_gt: int = 100_000, cols_gt: int = 20,
) -> list[str]:
    """Reference O3 (cmd/describe.go:403-421): ≤ `limit` tables meeting
    any attention threshold (null% > 5 ∨ rows > 100k ∨ cols > 20)."""
    out = []
    for name, stats in per_table.items():
        rows = stats["n"][0].as_py() if stats.num_rows else 0
        if (null_percentage(stats) > null_pct_gt or rows > rows_gt
                or stats.num_rows > cols_gt):
            out.append(name)
            if len(out) >= limit:
                break
    return out


def _rows_to_table(rows: list[dict[str, Any]]) -> pa.Table:
    schema = pa.schema(
        [
            ("column", pa.string()),
            ("kind", pa.string()),
            ("inferred_type", pa.string()),
            ("n", pa.int64()),
            ("nulls", pa.int64()),
            ("mean", pa.float64()),
            ("std", pa.float64()),
            ("min", pa.float64()),
            ("max", pa.float64()),
            ("q25", pa.float64()),
            ("q50", pa.float64()),
            ("q75", pa.float64()),
            ("unique", pa.int64()),
            ("top", pa.string()),
            ("freq", pa.int64()),
            ("min_str", pa.string()),
            ("max_str", pa.string()),
        ]
    )
    cols = {f.name: [r.get(f.name) for r in rows] for f in schema}
    return pa.table(cols, schema=schema)


def null_percentage(stats: pa.Table) -> float:
    """Reference A8 file null-percentage: totalNulls / (rows*cols) * 100
    (``adaptive_streaming_engine.go:112-119``)."""
    n_cols = stats.num_rows
    if not n_cols:
        return 0.0
    rows = stats["n"][0].as_py() or 0
    total_nulls = sum(x.as_py() or 0 for x in stats["nulls"])
    denom = rows * n_cols
    return (total_nulls / denom * 100.0) if denom else 0.0


def quality_rating(null_pct: float) -> str:
    """Reference rating thresholds (cmd/describe.go:393-401):
    Good ≤ 10 % nulls, Fair ≤ 25 %, else Poor."""
    if null_pct <= 10.0:
        return "Good"
    if null_pct <= 25.0:
        return "Fair"
    return "Poor"


def rollup(per_table: dict[str, pa.Table]) -> pa.Table:
    """Cross-table rollup (reference A9, cmd/describe.go:331-359):
    Σ rows, Σ cols, null % and rating per table + totals row."""
    names, rows_l, cols_l, nullpct_l, rating_l = [], [], [], [], []
    for name, stats in per_table.items():
        np_ = null_percentage(stats)
        names.append(name)
        rows_l.append(stats["n"][0].as_py() if stats.num_rows else 0)
        cols_l.append(stats.num_rows)
        nullpct_l.append(np_)
        rating_l.append(quality_rating(np_))
    return pa.table(
        {
            "table_name": names,
            "n_rows": pa.array(rows_l, type=pa.int64()),
            "n_cols": pa.array(cols_l, type=pa.int64()),
            "null_pct": pa.array(nullpct_l, type=pa.float64()),
            "rating": rating_l,
        }
    )
