"""The hash exchange every wide operator here shares: blocks → split by
hash(key) → one merge task per partition, over raw Ray tasks.

``Dataset.groupby`` pays a sort-based all-to-all on the tiny
pre-combined rows these operators move (the round-2 dup reduce measured
it 3× slower than even a driver merge), so each wide op ships its
combiner blocks through this exchange instead. This module owns every
decision that exchange makes, so the operators cannot drift apart:

- the cluster width (:func:`cluster_cpus`);
- the per-worker-process memo of broadcast objects and the stages built
  from them (:func:`worker_cached`, :func:`worker_get`);
- the block refs of an executed Dataset (:func:`block_refs`, the one
  use of Ray's private ``iter_internal_ref_bundles``), and the column
  types of the typed empty result when there are none
  (:func:`column_type`);
- the partition of a key (:func:`partition_ids`);
- the split of a table (:func:`split`) and the split fan-out
  (:func:`split_refs`, :func:`group_size`);
- the partition count (:func:`partitions`).

The partition function is also the on-disk layout of
``dedup.build_dedup_index``: changing it for int keys invalidates
existing indexes.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.hashing import GOLDEN, stable_hash64_array


def cluster_cpus() -> int:
    """CPUs of the current Ray cluster (NOT os.cpu_count(), which
    ignores ray.init(num_cpus=...)); before Ray is up, the CPUs this
    process may run on (its affinity mask: ``os.cpu_count()`` counts
    every CPU of the machine)."""
    if not ray.is_initialized():
        return len(os.sched_getaffinity(0))
    return int(ray.cluster_resources().get("CPU", 8))


# per-WORKER-PROCESS memo: Ray reuses worker processes across tasks, so
# a module-level dict loads each broadcast (and builds each stage from
# it) once per worker, the actor-pool ``__init__`` semantics without a
# fixed pool's spin-up on every (often tiny) job.
_WORKER_CACHE: dict = {}


def worker_cached(key, factory):
    """The value cached under ``key`` in this process, made by
    ``factory()`` on a miss. The cache holds at most 32 entries and is
    cleared when a miss finds it full. Its largest entries are the
    flagship's fused stages (``quality._label_task_fn``), 2.2 MB each
    (0.13 MB langid table, 2.1 MB float32 perplexity tables): at most
    ~70 MB, reached only by a process that labels with more than a few
    distinct (model pair, config) combinations."""
    if key not in _WORKER_CACHE:
        value = factory()
        if len(_WORKER_CACHE) >= 32:
            _WORKER_CACHE.clear()
        _WORKER_CACHE[key] = value
    return _WORKER_CACHE[key]


def worker_get(ref):
    """``ray.get(ref)``, fetched once per worker process
    (:func:`worker_cached` keyed on the ref's hex id)."""
    return worker_cached(("ref", ref.hex()), lambda: ray.get(ref))


def block_refs(ds: "rd.Dataset") -> list:
    """Execute ``ds`` and return its block ObjectRefs, skipping
    known-empty blocks: Ray never calls a map fn on an empty block, so
    it rides through SCHEMA-LESS and breaks any select/concat
    downstream.

    Not ``to_arrow_refs()`` when avoidable: that helper calls
    ``schema(fetch_if_missing)`` AFTER draining the plan, which
    re-executes a ``limit=1`` slice of the whole chain (~0.7 s of
    serial overhead per call on a lazy plan). It stays as the fallback
    should Ray move its internals."""
    try:
        bundles = ds.iter_internal_ref_bundles()
    except AttributeError:                      # Ray internals moved
        return ds.to_arrow_refs()
    return [ref for b in bundles for ref, meta in b.blocks
            if meta.num_rows is None or meta.num_rows > 0]


def column_type(ds: "rd.Dataset", col: str) -> pa.DataType:
    """``col``'s type in ``ds``'s schema, for the typed empty result of
    an op whose input has no non-empty block. Ray knows no schema for a
    Dataset whose every block a row-function ``filter`` emptied; the
    column is typed null then."""
    schema = ds.schema()
    return pa.null() if schema is None else schema.base_schema.field(col).type


def partition_ids(col: "pa.ChunkedArray | pa.Array", P: int) -> np.ndarray:
    """Partition id per row: int keys are Fibonacci-mixed (uniform even
    on structured key spaces), other keys hash through stable_hash64
    first. Nulls go to the partition of 0; they are filled only when
    present, because ``to_numpy`` of an int column holding a null
    returns float64, where distinct keys above 2**53 collide (and the
    unconditional fill costs ~80 µs per 1,024-row block)."""
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = pc.fill_null(col, 0)
        k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        k = stable_hash64_array(col).view(np.uint64)
    with np.errstate(over="ignore"):
        mixed = k * GOLDEN
    return (mixed % np.uint64(P)).astype(np.int64)


def split(t: pa.Table, key_col: str, P: int) -> list[pa.Table]:
    """``t`` as P tables by partition of ``key_col``: one argsort + one
    take + P zero-copy slices (P filter passes over the table cost P×
    the memory traffic, measured on the dup reduce)."""
    if t.num_rows == 0:
        return [t] * P
    part = partition_ids(t[key_col], P)
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    return [t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            for i in range(P)]


@ray.remote
def _split_task(P: int, key_col: str, combine, *tables: pa.Table) -> list:
    t = combine(*tables) if combine is not None else pa.concat_tables(tables)
    return split(t, key_col, P)


def partitions(n_blocks: int | None = None, limit: int | None = None) -> int:
    """The partition count of an exchange: P = max(2, min(32, cpus,
    2 × blocks, limit)). More partitions than ~2 per block are empty
    merge tasks (pure task latency on a small input); more than the
    CPUs wait in line. ``limit`` is the op's own cap (a cluster or
    bucket count); lazy ``Dataset.join``s, whose block count is not
    known yet, pass no block term. P >= 2 always: with
    ``num_returns=1`` Ray would hand each merge task the whole
    returned LIST instead of one slice per partition."""
    p = min(32, cluster_cpus())
    if n_blocks is not None:
        p = min(p, 2 * n_blocks)
    if limit is not None:
        p = min(p, limit)
    return max(2, p)


def group_size(n_blocks: int) -> int:
    """Blocks per split task: at least 2 split tasks per CPU for
    work-stealing balance, at most 8 blocks so narrow clusters still
    re-combine across blocks before the exchange. (A fixed group of 8
    left a 32-CPU run only len(refs)/8 split tasks, ~5.6 s of the
    staged pre-chain at 25.6 M rows.)"""
    return max(1, min(8, n_blocks // (2 * cluster_cpus())))


def split_refs(refs: list, key_col: str, P: int, combine=None) -> list:
    """Fan the blocks out to split tasks, ``group_size`` blocks each;
    returns one list of P slice refs per split task. ``combine(*tables)
    -> table``, when given, pre-reduces a task's blocks before the
    split (default: concat). Blocks ride as varargs because Ray only
    resolves TOP-LEVEL ObjectRef args. P < 2 raises ``ValueError``
    (see :func:`partitions`; a caller-set on-disk layout can ask for
    it)."""
    if P < 2:
        raise ValueError(f"a hash exchange needs P >= 2 partitions, got {P}")
    g = group_size(len(refs))
    return [_split_task.options(num_returns=P).remote(
                P, key_col, combine, *refs[i:i + g])
            for i in range(0, len(refs), g)]


def exchange(refs: list, key_col: str, merge_task, *args,
             P: int | None = None) -> list:
    """blocks → split by hash(key) → ``merge_task.remote(*args,
    *slices)`` once per partition. Returns the merge tasks' ObjectRefs,
    one per partition. P defaults to :func:`partitions` of the block
    count."""
    P = P or partitions(len(refs))
    splits = split_refs(refs, key_col, P)
    return [merge_task.remote(*args, *[s[p] for s in splits])
            for p in range(P)]
