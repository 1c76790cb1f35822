"""Relational showcase pipelines over the TPC-H-ish tables: grouped
aggregation with per-batch combiners, broadcast join, tumbling-window
aggregation, grouped top-k. These exercise the wide-operator patterns
(SURVEY.md §2.4-2.6) in their Ray-native form:

- bounded-cardinality aggregations run through ``tree_grouped_agg``:
  per-batch combiner + tree merge, no shuffle operator in the plan
  (A10 pattern pushed to its limit),
- the small join side is broadcast via ``ray.put`` (a dict lookup per
  batch), never shuffled (§2.4: the only join-like op the engine needs),
- windows are a computed column + the same combiner-tree aggregate
  (streaming-shaped semantics, ray_guide: no event-time watermarks
  needed for batch windows),
- top-k = combiner-tree aggregate then a driver-side sort of the tiny
  result,
- key-co-location for the custom wide operators (as-of join, session
  windows) goes through the hash-partitioned split/merge exchange, not
  a sort-based groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count

from ..functions.rounding import round_half_up
from ..sources.readers import read_parquet
from .exchange import block_refs, exchange, partitions, split_refs

# per-WORKER-PROCESS broadcast cache (once-per-worker fetch for
# stateless-task stages; Ray reuses worker processes across tasks)
_WORKER_CACHE: dict = {}


def _cached_ref(ref):
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    v = _WORKER_CACHE.get(key)
    if v is None:
        v = ray.get(ref)
        if len(_WORKER_CACHE) > 32:
            _WORKER_CACHE.clear()
        _WORKER_CACHE[key] = v
    return v


def tree_grouped_agg(
    ds: "rd.Dataset",
    keys: list[str],
    sums: list[str] = (),
    means: list[str] = (),
    count_alias: str | None = None,
    batch_size: int = 65536,
    fanin: int = 256,
) -> pa.Table:
    """Grouped sum/mean/count with a per-batch COMBINER and a tree
    merge — the shuffle-free shape for bounded group cardinality.

    ``Dataset.groupby`` pays a sort-based all-to-all exchange of every
    row; when the group count is bounded (windows × types, TPC-H flag
    pairs, market segments), the right 100 TB shape is: each batch
    pre-aggregates to O(groups) partial rows inside ``map_batches``,
    two 256-way merge levels re-aggregate the partials (so 10^6 input
    blocks reach the driver as ≤ ~16 tiny tables), and the driver
    finishes the fold. No shuffle operator in the plan, and the fused
    read→combine→merge chain is a single streaming operator.

    Means travel as (sum, non-null count) partials and are finalized as
    sum/count (matches SQL AVG null semantics). ``count_alias`` counts
    rows (COUNT(*)).

    Returns the final aggregated pa.Table with columns
    ``keys + [f"{c}_sum" for sums] + [f"{c}_mean" for means] +
    [count_alias]`` (suffixed so a column may be both summed and
    averaged).
    """
    sums, means = list(sums), list(means)
    # partial column layout (canonical names survive the merge levels)
    p_sum = {c: f"__s_{c}" for c in dict.fromkeys(sums + means)}
    p_cnt = {c: f"__c_{c}" for c in means}

    def combine(t: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in p_sum] + [(c, "count") for c in p_cnt]
        if count_alias is not None:
            aggs.append(([], "count_all"))
        g = t.group_by(keys, use_threads=False).aggregate(aggs)
        names = []
        for n in g.column_names:
            if n.endswith("_sum") and n[:-4] in p_sum:
                names.append(p_sum[n[:-4]])
            elif n.endswith("_count") and n[:-6] in p_cnt:
                names.append(p_cnt[n[:-6]])
            elif n == "count_all":
                names.append("__n")
            else:
                names.append(n)
        return g.rename_columns(names)

    def merge(t: pa.Table) -> pa.Table:
        part_cols = [c for c in t.column_names if c not in keys]
        g = t.group_by(keys, use_threads=False).aggregate(
            [(c, "sum") for c in part_cols])
        return g.rename_columns(
            [n[:-4] if n.endswith("_sum") and n[:-4] in part_cols else n
             for n in g.column_names])

    part = ds.map_batches(combine, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)
    for _ in range(2):
        part = part.map_batches(merge, batch_format="pyarrow",
                                batch_size=fanin)
    final = merge(pa.concat_tables(
        part.iter_batches(batch_size=fanin, batch_format="pyarrow"),
        promote_options="default"))
    out: dict[str, pa.Array] = {k: final[k] for k in keys}
    for c in sums:
        out[f"{c}_sum"] = final[p_sum[c]]
    for c in means:
        out[f"{c}_mean"] = pc.divide(final[p_sum[c]],
                                     pc.cast(final[p_cnt[c]], pa.float64()))
    if count_alias is not None:
        out[count_alias] = final["__n"]
    return pa.table(out)


def q1_pricing_summary(sf_dir: str, cutoff: str = "1998-09-02") -> pd.DataFrame:
    """TPC-H Q1-style pricing summary over lineitem (the flagship
    profiling aggregate: per-group sums/means/counts)."""
    ds = read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    )

    cutoff_ts = pa.scalar(np.datetime64(cutoff, "us"), type=pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff_ts))
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), t["l_discount"]))
        charge = pc.multiply(disc_price, pc.add(pa.scalar(1.0), t["l_tax"]))
        t = t.append_column("disc_price", disc_price)
        return t.append_column("charge", charge)

    agg = tree_grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536,
                       zero_copy_batch=True),
        keys=["l_returnflag", "l_linestatus"],
        sums=["l_quantity", "l_extendedprice", "disc_price", "charge"],
        means=["l_quantity", "l_extendedprice", "l_discount"],
        count_alias="count_order",
    ).rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
         "sum_disc_price", "sum_charge", "avg_qty", "avg_price",
         "avg_disc", "count_order"])
    df = agg.to_pandas()
    # money-scale sums at 2 dp (accumulation-order noise ~1e-6 at this
    # magnitude), unit-scale avgs at 6 dp — mirrored in the oracle SQL
    for c in ["sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"]:
        df[c] = round_half_up(df[c], 2)
    for c in ["avg_qty", "avg_price", "avg_disc"]:
        df[c] = round_half_up(df[c], 6)
    df["count_order"] = df["count_order"].astype("int64")
    return df.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def revenue_by_segment(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer broadcast join → total revenue per market
    segment. The dimension side ships once via ray.put; the fact side
    streams through a vectorized dict lookup."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    # dimension ships once as two parallel Arrow arrays; the lookup is a
    # fully vectorized index_in + take (no per-row Python); stateless
    # tasks fetch the broadcast once per worker (module cache)
    ref = ray.put((cust["c_custkey"].combine_chunks(),
                   cust["c_mktsegment"].combine_chunks()))

    def add_segment(batch: pa.Table) -> pa.Table:
        keys, segs = _cached_ref(ref)
        idx = pc.index_in(batch["o_custkey"], value_set=keys)
        return batch.append_column("c_mktsegment", pc.take(segs, idx))

    ds = read_parquet(f"{sf_dir}/orders.parquet",
                      columns=["o_custkey", "o_totalprice"])
    agg = tree_grouped_agg(
        ds.map_batches(add_segment, batch_format="pyarrow",
                       batch_size=65536),
        keys=["c_mktsegment"],
        sums=["o_totalprice"],
        count_alias="n_orders",
    ).rename_columns(["c_mktsegment", "revenue", "n_orders"])
    df = agg.to_pandas()
    df["revenue"] = round_half_up(df["revenue"], 2)
    df["n_orders"] = df["n_orders"].astype("int64")
    return df.sort_values("c_mktsegment").reset_index(drop=True)


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per event_type: count + avg(value).
    Window = truncated-timestamp column + groupby (batch-windowing,
    order-insensitive)."""
    ds = read_parquet(f"{sf_dir}/events.parquet",
                      columns=["ts", "event_type", "value"])

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], unit="hour")
        return t.append_column("window_start", w)

    agg = tree_grouped_agg(
        ds.map_batches(add_window, batch_format="pyarrow", batch_size=65536,
                       zero_copy_batch=True),
        keys=["event_type", "window_start"],
        means=["value"],
        count_alias="n",
    ).rename_columns(["event_type", "window_start", "avg_value", "n"])
    df = agg.to_pandas()
    df["avg_value"] = round_half_up(df["avg_value"], 6)
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def top_users_by_value(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Grouped top-k: total event value per user, top k users
    (deterministic tie-break: value desc, user_id asc)."""
    ds = read_parquet(f"{sf_dir}/events.parquet",
                      columns=["user_id", "value"])
    agg = tree_grouped_agg(
        ds, keys=["user_id"], sums=["value"], count_alias="n_events",
    ).rename_columns(["user_id", "total_value", "n_events"])
    df = agg.to_pandas()
    df["total_value_r"] = round_half_up(df["total_value"], 6)
    df = df.sort_values(["total_value_r", "user_id"],
                        ascending=[False, True]).head(k)
    df = df.drop(columns=["total_value"]).reset_index(drop=True)
    df["n_events"] = df["n_events"].astype("int64")
    return df[["user_id", "total_value_r", "n_events"]]


def customers_without_orders(sf_dir: str, mode: str = "broadcast") -> pd.DataFrame:
    """ANTI-join of customers against orders-with-status-'P' keys.

    mode="broadcast" (small-key-side fast path): the fact side streams
    through a DISTRIBUTED pruned scan — each batch filters + ``pc.unique``s
    its keys, only per-block distincts reach the driver, which merges
    them into one Arrow key set shipped once via ``ray.put``; customers
    then stream through a vectorized membership filter. No shuffle, and
    no driver-side read of the fact table (the driver holds only the
    distinct key set — here bounded by #customers).

    mode="join" (100 TB path, key set outgrows a broadcast): routes
    through ``dedup.semi_join_filter(anti=True)`` — a hash-partitioned
    ``Dataset.join`` with zero driver state. Identical output
    (pytest-pinned equivalence)."""
    orders = read_parquet(f"{sf_dir}/orders.parquet",
                          columns=["o_custkey", "o_orderstatus"])

    def p_keys(batch: pa.Table) -> pa.Table:
        keys = batch.filter(
            pc.equal(batch["o_orderstatus"], "P"))["o_custkey"]
        return pa.table({"o_custkey": pc.unique(keys.cast(pa.int64()))})

    keys_ds = orders.map_batches(p_keys, batch_format="pyarrow",
                                 batch_size=65536, zero_copy_batch=True)

    if mode == "join":
        from .dedup import semi_join_filter

        cust = read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"]).map_batches(
                lambda t: t.set_column(
                    t.schema.get_field_index("c_custkey"), "c_custkey",
                    t["c_custkey"].cast(pa.int64())),
                batch_format="pyarrow", batch_size=65536)
        keys_ds = keys_ds.rename_columns({"o_custkey": "c_custkey"})
        df = semi_join_filter(cust, keys_ds, "c_custkey",
                              anti=True).to_pandas()
    else:
        parts = [b["o_custkey"].to_numpy(zero_copy_only=False)
                 for b in keys_ds.iter_batches(batch_size=65536,
                                               batch_format="pyarrow")
                 if b.num_rows]
        merged = (np.unique(np.concatenate(parts)) if parts
                  else np.empty(0, dtype=np.int64))
        ref = ray.put(pa.array(merged, type=pa.int64()))

        def anti_filter(batch: pa.Table) -> pa.Table:
            hit = pc.is_in(batch["c_custkey"].cast(pa.int64()),
                           value_set=_cached_ref(ref))
            return batch.filter(pc.invert(hit))

        ds = read_parquet(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_mktsegment"])
        df = ds.map_batches(anti_filter, batch_format="pyarrow",
                            batch_size=65536).to_pandas()
    if df.empty:
        return pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                             "c_mktsegment": pd.Series(dtype="object")})
    df["c_custkey"] = df["c_custkey"].astype("int64")
    return (df[["c_custkey", "c_mktsegment"]]
            .sort_values("c_custkey").reset_index(drop=True))


def session_windows(sf_dir: str, gap_minutes: int = 30,
                    num_buckets: int = 64) -> pd.DataFrame:
    """Session windowing per user (streaming-shaped semantics): events
    within `gap_minutes` of the previous event join the same session.

    Ray shape (ray_guide 'Streaming-shaped workloads'): hash-partition
    users through the split/merge exchange (all of a user's events land
    in ONE partition; partition count ≤ num_buckets bounds per-task
    memory), then sessionize the whole partition vectorized: sort by
    (user, ts, event_id), session breaks = user change OR gap exceeded,
    session ids by cumsum, one pandas groupby over (user, sid). This
    avoids both the ~1 ms/group map_groups cost that a per-user
    grouping pays at millions of users AND the sort-based shuffle a
    ``Dataset.groupby`` would insert."""
    ds = read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_id", "user_id", "ts", "value"])
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        new_s = new_user | (g["ts"].diff() > gap)
        sid = new_s.cumsum()
        out = g.groupby(sid, sort=False).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            n_events=("event_id", "count"),
            total_value=("value", "sum"),
        )
        return out.reset_index(drop=True)

    # hash-partitioned exchange on user_id (all of a user's events land
    # in one partition; sessionize_bucket is key-mix-safe) instead of
    # groupby(bucket).map_groups — no sort-shuffle operator. An empty
    # input rides through as one typed empty block.
    refs = block_refs(ds) or [ray.put(ds.schema().base_schema.empty_table())]
    out_refs = exchange(refs, "user_id", _sessionize_task, sessionize_bucket,
                        P=partitions(len(refs), limit=num_buckets))
    df = pd.concat([t.to_pandas() for t in ray.get(out_refs)],
                   ignore_index=True)
    df["n_events"] = df["n_events"].astype("int64")
    df["total_value"] = round_half_up(df["total_value"], 6)
    return df.sort_values(["user_id", "session_start"]).reset_index(drop=True)


def dup_event_groups(sf_dir: str) -> pd.DataFrame:
    """Duplicate-group counts over events by (user_id, event_type) —
    the phash-dup shape on a driver-provided table (A10)."""
    ds = read_parquet(f"{sf_dir}/events.parquet",
                      columns=["user_id", "event_type"])
    agg = ds.groupby(["user_id", "event_type"]).aggregate(Count(alias_name="cnt"))
    df = agg.to_pandas()
    df["cnt"] = df["cnt"].astype("int64")
    df = df[df["cnt"] > 1].reset_index(drop=True)
    return df.sort_values(["user_id", "event_type"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# as-of join (custom wide operator Ray Data lacks natively)
# ---------------------------------------------------------------------------

def asof_join(
    left_ds: "rd.Dataset",
    right_ds: "rd.Dataset",
    left_on: str,
    right_on: str,
    left_by: str,
    right_by: str,
    right_cols: list[str],
    tie_col: str | None = None,
    how: str = "inner",
    num_buckets: int = 64,
) -> "rd.Dataset":
    """As-of join: each left row picks the LATEST right row of the same
    key with ``right_on`` <= ``left_on`` (backward as-of, exact matches
    allowed). Returns all left columns plus ``right_cols``.

    Ray shape (composition (a) of the custom-operator ladder): map both
    sides onto ONE superset schema (missing columns as typed nulls, a
    ``__side`` tag, unified ``__key``/``__t``), union them, hash-partition
    on the key through the shared exchange (at most ``num_buckets``
    partitions), and resolve each partition with a vectorized sorted
    merge (``pd.merge_asof(by=key)`` per partition — NOT per key: task
    count stays ≤ ``num_buckets``).

    Partitioning assumption (100 TB): ALL rows of one key must land in
    one partition — an as-of key can't be salted because its timeline must
    be scanned together. Per-partition memory is bounded by scaling
    ``num_buckets`` with the data (partitions shrink linearly); the hot-key
    bound is the largest single key's row count. For keys that outgrow a
    worker, range-partition by (key, time) and broadcast each leading
    partition's last right row instead.

    ``tie_col``: deterministic tie-break when several right rows share
    (key, time) — the row with the MAX ``tie_col`` wins (both engines
    must agree; the SQL oracle pre-dedupes the same way).
    ``how``: "inner" drops left rows with no prior right row; "left"
    keeps them with null right columns.
    """
    assert how in ("inner", "left"), how
    right_schema = right_ds.schema()
    tie = [tie_col] if tie_col and tie_col not in right_cols else []
    if right_schema is None:
        # Ray knows no schema for a side a row-function filter emptied.
        # An empty right side matches no left row: its columns come out
        # null-typed ("inner" keeps no row, "left" keeps every left row)
        r_types = {c: pa.null() for c in right_cols + tie}
    else:
        r_types = dict(zip(right_schema.names, right_schema.types))
    left_schema = left_ds.schema()
    if left_schema is None:
        # an emptied left side: no row joins, and the join contract
        # still types the key and time columns from the right side
        l_types = {left_by: r_types.get(right_by, pa.int64()),
                   left_on: r_types.get(right_on, pa.null())}
    else:
        l_types = dict(zip(left_schema.names, left_schema.types))
    left_cols = list(l_types)
    payload_r = [c for c in right_cols]

    # one superset schema both sides map onto (order fixed)
    uni_fields = (
        [("__side", pa.int8()), ("__key", pa.int64()),
         ("__t", l_types[left_on])]
        + [(c, l_types[c]) for c in left_cols if c not in (left_by, left_on)]
        + [(c, r_types[c]) for c in payload_r + tie]
    )
    uni_names = [n for n, _ in uni_fields]
    uni_types = dict(uni_fields)

    def to_uni(side: int):
        by, on = (left_by, left_on) if side == 0 else (right_by, right_on)

        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = []
            for name in uni_names:
                if name == "__side":
                    cols.append(pa.array(np.full(n, side, dtype=np.int8)))
                elif name == "__key":
                    cols.append(t[by].cast(pa.int64()))
                elif name == "__t":
                    cols.append(t[on].cast(uni_types["__t"]))
                elif name in t.column_names:
                    cols.append(t[name])
                else:
                    cols.append(pa.nulls(n, type=uni_types[name]))
            return pa.table(dict(zip(uni_names, cols)))

        return fn

    uni = left_ds.map_batches(
        to_uni(0), batch_format="pyarrow", batch_size=65536
    ).union(right_ds.map_batches(
        to_uni(1), batch_format="pyarrow", batch_size=65536))

    l_payload = [c for c in left_cols if c not in (left_by, left_on)]

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        L = g[g["__side"] == 0]
        R = g[g["__side"] == 1]
        if tie_col is not None and len(R):
            R = R.sort_values(["__key", "__t", tie_col],
                              kind="mergesort")
            R = R.drop_duplicates(["__key", "__t"], keep="last")
        Lc = L[["__key", "__t"] + l_payload].sort_values(
            "__t", kind="mergesort")
        if len(R) == 0:
            if how == "inner" or len(Lc) == 0:
                out = Lc.iloc[0:0].copy()
                for c in payload_r:
                    out[c] = pd.Series(dtype=R[c].dtype if c in R else object)
                return _uni_out(out, left_by, left_on, l_payload, payload_r)
            out = Lc.copy()
            for c in payload_r:
                out[c] = None
            return _uni_out(out, left_by, left_on, l_payload, payload_r)
        Rc = R[["__key", "__t"] + payload_r].sort_values(
            "__t", kind="mergesort")
        out = pd.merge_asof(Lc, Rc, on="__t", by="__key",
                            direction="backward",
                            suffixes=("", "__r"))
        if how == "inner" and payload_r:
            out = out[out[payload_r[0]].notna()]
        return _uni_out(out, left_by, left_on, l_payload, payload_r)

    # finalize through the hash-partitioned exchange (one merge task per
    # partition; a partition may hold MANY keys — merge_asof(by=key)
    # resolves any key mix) instead of groupby(bucket).map_groups: the
    # sort-based groupby exchange cost ~0.3 s fixed on this tiny-row
    # all-to-all. Empty partitions are dropped via the rows-count return
    # so pandas dtype promotion (how="left" nullable ints -> float) stays
    # consistent across surviving blocks. An empty input rides through
    # as one typed empty block.
    refs = block_refs(uni) or [ray.put(pa.schema(uni_fields).empty_table())]
    P = partitions(len(refs), limit=num_buckets)
    splits = split_refs(refs, "__key", P)
    out_refs = [
        _asof_merge_task.options(num_returns=2).remote(
            merge_bucket, *[s[p] for s in splits])
        for p in range(P)
    ]
    counts = ray.get([c for _, c in out_refs])
    kept = [t for (t, _), n in zip(out_refs, counts) if n > 0]
    return rd.from_arrow_refs(kept or [t for t, _ in out_refs[:1]])


@ray.remote
def _sessionize_task(merge_fn, *parts: pa.Table) -> pa.Table:
    """One session partition: concat split slices, run the caller's
    vectorized sessionizer, return the per-session aggregate table."""
    t = pa.concat_tables(parts)
    out = merge_fn(t.to_pandas())
    return pa.Table.from_pandas(out, preserve_index=False)


@ray.remote
def _asof_merge_task(merge_fn, *parts: pa.Table):
    """One as-of partition: concat the split slices, resolve with the
    caller's vectorized sorted-merge closure, return (table, rows)."""
    t = pa.concat_tables(parts)
    out = merge_fn(t.to_pandas())
    tbl = pa.Table.from_pandas(out, preserve_index=False)
    return tbl, tbl.num_rows


def _uni_out(df: pd.DataFrame, left_by: str, left_on: str,
             l_payload: list[str], payload_r: list[str]) -> pd.DataFrame:
    df = df.rename(columns={"__key": left_by, "__t": left_on})
    return df[[left_by, left_on] + l_payload + payload_r]


def events_last_order(sf_dir: str) -> pd.DataFrame:
    """Showcase as-of join: for every event, the customer's most recent
    order at-or-before the event time (inner semantics; deterministic
    max-orderkey tie-break on same-day orders). Oracle: DuckDB
    ``ASOF JOIN`` over the identically pre-deduped order side."""
    events = read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_id", "user_id", "ts"])
    orders = read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])
    out = asof_join(
        events, orders,
        left_on="ts", right_on="o_orderdate",
        left_by="user_id", right_by="o_custkey",
        right_cols=["o_orderkey", "o_totalprice"],
        tie_col="o_orderkey", how="inner",
    )
    df = out.to_pandas()
    df["event_id"] = df["event_id"].astype("int64")
    df["user_id"] = df["user_id"].astype("int64")
    df["o_orderkey"] = df["o_orderkey"].astype("int64")
    return df.sort_values("event_id").reset_index(drop=True)
