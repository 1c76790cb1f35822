"""As-of join semantics (custom wide operator, relational.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd_mod

from dataquality_cli_ray.pipelines.relational import asof_join


def _mk(left_rows, right_rows):
    left = pa.table({
        "event_id": pa.array([r[0] for r in left_rows], pa.int64()),
        "user_id": pa.array([r[1] for r in left_rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[2], "us") for r in left_rows],
                       pa.timestamp("us")),
    })
    right = pa.table({
        "o_custkey": pa.array([r[0] for r in right_rows], pa.int64()),
        "o_orderdate": pa.array([np.datetime64(r[1], "us")
                                 for r in right_rows], pa.timestamp("us")),
        "o_orderkey": pa.array([r[2] for r in right_rows], pa.int64()),
    })
    return rd_mod.from_arrow(left), rd_mod.from_arrow(right)


def _run(left, right, **kw):
    out = asof_join(
        left, right, left_on="ts", right_on="o_orderdate",
        left_by="user_id", right_by="o_custkey",
        right_cols=["o_orderkey"], tie_col="o_orderkey",
        num_buckets=4, **kw,
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def test_asof_backward_pick_and_no_match(ray_session):
    left, right = _mk(
        [(1, 7, "2024-01-10"),   # after both orders -> latest (key 22)
         (2, 7, "2024-01-04"),   # between -> order 21
         (3, 7, "2024-01-01"),   # before all -> no match
         (4, 8, "2024-06-01")],  # user with no orders -> no match
        [(7, "2024-01-03", 21), (7, "2024-01-07", 22)],
    )
    inner = _run(left, right, how="inner")
    assert inner["event_id"].tolist() == [1, 2]
    assert inner["o_orderkey"].tolist() == [22, 21]

    lj = _run(left, right, how="left")
    assert lj["event_id"].tolist() == [1, 2, 3, 4]
    assert lj["o_orderkey"].tolist()[:2] == [22, 21]
    assert lj["o_orderkey"].isna().tolist() == [False, False, True, True]


def test_asof_exact_match_and_tiebreak(ray_session):
    # event exactly AT the order date matches it; two same-day orders
    # resolve to the max tie_col deterministically
    left, right = _mk(
        [(1, 5, "2024-03-05")],
        [(5, "2024-03-05", 31), (5, "2024-03-05", 33), (5, "2024-03-04", 30)],
    )
    out = _run(left, right, how="inner")
    assert out["o_orderkey"].tolist() == [33]


def test_asof_matches_pandas_reference(ray_session):
    rng = np.random.default_rng(7)
    n_l, n_r = 500, 200
    lrows = [(i, int(rng.integers(0, 20)),
              f"2024-01-{int(rng.integers(1, 29)):02d}") for i in range(n_l)]
    rrows = [(int(rng.integers(0, 25)),
              f"2024-01-{int(rng.integers(1, 29)):02d}", 1000 + i)
             for i in range(n_r)]
    left, right = _mk(lrows, rrows)
    got = _run(left, right, how="inner")

    L = pd.DataFrame(lrows, columns=["event_id", "user_id", "ts"])
    L["ts"] = pd.to_datetime(L["ts"])
    R = pd.DataFrame(rrows, columns=["o_custkey", "o_orderdate", "o_orderkey"])
    R["o_orderdate"] = pd.to_datetime(R["o_orderdate"])
    R = (R.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
         .drop_duplicates(["o_custkey", "o_orderdate"], keep="last"))
    ref = pd.merge_asof(
        L.sort_values("ts", kind="mergesort"),
        R.sort_values("o_orderdate", kind="mergesort"),
        left_on="ts", right_on="o_orderdate",
        left_by="user_id", right_by="o_custkey", direction="backward")
    ref = (ref[ref["o_orderkey"].notna()]
           .sort_values("event_id").reset_index(drop=True))
    assert got["event_id"].tolist() == ref["event_id"].tolist()
    assert got["o_orderkey"].astype("int64").tolist() == \
        ref["o_orderkey"].astype("int64").tolist()


def test_customers_without_orders_join_matches_broadcast(ray_session):
    """The 100 TB join path (semi_join_filter anti=True) produces the
    broadcast fast path's exact result."""
    import os
    sf_dir = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    if not os.path.exists(f"{sf_dir}/orders.parquet"):
        pytest.skip("testdata not present")
    from dataquality_cli_ray.pipelines.relational import (
        customers_without_orders)
    bc = customers_without_orders(sf_dir, mode="broadcast")
    jn = customers_without_orders(sf_dir, mode="join")
    pd.testing.assert_frame_equal(bc, jn)
    assert len(bc) > 0


def test_tree_grouped_agg_semantics(ray_session):
    """Combiner-tree grouped aggregate: sums, null-skipping means (SQL
    AVG), COUNT(*) rows, and a column that is both summed and averaged."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from dataquality_cli_ray.pipelines.relational import tree_grouped_agg

    rng = np.random.default_rng(7)
    n = 10_000
    keys = rng.integers(0, 5, n)
    vals = rng.normal(size=n)
    mask = rng.random(n) < 0.1                      # 10% nulls
    t = pa.table({
        "k": keys,
        "v": pa.array(np.where(mask, np.nan, vals), from_pandas=False),
    })
    t = t.set_column(1, "v", pa.array(
        [None if m else float(x) for m, x in zip(mask, vals)],
        type=pa.float64()))
    ds = rd.from_arrow(t).repartition(13)
    out = tree_grouped_agg(ds, keys=["k"], sums=["v"], means=["v"],
                           count_alias="n_rows", batch_size=512).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    df = t.to_pandas()
    ref = df.groupby("k").agg(
        v_sum=("v", "sum"), v_mean=("v", "mean"),
        n_rows=("v", "size")).reset_index()
    assert out["k"].tolist() == ref["k"].tolist()
    assert out["n_rows"].tolist() == ref["n_rows"].tolist()
    np.testing.assert_allclose(out["v_sum"], ref["v_sum"], rtol=1e-12)
    np.testing.assert_allclose(out["v_mean"], ref["v_mean"], rtol=1e-12)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_asof_left_emptied_by_filter(ray_session, how):
    """A left side a row-function filter emptied (Ray knows no schema
    for it) joins to zero rows with the join contract's columns."""
    left, right = _mk([(1, 7, "2024-01-05")], [(7, "2024-01-01", 10)])
    left = left.filter(lambda r: False)
    out = asof_join(left, right, left_on="ts", right_on="o_orderdate",
                    left_by="user_id", right_by="o_custkey",
                    right_cols=["o_orderkey"], how=how, num_buckets=4)
    t = pa.concat_tables(ray_session.get(out.to_arrow_refs()))
    assert t.num_rows == 0
    assert t.schema.names == ["user_id", "ts", "o_orderkey"]


@pytest.mark.parametrize("how", ["inner", "left"])
def test_asof_right_emptied_by_filter(ray_session, how):
    """A right side a row-function filter emptied (Ray knows no schema
    for it) matches no left row: "inner" returns no rows, "left" every
    left row with null right columns. With both sides emptied the join
    returns no rows."""
    left, right = _mk([(1, 7, "2024-01-05"), (2, 8, "2024-01-06")],
                      [(7, "2024-01-01", 10)])
    right = right.filter(lambda r: False)
    out = asof_join(left, right, left_on="ts", right_on="o_orderdate",
                    left_by="user_id", right_by="o_custkey",
                    right_cols=["o_orderkey"], tie_col="o_orderkey",
                    how=how, num_buckets=4)
    t = pa.concat_tables(ray_session.get(out.to_arrow_refs()))
    assert t.schema.names == ["user_id", "ts", "event_id", "o_orderkey"]
    if how == "inner":
        assert t.num_rows == 0
    else:
        t = t.sort_by("event_id")
        assert t["event_id"].to_pylist() == [1, 2]
        assert t["user_id"].to_pylist() == [7, 8]
        assert t["o_orderkey"].null_count == 2
    # both sides emptied: no row, the contract's columns
    out = asof_join(left.filter(lambda r: False), right, left_on="ts",
                    right_on="o_orderdate", left_by="user_id",
                    right_by="o_custkey", right_cols=["o_orderkey"],
                    how=how, num_buckets=4)
    t = pa.concat_tables(ray_session.get(out.to_arrow_refs()))
    assert t.num_rows == 0
    assert t.schema.names == ["user_id", "ts", "o_orderkey"]
