"""Profiler correctness: stats vs DuckDB, merge associativity, reference
semantics (blank-as-null, promotion lattice, rating thresholds)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from tests.conftest import SF_SMOKE

from dataquality_cli_ray.state.sketches import (
    ColumnPartial,
    column_kind,
    merge_partial_maps,
    partials_for_table,
)
from dataquality_cli_ray.pipelines.profiler import (
    describe,
    null_percentage,
    quality_rating,
    rollup,
)


def test_describe_matches_duckdb(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF_SMOKE}/lineitem.parquet")
    t = describe(ds).to_pandas().set_index("column")
    con = duckdb.connect()
    exp = con.sql(
        f"""SELECT count(l_quantity) n, avg(l_quantity) mean,
            stddev_pop(l_quantity) std, min(l_quantity) mn, max(l_quantity) mx,
            percentile_cont(0.5) WITHIN GROUP (ORDER BY l_quantity) q50,
            count(DISTINCT l_quantity) u
            FROM '{SF_SMOKE}/lineitem.parquet'"""
    ).fetchone()
    r = t.loc["l_quantity"]
    assert r["n"] == 6000 and r["nulls"] == 0
    assert abs(r["mean"] - exp[1]) < 1e-9
    assert abs(r["std"] - exp[2]) < 1e-9
    assert r["min"] == exp[3] and r["max"] == exp[4]
    assert abs(r["q50"] - exp[5]) < 1e-9
    assert r["unique"] == exp[6]


def test_merge_associativity():
    """Partial merge is order-insensitive: any grouping of batches gives
    the same finalized stats (required for Ray's unordered execution)."""
    rng = np.random.default_rng(7)
    vals = rng.normal(100, 15, 10_000)
    tables = [
        pa.table({"x": vals[i : i + 1000]}) for i in range(0, 10_000, 1000)
    ]
    maps = [partials_for_table(t) for t in tables]
    a = merge_partial_maps([maps[i] for i in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]])
    maps2 = [partials_for_table(t) for t in tables]
    b = merge_partial_maps([maps2[i] for i in [9, 3, 5, 0, 8, 1, 7, 2, 6, 4]])
    fa, fb = a["x"].finalize(), b["x"].finalize()
    for k in ["n", "nulls", "min", "max", "unique"]:
        assert fa[k] == fb[k], k
    for k in ["mean", "std", "q25", "q50", "q75"]:
        assert abs(fa[k] - fb[k]) < 1e-9, k


def test_blank_as_null_rule():
    """Reference M2: null = Arrow-null OR blank-after-trim
    (adaptive_streaming_engine.go:206-209)."""
    t = pa.table({"s": ["a", "", "  ", "\t", None, "b"]})
    p = partials_for_table(t)["s"]
    assert p.n == 6 and p.nulls == 4


def test_type_promotion_lattice():
    """simple_engine.go:262-270: int iff only ints; float if ints+floats;
    string otherwise."""
    cases = [
        (["1", "2", "3"], "int"),
        (["1", "2.5", "3"], "float"),
        (["1", "x", "3"], "string"),
        (["1e3", "2.0"], "float"),
    ]
    for vals, want in cases:
        p = partials_for_table(pa.table({"c": vals}))["c"]
        assert p.inferred_type() == want, (vals, want)


def test_datetime_inference():
    """Additive datetime member of the lattice: EVERY non-blank value
    must strptime-VALIDATE (shape-matching but impossible dates fail);
    numeric/datetime mixes stay string; blanks don't block."""
    cases = [
        (["2024-01-02", "1999-12-31"], "datetime"),
        (["2024-01-02 03:04:05", "2024-01-02T03:04:05",
          "2024-01-02"], "datetime"),            # mixed ISO forms
        (["2024-01-02", ""], "datetime"),        # blank = null, ignored
        (["2024-13-45"], "string"),              # shape ok, invalid date
        (["2024-01-02", "7"], "string"),         # datetime + int mix
        (["2024-01-02", "hello"], "string"),
        (["2024-01-02 03:04"], "string"),        # minutes-only not probed
    ]
    for vals, want in cases:
        p = partials_for_table(pa.table({"c": vals}))["c"]
        assert p.inferred_type() == want, (vals, want)
    # merge across partials keeps the lattice
    a = partials_for_table(pa.table({"c": ["2024-01-02"]}))["c"]
    b = partials_for_table(pa.table({"c": ["2025-06-07"]}))["c"]
    assert a.merge(b).inferred_type() == "datetime"
    a = partials_for_table(pa.table({"c": ["2024-01-02"]}))["c"]
    b = partials_for_table(pa.table({"c": ["nope"]}))["c"]
    assert a.merge(b).inferred_type() == "string"


def test_quantile_interpolation_matches_sql():
    vals = [1.0, 2.0, 3.0, 10.0]
    p = partials_for_table(pa.table({"x": vals}))["x"]
    f = p.finalize()
    con = duckdb.connect()
    q = con.sql(
        "SELECT percentile_cont(0.25) WITHIN GROUP (ORDER BY x)::DOUBLE,"
        " percentile_cont(0.75) WITHIN GROUP (ORDER BY x)::DOUBLE"
        " FROM (VALUES (1.0::DOUBLE),(2.0),(3.0),(10.0)) t(x)"
    ).fetchone()
    assert abs(f["q25"] - q[0]) < 1e-12
    assert abs(f["q75"] - q[1]) < 1e-12


def test_weighted_quantile_merge_sorted_layout():
    """ADVICE r1: a stride-subsampled partial (sorted/clustered block
    layout) merged with exact partials must keep rank error ~1/cap —
    unweighted concatenation would drag q50 toward the exact buffers."""
    n = 40_000
    vals = np.arange(n, dtype=np.float64)      # globally sorted layout
    cap = 2048
    # first partial sees the low half and overflows its cap (subsampled)
    p = ColumnPartial(name="x", kind="numeric", values_cap=cap)
    p.update(pa.array(vals[: n // 2]))
    assert not p.values_exact
    # remaining data arrives as exact partials (below cap each)
    for lo in range(n // 2, n, cap // 2):
        q = ColumnPartial(name="x", kind="numeric", values_cap=cap)
        q.update(pa.array(vals[lo: lo + cap // 2]))
        p.merge(q)
    f = p.finalize()
    for frac, key in [(0.25, "q25"), (0.5, "q50"), (0.75, "q75")]:
        true = np.quantile(vals, frac)
        rank_err = abs(f[key] - true) / n      # value space == rank space
        assert rank_err < 3.0 / cap, (key, f[key], true, rank_err)


def test_weighted_quantile_reduces_to_exact():
    w = np.ones(5)
    v = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    from dataquality_cli_ray.state.sketches import (
        _quantile_cont, _quantile_cont_weighted)
    for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        assert abs(_quantile_cont_weighted(v, w, q) - _quantile_cont(v, q)) < 1e-12


def test_hll_fallback_accuracy():
    p = ColumnPartial(name="x", kind="numeric", unique_cap=1000)
    arr = pa.array(np.arange(50_000, dtype=np.int64))
    p.update(arr)
    p._compact()
    assert p.hll is not None
    est = p.finalize()["unique"]
    assert abs(est - 50_000) / 50_000 < 0.05     # HLL p=14 → ~1% typical


def test_mode_tiebreak_deterministic():
    t = pa.table({"s": ["b", "a", "b", "a", "c"]})
    f = partials_for_table(t)["s"].finalize()
    # counts: a=2, b=2 → highest count, then smallest value
    assert f["top"] == "a" and f["freq"] == 2


def test_rating_thresholds():
    """cmd/describe.go:393-401: Good ≤10, Fair ≤25, else Poor."""
    assert quality_rating(0.0) == "Good"
    assert quality_rating(10.0) == "Good"
    assert quality_rating(10.1) == "Fair"
    assert quality_rating(25.0) == "Fair"
    assert quality_rating(25.1) == "Poor"


def test_null_percentage_and_rollup():
    t = pa.table({"a": [1, None, 3], "b": ["", "x", "y"]})
    stats = pa.Table.from_pylist(
        [partials_for_table(t)[c].finalize() for c in ["a", "b"]]
    )
    npct = null_percentage(stats)
    assert abs(npct - (2 / 6 * 100)) < 1e-9
    r = rollup({"t1": stats}).to_pylist()[0]
    assert r["n_rows"] == 3 and r["n_cols"] == 2 and r["rating"] == "Poor"


def test_column_kind():
    assert column_kind(pa.int32()) == "numeric"
    assert column_kind(pa.float64()) == "numeric"
    assert column_kind(pa.string()) == "string"
    assert column_kind(pa.timestamp("us")) == "timestamp"
    assert column_kind(pa.binary()) == "other"
    assert column_kind(pa.list_(pa.float32())) == "other"


def test_key_columns_and_detail_targets():
    import pyarrow as pa
    from dataquality_cli_ray.pipelines.profiler import (
        detailed_analysis_targets,
        key_columns,
    )
    t1 = pa.table({"a": [1.0, 2.0], "b": ["x", "y"]})
    stats = pa.Table.from_pylist(
        [partials_for_table(t1)[c].finalize() for c in ["a", "b"]]
    )
    assert key_columns(stats) == ["a"]   # numeric mean>0; b unique<=100
    targets = detailed_analysis_targets({"t1": stats}, null_pct_gt=-1.0)
    assert targets == ["t1"]


def test_sketch_mode(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF_SMOKE}/lineitem.parquet")
    t = describe(ds, mode="sketch").to_pandas().set_index("column")
    r = t.loc["l_orderkey"]
    # distincts in sketch mode are approximate but close (HLL p=14)
    assert abs(r["unique"] - 1500) / 1500 < 0.05
    assert r["n"] == 6000


def test_sampled_describe(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF_SMOKE}/lineitem.parquet")
    t = describe(ds, sample_frac=0.5, seed=1).to_pandas().set_index("column")
    n = t.loc["l_quantity"]["n"]
    assert 2000 < n < 4000    # ~50% sample


def test_describe_directory_matches_single(ray_session, tmp_path):
    """Per-file fan-out (raw tasks) must produce the same stats as the
    Dataset-based describe on each file."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataquality_cli_ray.pipelines.profiler import (describe,
                                                        describe_directory)

    t = pq.read_table("/root/testdata/sf0.001/nation.parquet")
    f1 = str(tmp_path / "a.parquet"); pq.write_table(t.slice(0, 12), f1)
    f2 = str(tmp_path / "b.parquet"); pq.write_table(t.slice(12), f2)
    res = describe_directory([f1, f2])
    assert set(res) == {f1, f2}
    for f in (f1, f2):
        want = describe(rd.read_parquet(f)).to_pandas()
        got = res[f].to_pandas()
        import pandas as pd
        pd.testing.assert_frame_equal(got, want)


def test_describe_file_matches_dataset_describe(ray_session, tmp_path):
    """Row-group-parallel describe_file must match the Dataset-based
    describe (same partial machinery, deterministic row-group merge
    order) on a multi-row-group file."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataquality_cli_ray.pipelines.profiler import describe_file

    t = pq.read_table("/root/testdata/sf0.001/orders.parquet")
    f = str(tmp_path / "o.parquet")
    pq.write_table(t, f, row_group_size=max(1, t.num_rows // 7))
    got = describe_file(f).to_pandas()
    want = describe(rd.read_parquet(f)).to_pandas()
    # float partials merge in different orders -> last-bit noise
    num = want.select_dtypes("float64").columns
    pd.testing.assert_frame_equal(
        got.drop(columns=num), want.drop(columns=num))
    for c in num:
        np.testing.assert_allclose(got[c], want[c], rtol=1e-12)


def test_describe_file_skips_hidden_and_underscore_files(ray_session,
                                                        tmp_path):
    """describe_file over a directory lists it as every reader does:
    ``.x.parquet`` and ``_x.parquet`` files are not profiled."""
    import pandas as pd
    import pyarrow.parquet as pq

    from dataquality_cli_ray.pipelines.profiler import describe_file

    t = pq.read_table(f"{SF_SMOKE}/nation.parquet")
    clean, junk = tmp_path / "clean", tmp_path / "junk"
    for d in (clean, junk):
        d.mkdir()
        pq.write_table(t, str(d / "a.parquet"))
    pq.write_table(t.slice(0, 5), str(junk / ".x.parquet"))
    pq.write_table(t.slice(5, 5), str(junk / "_x.parquet"))
    pd.testing.assert_frame_equal(describe_file(str(junk)).to_pandas(),
                                  describe_file(str(clean)).to_pandas())


def _describe_args(path, recursive=False, mode="exact"):
    import argparse

    return argparse.Namespace(path=str(path), recursive=recursive,
                              output=None, num_cpus=None, mode=mode)


def test_describe_cli_csv_dir_honors_recursive_and_mode(ray_session, tmp_path,
                                                        monkeypatch, capsys):
    """`describe DIR` over CSV files reads the nested file only with
    --recursive, and profiles every file in the chosen --mode."""
    from dataquality_cli_ray import cli
    from dataquality_cli_ray.pipelines import profiler

    (tmp_path / "top.csv").write_text("a,b\n1,x\n2,y\n3,x\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "nested.csv").write_text("a,b\n4,z\n")
    modes = []
    real = profiler.describe

    def spy(ds, *a, mode="exact", **k):
        modes.append(mode)
        return real(ds, *a, mode=mode, **k)

    monkeypatch.setattr(profiler, "describe", spy)
    assert cli.cmd_describe(_describe_args(tmp_path, mode="sketch")) == 0
    out = capsys.readouterr().out
    assert "top.csv" in out and "nested.csv" not in out
    assert modes == ["sketch"]

    modes.clear()
    assert cli.cmd_describe(_describe_args(tmp_path, recursive=True)) == 0
    out = capsys.readouterr().out
    assert "top.csv" in out and "nested.csv" in out
    assert modes == ["exact", "exact"]


def test_describe_cli_empty_dir_exits_2(ray_session, tmp_path, capsys):
    """A directory with no parquet or csv input is a usage error (exit
    2 and a message), not a traceback."""
    from dataquality_cli_ray import cli

    assert cli.cmd_describe(_describe_args(tmp_path)) == 2
    assert "no parquet or csv inputs" in capsys.readouterr().err
