"""The shared hash exchange (pipelines/exchange.py): null-safe
partitioning end to end, the partition rule, the per-worker cache and
the guard on the private Ray APIs the package depends on."""

import os
import re

import numpy as np
import pyarrow as pa


PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "dataquality_cli_ray")


def test_exact_dup_groups_null_key_same_partition(ray_session):
    """A null in one block must not move an int key of that block to
    another partition: K = 2**62+1 sits in the first and the last of
    ten 65,536-row blocks (each its own combiner batch and split
    group), with a null next to it in the first. to_numpy of the
    null-holding column gives float64, where K rounds to 2**62 and
    lands in a different partition, which split K into two groups of
    cnt=1."""
    import ray.data as rd

    from dataquality_cli_ray.pipelines import dedup as DD

    K = 2**62 + 1
    n, nblocks = 65536, 10
    tables = []
    for b in range(nblocks):
        keys = np.arange(b * n, (b + 1) * n, dtype=np.int64) * 7 + 1
        t = pa.table({"k": pa.array(keys), "id": pa.array(
            np.arange(b * n, (b + 1) * n, dtype=np.int64))})
        if b in (0, nblocks - 1):
            k = t["k"].to_pylist()
            k[0] = K
            if b == 0:
                k[1] = None
            t = t.set_column(0, "k", pa.array(k, type=pa.int64()))
        tables.append(t)
    g = DD.exact_dup_groups(rd.from_arrow(tables), "k", "id")
    hits = pa.concat_tables(
        b.filter(pa.compute.equal(b["k"], K))
        for b in g.iter_batches(batch_format="pyarrow", batch_size=None))
    assert hits.to_pylist() == [{"k": K, "winner": 0, "cnt": 2}]


def test_partition_ids_null_safe_and_typed():
    """Int keys give the same partition with or without a null next to
    them (also above 2**53); strings hash stably; every id is in
    range."""
    from dataquality_cli_ray.pipelines.exchange import partition_ids

    big = [2**62 + 1, 2**62 + 2, 2**53 + 1, -5, 0]
    for P in (2, 4, 7, 32):
        plain = partition_ids(pa.array(big, type=pa.int64()), P)
        holed = partition_ids(pa.array(big + [None], type=pa.int64()), P)
        assert plain.tolist() == holed[:-1].tolist()
        assert holed[-1] == partition_ids(pa.array([0]), P)[0]
        s = partition_ids(pa.chunked_array([["a", "b"], [None, "a"]]), P)
        assert s[0] == s[3]
        assert ((plain >= 0) & (plain < P)).all()


def test_split_is_a_partition_of_the_rows():
    from dataquality_cli_ray.pipelines.exchange import partition_ids, split

    t = pa.table({"k": pa.array(np.arange(1000) % 37), "v": np.arange(1000)})
    parts = split(t, "k", 5)
    assert len(parts) == 5
    assert sum(p.num_rows for p in parts) == t.num_rows
    for i, p in enumerate(parts):
        assert (partition_ids(p["k"], 5) == i).all()
    assert [p.num_rows for p in split(t.slice(0, 0), "k", 3)] == [0, 0, 0]


def test_dedup_index_rejects_one_partition(ray_session, tmp_path):
    """An index layout of one partition (`corpus build-index --k 1`) is
    refused with a ValueError; with num_returns=1 the split task's list
    would come back as ONE ref and fail as a TypeError."""
    import pytest
    import ray.data as rd

    from dataquality_cli_ray.pipelines import dedup as DD

    ds = rd.from_items([{"text": f"t{i % 5}", "id": i} for i in range(20)])
    with pytest.raises(ValueError, match="P >= 2"):
        DD.build_dedup_index(ds, "text", "id", str(tmp_path), n_partitions=1)
    assert DD.build_dedup_index(ds, "text", "id", str(tmp_path / "two"),
                                n_partitions=2) == 5


def test_partition_rule(ray_session):
    """P = max(2, min(32, cpus, 2 x blocks, limit)) on the 4-CPU test
    cluster; split groups of max(1, min(8, blocks // (2 x cpus)))."""
    from dataquality_cli_ray.pipelines import exchange as X

    assert X.cluster_cpus() == 4
    assert X.partitions() == 4
    assert X.partitions(1) == 2
    assert X.partitions(100) == 4
    assert X.partitions(100, limit=3) == 3
    assert X.partitions(100, limit=1) == 2
    assert [X.group_size(n) for n in (1, 8, 16, 40, 200)] == [1, 1, 2, 5, 8]


def test_worker_cache_builds_once_per_key_and_clears_past_bound(
        ray_session, monkeypatch):
    """worker_cached calls its factory once per key across repeated
    calls, and the cache is cleared when a miss finds its 32 entries
    full; worker_get fetches a ref once."""
    import ray

    from dataquality_cli_ray.pipelines import exchange as X

    monkeypatch.setattr(X, "_WORKER_CACHE", {})     # this test's own
    made = []

    def get(i):
        return X.worker_cached(("test", i), lambda: made.append(i) or i)

    assert [get(0), get(0), get(1), get(0)] == [0, 0, 1, 0]
    assert made == [0, 1]
    for i in range(2, 34):          # 32 more keys: the cache fills up
        get(i)
    get(0)                          # so key 0 was cleared: built again
    assert made == list(range(34)) + [0]

    fetched = []
    real_get = ray.get
    monkeypatch.setattr(ray, "get",
                        lambda r: fetched.append(r) or real_get(r))
    ref = ray.put({"x": 1})
    assert X.worker_get(ref) is X.worker_get(ref)
    assert X.worker_get(ref) == {"x": 1}
    assert fetched == [ref]


def test_block_refs_uses_ray_internal_bundles(ray_session, monkeypatch):
    """block_refs must find Ray's ``iter_internal_ref_bundles`` (the
    fallback re-executes the plan's schema probe), and it skips
    known-empty blocks."""
    import ray
    import ray.data as rd

    from dataquality_cli_ray.pipelines.exchange import block_refs

    assert hasattr(rd.Dataset, "iter_internal_ref_bundles")

    def no_fallback(*a, **k):
        raise AssertionError("block_refs took the to_arrow_refs fallback")

    monkeypatch.setattr(rd.Dataset, "to_arrow_refs", no_fallback)
    ds = rd.from_arrow([pa.table({"x": [1, 2]}), pa.table({"x": [3]})])
    ds = ds.map_batches(lambda t: t.filter(pa.compute.greater(t["x"], 2)),
                        batch_format="pyarrow", batch_size=None)
    got = ray.get(block_refs(ds))
    assert all(t.num_rows > 0 for t in got)
    assert sum(t.num_rows for t in got) == 1


def test_private_ray_api_guard():
    """The private Ray names the package relies on still exist, so a Ray
    upgrade that moves them fails here, loudly; and only exchange.py
    touches the cluster size and the internal block bundles."""
    from ray.data._internal.datasource.json_datasource import (  # noqa: F401
        JSON_FILE_EXTENSIONS)

    offenders = []
    for root, _, files in os.walk(PKG):
        for f in files:
            if not f.endswith(".py") or f == "exchange.py":
                continue
            path = os.path.join(root, f)
            with open(path) as fh:
                src = fh.read()
            if re.search(r"cluster_resources|iter_internal_ref_bundles", src):
                offenders.append(os.path.relpath(path, PKG))
    assert offenders == []


def test_no_private_names_cross_modules():
    """No module imports another module's underscore names."""
    offenders = []
    for root, _, files in os.walk(PKG):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path) as fh:
                src = fh.read()
            for m in re.finditer(
                    r"from\s+\.+[\w.]*\s+import\s+(\([^)]*\)|[^\n]*)", src):
                bad = [n for n in re.findall(r"\w+", m.group(1))
                       if n.startswith("_")]
                if bad:
                    offenders.append((os.path.relpath(path, PKG), bad))
    assert offenders == []


def _arrow(ds) -> pa.Table:
    import ray
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_empty_inputs_stay_typed(ray_session, tmp_path):
    """block_refs skips known-empty blocks, so a zero-row input reaches
    an exchange with no block at all; each op still returns its typed
    empty result."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataquality_cli_ray.pipelines.corpus_ops import (
        dedup_lines, remove_duplicate_spans)
    from dataquality_cli_ray.pipelines.relational import (
        asof_join, session_windows)

    docs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                   "text": pa.array([], pa.string())}))
    spans = _arrow(remove_duplicate_spans(docs, "text", "doc_id", n=5))
    assert spans.num_rows == 0
    assert spans.schema.names == ["doc_id", "clean_text", "n_words",
                                  "n_removed"]
    lines = _arrow(dedup_lines(docs, "text", "doc_id"))
    assert lines.num_rows == 0
    assert lines.schema.names == ["doc_id", "clean_text", "n_lines",
                                  "n_removed"]

    ts = pa.timestamp("us")
    left = rd.from_arrow(pa.table({"event_id": pa.array([], pa.int64()),
                                   "user_id": pa.array([], pa.int64()),
                                   "ts": pa.array([], ts)}))
    right = rd.from_arrow(pa.table({"o_custkey": pa.array([], pa.int64()),
                                    "o_orderdate": pa.array([], ts),
                                    "o_orderkey": pa.array([], pa.int64())}))
    for how in ("inner", "left"):
        out = _arrow(asof_join(left, right, "ts", "o_orderdate", "user_id",
                               "o_custkey", ["o_orderkey"], how=how))
        assert out.num_rows == 0
        assert out.schema.names == ["user_id", "ts", "event_id",
                                    "o_orderkey"]

    pq.write_table(pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "ts": pa.array([], ts),
                             "value": pa.array([], pa.float64())}),
                   tmp_path / "events.parquet")
    sess = session_windows(str(tmp_path))
    assert len(sess) == 0
    assert list(sess.columns) == ["user_id", "session_start", "n_events",
                                  "total_value"]
