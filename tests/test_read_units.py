"""The local parquet read: work units planned from footers
(``sources.readers.plan_units``), the one reader over them
(``read_parquet``), and the flagship's output whatever the file
layout."""

import pandas as pd
import pyarrow.parquet as pq

from tests.conftest import SF_SMOKE

from dataquality_cli_ray.sources import readers as R
from dataquality_cli_ray.sources.readers import PIECE_MAX_BYTES, plan_units

MIB = 1 << 20


def _flat(units):
    return [(f, g) for u in units for f, groups in u for g in groups]


def test_every_row_group_once_in_file_order():
    files = ["a", "b", "c", "d"]
    row_groups = [[(700, MIB), (1500, MIB), (3, 1)],
                  [(5000, 2 * MIB)],
                  [(1, 1)] * 9,
                  [(2048, MIB), (2048, MIB)]]
    want = [(f, i) for f, groups in zip(files, row_groups)
            for i in range(len(groups))]
    for cpus in (1, 2, 4, 32):
        assert _flat(plan_units(files, row_groups, cpus)) == want, cpus


def test_one_large_file_splits_at_four_cpus():
    # one unit per CPU, each a piece of two row groups (three would pass
    # PIECE_MAX_BYTES)
    units = plan_units(["big"], [[(4096, 11 * MIB)] * 8], 4)
    assert units == [[("big", [i, i + 1])] for i in range(0, 8, 2)]
    # at 1 CPU, one unit of all eight row groups, in pieces of two
    assert plan_units(["big"], [[(4096, 11 * MIB)] * 8], 1) == [
        [("big", [0, 1]), ("big", [2, 3]), ("big", [4, 5]), ("big", [6, 7])]]


def test_small_files_pack_at_one_cpu():
    files = [f"part-{i}" for i in range(8)]
    units = plan_units(files, [[(1024, 3 * MIB)]] * 8, 1)
    assert len(units) == 1
    assert [f for u in units for f, _ in u] == files
    # a tiny input is one unit whatever the width
    assert len(plan_units(files[:3], [[(10, 100)]] * 3, 4)) == 1


def test_zero_row_files_and_uneven_row_groups():
    files = ["empty", "uneven", "no_groups"]
    row_groups = [[(0, 0)], [(100, 1), (3000, 1), (5, 1), (0, 0)], []]
    units = plan_units(files, row_groups, 4)
    assert _flat(units) == [("uneven", 0), ("uneven", 1), ("uneven", 2)]
    rows = [sum(row_groups[files.index(f)][i][0] for i in groups)
            for u in units for f, groups in u]
    assert sum(rows) == 3105
    # no rows at all: one unit reading no row group keeps the schema
    assert plan_units(["empty"], [[(0, 0)]], 4) == [[("empty", [])]]
    assert plan_units([], [], 4) == []


def test_oversized_row_group_stays_whole():
    big = PIECE_MAX_BYTES + 1
    # at 2 CPUs the row target is UNIT_MIN_ROWS, below row group 3's
    units = plan_units(["f"], [[(10, big), (10, MIB), (10, MIB),
                                (5000, MIB)]], 2)
    pieces = [groups for u in units for _, groups in u]
    assert pieces[0] == [0]                 # over the byte limit: alone
    assert [3] in pieces                    # over the row target: alone
    assert _flat(units) == [("f", i) for i in range(4)]
    # two row groups that together pass the byte limit are two pieces
    units = plan_units(["f"], [[(10, 20 * MIB), (10, 20 * MIB)]], 1)
    assert [groups for u in units for _, groups in u] == [[0], [1]]


def test_one_file_or_four_files_same_output(ray_session, images_path,
                                            models, tmp_path, monkeypatch):
    """The same 600 rows as one file of 8 row groups or as 4 files give
    the same flagship output frame, with the one file split into 4
    units (one per CPU)."""
    from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
    from dataquality_cli_ray.stages.rules import QualityConfig

    t = pq.read_table(images_path)
    one, four = tmp_path / "one", tmp_path / "four"
    one.mkdir()
    four.mkdir()
    pq.write_table(t, str(one / "all.parquet"), row_group_size=75,
                   compression="none")
    for i in range(4):
        pq.write_table(t.slice(i * 150, 150),
                       str(four / f"part-{i:05d}.parquet"),
                       compression="none")
    monkeypatch.setattr(R, "UNIT_MIN_ROWS", 64)
    lm, pm = models
    f = str(one / "all.parquet")
    assert len(plan_units([f], [m.row_groups for m in R._footers([f])],
                          4)) == 4

    def run(path):
        out = images_quality_pipeline(str(path), QualityConfig(),
                                      langid_model=lm, ppl_model=pm)
        return out.to_pandas().sort_values("image_id").reset_index(drop=True)

    a, b = run(one), run(four)
    assert len(a) == 600
    pd.testing.assert_frame_equal(a, b)


def test_unit_over_piece_max_bytes_labels_in_batches(ray_session, images_path,
                                                    models, tmp_path,
                                                    monkeypatch):
    """A unit whose pieces add up to more than PIECE_MAX_BYTES is read
    and labeled in several batches, each within the limit, and its
    labeled rows equal a one-batch run's."""
    import pyarrow as pa
    import ray

    from dataquality_cli_ray.pipelines import quality as Q
    from dataquality_cli_ray.stages.rules import QualityConfig

    t = pq.read_table(images_path)
    f = str(tmp_path / "all.parquet")
    pq.write_table(t, f, row_group_size=75, compression="none")
    units = pa.table({"paths": [[f] * 8],
                      "row_groups": [[[i] for i in range(8)]]})
    kw = {"cfg": QualityConfig(), "langid_ref": ray.put(models[0]),
          "ppl_ref": ray.put(models[1]),
          "dup_ref": ray.put(Q.dup_losers_from_table(t)),
          "units": True, "with_path": True}
    one = list(Q._label_task_fn(units, **kw))
    assert len(one) == 1 and one[0].num_rows == 600
    monkeypatch.setattr(R, "PIECE_MAX_BYTES", t.nbytes // 3)
    batches = list(R.read_unit([(f, [i]) for i in range(8)], with_path=True))
    assert len(batches) > 2
    assert all(b.nbytes <= R.PIECE_MAX_BYTES for b in batches)
    assert sum(b.num_rows for b in batches) == 600
    many = list(Q._label_task_fn(units, **kw))
    assert len(many) == len(batches)
    assert pa.concat_tables(many).equals(one[0])


def test_zero_row_input_labels_nothing(ray_session, images_path, models,
                                      tmp_path):
    """A parquet input with no rows plans one unit that reads only the
    schema; its task labels nothing, so the plan yields no row (as Ray
    calls no UDF on an empty block)."""
    from dataquality_cli_ray.pipelines.quality import images_quality_pipeline
    from dataquality_cli_ray.stages.rules import QualityConfig

    pq.write_table(pq.read_table(images_path).slice(0, 0),
                   str(tmp_path / "empty.parquet"))
    out = images_quality_pipeline(str(tmp_path), QualityConfig(),
                                  langid_model=models[0], ppl_model=models[1])
    assert sum(b.num_rows for b in out.iter_batches(
        batch_format="pyarrow")) == 0


def test_cached_footers_start_no_thread(tmp_path, monkeypatch):
    """Footers come from the cache first: a call whose files are all
    cached starts no thread, and a call with misses reads only those."""
    import threading

    import pyarrow as pa

    files = []
    for i in range(8):
        f = str(tmp_path / f"part-{i}.parquet")
        pq.write_table(pa.table({"x": list(range(i + 1))}), f)
        files.append(f)
    first = R._footers(files)
    assert [m.num_rows for m in first] == list(range(1, 9))
    read = []
    real_read = pq.read_metadata

    def no_thread(self):
        raise AssertionError("a thread was started")

    def counting_read(f, *a, **k):
        read.append(f)
        return real_read(f, *a, **k)

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(pq, "read_metadata", counting_read)
    again = R._footers(files)
    assert all(a is b for a, b in zip(again, first)) and not read
    monkeypatch.undo()
    monkeypatch.setattr(pq, "read_metadata", counting_read)
    pq.write_table(pa.table({"x": list(range(20))}), files[3])
    assert R._footers(files)[3].num_rows == 20
    assert read == [files[3]]


def _read_frame(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas()


def test_read_parquet_equals_pyarrow(ray_session, tmp_path):
    """read_parquet gives pq.read_table's frame for one file, a
    directory (hidden and underscore files skipped), a multi-row-group
    file, a column subset, and a zero-row file (schema kept)."""
    import pyarrow as pa

    t = pq.read_table(f"{SF_SMOKE}/orders.parquet")
    one = str(tmp_path / "one.parquet")
    pq.write_table(t, one)
    d = tmp_path / "dir"
    d.mkdir()
    for i in range(3):
        pq.write_table(t.slice(i * 500, 500), str(d / f"part-{i}.parquet"))
    for junk in (".x.parquet", "_x.parquet"):
        pq.write_table(t.slice(0, 7), str(d / junk))
    many = str(tmp_path / "many.parquet")
    pq.write_table(t, many, row_group_size=100)
    assert pq.ParquetFile(many).metadata.num_row_groups > 4
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(t.slice(0, 0), empty)

    def same(path, want, columns=None):
        pd.testing.assert_frame_equal(
            _read_frame(R.read_parquet(path, columns=columns)),
            want.to_pandas())

    same(one, t)
    same(str(d), pa.concat_tables([t.slice(i * 500, 500) for i in range(3)]))
    same(many, t)
    same(many, t.select(["o_orderkey", "o_orderpriority"]),
         columns=["o_orderkey", "o_orderpriority"])
    same(empty, t.slice(0, 0))
    assert R.read_parquet(empty).schema().names == t.schema.names


def test_one_row_group_file_runs_on_every_cpu(ray_session, tmp_path):
    """A one-row-group file is one work unit, yet a batched map over its
    read runs as several tasks at 4 CPUs: the read's blocks are split
    before the map (a from_items read fused with the map would run the
    whole file as one task)."""
    import re

    import pyarrow as pa

    f = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": list(range(4096))}), f)
    assert len(R.parquet_units([f], 4)) == 1
    ds = R.read_parquet(f).map_batches(lambda b: b, batch_size=512,
                                       batch_format="pyarrow").materialize()
    assert ds.count() == 4096
    tasks = re.search(r"MapBatches\(<lambda>\): (\d+) tasks executed",
                      ds.stats())
    assert int(tasks.group(1)) >= 2, ds.stats()
