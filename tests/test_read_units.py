"""The quality path's parquet read: work units planned from footers
(``sources.readers.plan_units``), and the flagship's output whatever
the file layout."""

import pandas as pd
import pyarrow.parquet as pq

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
    units = plan_units(["big"], [[(4096, 11 * MIB)] * 8], 4)
    assert units == [[("big", [i])] for i in range(8)]
    # at 1 CPU, two units of four row groups, read in pieces of two
    # (three would pass PIECE_MAX_BYTES)
    assert plan_units(["big"], [[(4096, 11 * MIB)] * 8], 1) == [
        [("big", [0, 1]), ("big", [2, 3])],
        [("big", [4, 5]), ("big", [6, 7])]]


def test_small_files_pack_at_one_cpu():
    files = [f"part-{i}" for i in range(8)]
    units = plan_units(files, [[(1024, 3 * MIB)]] * 8, 1)
    assert len(units) <= 2
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
    units = plan_units(["f"], [[(10, big), (10, MIB), (10, MIB),
                                (5000, MIB)]], 1)
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
    the same flagship output frame, with the one file split into 8
    units."""
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
                          4)) == 8

    def run(path):
        out = images_quality_pipeline(str(path), QualityConfig(),
                                      langid_model=lm, ppl_model=pm)
        return out.to_pandas().sort_values("image_id").reset_index(drop=True)

    a, b = run(one), run(four)
    assert len(a) == 600
    pd.testing.assert_frame_equal(a, b)
