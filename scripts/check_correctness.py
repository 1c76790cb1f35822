"""Dev harness mimicking the driver's correctness gate: run each
queries() entry at sf0.01 and compare against oracle_sql() via DuckDB
(row count + schema + order-insensitive value comparison).

Usage: python scripts/check_correctness.py [name ...]
"""

from __future__ import annotations

import os
import sys
import time
import traceback
import warnings

warnings.filterwarnings("ignore")

SF_DIR = "/root/testdata/sf0.01"


def to_pandas(x):
    import pandas as pd
    import pyarrow as pa

    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x.to_pandas()  # ray Dataset


def normalize(df):
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def main():
    import duckdb
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # the entry module of THIS checkout, wherever it lives
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as E

    qs = E.queries()
    oracles = E.oracle_sql()
    only = set(sys.argv[1:])

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")

    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = to_pandas(fn(SF_DIR))
            dt = time.time() - t0
            if name not in oracles:
                results[name] = f"ROWS-ONLY rows={len(res)} ({dt:.1f}s)"
                continue
            exp = con.sql(oracles[name]).df()
            a, b = normalize(res), normalize(exp)
            if list(a.columns) != list(b.columns):
                results[name] = f"SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}"
                continue
            if len(a) != len(b):
                results[name] = f"ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}"
                continue
            import pandas as pd

            try:
                pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                              check_exact=False, rtol=0, atol=1e-9)
                results[name] = f"OK rows={len(a)} ({dt:.1f}s)"
            except AssertionError as e:
                results[name] = "VALUE MISMATCH: " + str(e).split("\n")[0]
                # show first differing rows
                neq = (a != b) & ~(a.isna() & b.isna())
                bad = neq.any(axis=1)
                print(f"--- {name} first diffs:")
                print(a[bad].head(3))
                print(b[bad].head(3))
        except Exception:
            results[name] = "ERROR: " + traceback.format_exc().splitlines()[-1]
    ray.shutdown()
    width = max(len(k) for k in results)
    fails = 0
    for k, v in results.items():
        flag = "OK" if v.startswith(("OK", "ROWS-ONLY")) else "FAIL"
        if flag == "FAIL":
            fails += 1
        print(f"{k:<{width}}  {v}")
    print(f"\n{len(results) - fails}/{len(results)} passing")
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
