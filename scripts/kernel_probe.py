"""Per-step process CPU of the flagship's fused task over one work unit.

Writes one 4,096-row work unit of the benchmark's image input (4 parquet
files of 1,024 ``fixtures.images.gen_rows`` rows, the first half of the
8-file seeded table) to a temporary directory, reads it with the task's
own reader (``sources.readers.read_unit``), and runs the steps of
``QualityFusedStage`` and the mark + finalize step in the task's order,
timing each with ``time.process_time``: Arrow decodes parquet on its
own threads, which a calling thread's CPU clock does not see. "caption
buffer" is the batch's lowered, padded caption buffer
(``CaptionGrams``); each block's rolling hash is swept on first use, so
it counts under langid, and perplexity reuses it. The chain's
output is checked against the fused stage's own, so the probe times the
code the flagship runs.

Prints one row per step: the median over ``--reps`` repetitions in
µs/row, and the interquartile range.

    python scripts/kernel_probe.py [--seed 7] [--reps 41]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dataquality_cli_ray.fixtures.images import gen_rows  # noqa: E402
from dataquality_cli_ray.functions.text import CaptionGrams  # noqa: E402
from dataquality_cli_ray.pipelines import quality as Q  # noqa: E402
from dataquality_cli_ray.sources.readers import read_unit  # noqa: E402
from dataquality_cli_ray.stages.rules import (  # noqa: E402
    QualityConfig, finalize_decision)

FILES, FILE_ROWS, TABLE_ROWS = 4, 1024, 8192
STEPS = ("read", "rules", "decode parse", "caption buffer", "langid",
         "perplexity", "scrub", "mark + finalize")


def write_unit(d: str, seed: int) -> list[str]:
    files = []
    for i in range(FILES):
        ids = np.arange(i * FILE_ROWS, (i + 1) * FILE_ROWS)
        f = os.path.join(d, f"part-{i:05d}.parquet")
        pq.write_table(gen_rows(ids, TABLE_ROWS, seed), f, compression="none")
        files.append(f)
    return files


def run_chain(unit, stage, lookup, cfg, cpu):
    """The fused task's steps in order over ``unit`` (one batch of
    :func:`read_unit`), adding each one's process CPU seconds to
    ``cpu``; returns the task's output table."""
    def step(name, fn, *args):
        c0 = time.process_time()
        out = fn(*args)
        cpu[name] += time.process_time() - c0
        return out

    t, = step("read", lambda: list(read_unit(unit)))
    t = step("rules", stage.rules, t)
    t = step("decode parse", stage.decode, t).drop_columns(["bytes"])
    grams = step("caption buffer", CaptionGrams, t["caption_trimmed"])
    parts = []
    for lo, g in grams.blocks():
        part = step("langid", stage.langid, t.slice(lo, g.m), g)
        parts.append(step("perplexity", stage.ppl, part, g))
    t = step("scrub", stage.scrub, pa.concat_tables(parts))
    return step("mark + finalize", lambda: finalize_decision(
        Q._mark_dup(t, *lookup, cfg.dedup_key, cfg.id_col)
    ).select(Q._out_cols(cfg)))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--reps", type=int, default=41)
    args = ap.parse_args(argv)
    cfg = QualityConfig()
    lm, pm = Q.build_models()
    stage = Q.QualityFusedStage(cfg, lm, pm)
    with tempfile.TemporaryDirectory() as d:
        files = write_unit(d, args.seed)
        unit = [(f, list(range(pq.ParquetFile(f).num_row_groups)))
                for f in files]
        batch = pa.concat_tables([pq.read_table(f) for f in files])
        lookup = Q.dup_losers_from_table(batch)
        want = finalize_decision(Q._mark_dup(
            stage(batch), *lookup, cfg.dedup_key, cfg.id_col)
        ).select(Q._out_cols(cfg))
        per_rep = []
        for _ in range(args.reps):
            cpu = dict.fromkeys(STEPS, 0.0)
            got = run_chain(unit, stage, lookup, cfg, cpu)
            per_rep.append(cpu)
        if not got.equals(want):
            raise SystemExit("the probe's chain differs from the fused stage")
    rows = batch.num_rows
    print(f"{'step':<16}{'us/row':>9}{'IQR':>7}   "
          f"({rows} rows, seed {args.seed}, {args.reps} reps, process CPU)")
    for name in STEPS + ("total",):
        v = np.array([sum(r.values()) if name == "total" else r[name]
                      for r in per_rep]) / rows * 1e6
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        print(f"{name:<16}{med:>9.2f}{q3 - q1:>7.2f}")


if __name__ == "__main__":
    main()
