"""Per-step process CPU and page faults of the flagship's fused task
over one work unit.

Writes the benchmark's image input (8 parquet files of 1,024
``fixtures.images.gen_rows`` rows: the 8,192-row unit a ``flagship`` op
labels at 1 CPU) to a temporary directory, reads it as one unit with
the task's own reader (``sources.readers.read_unit``), and runs the
steps of ``QualityFusedStage`` and the mark + finalize step in the
task's order, timing each with ``time.process_time``: Arrow decodes
parquet on its own threads, which a calling thread's CPU clock does not
see. Each step's minor page faults (``ru_minflt`` of the process) are
counted beside its CPU: a step that faults pages in pays for it in CPU
time, and a smaller unit faults more often than the task does. "caption
buffer" is the batch's lowered, padded caption buffer
(``CaptionGrams``); each block's rolling hash is swept on first use, so
it counts under langid, and perplexity reuses it. The chain's
output is checked against the fused stage's own, so the probe times the
code the flagship runs.

Prints one row per step: the median over ``--reps`` repetitions of
its CPU in µs/row, the interquartile range, and the median minor faults
per repetition.

    python scripts/kernel_probe.py [--seed 7] [--reps 41]
"""

from __future__ import annotations

import argparse
import os
import resource
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

FILES, FILE_ROWS = 8, 1024
STEPS = ("read", "rules", "decode parse", "caption buffer", "langid",
         "perplexity", "scrub", "mark + finalize")


def write_unit(d: str, seed: int) -> list[str]:
    files = []
    for i in range(FILES):
        ids = np.arange(i * FILE_ROWS, (i + 1) * FILE_ROWS)
        f = os.path.join(d, f"part-{i:05d}.parquet")
        pq.write_table(gen_rows(ids, FILES * FILE_ROWS, seed), f,
                       compression="none")
        files.append(f)
    return files


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_chain(unit, stage, lookup, cfg, cpu, faults):
    """The fused task's steps in order over ``unit`` (one batch of
    :func:`read_unit`), adding each one's process CPU seconds to
    ``cpu`` and its minor page faults to ``faults``; returns the task's
    output table."""
    def step(name, fn, *args):
        f0, c0 = _minflt(), time.process_time()
        out = fn(*args)
        cpu[name] += time.process_time() - c0
        faults[name] += _minflt() - f0
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
        per_rep, per_rep_faults = [], []
        for _ in range(args.reps):
            cpu, faults = dict.fromkeys(STEPS, 0.0), dict.fromkeys(STEPS, 0)
            got = run_chain(unit, stage, lookup, cfg, cpu, faults)
            per_rep.append(cpu)
            per_rep_faults.append(faults)
        if not got.equals(want):
            raise SystemExit("the probe's chain differs from the fused stage")
    rows = batch.num_rows
    print(f"{'step':<16}{'us/row':>9}{'IQR':>7}{'minflt':>9}   "
          f"({rows} rows, seed {args.seed}, {args.reps} reps, process CPU)")

    def per(reps, name):
        return np.array([sum(r.values()) if name == "total" else r[name]
                         for r in reps])

    for name in STEPS + ("total",):
        v = per(per_rep, name) / rows * 1e6
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        flt = np.median(per(per_rep_faults, name))
        print(f"{name:<16}{med:>9.2f}{q3 - q1:>7.2f}{flt:>9.0f}")


if __name__ == "__main__":
    main()
