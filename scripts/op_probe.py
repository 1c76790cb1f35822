"""Fixed cost of one flagship op: plan, drain, tasks and Ray's floor.

Writes a ``fixtures.images.gen_rows`` input (``--files`` uncompressed
parquet files of ``--rows`` rows) to a temporary directory, starts a
local Ray session at ``--cpus`` CPUs, and runs ``--ops`` flagship ops
after one warm-up op. An op is what dqbench's ``flagship`` times: the
``images_quality_pipeline`` call (the plan: footer probe, dup pre-pass,
unit plan) and a drain of its output to the driver. Prints the median
and interquartile range of:

- ``plan ms`` and ``drain ms``;
- ``tasks``: the tasks the executed plan ran (all operators after its
  input), and ``udf ms``: Ray's stats' total UDF time of those tasks;
- ``floor ms``: the drain of an empty plan of the same shape
  (``from_items`` of as many one-row blocks as the op ran tasks, then
  one ``map_batches`` that returns its batch), which is Ray's own fixed
  cost of a plan of that many tasks, and ``floor cpu ms``: the CPU that
  drain costs the session's processes together. An op that ran no task
  has no floor: a one-unit input is labeled in the calling process
  during the plan, and its executed Dataset drains
  with no task.

The header names the op's path, ``in process`` or ``Ray plan``, and the
work units the input plans to.

Then the CPU ms per op of each session process: the driver and every
process descended from it (Ray's core daemons, its workers and actors),
read from ``/proc/<pid>/stat`` (user + system time) before and after
each op. A process is named by its command line (a Ray worker by its
title, e.g. ``ray::IDLE`` once its task is done). On a host with fewer
free cores than busy processes this CPU is wall time too.

With ``--cli`` an op is what dqbench's ``quality_cli`` times instead:
``cli.cmd_quality`` at ``--shard-size 2`` into a fresh output directory,
then ``checkpoint.lineage_report`` of it. It prints the op's median and
interquartile ``op ms`` and the same CPU table. In either mode a
one-unit input runs in the calling process, more units run as a Ray
plan.

    python scripts/op_probe.py [--cli] [--cpus 1] [--ops 30] [--files 8]
        [--rows 1024] [--seed 7]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial

import numpy as np
import pyarrow.parquet as pq

TICK_MS = 1e3 / os.sysconf("SC_CLK_TCK")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from dataquality_cli_ray.fixtures.images import gen_rows  # noqa: E402


def write_input(d: str, files: int, rows: int, seed: int) -> str:
    for i in range(files):
        ids = np.arange(i * rows, (i + 1) * rows)
        pq.write_table(gen_rows(ids, files * rows, seed),
                       os.path.join(d, f"part-{i:05d}.parquet"),
                       compression="none")
    return d


def executed(ds) -> tuple[int, float]:
    """(tasks, UDF ms) summed over the operators after the input."""
    tasks, udf = 0, 0.0
    mult = {"s": 1e3, "ms": 1.0, "us": 1e-3}
    for block in ds.stats().split("Operator ")[1:]:
        head = block.split("\n", 1)[0]
        if head.split(":", 1)[0].split(" ", 1)[-1] in ("Input", "FromItems"):
            continue
        m = re.search(r": (\d+) tasks executed", head)
        tasks += int(m.group(1)) if m else 0
        m = re.search(r"UDF time: .*?([0-9.]+)(ms|s|us) total", block)
        udf += float(m.group(1)) * mult[m.group(2)] if m else 0.0
    return tasks, udf


def _identity(batch):
    return batch


def _stat(pid: str) -> tuple[int, int]:
    """(parent pid, user + system clock ticks) of process ``pid``."""
    with open(f"/proc/{pid}/stat") as f:
        s = f.read()
    rest = s[s.rindex(")") + 2:].split()     # fields from 3 (state) on
    return int(rest[1]), int(rest[11]) + int(rest[12])


def session_ticks() -> dict[int, int]:
    """CPU clock ticks of this process and of every process descended
    from it, by pid."""
    procs = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                procs[int(d)] = _stat(d)
            except (OSError, ValueError, IndexError):
                pass                          # exited while listed
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = {}, [os.getpid()]
    while todo:
        pid = todo.pop()
        if pid in procs:
            out[pid] = procs[pid][1]
            todo += kids.get(pid, [])
    return out


def cpu_ms(before: dict[int, int], after: dict[int, int]) -> dict[int, float]:
    """Each session process's CPU ms between two :func:`session_ticks`
    (a process started in between counts from zero)."""
    return {pid: (t - before.get(pid, 0)) * TICK_MS
            for pid, t in after.items()}


def process_name(pid: int) -> str:
    if pid == os.getpid():
        return "driver"
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv = f.read().decode(errors="replace").split("\0")
    except OSError:
        return "(exited)"
    if argv[0].startswith("ray::"):
        return argv[0].split()[0]
    script = next((a for a in argv[1:] if a.endswith(".py")), argv[0])
    return os.path.basename(script.split()[0]) if script else "?"


def floor_ms(tasks: int) -> tuple[float, float]:
    """(wall ms, session CPU ms) of one empty plan's drain."""
    import ray.data as rd

    c0, t0 = session_ticks(), time.perf_counter()
    ds = rd.from_items([{"i": i} for i in range(tasks)],
                       override_num_blocks=tasks).map_batches(
        _identity, batch_format="pyarrow", batch_size=None)
    for _ in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        pass
    t1 = time.perf_counter()
    return (t1 - t0) * 1e3, sum(cpu_ms(c0, session_ticks()).values())


def one_op(path: str, cfg, lm, pm) -> dict:
    from dataquality_cli_ray.pipelines import quality as Q

    c0, t0 = session_ticks(), time.perf_counter()
    ds = Q.images_quality_pipeline(path, cfg, langid_model=lm, ppl_model=pm)
    t1 = time.perf_counter()
    rows = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow",
                                                   batch_size=None))
    t2 = time.perf_counter()
    cpu = cpu_ms(c0, session_ticks())
    tasks, udf = executed(ds)
    op = {"plan ms": (t1 - t0) * 1e3, "drain ms": (t2 - t1) * 1e3,
          "tasks": tasks, "udf ms": udf, "rows": rows, "cpu": cpu}
    if tasks:                      # Ray has no plan of zero tasks
        op["floor ms"], op["floor cpu ms"] = floor_ms(tasks)
    return op


def cli_op(path: str, out: str, cpus: int) -> dict:
    from dataquality_cli_ray import cli
    from dataquality_cli_ray.state.checkpoint import lineage_report

    ns = argparse.Namespace(
        input=path, output=out, shard_size=2, num_cpus=cpus,
        align_threshold=None, min_image_px=None, max_aspect=None,
        min_contrast=None)
    c0, t0 = session_ticks(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_quality(ns) == 0
    rows = lineage_report(out)["rows_out"]
    t1 = time.perf_counter()
    cpu = cpu_ms(c0, session_ticks())
    shutil.rmtree(out)
    return {"op ms": (t1 - t0) * 1e3, "rows": rows, "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cli", action="store_true",
                    help="time a quality CLI op, not a flagship op")
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--ops", type=int, default=30)
    ap.add_argument("--files", type=int, default=8)
    ap.add_argument("--rows", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    from dataquality_cli_ray.pipelines.quality import build_models
    from dataquality_cli_ray.sources.readers import (parquet_files,
                                                     parquet_units)
    from dataquality_cli_ray.stages.rules import QualityConfig

    # workers import the program from this checkout whatever the cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    rd.DataContext.get_current().enable_progress_bars = False
    try:
        with tempfile.TemporaryDirectory() as d:
            path = write_input(d, args.files, args.rows, args.seed)
            units = len(parquet_units(parquet_files(path), args.cpus))
            if args.cli:
                keys = ("op ms",)
                out = os.path.join(d, "out")
                op = partial(cli_op, path, out, args.cpus)
            else:
                keys = ("plan ms", "drain ms", "tasks", "udf ms",
                        "floor ms", "floor cpu ms")
                op = partial(one_op, path, QualityConfig(), *build_models())
            op()                                         # warm-up
            ops = [op() for _ in range(args.ops)]
            per_pid: dict[int, float] = {}
            for o in ops:
                for pid, ms in o["cpu"].items():
                    per_pid[pid] = per_pid.get(pid, 0.0) + ms / args.ops
            names = {pid: process_name(pid) for pid in per_pid}
    finally:
        ray.shutdown()
    assert all(o["rows"] == args.files * args.rows for o in ops)
    here = units == 1
    print(f"{args.ops} {'quality CLI' if args.cli else 'flagship'} ops, "
          f"{args.files} x {args.rows} rows, {args.cpus} CPU(s), "
          f"{units} work unit(s), {'in process' if here else 'Ray plan'}")
    print(f"{'':<14}{'median':>10}{'iqr':>10}")
    for k in keys:
        xs = [o[k] for o in ops if k in o]
        if not xs:
            continue
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        print(f"{k:<14}{statistics.median(xs):>10.1f}{q[2] - q[0]:>10.1f}")
    print(f"\nCPU ms per op ({TICK_MS:g} ms clock ticks, mean over "
          f"{args.ops} ops)")
    for pid, ms in sorted(per_pid.items(), key=lambda kv: -kv[1]):
        if ms >= 0.05:
            print(f"{names[pid]:<32}{pid:>8}{ms:>10.1f}")
    print(f"{'total':<40}{sum(per_pid.values()):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
