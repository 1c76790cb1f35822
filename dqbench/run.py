#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end to end and per layer.

    python3 dqbench/run.py --workload {flagship,quality_cli,neardup}
        --seed N --seconds S --trace {0,1}
    python3 dqbench/run.py --selftest

Run from the root of a checkout. Inputs are generated from ``--seed``
alone and cached under ``.dqb/`` in the checkout. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer table (see
README.md). The last stdout line is the JSON result; the lines above it
list every metric with its unit and sample count, the host and the
input digests. ``--selftest`` runs each workload once on tiny inputs and
shows that each check fails on a corrupted output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SETUPS = 3          # setup_s is the median of this many full set-ups
MIN_OPS = 3
MIN_OPS_PER_SESSION = 2
OP_TIMEOUT_S = 60.0
MIN_STEAL_STEP = 0.02


def log(msg: str) -> None:
    print(f"dqbench: {msg}", file=sys.stderr, flush=True)


class Ops:
    """Walls, CPU, peak memory and steal of the ops of a run.

    This host lends its CPUs to other machines: the hypervisor takes a
    share f of the CPU time this machine's processes want (the busy
    steal share, ``session.busy_steal_share``), and f drifts over
    minutes from under 1 % to 60 %. The part of an op that runs on the
    CPUs then takes 1 / (1 - f) as long; the part that waits on timers,
    I/O or other processes does not. On a 4-vCPU KVM guest, ops at
    f = 0.5 took 1.4-2.1x the wall and 1.3-1.5x the CPU time of ops at
    f < 0.01, so the time figures are taken at f = 0."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.peak: list[float] = []
        self.steal: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.setup_steal: list[float] = []

    def _slope(self, xs: list[float], ys: list[float]) -> float:
        """Theil-Sen slope of ys over xs: the median over op pairs whose
        xs differ by at least MIN_STEAL_STEP, or 0 with fewer than three
        such pairs."""
        slopes = [(ys[j] - ys[i]) / (xs[j] - xs[i])
                  for i in range(len(xs)) for j in range(i + 1, len(xs))
                  if abs(xs[j] - xs[i]) >= MIN_STEAL_STEP]
        return median(slopes) if len(slopes) >= 3 else 0.0

    def wall_at_zero_steal(self) -> float:
        """Op wall seconds at f = 0: fits wall = a + b * g, g = 1 / (1 - f),
        and returns a + b, the median of wall - b * (g - 1) with b >= 0.
        It is at most the median wall and at least the median of
        wall * (1 - f), the wall had all of the op been slowed (a >= 0)."""
        g = [1.0 / (1.0 - f) for f in self.steal]
        b = max(0.0, self._slope(g, self.wall))
        return max(median([w - b * (h - 1.0) for w, h in zip(self.wall, g)]),
                   median([w / h for w, h in zip(self.wall, g)]))

    def cpu_at_zero_steal(self) -> float:
        """Op CPU seconds at f = 0. The kernel charges no stolen time to
        processes, but the tree still uses more CPU time the more is
        stolen, by no fixed rule. This fits the CPU rate
        1 / cpu = a + b * f with b <= 0 and returns 1 / a, a being the
        median of 1 / cpu - b * f."""
        rates = [1.0 / c for c in self.cpu]
        b = min(0.0, self._slope(self.steal, rates))
        return 1.0 / median([r - b * f for r, f in zip(rates, self.steal)])

    def unstolen_setup(self) -> float:
        """Median set-up time * (1 - f): three set-ups are too few for a
        fit, so all of a set-up counts as slowed by steal."""
        return median([t * (1.0 - f)
                       for t, f in zip(self.setups, self.setup_steal)])


def measure(wl, env, inp, oracle, seconds: float, tr, on_op=None,
            ops: Ops | None = None, min_ops: int = MIN_OPS) -> Ops:
    """Closed loop, one client: run ops until ``seconds`` have passed
    (at least ``min_ops``), adding them to ``ops``. Checks run outside
    the timed region; a raised error, a failed check or a watchdog
    timeout is one failed op."""
    mon = env.session.monitor
    ops = ops or Ops()
    t_end = time.monotonic() + seconds
    first = ops.attempted
    while ops.attempted - first < min_ops or time.monotonic() < t_end:
        ops.attempted += 1
        op_id = ops.attempted
        out = None
        mon.begin_op(OP_TIMEOUT_S)
        try:
            t0 = time.perf_counter()
            with tr.in_op(op_id):
                out = wl.op(env, inp, tr)
            wall = time.perf_counter() - t0
            cpu, peak, steal = mon.end_op()
            wl.check(env, inp, oracle, out)
            if on_op is not None:
                on_op(op_id, out)
        except KeyboardInterrupt:
            if not mon.timed_out:
                raise
            mon.end_op()
            ops.failed += 1
            log(f"{wl.name} op {op_id} exceeded {OP_TIMEOUT_S:.0f} s")
            break
        except Exception:
            mon.end_op()
            ops.failed += 1
            log(f"{wl.name} op {op_id} failed:\n{traceback.format_exc()}")
            continue
        finally:
            if out is not None:
                wl.cleanup(out)
        ops.wall.append(wall)
        ops.cpu.append(cpu)
        ops.peak.append(peak)
        ops.steal.append(steal)
    return ops


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def warm_op(wl, env, inp, oracle) -> None:
    """One untimed op whose output must still pass its check."""
    from tracing import NULL

    out = wl.op(env, inp, NULL)
    try:
        wl.check(env, inp, oracle, out)
    finally:
        wl.cleanup(out)


def run_end_to_end(wl, env, inp, seconds: float) -> tuple[dict, Ops]:
    """SETUPS set-ups, each a fresh session: Ray start, models and one
    untimed warm-up op on the input. Each session then measures ops for
    its share of ``seconds``, so the medians pool all sessions."""
    import session as S
    from tracing import NULL

    oracle = wl.oracle(env, inp)
    ops = Ops()
    for i in range(SETUPS):
        stat0, t0 = S.cpu_stat(), time.perf_counter()
        env.session.start()
        env.build_models()
        out = wl.op(env, inp, NULL)
        ops.setups.append(time.perf_counter() - t0)
        ops.setup_steal.append(S.busy_steal_share(stat0, S.cpu_stat()))
        try:
            wl.check(env, inp, oracle, out)
        finally:
            wl.cleanup(out)
        measure(wl, env, inp, oracle, seconds / SETUPS, NULL, ops=ops,
                min_ops=MIN_OPS_PER_SESSION)
        if i < SETUPS - 1:
            env.session.stop()
    rows, n = inp["rows"], len(ops.wall)
    metrics = {
        "rows_per_s": (rows / ops.wall_at_zero_steal(), n),
        "cpu_s_per_krow": (ops.cpu_at_zero_steal() / (rows / 1000), n),
        "peak_rss_mb": (median(ops.peak), len(ops.peak)),
        "setup_s": (ops.unstolen_setup(), len(ops.setups)),
    }
    return metrics, ops


def run_traced(wl, env, inp, seconds: float) -> tuple[dict, Ops, "object"]:
    """Untraced ops, then traced ops, then the in-process layer probes.
    Layers this workload never calls are measured by one traced op of
    the workload that does, on that workload's warm-up input.

    Returns ({metric: (value, samples, source)}, ops, tracer)."""
    import workloads as W
    from tracing import NULL, Tracer

    oracle = wl.oracle(env, inp)
    env.session.start()
    env.build_models()
    warm_op(wl, env, inp, oracle)

    untraced = measure(wl, env, inp, oracle, seconds / 2, NULL)
    tr = Tracer()
    for module, attr, name in wl.traced_calls():
        tr.wrap(module, attr, name)
    per_op: list[dict] = []
    try:
        traced = measure(wl, env, inp, oracle, seconds / 2, tr,
                         on_op=lambda op, out: per_op.append(
                             wl.op_metrics(env, inp, tr, op, out)))
    finally:
        tr.unwrap_all()
    table: dict[str, tuple] = {}

    def put(values: dict, samples: int, source: str) -> None:
        for k, v in values.items():
            table.setdefault(k, (v, samples, source))

    if per_op:
        put({k: median([m[k] for m in per_op]) for k in per_op[0]},
            len(per_op), "op")
    read = W.read_probe(env, inp["path"], inp["rows"])
    read_cpu = read.pop("_read_cpu_s_per_row") * inp["rows"]
    put(read, W.PROBE_REPEATS, "probe")
    put(W.kernel_probe(env, wl.kind, inp), W.PROBE_REPEATS, "probe")
    dedup_docs = inp["rows"]

    for other in W.WORKLOADS.values():
        if other is wl:
            continue
        o_inp = other.make_input(env, warm=True)
        o_oracle = other.oracle(env, o_inp)
        warm_op(other, env, o_inp, o_oracle)
        o_tr = Tracer()
        for module, attr, name in other.traced_calls():
            o_tr.wrap(module, attr, name)
        try:
            with o_tr.in_op(0):
                out = other.op(env, o_inp, o_tr)
        finally:
            o_tr.unwrap_all()
        source = f"{other.name}@{o_inp['rows']}"
        try:
            other.check(env, o_inp, o_oracle, out)
            put(other.op_metrics(env, o_inp, o_tr, 0, out), 1, source)
        finally:
            other.cleanup(out)
        if other.kind != wl.kind:
            put(W.kernel_probe(env, other.kind, o_inp), W.PROBE_REPEATS,
                "probe@" + source)
            if other.kind == "docs":
                dedup_docs = o_inp["rows"]
        tr.spans.extend(dict(s, op=source) for s in o_tr.spans)

    v = {k: x[0] for k, x in table.items()}
    kernel_cpu = (v["stages.kernel_us_per_row"] if wl.kind == "images"
                  else v["dedup.minhash_us_per_doc"]) * 1e-6 * inp["rows"]
    un_n, tr_n = len(untraced.wall), len(traced.wall)
    put({"quality.unattributed_cpu_share":
         1.0 - (kernel_cpu + read_cpu) / untraced.cpu_at_zero_steal()},
        un_n, "derived")
    lsh = table["dedup.lsh_s"]
    put({"dedup.exchange_s": lsh[0] - v["dedup.minhash_us_per_doc"] * 1e-6
         * dedup_docs / env.session.num_cpus}, lsh[1], "derived:" + lsh[2])
    put({"trace.overhead_share":
         traced.wall_at_zero_steal()
         / untraced.wall_at_zero_steal() - 1.0}, tr_n, "derived")
    counted = Ops()
    for o in (untraced, traced):
        counted.attempted += o.attempted
        counted.failed += o.failed
    return table, counted, tr


def declared_metrics(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def host_block(ncpu: int, steal: float) -> dict:
    import numpy
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {"nproc": ncpu, "os_cpu_count": os.cpu_count(),
            "ram_gib": round(mem_kb / (1 << 20), 1),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": sys.version.split()[0],
            "steal_share": steal}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["flagship", "quality_cli", "neardup"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(CHECKOUT, "dataquality_cli_ray")):
        log(f"no dataquality_cli_ray package in {CHECKOUT}; run from a checkout")
        return 2
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, CHECKOUT)
    sys.path.insert(0, HERE)
    state_dir = os.path.join(CHECKOUT, ".dqb")
    # temp files of the driver, Ray and its workers stay in the checkout
    os.environ["TMPDIR"] = os.path.join(state_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    import session as S
    import workloads as W

    # imported before any set-up is timed, so every set-up does the same work
    import ray  # noqa: F401
    from dataquality_cli_ray import cli  # noqa: F401
    from dataquality_cli_ray.pipelines import dedup, quality  # noqa: F401

    ncpu = S.host_width()
    sess = S.RaySession(CHECKOUT, ncpu)
    env = W.Env(CHECKOUT, state_dir, args.seed, sess)
    # a SIGTERM still runs the finally blocks that end the session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        import selftest

        try:
            return selftest.run(env)
        finally:
            sess.stop()

    wl = W.WORKLOADS[args.workload]
    stat0 = S.cpu_stat()
    try:
        inp = wl.make_input(env, warm=False)
        if args.trace:
            metrics, ops, tr = run_traced(wl, env, inp, args.seconds)
        else:
            metrics, ops = run_end_to_end(wl, env, inp, args.seconds)
            metrics = {k: (v, n, "op") for k, (v, n) in metrics.items()}
    finally:
        sess.stop()
    steal = S.steal_share(stat0, S.cpu_stat())
    if args.trace:
        metrics["host.steal_share"] = (steal, 1, "run")
        tr.dump(os.path.join(state_dir, f"spans_{wl.name}_s{args.seed}.json"))

    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        log(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
        return 3
    host = host_block(ncpu, steal)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "host": host,
              "input": {k: inp[k] for k in ("rows", "files", "digest")},
              "ops": {"attempted": ops.attempted, "failed": ops.failed,
                      "wall_s": ops.wall, "cpu_s": ops.cpu,
                      "peak_mb": ops.peak, "steal": ops.steal,
                      "setup_s": ops.setups,
                      "setup_steal": ops.setup_steal},
              "metrics": {k: {"value": v, "unit": units[k], "samples": n,
                              "source": src}
                          for k, (v, n, src) in sorted(metrics.items())}}
    with open(os.path.join(state_dir, f"report_{wl.name}_s{args.seed}"
                                      f"_t{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"workload {wl.name}  seed {args.seed}  input rows={inp['rows']} "
          f"files={inp['files']} digest={inp['digest']}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"ops attempted={ops.attempted} failed={ops.failed}")
    for k, m in report["metrics"].items():
        print(f"  {k:<34}{m['value']:>14.6g} {m['unit']:<7} "
              f"n={m['samples']:<3} {m['source']}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
