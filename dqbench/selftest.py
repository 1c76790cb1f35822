"""Quick self-test: each workload runs once on its tiny warm-up input and
must pass its check; then each check must reject a corrupted copy of
that output (a flipped ``keep``, a leftover ``shard=*.tmp`` dir, a
dropped planted pair)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

import workloads as W
from tracing import NULL


def _flip_keep(out: pa.Table) -> pa.Table:
    keep = out["keep"].to_pylist()
    i = keep.index(True)
    keep[i] = False
    return out.set_column(out.schema.get_field_index("keep"), "keep",
                          pa.array(keep))


def _leftover_tmp(out):
    os.makedirs(os.path.join(out[0], "shard=99.tmp"))
    return out


def _drop_planted(out, planted):
    pairs, verified, clusters = out
    a, b = planted[0]
    hit = pc.and_(pc.equal(verified["id_a"], a), pc.equal(verified["id_b"], b))
    return pairs, verified.filter(pc.invert(hit)), clusters


def run(env) -> int:
    env.session.start()
    env.build_models()
    bad = 0
    for wl in W.WORKLOADS.values():
        inp = wl.make_input(env, warm=True)
        oracle = wl.oracle(env, inp)
        out = wl.op(env, inp, NULL)
        try:
            wl.check(env, inp, oracle, out)
            print(f"{wl.name}: check passes on {inp['rows']} rows")
            corrupt = {"flagship": lambda: _flip_keep(out),
                       "quality_cli": lambda: _leftover_tmp(out),
                       "neardup": lambda: _drop_planted(out, oracle)}[wl.name]()
            try:
                wl.check(env, inp, oracle, corrupt)
                print(f"{wl.name}: FAIL, check accepted a corrupted output")
                bad += 1
            except W.CheckFailed as e:
                print(f"{wl.name}: check rejects the corrupted output ({e})")
        finally:
            wl.cleanup(out)
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0
