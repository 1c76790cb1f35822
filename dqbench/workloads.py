"""The three workloads: their inputs, one op, the op's oracle check, and
what a traced op and the in-process probes measure per layer.

Every op is one closed-loop request: the next op starts only after this
one's output has been fully consumed (and, outside the timed region,
checked).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import statistics
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import inputs

IMAGE_FILES, IMAGE_ROWS_PER_FILE = 8, 1024
WARM_IMAGE_FILES, WARM_IMAGE_ROWS = 1, 1024
DOCS, WARM_DOCS = 1600, 400
SHARD_SIZE = 2
PROBE_REPEATS = 3
MINHASH_BATCH = 512
LABEL_COLS = ["image_id", "keep", "drop_reason", "caption_scrubbed"]
STAGES = ("rules", "decode", "langid", "perplexity", "scrub", "finalize")


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


class Env:
    """Per-run state shared by the workloads: paths, the Ray session,
    the models and config, and the op counter (for fresh output dirs)."""

    def __init__(self, checkout: str, state_dir: str, seed: int, session):
        from dataquality_cli_ray.stages.rules import QualityConfig

        self.checkout, self.state_dir, self.seed = checkout, state_dir, seed
        self.session = session
        self.cfg = QualityConfig()
        self.lm = self.pm = None
        self.ops = 0

    def build_models(self) -> None:
        from dataquality_cli_ray.pipelines import quality as Q

        self.lm, self.pm = Q.build_models()

    def fresh_dir(self, what: str) -> str:
        self.ops += 1
        d = os.path.join(self.state_dir, "out", f"{what}{self.ops}")
        shutil.rmtree(d, ignore_errors=True)
        return d


# ---------------------------------------------------------------- oracles


def golden(env: Env, inp: dict) -> pd.DataFrame:
    """``fixtures.golden.golden_labels`` for an image input, computed once
    per input and cached beside it."""
    path = os.path.join(inp["dir"], "golden.parquet")
    if not os.path.exists(path):
        from dataquality_cli_ray.fixtures.golden import golden_labels
        from dataquality_cli_ray.pipelines import quality as Q

        lm, pm = Q.build_models()
        rows = pq.read_table(inp["path"]).to_pylist()
        g = pd.DataFrame(golden_labels(rows, env.cfg, lm, pm))[LABEL_COLS]
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                       path + ".tmp")
        os.replace(path + ".tmp", path)
    g = pq.read_table(path).to_pandas()
    return g.sort_values("image_id").reset_index(drop=True)


def check_labels(out: pa.Table, gold: pd.DataFrame) -> None:
    """The BASELINE contract: same rows, keep/drop F1 >= 0.99, and
    ``drop_reason`` and ``caption_scrubbed`` exactly equal."""
    df = out.select(LABEL_COLS).to_pandas()
    df = df.sort_values("image_id").reset_index(drop=True)
    if len(df) != len(gold) or not (df["image_id"].to_numpy()
                                    == gold["image_id"].to_numpy()).all():
        raise CheckFailed(f"row set differs: {len(df)} rows vs {len(gold)}")
    k, kg = df["keep"].to_numpy(bool), gold["keep"].to_numpy(bool)
    bad = (k != df["drop_reason"].isna().to_numpy()).sum()
    if bad:
        raise CheckFailed(f"keep disagrees with drop_reason on {bad} rows")
    tp, fp, fn = (k & kg).sum(), (k & ~kg).sum(), (~k & kg).sum()
    f1 = 2 * tp / max(1, 2 * tp + fp + fn)
    if f1 < 0.99:
        raise CheckFailed(f"keep/drop F1 {f1:.4f} < 0.99")
    bad = (df["drop_reason"].fillna("").to_numpy()
           != gold["drop_reason"].fillna("").to_numpy()).sum()
    if bad:
        raise CheckFailed(f"drop_reason differs on {bad} rows")
    bad = (df["caption_scrubbed"].to_numpy()
           != gold["caption_scrubbed"].to_numpy()).sum()
    if bad:
        raise CheckFailed(f"caption_scrubbed differs on {bad} rows")


def dup_loser_mask(tbl: pa.Table) -> np.ndarray:
    """Rows whose phash group has >1 rows and whose id is not the
    group's min id (the dedup spec, computed by the benchmark)."""
    df = tbl.select(["phash", "image_id"]).to_pandas()
    winner = df.groupby("phash")["image_id"].transform("min")
    size = df.groupby("phash")["image_id"].transform("size")
    return ((size > 1) & (df["image_id"] != winner)).to_numpy()


# ------------------------------------------------------------- probes


def median(xs) -> float:
    return float(statistics.median(xs))


def read_probe(env: Env, path: str, rows: int) -> dict:
    """Drain ``sources.read_table(path)`` with no transform: wall µs/row
    and session CPU s/row, medians of PROBE_REPEATS drains."""
    from dataquality_cli_ray.sources import readers

    walls, cpus = [], []
    mon = env.session.monitor
    for _ in range(PROBE_REPEATS):
        mon.begin_op(60.0)
        t0 = time.perf_counter()
        n = sum(b.num_rows for b in readers.read_table(path).iter_batches(
            batch_format="pyarrow", batch_size=None))
        walls.append(time.perf_counter() - t0)
        cpus.append(mon.end_op()[0])
        if n != rows:
            raise CheckFailed(f"read_table drained {n} rows, expected {rows}")
    return {"sources.read_us_per_row": median(walls) / rows * 1e6,
            "_read_cpu_s_per_row": median(cpus) / rows}


def stage_probe(env: Env, inp: dict) -> dict:
    """Each flagship stage's ``__call__`` in this process, in the fused
    order, one batch per input file; thread CPU µs/row per stage."""
    from dataquality_cli_ray.stages.image_stages import DecodeImageStage
    from dataquality_cli_ray.stages.langid import LangIdScorer
    from dataquality_cli_ray.stages.perplexity import PerplexityScorer
    from dataquality_cli_ray.stages.rules import HeuristicRules, finalize_decision
    from dataquality_cli_ray.stages.scrub import PiiScrubber

    cfg = env.cfg
    chain = [("rules", HeuristicRules(cfg)), ("decode", DecodeImageStage()),
             ("langid", LangIdScorer(env.lm, min_score=cfg.langid_min_score)),
             ("perplexity", PerplexityScorer(env.pm, max_ppl=cfg.max_perplexity)),
             ("scrub", PiiScrubber())]
    files = sorted(os.path.join(inp["path"], f) for f in os.listdir(inp["path"]))
    batches = [pq.read_table(f) for f in files]
    losers = dup_loser_mask(pa.concat_tables(batches))
    offsets = np.cumsum([0] + [b.num_rows for b in batches])
    per_rep = []
    for _ in range(PROBE_REPEATS):
        cpu = dict.fromkeys(STAGES, 0.0)
        labels = []
        for b, lo in zip(batches, offsets):
            t = b
            for name, stage in chain:
                c0 = time.thread_time()
                t = stage(t)
                cpu[name] += time.thread_time() - c0
                if name == "decode":
                    t = t.drop_columns(["bytes"])
            t = t.append_column("rule_phash_dup",
                                pa.array(losers[lo:lo + b.num_rows]))
            c0 = time.thread_time()
            t = finalize_decision(t)
            cpu["finalize"] += time.thread_time() - c0
            labels.append(t.select(["image_id", "keep", "drop_reason",
                                    "caption_scrubbed"]))
        per_rep.append(cpu)
    check_labels(pa.concat_tables(labels), golden(env, inp))
    rows = inp["rows"]
    out = {f"stages.{s}_us_per_row": median(r[s] for r in per_rep) / rows * 1e6
           for s in STAGES}
    out["stages.kernel_us_per_row"] = median(
        sum(r.values()) for r in per_rep) / rows * 1e6
    return out


def minhash_probe(env: Env, inp: dict) -> dict:
    """``MinHashStage.__call__`` in this process over 512-doc batches;
    thread CPU µs/doc."""
    from dataquality_cli_ray.pipelines.dedup import MinHashStage

    tbl = pq.read_table(inp["path"])
    stage = MinHashStage("text", "doc_id")
    cpus = []
    for _ in range(PROBE_REPEATS):
        c0 = time.thread_time()
        for lo in range(0, tbl.num_rows, MINHASH_BATCH):
            stage(tbl.slice(lo, MINHASH_BATCH))
        cpus.append(time.thread_time() - c0)
    return {"dedup.minhash_us_per_doc": median(cpus) / tbl.num_rows * 1e6}


# ------------------------------------------------------------ workloads


class Flagship:
    name = "flagship"
    kind = "images"

    def make_input(self, env: Env, warm: bool) -> dict:
        if warm:
            return inputs.image_input(env.state_dir, env.seed,
                                      WARM_IMAGE_FILES, WARM_IMAGE_ROWS)
        return inputs.image_input(env.state_dir, env.seed,
                                  IMAGE_FILES, IMAGE_ROWS_PER_FILE)

    def oracle(self, env: Env, inp: dict):
        return golden(env, inp)

    def traced_calls(self):
        from dataquality_cli_ray.pipelines import quality as Q

        return [(Q, "phash_dup_losers", "quality.prepass")]

    def op(self, env: Env, inp: dict, tr) -> pa.Table:
        from dataquality_cli_ray.pipelines import quality as Q

        with tr.span("quality.plan"):
            ds = Q.images_quality_pipeline(inp["path"], env.cfg,
                                           dedup_mode="staged",
                                           langid_model=env.lm,
                                           ppl_model=env.pm)
        with tr.span("quality.drain"):
            return pa.concat_tables(list(ds.iter_batches(
                batch_format="pyarrow", batch_size=None)))

    def check(self, env: Env, inp: dict, oracle, out: pa.Table) -> None:
        check_labels(out, oracle)

    def cleanup(self, out) -> None:
        pass

    def op_metrics(self, env: Env, inp: dict, tr, op: int, out) -> dict:
        spans = tr.totals(op)
        keys, _ = tr.returned["quality.prepass"]
        ph = out["phash"].to_numpy(zero_copy_only=False)
        in_dup = np.isin(ph, np.asarray(keys))
        return {
            "quality.prepass_s": spans["quality.prepass"],
            "quality.plan_s": spans["quality.plan"],
            "quality.drain_s": spans["quality.drain"],
            "quality.dup_losers": int(in_dup.sum()) - len(keys),
            "stages.keep_share": float(pa.compute.sum(out["keep"]).as_py())
            / out.num_rows,
        }


class QualityCli:
    name = "quality_cli"
    kind = "images"

    make_input = Flagship.make_input
    oracle = Flagship.oracle

    def traced_calls(self):
        from dataquality_cli_ray.pipelines import quality as Q
        from dataquality_cli_ray.state import checkpoint as CK

        return [(Q, "phash_dup_losers", "checkpoint.dup_pass"),
                (CK, "run_resumable", "checkpoint.run_resumable"),
                (CK, "drop_reason_lineage", "checkpoint.lineage_fn")]

    def op(self, env: Env, inp: dict, tr) -> tuple[str, dict]:
        from dataquality_cli_ray import cli
        from dataquality_cli_ray.state import checkpoint as CK

        out_dir = env.fresh_dir("cli")
        ns = argparse.Namespace(
            input=inp["path"], output=out_dir, shard_size=SHARD_SIZE,
            num_cpus=env.session.num_cpus, dedup_mode="auto",
            align_threshold=None, min_image_px=None, max_aspect=None,
            min_contrast=None)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.cmd_quality(ns)
        if rc != 0:
            raise RuntimeError(f"cmd_quality returned {rc}")
        with tr.span("checkpoint.lineage_report"):
            report = CK.lineage_report(out_dir)
        return out_dir, report

    def check(self, env: Env, inp: dict, oracle, out) -> None:
        out_dir, report = out
        names = os.listdir(out_dir)
        leftovers = [n for n in names if n.endswith(".tmp")]
        if leftovers or report["incomplete"]:
            raise CheckFailed(f"incomplete shards left behind: "
                              f"{leftovers or report['incomplete']}")
        shards = sorted(n for n in names if n.startswith("shard="))
        expect = -(-inp["files"] // SHARD_SIZE)
        if len(shards) != expect or len(report["shards"]) != expect:
            raise CheckFailed(f"{len(shards)} shard dirs, expected {expect}")
        parts = [pq.read_table(os.path.join(out_dir, s, f))
                 for s in shards
                 for f in sorted(os.listdir(os.path.join(out_dir, s)))
                 if f.endswith(".parquet")]
        check_labels(pa.concat_tables(parts), oracle)
        if report["rows_out"] != len(oracle):
            raise CheckFailed(f"lineage rows_out {report['rows_out']} != "
                              f"{len(oracle)}")
        hist = oracle["drop_reason"].fillna("KEEP").value_counts().to_dict()
        if {k: int(v) for k, v in report["lineage"].items()} != hist:
            raise CheckFailed(f"lineage counts {report['lineage']} != {hist}")

    def cleanup(self, out) -> None:
        shutil.rmtree(out[0], ignore_errors=True)

    def op_metrics(self, env: Env, inp: dict, tr, op: int, out) -> dict:
        spans = tr.totals(op)
        out_dir, report = out
        written = sum(os.path.getsize(os.path.join(r, f))
                      for r, _, fs in os.walk(out_dir) for f in fs)
        return {
            "checkpoint.dup_pass_s": spans["checkpoint.dup_pass"],
            "checkpoint.run_resumable_s": spans["checkpoint.run_resumable"],
            "checkpoint.lineage_fn_s": spans["checkpoint.lineage_fn"],
            "checkpoint.lineage_report_s": spans["checkpoint.lineage_report"],
            "checkpoint.bytes_written_per_row": written / inp["rows"],
        }


class NearDup:
    name = "neardup"
    kind = "docs"

    def make_input(self, env: Env, warm: bool) -> dict:
        return inputs.docs_input(env.state_dir, env.seed,
                                 WARM_DOCS if warm else DOCS)

    def oracle(self, env: Env, inp: dict):
        return [(a, b) for a, b, j in inp["planted"]
                if j >= inputs.NEARDUP_THRESHOLD]

    def traced_calls(self):
        return []

    def op(self, env: Env, inp: dict, tr):
        from dataquality_cli_ray.pipelines import dedup as DD
        from dataquality_cli_ray.sources import readers

        t = inputs.NEARDUP_THRESHOLD
        with tr.span("dedup.lsh"):
            pairs = DD.minhash_lsh_pairs(readers.read_table(inp["path"]),
                                         "text", "doc_id", threshold=t)
        with tr.span("dedup.verify"):
            ver = DD.verify_pairs_exact_jaccard(
                pairs, readers.read_table(inp["path"]), "text", "doc_id",
                threshold=t)
            verified = pa.concat_tables(list(ver.iter_batches(
                batch_format="pyarrow", batch_size=None)))
        with tr.span("dedup.clusters"):
            clusters = DD.dup_clusters(verified)
        return pairs, verified, clusters

    def check(self, env: Env, inp: dict, oracle, out) -> None:
        _, verified, clusters = out
        a = verified["id_a"].to_pylist()
        b = verified["id_b"].to_pylist()
        reported = set(zip(a, b))
        if len(reported) != len(a) or any(x >= y for x, y in reported):
            raise CheckFailed("pairs are not distinct (id_a < id_b) rows")
        missing = [p for p in oracle if p not in reported]
        if missing:
            raise CheckFailed(f"{len(missing)} planted pairs not found, "
                              f"e.g. {missing[0]}")
        texts = dict(zip(*pq.read_table(inp["path"]).to_pydict().values()))
        for x, y, j in zip(a, b, verified["jaccard"].to_pylist()):
            exact = inputs.exact_jaccard(texts[x], texts[y])
            if abs(exact - j) > 1e-9 or exact < inputs.NEARDUP_THRESHOLD:
                raise CheckFailed(f"pair ({x}, {y}): reported {j}, exact {exact}")
        parent: dict[int, int] = {}

        def find(v: int) -> int:
            while parent.setdefault(v, v) != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for x, y in reported:
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
        expect = {v: find(v) for v in parent}
        got = dict(zip(clusters["doc_id"].to_pylist(),
                       clusters["cluster_id"].to_pylist()))
        if got != expect:
            raise CheckFailed("dup_clusters differs from the pairs' "
                              "connected components")

    def cleanup(self, out) -> None:
        pass

    def op_metrics(self, env: Env, inp: dict, tr, op: int, out) -> dict:
        spans = tr.totals(op)
        pairs, verified, _ = out
        cand = pairs.count()
        return {
            "dedup.lsh_s": spans["dedup.lsh"],
            "dedup.verify_s": spans["dedup.verify"],
            "dedup.clusters_s": spans["dedup.clusters"],
            "dedup.candidates": cand,
            "dedup.verified": verified.num_rows,
            "dedup.verify_yield": verified.num_rows / max(1, cand),
        }


WORKLOADS = {w.name: w for w in (Flagship(), QualityCli(), NearDup())}


def kernel_probe(env: Env, kind: str, inp: dict) -> dict:
    return stage_probe(env, inp) if kind == "images" else minhash_probe(env, inp)
