#!/usr/bin/env python
"""Benchmark harness (driver contract).

Headline: the flagship image+caption quality-filter pipeline
(heuristic rules → decode → langid → perplexity → scrub → phash dedup)
over the deterministic synthetic fixture; plus representative per-query
timings over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "images_per_sec": ...}
"""

from __future__ import annotations

import json
import os
import time
import warnings

warnings.filterwarnings("ignore")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _host_width() -> int:
    """What ``nproc`` prints (the CPU-count rule dqbench uses too): the
    CPUs this process may run on, limited by ``OMP_NUM_THREADS`` /
    ``OMP_THREAD_LIMIT`` when set."""
    import subprocess

    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


# RAY_GRAFT_CPUS overrides the host width
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or _host_width())


def _bench_rows() -> int:
    if "IMAGES_BENCH_ROWS" in os.environ:
        return int(os.environ["IMAGES_BENCH_ROWS"])
    sf = SF_DIR.rstrip("/").rsplit("sf", 1)[-1]
    return {"0.1": 100_000, "0.01": 20_000}.get(sf, 5_000)


def _warm_page_cache(fixture_dir: str, max_bytes: int | None = None) -> None:
    """Read every parquet file's raw bytes so a following timed run
    measures the pipeline, not cold device reads. ``max_bytes`` skips
    the warm when the fixture exceeds it."""
    import glob

    files = glob.glob(os.path.join(fixture_dir, "*.parquet"))
    if max_bytes is not None and sum(map(os.path.getsize, files)) > max_bytes:
        return
    for f in files:
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass


def run_benchmarks() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from dataquality_cli_ray.fixtures.images import generate_images_parquet
    from dataquality_cli_ray.pipelines import relational as R
    from dataquality_cli_ray.pipelines import dedup as DD
    from dataquality_cli_ray.pipelines import similarity as SIM
    from dataquality_cli_ray.pipelines import textqa as TQ
    from dataquality_cli_ray.pipelines.profiler import describe_file
    from dataquality_cli_ray.sources.readers import read_parquet
    from dataquality_cli_ray.pipelines.quality import (
        build_models,
        images_quality_pipeline,
    )

    n_rows = _bench_rows()
    img_path = generate_images_parquet(n_rows)   # cached across runs

    from dataquality_cli_ray.stages.rules import QualityConfig

    cfg = QualityConfig()
    # warm-up (untimed): page cache + worker-process imports + module
    # caches across the whole worker fleet, so the timed run measures
    # steady-state compute, not cold start. The warmup drives the FULL
    # pipeline (dup pre-pass, then parquet read → fused stage →
    # mark+finalize) over a small separate fixture so every code path's
    # workers are primed — tasks reuse worker processes.
    from dataquality_cli_ray.sources.readers import parquet_footer_rows

    parquet_footer_rows(img_path)   # footer cache (shared w/ pipeline)
    # page-cache warm of the WHOLE fixture (raw bytes, not a column
    # projection): run 1 otherwise pays cold device reads for the
    # image-bytes pages the projection above never touches, which is
    # most of the 1.7-vs-0.9 s run-1/run-2 spread in driver benches
    _warm_page_cache(img_path, max_bytes=4 << 30)
    read_parquet(img_path, columns=["image_id"]).count()
    langid_model, ppl_model = build_models()
    # the warm fixture must span >= one 8k-row FILE per worker: reads
    # are per-file tasks, so a single-file warmup primes only a couple
    # of worker processes and run 1 of the real input pays cold Python
    # imports in every other worker (~0.8 s spread at 32 CPUs)
    warm_path = generate_images_parquet(max(1, NUM_CPUS) * 8 * 1024)
    images_quality_pipeline(warm_path, cfg, langid_model=langid_model,
                            ppl_model=ppl_model).count()

    queries: dict[str, float] = {}

    # ---- headline: flagship quality pipeline (staged: the dedup
    # pre-pass, then one fused read → kernels → mark operator) ----
    # min of N runs: the host is shared with a bursty co-tenant
    # (BASELINE.md), so a single wall-clock sample conflates our
    # pipeline with foreign load; the minimum is the uncontended
    # steady-state estimate (run 1 also absorbs residual cold-start).
    repeat = int(os.environ.get("BENCH_HEADLINE_REPEAT", "2"))
    runs = []
    for _ in range(repeat):
        t0 = time.time()
        out = images_quality_pipeline(img_path, cfg,
                                      langid_model=langid_model,
                                      ppl_model=ppl_model)
        n_out = out.count()
        runs.append(time.time() - t0)
        assert n_out == n_rows, (n_out, n_rows)
    headline = min(runs)
    queries["images_quality"] = round(headline, 3)
    queries["images_quality_runs"] = [round(r, 3) for r in runs]

    # ---- representative per-query timings over SF_DIR ----
    headline_only = os.environ.get("BENCH_HEADLINE_ONLY") == "1"

    def timed(name, fn):
        if headline_only:
            return
        # min of 2: the first run pays cold page cache / worker spin-up;
        # the minimum is the steady-state number (same protocol as the
        # headline's min-of-N)
        runs = []
        for _ in range(2):
            t = time.time()
            fn()
            runs.append(time.time() - t)
        queries[name] = round(min(runs), 3)

    timed("q1_pricing_summary", lambda: R.q1_pricing_summary(SF_DIR))
    timed("describe_lineitem",
          lambda: describe_file(f"{SF_DIR}/lineitem.parquet"))
    timed("revenue_by_segment", lambda: R.revenue_by_segment(SF_DIR))
    timed("events_hourly", lambda: R.events_hourly(SF_DIR))
    timed("events_last_order", lambda: R.events_last_order(SF_DIR))
    timed("docs_dedup_exact", lambda: DD.exact_dedup_by_text(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]), "text", "doc_id").count())
    timed("docs_minhash_pairs", lambda: DD.minhash_lsh_pairs(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", threshold=0.5).count())
    timed("docs_token_stats", lambda: TQ.token_stats(
        read_parquet(f"{SF_DIR}/documents.parquet")).count())
    timed("docs_length_histogram", lambda: TQ.token_length_histogram(
        read_parquet(f"{SF_DIR}/documents.parquet")).count())

    from dataquality_cli_ray.pipelines import corpus_ops as CO

    def _decon():
        import pyarrow as pa
        docs = read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"])
        bench_tbl = pa.concat_tables(
            b for b in docs.filter(expr="doc_id < 25")
            .iter_batches(batch_format="pyarrow"))
        CO.decontaminate(docs.filter(expr="doc_id >= 25"),
                         CO.benchmark_ngram_set(bench_tbl["text"], 5),
                         "text", n=5).count()

    timed("docs_decontaminate", _decon)
    timed("docs_top_ngrams", lambda: CO.top_ngrams(
        read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"]),
        "text", 2, 25))
    timed("docs_repetition", lambda: CO.repetition_stats(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"])).count())
    timed("docs_chunks", lambda: CO.chunk_windows(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", 24, 8).count())
    timed("docs_source_cap", lambda: CO.cap_per_key(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "source"]),
        "source", "doc_id", 10))
    timed("docs_quantile_filter", lambda: CO.quantile_threshold_filter(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", q=0.25).count())
    timed("docs_pack", lambda: CO.pack_sequences(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", budget=512).count())
    timed("docs_stratified_sample", lambda: CO.stratified_sample_per_key(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "source"]),
        "source", "doc_id", frac=0.25))
    timed("docs_resample", lambda: CO.temperature_resample(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "lang"]),
        "lang", "doc_id", alpha=0.5).count())
    timed("docs_hash_split", lambda: CO.hash_split(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id"]), "doc_id").count())
    timed("docs_shard_counts", lambda: CO.shard_shuffle(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id"]), "doc_id", n_shards=16))
    timed("docs_shared_spans", lambda: CO.cross_doc_shared_grams(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", n=5))
    timed("docs_span_dedup", lambda: CO.remove_duplicate_spans(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", n=5).count())

    def _line_dedup():
        from dataquality_cli_ray.entrypoints import q_docs_line_dedup
        return len(q_docs_line_dedup(SF_DIR))

    timed("docs_line_dedup", _line_dedup)
    timed("docs_dsir_select", lambda: CO.dsir_select(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text", "lang"]),
        hash_buckets=1 << 18).count())

    def _incr():
        import shutil
        import tempfile
        d = tempfile.mkdtemp(prefix="dq_bench_idx_")
        try:
            docs = read_parquet(f"{SF_DIR}/documents.parquet",
                                columns=["doc_id", "text"])
            split = docs.count() // 2
            DD.build_dedup_index(
                docs.filter(expr=f"doc_id < {split}"), "text", "doc_id", d)
            return DD.dedup_against_index(
                read_parquet(
                    f"{SF_DIR}/documents.parquet",
                    columns=["doc_id", "text"]).filter(
                        expr=f"doc_id >= {split}"),
                d, "text", "doc_id").count()
        finally:
            shutil.rmtree(d, ignore_errors=True)

    timed("docs_incremental_dedup", _incr)
    timed("docs_oov_rate", lambda: CO.oov_rate(
        read_parquet(f"{SF_DIR}/documents.parquet",
                     columns=["doc_id", "text"]),
        "text", "doc_id", vocab_k=10).count())

    def _qlr():
        from dataquality_cli_ray.pipelines import classifier as CL
        return CL.quality_lr_pipeline(
            read_parquet(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"]),
            iters=10).count()

    timed("docs_quality_lr", _qlr)
    timed("embedding_semdedup", lambda: DD.semdedup(
        read_parquet(f"{SF_DIR}/embeddings.parquet"),
        "embedding", "vec_id", n_clusters=16, threshold=0.35).count())

    def _ann():
        Q, qids = SIM.load_query_vectors(SF_DIR, 10)
        SIM.brute_force_topk(
            read_parquet(f"{SF_DIR}/embeddings.parquet"), Q, qids, 5
        ).count()

    timed("ann_topk", _ann)

    # ---- CLIP-archetype image-caption alignment filter over the full
    # headline fixture (stand-in towers; plumbing is the measured part)
    def _align():
        from dataquality_cli_ray.stages.align import CaptionAlignStage
        ds = read_parquet(
            img_path, columns=["image_id", "bytes", "caption"])
        n = ds.map_batches(
            CaptionAlignStage(), batch_format="pyarrow", zero_copy_batch=True,
        ).select_columns(["image_id", "align_score", "keep_align"]).count()
        assert n == n_rows, (n, n_rows)

    timed("images_caption_align", _align)

    # ---- caption-frequency cap (LAION boilerplate-caption dedup) over
    # the headline fixture: first K rows per exact caption ----
    def _caption_cap():
        from dataquality_cli_ray.pipelines import corpus_ops as CO
        ds = read_parquet(
            img_path, columns=["image_id", "caption"])
        CO.cap_per_key(ds, "caption", "image_id", 2)

    timed("images_caption_cap", _caption_cap)

    # ---- multi-file directory profile: the reference's own headline
    # shape (41-file dir, README.md:108-119 -> 1.66 M rows/s) ----
    dir_stats = {}

    def _describe_dir():
        from dataquality_cli_ray.pipelines.profiler import describe_directory
        import glob
        d, total_rows = _multifile_dir()
        files = sorted(glob.glob(f"{d}/*.parquet"))
        t0 = time.time()
        res = describe_directory(files)
        dt = time.time() - t0
        assert len(res) == len(files)
        dir_stats.update(files=len(files), rows=total_rows,
                         rows_per_sec=round(total_rows / dt, 1))

    timed("describe_directory_41files", _describe_dir)

    ray.shutdown()
    out = {
        "metric": "images_quality_pipeline_wall_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "images_bench_rows": n_rows,
        "images_per_sec": round(n_rows / headline, 1),
    }
    if dir_stats:
        out["describe_dir"] = dir_stats
    return out


def _multifile_dir() -> tuple[str, int]:
    """41-file parquet directory built from the sf tables (cached) —
    the reference's directory-profile headline counterpart."""
    import math

    import pyarrow.parquet as pq

    d = os.path.join("/tmp/dqray_fixtures",
                     f"describe_dir41_{os.path.basename(SF_DIR.rstrip('/'))}")
    marker = os.path.join(d, "_COUNT")
    if os.path.exists(marker):
        return d, int(open(marker).read())
    os.makedirs(d, exist_ok=True)
    total = 0
    for tbl, k in [("lineitem", 20), ("orders", 10),
                   ("customer", 5), ("events", 6)]:
        t = pq.read_table(f"{SF_DIR}/{tbl}.parquet")
        total += t.num_rows
        step = math.ceil(t.num_rows / k)
        for j in range(k):
            pq.write_table(t.slice(j * step, step),
                           os.path.join(d, f"{tbl}_{j:02d}.parquet"))
    with open(marker, "w") as f:
        f.write(str(total))
    return d, total


if __name__ == "__main__":
    print(json.dumps(run_benchmarks()))
