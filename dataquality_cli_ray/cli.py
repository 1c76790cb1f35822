"""CLI — the reference's product surface (``dataqa describe``,
``cmd/describe.go``) plus the flagship quality-filter runner.

Usage:
    python -m dataquality_cli_ray describe PATH [--recursive]
        [--output FILE] [--num-cpus N]
    python -m dataquality_cli_ray quality --input PARQUET_DIR
        --output OUT_DIR [--shard-size N] [--num-cpus N]
    python -m dataquality_cli_ray lineage OUT_DIR [--json] [--per-shard]

The CLI owns the Ray session (guarded init per the driver contract);
library code never calls ray.init.

``quality`` reads the flagship's input files (``.parquet`` only, ``.``/
``_`` names skipped) and runs the flagship's own plan
(``pipelines.quality.pending_labels``: the dup map over all input
files, the read over the files of every unpublished shard) ONCE: each
work unit's task reads its row groups, labels them and writes one part
per input file under that file's ``shard=<i>.tmp/``, and this process
publishes each shard (manifest + atomic rename) as soon as all its
files have reported (``state.checkpoint.run_resumable``). Two or more
work units run as one Ray Data execution; a single unit (any input at
1 CPU) runs in this process, with no Ray Data execution, and a failure
there is not retried: the run fails and a rerun resumes it.
``--shard-size`` sets the resume unit, not the execution. Without
``--num-cpus`` Ray gets the CPUs this process may run on.

Report layout mirrors the reference renderer: summary →
per-file/table section → detailed per-column stats
(``cmd/describe.go:306-473``); the per-file quality rating uses the
reference thresholds Good ≤10 % / Fair ≤25 % / Poor
(``cmd/describe.go:393-401``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _ray_session(num_cpus: int | None):
    import ray

    from .pipelines.exchange import cluster_cpus

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus or cluster_cpus(),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _positive_int(s: str) -> int:
    """argparse type: an integer >= 1 (else usage error, exit 2)."""
    try:
        n = int(s)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {s!r}")
    return n


def _fmt(v, nd=6):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"     # reference renders %.6g (simple_engine.go:297-301)
    return str(v)


def render_describe(name: str, stats, elapsed: float) -> str:
    from .pipelines.profiler import null_percentage, quality_rating

    np_ = null_percentage(stats)
    lines = [
        "=" * 72,
        f"DATA QUALITY REPORT — {name}",
        "=" * 72,
        f"rows: {stats['n'][0].as_py() if stats.num_rows else 0}"
        f"   columns: {stats.num_rows}"
        f"   null%: {np_:.2f}   rating: {quality_rating(np_)}"
        f"   elapsed: {elapsed:.3f}s",
        "-" * 72,
        f"{'column':<22}{'type':<10}{'count':>9}{'nulls':>7}"
        f"{'mean':>12}{'std':>12}{'min':>12}{'max':>12}{'unique':>8}",
    ]
    for i in range(stats.num_rows):
        r = {c: stats[c][i].as_py() for c in stats.column_names}
        mn = r["min"] if r["min"] is not None else r["min_str"]
        mx = r["max"] if r["max"] is not None else r["max_str"]
        lines.append(
            f"{r['column']:<22}{r['inferred_type']:<10}"
            f"{r['n'] - r['nulls']:>9}{r['nulls']:>7}"
            f"{_fmt(r['mean']):>12}{_fmt(r['std']):>12}"
            f"{_fmt(mn)[:11]:>12}{_fmt(mx)[:11]:>12}"
            f"{_fmt(r['unique']):>8}"
        )
    return "\n".join(lines)


def cmd_describe(args) -> int:
    _ray_session(args.num_cpus)

    from .pipelines.profiler import describe
    from .sources.readers import (DiscoveryOptions, discover_files,
                                  read_csv_auto, read_table)

    t0 = time.time()
    reports = []
    path = args.path
    opts = DiscoveryOptions(recursive=args.recursive)
    mode = getattr(args, "mode", "exact")
    if os.path.isdir(path):
        try:
            files = [f["path"] for f in discover_files(path, "parquet", opts)]
        except FileNotFoundError:
            files = []
        if files:
            # per-file fan-out in one wave (the reference's worker-pool
            # directory profile), not a sequential per-file loop
            from .pipelines.profiler import describe_directory

            s = time.time()
            per_file = describe_directory(sorted(files), mode=mode)
            dt = time.time() - s
            for f in sorted(per_file):
                reports.append(render_describe(os.path.basename(f),
                                               per_file[f], dt / len(per_file)))
        else:
            try:
                csvs = discover_files(path, "csv", opts)
            except FileNotFoundError:
                print(f"no parquet or csv inputs found in {path}",
                      file=sys.stderr)
                return 2
            for f in [c["path"] for c in csvs]:
                s = time.time()
                stats = describe(read_csv_auto(f), mode=mode)
                reports.append(render_describe(os.path.basename(f), stats,
                                               time.time() - s))
    else:
        stats = describe(read_table(path), mode=mode)
        reports.append(render_describe(os.path.basename(path), stats,
                                       time.time() - t0))
    out = "\n\n".join(reports) + f"\n\nTotal elapsed: {time.time()-t0:.3f}s\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_quality(args) -> int:
    _ray_session(args.num_cpus)

    from .pipelines import quality as Q
    from .sources.readers import parquet_files
    from .state import checkpoint as CK
    from .stages.rules import QualityConfig

    # the files the flagship reads: .parquet only, '.'/'_' names skipped
    files = parquet_files(args.input)
    if not files:
        print("no parquet inputs found", file=sys.stderr)
        return 2
    cfg = QualityConfig(align_threshold=args.align_threshold,
                        min_image_px=args.min_image_px,
                        max_aspect=args.max_aspect,
                        min_contrast=args.min_contrast)
    # the flagship's plan over the pending files, or their one work
    # unit labeled in this process; its dup map covers ALL inputs
    # (cross-shard correctness). The plan takes the seeded models from
    # build_models (trained on first use, once per process), and
    # run_resumable calls it only when a shard is pending, so a rerun
    # over published shards trains no model.
    res = CK.run_resumable(
        files, args.output,
        lambda pending: Q.pending_labels(files, cfg, pending),
        shard_size=args.shard_size, lineage_fn=CK.drop_reason_lineage)
    print(res)
    return 0


def cmd_lineage(args) -> int:
    """Summarize a quality run's per-shard manifests (no Ray session)."""
    import json

    from .state.checkpoint import lineage_report

    try:
        rep = lineage_report(args.run_dir)
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(rep, indent=1))
        return 0
    print(f"shards complete: {len(rep['shards'])}"
          f"   incomplete: {len(rep['incomplete'])}"
          f"   rows out: {rep['rows_out']}")
    if rep["incomplete"]:
        print("  incomplete:", ", ".join(rep["incomplete"]))
    total = max(1, sum(rep["lineage"].values()))
    for k, v in sorted(rep["lineage"].items(), key=lambda kv: -kv[1]):
        print(f"  {k:<16}{v:>12}  {v / total * 100:6.2f}%")
    if args.per_shard:
        for m in rep["shards"]:
            print(f"  shard={m['shard']}: rows_in={m.get('rows_in', '-')} "
                  f"rows_out={m['rows_out']} "
                  f"fragments={len(m.get('input_fragments', []))}")
    return 0


class _JsonNames:
    """``write_json`` file names with an explicit extension, so gzip
    output reads back by extension (``.json.gz``)."""

    def __init__(self, ext: str):
        self.ext = ext

    def get_filename_for_block(self, block, write_uuid, task_index,
                               block_index):
        return f"{write_uuid}_{task_index:06}_{block_index:06}{self.ext}"


def cmd_corpus(args) -> int:
    """Corpus-level training-data ops over a parquet file/dir input.

    Dataset-shaped results stream to ``--output`` via write_parquet;
    small aggregate results (top-ngrams, source-cap winner set) are
    written as one parquet file. An ``--output`` ending in ``.jsonl``,
    ``.ndjson`` (or either plus ``.gz``) is written as (gzip) JSONL.
    A non-empty ``--output`` dir is refused: its old files would be
    counted in ``rows_out`` and mixed into the result.
    """
    if os.path.isdir(args.output) and os.listdir(args.output):
        print(f"--output {args.output} is a non-empty directory",
              file=sys.stderr)
        return 2
    _ray_session(args.num_cpus)
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .pipelines import corpus_ops as CO
    from .pipelines import dedup as DD
    from .sources.readers import read_table

    t0 = time.time()
    # extension-dispatching reader: parquet file/dir (fast footer path),
    # .jsonl[.gz]/.ndjson, .csv, or a Lance dataset when the lib exists
    ds = read_table(args.input)
    op, small = args.op, None
    if op == "decontaminate":
        bench_tbl = pq.read_table(args.bench, columns=[args.text_col])
        bench = CO.benchmark_ngram_set(bench_tbl[args.text_col], args.ngram)
        out = CO.decontaminate(ds, bench, args.text_col, n=args.ngram,
                               drop=args.drop)
    elif op == "chunk":
        out = CO.chunk_windows(ds, args.text_col, args.id_col,
                               window=args.window, overlap=args.overlap)
    elif op == "repetition":
        out = CO.repetition_stats(ds, args.text_col, args.id_col)
    elif op == "dedup-exact":
        out = DD.exact_dedup_by_text(ds, args.text_col, args.id_col)
    elif op == "minhash-pairs":
        out = DD.minhash_lsh_pairs(ds, args.text_col, args.id_col,
                                   threshold=args.threshold)
    elif op == "source-cap":
        small = CO.cap_per_key(ds, args.key_col, args.id_col, args.k)
    elif op == "top-ngrams":
        small = CO.top_ngrams(ds, args.text_col, args.ngram, args.k)
    elif op == "quantile-filter":
        out = CO.quantile_threshold_filter(ds, args.text_col, args.id_col,
                                           q=args.q)
    elif op == "pack":
        out = CO.pack_sequences(ds, args.text_col, args.id_col,
                                budget=args.budget)
    elif op == "stratified-sample":
        small = CO.stratified_sample_per_key(ds, args.key_col, args.id_col,
                                             frac=args.frac)
    elif op == "oov-rate":
        out = CO.oov_rate(ds, args.text_col, args.id_col,
                          vocab_k=args.k)
    elif op == "quality-lr":
        from .pipelines import classifier as CL
        out = CL.quality_lr_pipeline(ds, args.text_col, args.id_col,
                                     train_frac=args.train_frac)
    elif op == "build-index":
        n = DD.build_dedup_index(ds, args.text_col, args.id_col,
                                 args.output, n_partitions=args.k)
        print({"op": op, "distinct_hashes": n, "output": args.output,
               "elapsed_sec": round(time.time() - t0, 3)})
        return 0
    elif op == "dedup-vs-index":
        out = DD.dedup_against_index(ds, args.index, args.text_col,
                                     args.id_col)
    elif op == "shared-spans":
        small = CO.cross_doc_shared_grams(ds, args.text_col, args.id_col,
                                          n=args.ngram)
    elif op == "span-dedup":
        out = CO.remove_duplicate_spans(ds, args.text_col, args.id_col,
                                        n=args.ngram,
                                        keep_first=args.keep_first)
    elif op == "line-dedup":
        out = CO.dedup_lines(ds, args.text_col, args.id_col,
                             min_chars=args.min_chars)
    elif op == "dsir-select":
        out = CO.dsir_select(ds, args.text_col, args.id_col,
                             target_col=args.key_col,
                             target_value=args.target_value,
                             top_frac=args.frac,
                             hash_buckets=args.hash_buckets)
    elif op == "resample":
        out = CO.temperature_resample(ds, args.key_col, args.id_col,
                                      alpha=args.alpha)
    elif op == "split":
        out = CO.hash_split(ds, args.id_col, val_frac=args.frac,
                            test_frac=args.frac)
    elif op == "shard":
        # writes shard=N/ partitioned parquet itself; the returned
        # per-shard count table goes to --output-counts if given
        small = CO.shard_shuffle(ds, args.id_col, n_shards=args.k,
                                 out_dir=args.output)
        print({"op": op, "shards": small.num_rows,
               "rows_out": int(pc.sum(small["cnt"]).as_py() or 0),
               "output": args.output,
               "elapsed_sec": round(time.time() - t0, 3)})
        return 0
    else:  # pragma: no cover - argparse choices guard this
        print(f"unknown corpus op {op}", file=sys.stderr)
        return 2
    # match the INPUT dispatch's newline-delimited-JSON extensions
    low = args.output.lower().rstrip("/")
    gz = low.endswith(".gz")
    jsonl_out = low.removesuffix(".gz").endswith((".jsonl", ".ndjson"))
    if small is not None:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        if jsonl_out:
            small.to_pandas().to_json(args.output, orient="records",
                                      lines=True,
                                      compression="gzip" if gz else None)
        else:
            pq.write_table(small, args.output)
        n = small.num_rows
    else:
        # count from the WRITTEN artifacts (parquet footers / JSONL
        # line counts), not out.count() — count() re-executes the whole
        # derived plan, doubling every corpus op's wall time
        if jsonl_out:
            import gzip

            ext = ".json.gz" if gz else ".json"
            out.write_json(
                args.output, filename_provider=_JsonNames(ext),
                arrow_open_stream_args={"compression": "gzip" if gz
                                        else None})
            n = 0
            for root, _, fs in os.walk(args.output):
                for f in fs:
                    if f.endswith(ext):
                        with (gzip.open if gz else open)(
                                os.path.join(root, f), "rb") as fh:
                            n += sum(ch.count(b"\n")
                                     for ch in iter(lambda: fh.read(1 << 20),
                                                    b""))
        else:
            from .state.checkpoint import count_rows_parquet

            out.write_parquet(args.output)
            n = count_rows_parquet(args.output)
    print({"op": op, "rows_out": n, "output": args.output,
           "elapsed_sec": round(time.time() - t0, 3)})
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dataquality_cli_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("describe", help="profile csv/parquet file or dir")
    d.add_argument("path")
    d.add_argument("--recursive", action="store_true")
    d.add_argument("--output")
    d.add_argument("--num-cpus", type=int, default=None)
    d.add_argument("--mode", choices=["exact", "sketch"], default="exact",
                   help="engine selection: exact stats, or bounded-memory "
                        "sketches (HLL distincts, weighted quantile sketch)"
                        " — the 100 TB profile mode")
    d.set_defaults(fn=cmd_describe)

    q = sub.add_parser("quality", help="run the quality-filter pipeline")
    q.add_argument("--input", required=True)
    q.add_argument("--output", required=True)
    q.add_argument("--shard-size", type=_positive_int, default=16)
    q.add_argument("--num-cpus", type=int, default=None)
    q.add_argument("--align-threshold", type=float, default=None,
                   help="enable the image-caption alignment rule "
                        "(CLIP-archetype cosine; drop below threshold)")
    q.add_argument("--min-image-px", type=int, default=None,
                   help="drop images whose decoded min(w,h) is below this")
    q.add_argument("--max-aspect", type=float, default=None,
                   help="drop images with decoded max(w,h)/min(w,h) "
                        "above this")
    q.add_argument("--min-contrast", type=float, default=None,
                   help="drop near-solid images: decoded pixel std "
                        "below this (low_information)")
    q.set_defaults(fn=cmd_quality)

    ln = sub.add_parser("lineage",
                        help="summarize a quality run's shard manifests")
    ln.add_argument("run_dir")
    ln.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    ln.add_argument("--per-shard", action="store_true",
                    help="also list per-shard rows/fragments")
    ln.set_defaults(fn=cmd_lineage)

    c = sub.add_parser("corpus", help="corpus-level training-data ops")
    c.add_argument("op", choices=["decontaminate", "chunk", "repetition",
                                  "dedup-exact", "minhash-pairs",
                                  "source-cap", "top-ngrams",
                                  "quantile-filter", "pack",
                                  "stratified-sample", "resample",
                                  "split", "shard", "shared-spans", "span-dedup",
                                  "line-dedup", "dsir-select",
                                  "build-index", "dedup-vs-index",
                                  "quality-lr", "oov-rate"])
    c.add_argument("--input", required=True)
    c.add_argument("--keep-first", action="store_true",
                   help="span-dedup: spare each dup gram's earliest occurrence (Lee et al. keep-one-copy)")
    c.add_argument("--output", required=True)
    c.add_argument("--text-col", default="text")
    c.add_argument("--id-col", default="doc_id")
    c.add_argument("--key-col", default="source",
                   help="source-cap partition key")
    c.add_argument("--bench", help="benchmark parquet (decontaminate)")
    c.add_argument("--ngram", type=int, default=13,
                   help="word-gram width (decontaminate / top-ngrams)")
    c.add_argument("--drop", action="store_true",
                   help="decontaminate: drop hits instead of flagging")
    c.add_argument("--window", type=int, default=512)
    c.add_argument("--overlap", type=int, default=64)
    c.add_argument("--k", type=int, default=25,
                   help="top-ngrams k / source-cap K / shard count / "
                        "build-index partitions")
    c.add_argument("--threshold", type=float, default=0.5,
                   help="minhash-pairs jaccard threshold")
    c.add_argument("--q", type=float, default=0.25,
                   help="quantile-filter cut fraction")
    c.add_argument("--budget", type=int, default=512,
                   help="pack: bin size in ws tokens")
    c.add_argument("--frac", type=float, default=0.25,
                   help="stratified-sample keep fraction per key / "
                        "split val+test fraction each")
    c.add_argument("--alpha", type=float, default=0.5,
                   help="resample temperature exponent")
    c.add_argument("--index",
                   help="dedup-vs-index: path of a build-index output")
    c.add_argument("--min-chars", type=int, default=1,
                   help="line-dedup: lines shorter than this never dedup")
    c.add_argument("--target-value", default="en",
                   help="dsir-select: target-subset value of --key-col")
    c.add_argument("--hash-buckets", type=int, default=None,
                   help="dsir-select: hashed-feature bucket count "
                        "(default exact-word model)")
    c.add_argument("--train-frac", type=float, default=0.5,
                   help="quality-lr: hash-sampled training fraction")
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_corpus)

    args = ap.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
