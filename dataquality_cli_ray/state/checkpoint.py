"""Checkpoint / resume + per-partition lineage (north rule: "resumable
from per-partition checkpoints", "every partition writes lineage
records").

Model: the input file list is split into SHARDS (deterministic order —
the unit of resume), but a run is ONE Ray Data execution over every
pending input file. The plan's last step runs inside each read task,
whose work unit may cover part of a file or several files: it writes
the task's rows as one part file per input file under that file's
``out_root/shard=<i>.tmp/`` and returns one small ``(path, part, rows)``
row per part. The caller streams those rows; once every file of shard
*i* has reported its footer row count, the shard is published: unreported parts (a retried task's
orphan) are deleted, ``manifest.json`` (input fragments, rows in/out,
per-rule hit counters) is written, then the dir is renamed into place.
A rerun skips every shard whose manifest lists the same input
fragments — "resume = anti-filter of done fragments" (SURVEY.md §4).

The reference has NO checkpointing (full rerun, SURVEY §4); this is the
explicit-design extension the north rule requires.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def shard_files(files: list[str], shard_size: int) -> list[list[str]]:
    files = sorted(files)
    return [files[i : i + shard_size] for i in range(0, len(files), shard_size)]


def _manifest_path(out_root: str, idx: int) -> str:
    return os.path.join(out_root, f"shard={idx}", "manifest.json")


_SHARD_DIR_RE = re.compile(r"^shard=(\d+)$")


def completed_shards(out_root: str) -> set[int]:
    done = set()
    if not os.path.isdir(out_root):
        return done
    for name in os.listdir(out_root):
        # only plain 'shard=<int>' counts — leftover 'shard=N.tmp' dirs
        # from an abrupt crash mid-write must not break resume startup
        m = _SHARD_DIR_RE.match(name)
        if m:
            idx = int(m.group(1))
            if os.path.exists(_manifest_path(out_root, idx)):
                done.add(idx)
    return done


def _manifest_matches(out_root: str, idx: int, shard_files_: list[str]) -> bool:
    """A completed shard is reusable only if its manifest's input
    fragment list equals the current shard's — otherwise shifted shard
    boundaries (input files added/removed between runs) would silently
    reuse stale outputs."""
    try:
        with open(_manifest_path(out_root, idx)) as f:
            manifest = json.load(f)
        return list(manifest.get("input_fragments", [])) == list(shard_files_)
    except (OSError, ValueError):
        return False


def _write_parts(batch: pa.Table, *, tmp_dirs: dict) -> pa.Table:
    """The plan's last step, run inside each read task: write the
    block's rows (minus ``path``) as one part per input file under that
    file's ``shard=<i>.tmp`` dir, and return one ``(path, part, rows)``
    row per part. A part is written under a dot-prefixed name, then
    renamed, so a killed task leaves no readable half-file; every
    attempt picks a fresh name, so a retried task cannot overwrite —
    or be mistaken for — a reported part."""
    parts, rows = [], []
    uniq = pc.unique(batch["path"]).to_pylist()
    for path in uniq:
        t = batch if len(uniq) == 1 else batch.filter(
            pc.equal(batch["path"], path))
        stem = os.path.splitext(os.path.basename(path))[0]
        name = f"{stem}-{uuid.uuid4().hex}.parquet"
        hidden = os.path.join(tmp_dirs[path], "." + name)
        pq.write_table(t.drop_columns(["path"]), hidden)
        os.replace(hidden, os.path.join(tmp_dirs[path], name))
        parts.append(name)
        rows.append(t.num_rows)
    return pa.table({"path": pa.array(uniq, pa.string()),
                     "part": pa.array(parts, pa.string()),
                     "rows": pa.array(rows, pa.int64())})


def _with_write_step(ds, tmp_dirs: dict):
    """``ds`` with :func:`_write_parts` appended as a whole-block step,
    so it fuses into the same read task as the steps before it."""
    return ds.map_batches(_write_parts, fn_kwargs={"tmp_dirs": tmp_dirs},
                          batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)


def run_resumable(
    files: list[str],
    out_root: str,
    pipeline_fn,
    shard_size: int = 16,
    lineage_fn=None,
) -> dict:
    """Run ``pipeline_fn(pending_files) -> Dataset`` ONCE over the files
    of every shard not yet published, writing each shard atomically
    with a manifest; skips published shards whose manifest lists the
    same input fragments.

    The Dataset's rows must carry a ``path`` column naming their input
    parquet file (``quality.images_quality_pipeline(..., pending=...)``,
    or a read with ``include_paths=True``); it routes each row to its
    file's shard and is not written. A task may report several parts of
    one file (a file split into several work units or blocks). A shard publishes as
    soon as its files have reported as many rows as their footers hold
    (a pipeline that labels every row, like the quality pipeline) —
    more raises ``ValueError`` — and any shard still open when the
    execution ends publishes then.

    Returns {"shards_total", "shards_skipped", "shards_run", "manifests"}.
    ``lineage_fn(shard_dir) -> dict`` may add counters to each manifest
    (e.g. :func:`drop_reason_lineage`).
    """
    from ..sources.readers import parquet_file_rows

    os.makedirs(out_root, exist_ok=True)
    shards = shard_files(files, shard_size)
    done = completed_shards(out_root)
    manifests: dict[int, str] = {}
    pending: dict[int, list[str]] = {}
    for idx, shard in enumerate(shards):
        if idx in done and _manifest_matches(out_root, idx, shard):
            manifests[idx] = _manifest_path(out_root, idx)
            continue
        final_dir = os.path.join(out_root, f"shard={idx}")
        for d in (final_dir + ".tmp", final_dir):
            if os.path.exists(d):
                shutil.rmtree(d)     # half-written / manifest-less: redo
        os.makedirs(final_dir + ".tmp")
        pending[idx] = shard
    if pending:
        todo = [f for shard in pending.values() for f in shard]
        shard_of = {f: idx for idx, shard in pending.items() for f in shard}
        footer = dict(zip(todo, parquet_file_rows(todo)))
        seen = dict.fromkeys(todo, 0)
        parts: dict[int, set[str]] = {idx: set() for idx in pending}

        def publish(idx):
            # drop the parts no task reported (a retried task's orphan),
            # write the manifest, rename shard=<i>.tmp into place
            shard = pending[idx]
            final_dir = os.path.join(out_root, f"shard={idx}")
            tmp_dir = final_dir + ".tmp"
            for name in os.listdir(tmp_dir):
                if name not in parts[idx]:
                    os.remove(os.path.join(tmp_dir, name))
            manifest = {
                "shard": idx,
                "input_fragments": shard,
                "rows_in": sum(footer[f] for f in shard),
                "rows_out": sum(seen[f] for f in shard),
            }
            if lineage_fn is not None:
                manifest["lineage"] = lineage_fn(tmp_dir)
            with open(os.path.join(tmp_dir, "manifest.json"), "w") as f:
                json.dump(manifest, f, indent=1)
            os.replace(tmp_dir, final_dir)       # atomic publish
            manifests[idx] = _manifest_path(out_root, idx)

        tmp_dirs = {f: os.path.join(out_root, f"shard={shard_of[f]}.tmp")
                    for f in todo}
        written = _with_write_step(pipeline_fn(todo), tmp_dirs)
        for batch in written.iter_batches(batch_format="pyarrow",
                                          batch_size=None):
            for path, part, n in zip(*(batch[c].to_pylist()
                                       for c in ("path", "part", "rows"))):
                idx = shard_of[path]
                seen[path] += n
                if seen[path] > footer[path]:
                    raise ValueError(
                        f"{path}: {seen[path]} rows written, its footer "
                        f"holds {footer[path]}")
                parts[idx].add(part)
                if all(seen[f] == footer[f] for f in pending[idx]):
                    publish(idx)
        for idx in pending:
            if idx not in manifests:
                publish(idx)
    return {
        "shards_total": len(shards),
        "shards_skipped": len(shards) - len(pending),
        "shards_run": len(pending),
        "manifests": [manifests[idx] for idx in sorted(manifests)],
    }


def count_rows_parquet(d: str) -> int:
    """Rows of every parquet file under ``d``, from the footers."""
    total = 0
    for root, _, files in os.walk(d):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.read_metadata(os.path.join(root, f)).num_rows
    return total


def lineage_report(out_root: str) -> dict:
    """Read back a finished (or partial) resumable run's manifests.

    Driver-side JSON only — no Ray session. Returns
    ``{"shards": [per-shard manifest dicts in shard order],
       "incomplete": [shard dirs still in .tmp / missing manifests],
       "rows_out": total, "lineage": aggregated rule-hit counters}`` —
    the read-back half of the north rule's "per-partition lineage +
    metrics" (the write half is ``run_resumable``)."""
    if not os.path.isdir(out_root):
        raise FileNotFoundError(f"run directory not found: {out_root}")
    shards, incomplete = [], []
    for name in sorted(os.listdir(out_root)):
        p = os.path.join(out_root, name)
        # classify with the SAME shard-name pattern resume uses
        # (completed_shards): 'shard=<int>' dirs are shards,
        # 'shard=<int>.tmp' dirs are crashed mid-writes; anything else
        # (stray files, editor backups) is not the run's business
        if (name.endswith(".tmp")
                and _SHARD_DIR_RE.match(name[: -len(".tmp")])
                and os.path.isdir(p)):
            incomplete.append(name)
            continue
        if not (_SHARD_DIR_RE.match(name) and os.path.isdir(p)):
            continue
        try:
            with open(os.path.join(p, "manifest.json")) as f:
                shards.append(json.load(f))
        except (OSError, ValueError):
            incomplete.append(name)
    shards.sort(key=lambda m: m.get("shard", -1))
    agg: dict[str, int] = {}
    for m in shards:
        for k, v in (m.get("lineage") or {}).items():
            agg[k] = agg.get(k, 0) + int(v)
    return {
        "shards": shards,
        "incomplete": incomplete,
        "rows_out": sum(int(m.get("rows_out", 0)) for m in shards),
        "lineage": agg,
    }


def drop_reason_lineage(out_dir: str) -> dict:
    """Default lineage_fn: per-rule counters from the shard's own output
    (column-pruned read of drop_reason only)."""
    counts: dict[str, int] = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            if not f.endswith(".parquet"):
                continue
            t = pq.read_table(os.path.join(root, f), columns=["drop_reason"])
            vc = t["drop_reason"].combine_chunks().value_counts()
            for s in vc:
                key = s["values"].as_py() or "KEEP"
                counts[key] = counts.get(key, 0) + s["counts"].as_py()
    return counts
