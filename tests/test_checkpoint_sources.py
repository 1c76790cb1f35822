"""Checkpoint/resume semantics + source utilities."""

import json
import os
import pathlib
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dataquality_cli_ray.sources.readers import (
    DiscoveryOptions,
    detect_delimiter,
    discover_files,
    read_csv_auto,
    validate_utf8,
)
from dataquality_cli_ray.state.checkpoint import (
    completed_shards,
    drop_reason_lineage,
    lineage_report,
    run_resumable,
    shard_files,
)


@pytest.fixture()
def input_files(tmp_path):
    files = []
    for i in range(6):
        p = tmp_path / f"in_{i}.parquet"
        pq.write_table(pa.table({
            "x": np.arange(10) + i * 10,
            "drop_reason": ([None] * 8 + ["null_blank", "char_class"]),
        }), p)
        files.append(str(p))
    return files


def _identity_pipeline(files):
    import ray.data as rd
    return rd.read_parquet(files, include_paths=True)


def test_run_resumable_and_skip(ray_session, input_files, tmp_path):
    out_root = str(tmp_path / "out")
    r1 = run_resumable(input_files, out_root, _identity_pipeline,
                       shard_size=2, lineage_fn=drop_reason_lineage)
    assert r1["shards_total"] == 3 and r1["shards_run"] == 3
    assert completed_shards(out_root) == {0, 1, 2}
    # manifests carry fragments + counters
    m = json.load(open(r1["manifests"][0]))
    assert m["rows_out"] == 20 and len(m["input_fragments"]) == 2
    assert m["rows_in"] == 20
    assert m["lineage"]["KEEP"] == 16 and m["lineage"]["null_blank"] == 2
    # rerun: everything skipped
    r2 = run_resumable(input_files, out_root, _identity_pipeline,
                       shard_size=2, lineage_fn=drop_reason_lineage)
    assert r2["shards_run"] == 0 and r2["shards_skipped"] == 3


def test_resume_after_partial_failure(ray_session, input_files, tmp_path):
    out_root = str(tmp_path / "out2")
    run_resumable(input_files, out_root, _identity_pipeline, shard_size=2)
    # simulate a crash that left shard 1 half-written (no manifest)
    os.remove(os.path.join(out_root, "shard=1", "manifest.json"))
    r = run_resumable(input_files, out_root, _identity_pipeline, shard_size=2)
    assert r["shards_run"] == 1 and r["shards_skipped"] == 2
    assert completed_shards(out_root) == {0, 1, 2}


def test_lineage_report_rollup(ray_session, input_files, tmp_path):
    out_root = str(tmp_path / "out3")
    run_resumable(input_files, out_root, _identity_pipeline,
                  shard_size=2, lineage_fn=drop_reason_lineage)
    rep = lineage_report(out_root)
    assert len(rep["shards"]) == 3 and rep["incomplete"] == []
    assert rep["rows_out"] == 60
    # aggregate = 3 shards x per-shard counters
    assert rep["lineage"] == {"KEEP": 48, "null_blank": 6, "char_class": 6}
    # a crashed shard=<int>.tmp dir and a manifest-less shard dir both
    # read as incomplete; stray non-shard entries are ignored
    os.makedirs(os.path.join(out_root, "shard=3.tmp"))
    os.makedirs(os.path.join(out_root, "shard=0.bak"))
    (pathlib.Path(out_root) / "notes.tmp").write_text("x")
    os.remove(os.path.join(out_root, "shard=1", "manifest.json"))
    rep2 = lineage_report(out_root)
    assert sorted(rep2["incomplete"]) == ["shard=1", "shard=3.tmp"]
    assert rep2["rows_out"] == 40
    with pytest.raises(FileNotFoundError):
        lineage_report(str(tmp_path / "no_such_run"))


def test_shard_files_deterministic():
    fs = [f"f{i}" for i in range(7)]
    shards = shard_files(list(reversed(fs)), 3)
    assert shards[0] == ["f0", "f1", "f2"] and shards[2] == ["f6"]


@pytest.mark.parametrize("size", [0, -1])
def test_shard_size_below_one_rejected(input_files, tmp_path, capsys, size):
    """A shard size below 1 raises ``ValueError`` in ``shard_files``; the
    quality CLI rejects it as a usage error (exit 2) before it starts
    Ray or creates the output dir."""
    from dataquality_cli_ray import cli

    with pytest.raises(ValueError, match="shard_size"):
        shard_files(input_files, size)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        cli.main(["quality", "--input", str(tmp_path), "--output", str(out),
                  "--shard-size", str(size)])
    assert e.value.code == 2 and not out.exists()
    assert "--shard-size" in capsys.readouterr().err


def test_ray_session_sized_by_cpu_affinity(monkeypatch):
    """Without ``--num-cpus`` the CLI's Ray session gets the CPUs this
    process may run on, not every CPU of the machine."""
    import ray

    from dataquality_cli_ray import cli

    calls = []
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", lambda **kw: calls.append(kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cli._ray_session(None)
    cli._ray_session(2)
    assert [c["num_cpus"] for c in calls] == [3, 2]


def test_discover_files(tmp_path):
    (tmp_path / "sub").mkdir()
    for name, size in [("a.csv", 10), ("b.CSV", 1000), ("c.txt", 10),
                       ("sub/d.csv", 10)]:
        (tmp_path / name).write_bytes(b"x" * size)
    all_csv = discover_files(str(tmp_path), "csv")
    assert [os.path.basename(f["path"]) for f in all_csv] == \
        ["a.csv", "b.CSV", "d.csv"]
    flat = discover_files(str(tmp_path), "csv",
                          DiscoveryOptions(recursive=False))
    assert len(flat) == 2
    big = discover_files(str(tmp_path), "csv",
                         DiscoveryOptions(min_size=100))
    assert [os.path.basename(f["path"]) for f in big] == ["b.CSV"]
    with pytest.raises(FileNotFoundError):
        discover_files(str(tmp_path), "json")


def test_detect_delimiter():
    assert detect_delimiter(b"a,b,c\n1,2,3\n") == ","
    assert detect_delimiter(b"a;b;c\n1;2;3\n") == ";"
    assert detect_delimiter(b"a\tb\n1\t2\n") == "\t"
    assert detect_delimiter(b"a|b|c\n") == "|"
    assert detect_delimiter(b"nodelims\n") == ","


def test_validate_utf8():
    assert validate_utf8("héllo".encode())
    assert not validate_utf8(b"\xff\xfe\x00bad")


def test_read_csv_auto(ray_session, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a;b\n1;x\n2;y\n")
    ds = read_csv_auto(str(p))
    df = ds.to_pandas()
    assert list(df.columns) == ["a", "b"] and len(df) == 2


def test_read_csv_ragged_skip(ray_session, tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,x\n2,y,EXTRA\n3,z\n")
    df = read_csv_auto(str(p)).to_pandas()
    # Arrow skips the ragged row (documented divergence from the
    # reference, which would truncate it)
    assert len(df) == 2 and list(df["a"]) == [1, 3]


def test_render_describe_report():
    import pyarrow as pa

    from dataquality_cli_ray.cli import render_describe
    from dataquality_cli_ray.state.sketches import partials_for_table

    t = pa.table({"x": [1.0, 2.0, None], "s": ["a", "", "b"]})
    stats = pa.Table.from_pylist(
        [partials_for_table(t)[c].finalize() for c in ["x", "s"]])
    out = render_describe("demo", stats, 0.5)
    assert "DATA QUALITY REPORT" in out and "demo" in out
    assert "rating:" in out and "x" in out and "s" in out


def test_read_jsonl(ray_session, tmp_path):
    from dataquality_cli_ray.sources.readers import read_jsonl, read_table

    p = tmp_path / "docs.jsonl"
    p.write_text(
        '{"doc_id": 1, "text": "hello world", "source": "web"}\n'
        '{"doc_id": 2, "text": "b\\u00e9zier curves"}\n'   # missing key
        '{"doc_id": 3, "text": "third", "source": "book"}\n'
    )
    t = read_jsonl(str(p)).to_pandas().sort_values("doc_id")
    assert list(t["doc_id"]) == [1, 2, 3]
    assert t["source"].isna().tolist() == [False, True, False]
    assert t["text"].iloc[1] == "bézier curves"
    # column projection + extension dispatch through read_table
    t2 = read_table(str(p), columns=["doc_id"]).to_pandas()
    assert list(t2.columns) == ["doc_id"] and len(t2) == 3


def test_read_ndjson(ray_session, tmp_path):
    """.ndjson[.gz] files, and a directory of them, read like .jsonl
    (Ray's own extension filter would find no input files)."""
    import gzip

    from dataquality_cli_ray.sources.readers import read_table

    lines = "".join(json.dumps({"doc_id": i, "text": f"doc {i}"}) + "\n"
                    for i in range(3))
    p = tmp_path / "docs.ndjson"
    p.write_text(lines)
    t = read_table(str(p)).to_pandas().sort_values("doc_id")
    assert list(t["doc_id"]) == [0, 1, 2] and t["text"].iloc[2] == "doc 2"
    d = tmp_path / "dir"
    d.mkdir()
    (d / "a.ndjson").write_text(lines)
    with gzip.open(d / "b.ndjson.gz", "wt") as f:
        f.write(lines)
    g = read_table(str(d / "b.ndjson.gz"), columns=["doc_id"]).to_pandas()
    assert sorted(g["doc_id"]) == [0, 1, 2]
    from dataquality_cli_ray.sources.readers import read_jsonl
    assert read_jsonl(str(d)).count() == 6


def test_jsonl_feeds_corpus_ops(ray_session, tmp_path):
    # a .jsonl corpus runs the same pipelines as parquet (reader is the
    # only format-aware layer)
    from dataquality_cli_ray.pipelines.dedup import exact_dedup_by_text
    from dataquality_cli_ray.sources.readers import read_table

    p = tmp_path / "c.jsonl"
    p.write_text("".join(
        json.dumps({"doc_id": i, "text": t}) + "\n"
        for i, t in enumerate(["same text", "same text", "other"])))
    kept = exact_dedup_by_text(read_table(str(p)), "text", "doc_id")
    assert sorted(kept.to_pandas()["doc_id"]) == [0, 2]


def test_read_table_parquet_fallback(ray_session):
    """read_table dispatch: lance lib absent in this sandbox (or the
    path isn't a Lance dataset) -> parquet branch; result is a normal
    Dataset over the file."""
    from dataquality_cli_ray.sources.readers import read_table

    ds = read_table("/root/testdata/sf0.001/nation.parquet",
                    columns=["n_nationkey", "n_name"])
    assert ds.count() == 25
    assert set(ds.schema().names) == {"n_nationkey", "n_name"}


def test_completed_shards_tolerates_junk(tmp_path):
    """Leftover 'shard=N.tmp' dirs (crash mid-write) and unrelated
    entries must not break resume startup (ADVICE r1)."""
    import json
    import os

    from dataquality_cli_ray.state.checkpoint import completed_shards

    root = str(tmp_path)
    os.makedirs(os.path.join(root, "shard=0"))
    with open(os.path.join(root, "shard=0", "manifest.json"), "w") as f:
        json.dump({"shard": 0, "input_fragments": ["a"]}, f)
    os.makedirs(os.path.join(root, "shard=1.tmp"))      # crash leftover
    os.makedirs(os.path.join(root, "shard=2"))          # no manifest
    os.makedirs(os.path.join(root, "notashard"))
    assert completed_shards(root) == {0}


def test_resume_invalidates_shifted_boundaries(ray_session, tmp_path):
    """If the input file list changes between runs, shards whose
    fragment lists shifted must re-run, not silently reuse stale
    outputs (ADVICE r1)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dataquality_cli_ray.state.checkpoint import run_resumable

    files = []
    for i in range(3):
        p = str(tmp_path / f"in_{i}.parquet")
        pq.write_table(pa.table({"x": [i * 10 + j for j in range(5)]}), p)
        files.append(p)
    out = str(tmp_path / "out")
    r1 = run_resumable(files[1:], out, _identity_pipeline,
                       shard_size=1)
    assert r1["shards_run"] == 2
    # prepend a file that sorts first -> every boundary shifts
    r2 = run_resumable(files, out, _identity_pipeline,
                       shard_size=1)
    assert r2["shards_total"] == 3 and r2["shards_run"] == 3
    r3 = run_resumable(files, out, _identity_pipeline,
                       shard_size=1)
    assert r3["shards_skipped"] == 3


def _published(out_root, key="x"):
    """(every published row sorted by ``key``, {shard dir: manifest}) of
    a run; asserts each shard dir holds only its manifest and parquet
    parts."""
    tables, manifests = [], {}
    for name in sorted(os.listdir(out_root)):
        d = os.path.join(out_root, name)
        names = sorted(os.listdir(d))
        assert all(n == "manifest.json" or (n.endswith(".parquet")
                                            and not n.startswith("."))
                   for n in names), names
        with open(os.path.join(d, "manifest.json")) as f:
            manifests[name] = json.load(f)
        tables += [pq.read_table(os.path.join(d, n)) for n in names
                   if n.endswith(".parquet")]
    return pa.concat_tables(tables).sort_by(key), manifests


def _run(files, out_root):
    return run_resumable(files, out_root, _identity_pipeline, shard_size=2,
                         lineage_fn=drop_reason_lineage)


def test_resume_after_worker_killed_after_part_write(ray_session, input_files,
                                                     tmp_path, monkeypatch):
    """A worker dies right after writing its part: Ray retries the task,
    the retry writes a fresh part, and publishing deletes the part no
    task reported — no duplicate rows, no orphan part."""
    from dataquality_cli_ray.state import checkpoint as CK

    _run(input_files, str(tmp_path / "clean"))
    clean = _published(str(tmp_path / "clean"))
    marker = str(tmp_path / "killed")
    real = CK._write_parts

    def write_then_die(batch, *, tmp_dirs):
        out = real(batch, tmp_dirs=tmp_dirs)
        if (batch["path"][0].as_py().endswith("in_3.parquet")
                and not os.path.exists(marker)):
            open(marker, "w").close()
            os._exit(1)
        return out

    monkeypatch.setattr(CK, "_write_parts", write_then_die)
    out_root = str(tmp_path / "out")
    assert _run(input_files, out_root)["shards_run"] == 3
    assert os.path.exists(marker)
    # an orphan part would show as duplicate rows
    got, manifests = _published(out_root)
    assert got.equals(clean[0]) and manifests == clean[1]


def test_resume_after_worker_killed_in_multi_file_unit(ray_session,
                                                      images_path,
                                                      tmp_path, monkeypatch):
    """The CLI's quality plan over six 100-row image files, planned as
    two three-file units (UNIT_MIN_ROWS lowered to 300), so it is a Ray
    plan: each unit's task labels its files as one batch. The worker of
    the first unit dies after its first file's part is written: Ray
    retries the whole unit, the retry writes fresh parts for every file,
    and publishing deletes the part no task reported. The published
    output equals a clean run, with no orphan part."""
    import pyarrow.compute as pc

    from dataquality_cli_ray.pipelines.quality import pending_labels
    from dataquality_cli_ray.sources import readers
    from dataquality_cli_ray.stages.rules import QualityConfig
    from dataquality_cli_ray.state import checkpoint as CK

    t = pq.read_table(images_path)
    files = []
    for i in range(6):
        files.append(str(tmp_path / f"in_{i}.parquet"))
        pq.write_table(t.slice(i * 100, 100), files[-1])
    monkeypatch.setattr(readers, "UNIT_MIN_ROWS", 300)

    def run(out_root):
        return run_resumable(
            files, out_root,
            lambda p: pending_labels(files, QualityConfig(), p),
            shard_size=2, lineage_fn=drop_reason_lineage)

    run(str(tmp_path / "clean"))
    clean = _published(str(tmp_path / "clean"), "image_id")
    marker = str(tmp_path / "killed")
    real = CK._write_parts

    def write_first_file_then_die(batch, *, tmp_dirs):
        paths = pc.unique(batch["path"]).to_pylist()
        if paths == files[:3] and not os.path.exists(marker):
            real(batch.filter(pc.equal(batch["path"], paths[0])),
                 tmp_dirs=tmp_dirs)
            with open(marker, "w") as f:
                json.dump(paths, f)
            os._exit(1)
        return real(batch, tmp_dirs=tmp_dirs)

    monkeypatch.setattr(CK, "_write_parts", write_first_file_then_die)
    out_root = str(tmp_path / "out")
    assert run(out_root)["shards_run"] == 3
    with open(marker) as f:
        assert json.load(f) == files[:3]
    got, manifests = _published(out_root, "image_id")
    assert got.equals(clean[0]) and manifests == clean[1]


def test_resume_after_truncated_manifest(ray_session, input_files, tmp_path):
    """A truncated manifest.json makes only that shard re-run."""
    out_root = str(tmp_path / "out")
    _run(input_files, out_root)
    clean = _published(out_root)
    path = os.path.join(out_root, "shard=1", "manifest.json")
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text[: len(text) // 2])
    r = _run(input_files, out_root)
    assert r["shards_run"] == 1 and r["shards_skipped"] == 2
    got, manifests = _published(out_root)
    assert got.equals(clean[0]) and manifests == clean[1]


def test_resume_after_input_removed(ray_session, input_files, tmp_path):
    """An input file removed between runs shifts the later shards'
    boundaries: those re-run, the untouched shard is skipped, and the
    output equals a clean run over the remaining files."""
    out_root = str(tmp_path / "out")
    _run(input_files, out_root)
    os.remove(input_files[2])
    files = input_files[:2] + input_files[3:]
    r = _run(files, out_root)
    assert r["shards_skipped"] == 1 and r["shards_run"] == 2
    _run(files, str(tmp_path / "clean"))
    got, manifests = _published(out_root)
    clean = _published(str(tmp_path / "clean"))
    assert got.equals(clean[0]) and manifests == clean[1]


def test_block_spanning_shards_split_by_path(ray_session, input_files,
                                             tmp_path):
    """A pipeline whose blocks mix input files (here one block for all
    six) still routes every row to its own file's shard."""
    def one_block(files):
        return _identity_pipeline(files).repartition(1)

    out_root = str(tmp_path / "out")
    run_resumable(input_files, out_root, one_block, shard_size=2,
                  lineage_fn=drop_reason_lineage)
    _run(input_files, str(tmp_path / "clean"))
    got, manifests = _published(out_root)
    clean = _published(str(tmp_path / "clean"))
    assert got.equals(clean[0]) and manifests == clean[1]


def test_more_rows_than_footer_rejected(ray_session, input_files, tmp_path):
    """A file reporting more written rows than its footer holds fails
    the run instead of publishing a shard with duplicates."""
    def doubled(files):
        return _identity_pipeline(files).map_batches(
            lambda t: pa.concat_tables([t, t]), batch_format="pyarrow")

    with pytest.raises(ValueError, match="footer holds"):
        run_resumable(input_files, str(tmp_path / "out"), doubled,
                      shard_size=2)


def test_read_csv_ragged_truncate(ray_session, tmp_path):
    """ragged="truncate" keeps every data line (reference tolerate
    semantics, FieldsPerRecord=-1): extra fields ignored, short rows
    null-padded — the reference's own 1.csv shape profiles to the same
    row count the Go engine reports."""
    p = tmp_path / "dirty.csv"
    p.write_text("id,name\n"
                 "1,foo\n"
                 "2,bar,EXTRA,MORE\n"   # too many fields -> truncated
                 "3\n"                  # too few -> padded with null
                 "4,baz\n")
    ds = read_csv_auto(str(p), ragged="truncate")
    df = ds.to_pandas()
    assert len(df) == 4                      # every data line survives
    assert list(df.columns) == ["id", "name"]
    assert df["name"].isna().sum() == 1      # padded short row
    assert set(df["id"].astype(int)) == {1, 2, 3, 4}
    # skip mode on the same file drops the ragged rows
    ds2 = read_csv_auto(str(p), ragged="skip")
    assert len(ds2.to_pandas()) == 2


def test_codec_dispatch_fake_and_gate():
    """decode_rgb routes FIMG blobs through the fake codec with or
    without Pillow; encode_rgb round-trips; non-FIMG bytes raise when
    no real codec is available."""
    import numpy as np
    import pytest as _pytest
    from dataquality_cli_ray.functions import imagecodec as IC
    from dataquality_cli_ray.functions import imagefake as IF

    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
    blob = IC.encode_rgb(img, "png")
    arr, fmt = IC.decode_rgb(blob)
    assert fmt == "png" and np.array_equal(arr, img)
    if not IC.HAVE_PIL:
        with _pytest.raises(IF.CorruptImageError):
            IC.decode_rgb(b"\x89PNG\r\n\x1a\nnotreally")
        with _pytest.raises(ValueError):
            IC.encode_rgb(img, "tiff")
    else:  # real-lib branch: a real PNG must decode losslessly
        import io
        from PIL import Image
        buf = io.BytesIO()
        Image.fromarray(img).save(buf, format="PNG")
        arr2, fmt2 = IC.decode_rgb(buf.getvalue())
        assert fmt2 == "png" and np.array_equal(arr2, img)


def test_fixture_chunked_equals_oneshot_and_resumes(ray_session, tmp_path):
    """Scaling fixtures are generated in resumable chunks; a chunked
    table must be bit-identical per row to the one-shot path (rows
    derive only from default_rng([seed, row_id]) + total n_rows), and a
    crash between chunks (done marker missing, stray tmp dir) must
    re-generate only the lost chunk."""
    from dataquality_cli_ray.fixtures.images import (
        gen_rows,
        generate_images_parquet,
    )

    n = 24_000
    d = generate_images_parquet(n, out_dir=str(tmp_path), chunk_rows=10_000)
    got = pq.read_table(d).sort_by("image_id")
    want = gen_rows(np.arange(n), n).sort_by("image_id")
    assert got.equals(want)

    # simulate a crash after chunk 1: lose its done marker and files,
    # leave a stray half-written tmp dir; chunks 0 and 2 stay published
    os.remove(os.path.join(d, "_SUCCESS"))
    os.remove(os.path.join(d, "_chunk_0001.done"))
    for f in os.listdir(d):
        if f.startswith("chunk0001_"):
            os.remove(os.path.join(d, f))
    os.makedirs(os.path.join(d, "_tmp_chunk_0001"))
    d2 = generate_images_parquet(n, out_dir=str(tmp_path),
                                 chunk_rows=10_000)
    assert d2 == d and os.path.exists(os.path.join(d, "_SUCCESS"))
    assert not os.path.exists(os.path.join(d, "_tmp_chunk_0001"))
    got2 = pq.read_table(d).sort_by("image_id")
    assert got2.equals(want)
    shutil.rmtree(d)
