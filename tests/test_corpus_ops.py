"""Corpus-op tests: word-n-gram kernel identities, decontamination,
per-key caps, repetition stats — each pinned against an independent
reference (scalar hash path, a pure-Python reimplementation, or
DuckDB SQL over the same parquet)."""

import json
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dataquality_cli_ray.functions.hashing import stable_hash64_array
from dataquality_cli_ray.functions.rounding import round_half_up
from dataquality_cli_ray.functions.wordgrams import (
    word_counts_batch, word_ngram_hashes_batch)

SF = "/root/testdata/sf0.01"

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "a a a a a",
    "",                       # one empty word
    "single",
    "double  space",          # empty token between the spaces
    " leading and trailing ",
    None,                     # null -> ''
    "x " * 500 + "y",         # long doc
]


def _py_ngrams(t, n):
    words = ("" if t is None else t).lower().split(" ")
    return [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_word_ngram_hashes_match_scalar_path(n):
    """Kernel identity: the hash of every word n-gram equals
    stable_hash64_array of the joined gram string."""
    h, offs = word_ngram_hashes_batch(pa.array(TEXTS, type=pa.string()), n)
    for d, t in enumerate(TEXTS):
        grams = _py_ngrams(t, n)
        got = h[offs[d]:offs[d + 1]]
        assert len(got) == len(grams), (d, t)
        if grams:
            want = stable_hash64_array(
                pa.array(grams, type=pa.string())).view(np.uint64)
            assert np.array_equal(got, want), (d, t)


def test_word_ngram_hashes_property():
    """Property test: random unicode texts (spaces, multi-byte
    codepoints, empties, nulls) — kernel grams match a pure-Python
    split over the SAME (Arrow-lowered) strings. Multi-byte UTF-8
    never contains 0x20 bytes, so byte-level space splitting must
    agree with str.split(' ')."""
    import pyarrow.compute as pc
    from hypothesis import given, settings
    from hypothesis import strategies as st

    texts_st = st.lists(
        st.one_of(
            st.none(),
            st.text(
                alphabet=st.one_of(
                    st.sampled_from(" aé日\t"),
                    st.characters(min_codepoint=32, max_codepoint=1000)),
                max_size=40)),
        max_size=20)

    @settings(max_examples=150, deadline=None)
    @given(texts=texts_st, n=st.integers(1, 4))
    def check(texts, n):
        arr = pa.array(texts, type=pa.string())
        h, offs = word_ngram_hashes_batch(arr, n)
        lowered = pc.utf8_lower(pc.fill_null(arr, "")).to_pylist()
        for d, t in enumerate(lowered):
            words = t.split(" ")
            grams = [" ".join(words[i:i + n])
                     for i in range(len(words) - n + 1)]
            got = h[offs[d]:offs[d + 1]]
            assert len(got) == len(grams)
            if grams:
                want = stable_hash64_array(
                    pa.array(grams, type=pa.string())).view(np.uint64)
                assert np.array_equal(got, want)

    check()


def test_word_counts_batch():
    w = word_counts_batch(pa.array(TEXTS, type=pa.string()))
    want = [len(("" if t is None else t).split(" ")) for t in TEXTS]
    assert w.tolist() == want


def test_decontaminate_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        benchmark_ngram_set, decontaminate)

    n, split = 5, 25
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(f"""
WITH w AS (SELECT doc_id, string_split(lower(coalesce(text,'')), ' ') AS ws
           FROM documents),
g AS (SELECT doc_id, array_to_string(ws[i:i+{n - 1}], ' ') AS s
      FROM (SELECT doc_id, ws,
                   unnest(generate_series(1, len(ws)-{n}+1)) AS i FROM w)),
bench AS (SELECT DISTINCT s FROM g WHERE doc_id < {split}),
hit AS (SELECT DISTINCT doc_id FROM g JOIN bench USING (s)
        WHERE doc_id >= {split})
SELECT d.doc_id, (h.doc_id IS NOT NULL) AS contaminated
FROM documents d LEFT JOIN hit h USING (doc_id)
WHERE d.doc_id >= {split} ORDER BY d.doc_id""").fetch_arrow_table()

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    bench_tbl = pa.concat_tables(
        b for b in docs.filter(expr=f"doc_id < {split}")
        .select_columns(["text"]).iter_batches(batch_format="pyarrow"))
    bench = benchmark_ngram_set(bench_tbl["text"], n)
    out = (decontaminate(docs.filter(expr=f"doc_id >= {split}"),
                         bench, "text", n=n)
           .select_columns(["doc_id", "contaminated"])
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    wf = want.to_pandas()
    assert out["doc_id"].tolist() == wf["doc_id"].tolist()
    assert out["contaminated"].tolist() == wf["contaminated"].tolist()
    # the fixture must exercise both outcomes or the test proves nothing
    assert 0 < out["contaminated"].sum() < len(out)


def test_cap_per_key_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import cap_per_key

    k = 7
    con = duckdb.connect()
    want = con.execute(f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM read_parquet('{SF}/documents.parquet')) WHERE rn <= {k}
ORDER BY source, doc_id""").fetch_arrow_table()
    # small blocks so the tree reduce actually merges multiple partials
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = cap_per_key(docs, "source", "doc_id", k)
    assert got.column("source").to_pylist() == want.column("source").to_pylist()
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()


def test_cap_per_key_dataset_matches_tree(ray_session):
    """The hash-partitioned (high-cardinality) cap returns exactly the
    tree-reduce path's rows — scalar k and per-key caps table, string
    key, multiple partitions so the exchange actually splits."""
    import pyarrow as pa
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        cap_per_key, cap_per_key_dataset)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    for caps, k in [(None, 3),
                    (pa.table({"source": ["src3", "src18"],
                               "cap": [5, 2]}), 0)]:
        tree = cap_per_key(docs, "source", "doc_id", k, caps=caps)
        part = (cap_per_key_dataset(docs, "source", "doc_id", k, caps=caps)
                .to_pandas().sort_values(["source", "doc_id"]))
        assert part["source"].tolist() == tree.column("source").to_pylist()
        assert part["doc_id"].tolist() == tree.column("doc_id").to_pylist()


def test_top_ngrams_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import top_ngrams

    n, k = 2, 15
    con = duckdb.connect()
    want = con.execute(f"""
WITH w AS (SELECT string_split(lower(coalesce(text,'')), ' ') AS ws
           FROM read_parquet('{SF}/documents.parquet')),
g AS (SELECT array_to_string(ws[i:i+{n - 1}], ' ') AS s
      FROM (SELECT ws, unnest(generate_series(1, len(ws)-{n}+1)) AS i
            FROM w))
SELECT s AS gram, count(*)::BIGINT AS cnt FROM g GROUP BY s
ORDER BY cnt DESC, gram ASC LIMIT {k}""").fetch_arrow_table()
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = top_ngrams(docs, "text", n, k)
    assert got.column("gram").to_pylist() == want.column("gram").to_pylist()
    assert got.column("cnt").to_pylist() == want.column("cnt").to_pylist()


@pytest.mark.parametrize("window,overlap", [(24, 8), (8, 0), (4, 3)])
def test_chunk_windows_matches_python(ray_session, window, overlap):
    """Pure-Python chunking reference: coverage, ids, exact strings."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import chunk_windows

    step = window - overlap
    docs = rd.read_parquet(f"{SF}/documents.parquet").limit(80)
    out = (chunk_windows(docs, "text", "doc_id", window, overlap)
           .to_pandas().sort_values(["doc_id", "chunk_id"]))
    texts = {r["doc_id"]: r["text"] for b in
             rd.read_parquet(f"{SF}/documents.parquet").limit(80)
             .iter_batches(batch_format="pandas")
             for r in b.to_dict("records")}
    got = {(r.doc_id, r.chunk_id): (r.chunk, r.n_words)
           for r in out.itertuples()}
    want = {}
    for did, t in texts.items():
        words = (t or "").lower().split(" ")
        n = len(words)
        starts = list(range(0, max(n - overlap - 1, 0) + 1, step))
        for ci, s in enumerate(starts):
            chunk = words[s:s + window]
            want[(did, ci)] = (" ".join(chunk), len(chunk))
    assert got == want


def test_entry_contract(ray_session):
    """Driver contract: entry() returns rows with a stable schema;
    every queries() key has an oracle_sql() twin (the round-3 repo
    keeps zero rows-only queries)."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "__ray_entry__.py")
    spec = importlib.util.spec_from_file_location("__ray_entry__", path)
    E = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(E)

    qs, oracles = E.queries(), E.oracle_sql()
    assert set(oracles) == set(qs)
    assert all(callable(f) for f in qs.values())
    out = E.entry()
    df = out.to_pandas()
    assert len(df) > 0
    assert {"doc_id", "keep", "caption_scrubbed"} <= set(df.columns)


def test_corpus_cli(ray_session, tmp_path):
    """corpus subcommand end-to-end: dataset-shaped and small-aggregate
    outputs land as parquet (cmd_corpus is called directly — main()
    owns/tears down the Ray session, the test fixture does here)."""
    from argparse import Namespace

    import pyarrow.parquet as pq

    from dataquality_cli_ray.cli import cmd_corpus

    base = dict(input=f"{SF}/documents.parquet", text_col="text",
                id_col="doc_id", key_col="source", num_cpus=4, ngram=5,
                drop=False, window=24, overlap=8, k=5, threshold=0.5,
                bench=None)
    assert cmd_corpus(Namespace(
        **{**base, "op": "chunk", "output": str(tmp_path / "chunks")})) == 0
    t = pq.read_table(str(tmp_path / "chunks"))
    assert t.num_rows >= 500 and "chunk" in t.column_names
    assert cmd_corpus(Namespace(
        **{**base, "op": "top-ngrams", "ngram": 2,
           "output": str(tmp_path / "top.parquet")})) == 0
    assert pq.read_table(str(tmp_path / "top.parquet")).num_rows == 5
    assert cmd_corpus(Namespace(
        **{**base, "op": "decontaminate",
           "bench": f"{SF}/documents.parquet",
           "output": str(tmp_path / "flagged")})) == 0
    f = pq.read_table(str(tmp_path / "flagged"))
    # bench == corpus: every doc with >= 5 words flags against itself
    assert f.num_rows == 500
    import pyarrow.compute as pc
    assert pc.sum(f["contaminated"]).as_py() > 450


def test_corpus_cli_gzip_jsonl_output(ray_session, tmp_path, capsys):
    """``--output *.jsonl.gz`` writes gzip JSONL (not parquet bytes) for
    both dataset-shaped and small outputs, and reads back by extension."""
    import ast
    import gzip
    from argparse import Namespace

    from dataquality_cli_ray.cli import cmd_corpus
    from dataquality_cli_ray.sources.readers import read_table

    base = dict(input=f"{SF}/documents.parquet", text_col="text",
                id_col="doc_id", key_col="source", num_cpus=4, ngram=2,
                window=24, overlap=8, k=5)
    out = tmp_path / "chunks.jsonl.gz"
    assert cmd_corpus(Namespace(**{**base, "op": "chunk",
                                   "output": str(out)})) == 0
    n = ast.literal_eval(capsys.readouterr().out.strip())["rows_out"]
    files = list(out.iterdir())
    assert files and all(f.name.endswith(".json.gz") for f in files)
    for f in files:
        assert f.read_bytes()[:2] == b"\x1f\x8b"        # gzip magic
    assert n >= 500 and read_table(str(out)).count() == n
    top = tmp_path / "top.jsonl.gz"
    assert cmd_corpus(Namespace(**{**base, "op": "top-ngrams",
                                   "output": str(top)})) == 0
    with gzip.open(top, "rt") as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 5 and set(rows[0]) == {"gram", "cnt"}


def test_corpus_cli_refuses_nonempty_output(ray_session, tmp_path, capsys):
    """A second run into the same ``--output`` dir is refused before
    anything is written, so ``rows_out`` never counts an earlier run."""
    import ast
    from argparse import Namespace

    from dataquality_cli_ray.cli import cmd_corpus

    args = Namespace(input=f"{SF}/documents.parquet", text_col="text",
                     id_col="doc_id", op="chunk", window=24, overlap=8,
                     num_cpus=4, output=str(tmp_path / "chunks"))
    assert cmd_corpus(args) == 0
    n = ast.literal_eval(capsys.readouterr().out.strip())["rows_out"]
    before = sorted(os.listdir(args.output))
    assert cmd_corpus(args) == 2
    assert "non-empty" in capsys.readouterr().err
    assert sorted(os.listdir(args.output)) == before
    assert pq.read_table(args.output).num_rows == n


def test_repetition_stats_match_python(ray_session):
    """Pure-Python reference over the fixture corpus."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import repetition_stats

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    out = (repetition_stats(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    texts = {r["doc_id"]: r["text"] for b in
             rd.read_parquet(f"{SF}/documents.parquet")
             .select_columns(["doc_id", "text"])
             .iter_batches(batch_format="pandas")
             for r in b.to_dict("records")}
    import collections
    for _, row in out.sample(n=60, random_state=0).iterrows():
        words = (texts[row["doc_id"]] or "").lower().split(" ")
        assert row["n_words"] == len(words)
        dup = (len(words) - len(set(words))) / len(words)
        assert row["dup_word_frac"] == round_half_up(dup, 6)
        if len(words) >= 2:
            g2 = collections.Counter(
                zip(words, words[1:]))
            top2 = max(g2.values()) / (len(words) - 1)
        else:
            top2 = 0.0
        assert row["top2_frac"] == round_half_up(top2, 6)


def test_quantile_from_hist_matches_expanded():
    from dataquality_cli_ray.pipelines.corpus_ops import _quantile_cont_from_hist
    from dataquality_cli_ray.state.sketches import _quantile_cont

    rng = np.random.default_rng(7)
    for trial in range(50):
        vals = np.unique(rng.integers(0, 40, size=rng.integers(1, 12)))
        cnts = rng.integers(1, 9, size=len(vals)).astype(np.int64)
        expanded = np.repeat(vals, cnts).astype(np.float64)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, 0.33):
            got = _quantile_cont_from_hist(vals, cnts, q)
            want = _quantile_cont(np.sort(expanded), q)
            assert got == want, (trial, q, vals, cnts)


def test_quantile_threshold_filter_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import quantile_threshold_filter

    con = duckdb.connect()
    want = con.execute(f"""
WITH t AS (SELECT doc_id,
  length(regexp_extract_all(trim(text, ' ' || chr(9) || chr(10) || chr(13)),
                            '\\S+'))::BIGINT AS n_tokens
  FROM read_parquet('{SF}/documents.parquet'))
SELECT doc_id, n_tokens FROM t
WHERE n_tokens >= (SELECT quantile_cont(n_tokens, 0.25) FROM t)
ORDER BY doc_id""").fetch_arrow_table()
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = quantile_threshold_filter(docs, "text", "doc_id", q=0.25) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == want.column("doc_id").to_pylist()
    assert got["n_tokens"].tolist() == want.column("n_tokens").to_pylist()


def test_pack_sequences_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import pack_sequences

    budget = 97  # deliberately not a power of two
    con = duckdb.connect()
    want = con.execute(f"""
WITH t AS (SELECT doc_id,
  length(regexp_extract_all(trim(text, ' ' || chr(9) || chr(10) || chr(13)),
                            '\\S+'))::BIGINT AS n_tokens
  FROM read_parquet('{SF}/documents.parquet')),
s AS (SELECT doc_id, n_tokens,
  COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS start_tok
  FROM t)
SELECT doc_id, n_tokens, start_tok, (start_tok // {budget})::BIGINT AS bin
FROM s ORDER BY doc_id""").fetch_arrow_table()
    # many blocks so the exclusive scan crosses real block boundaries
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = pack_sequences(docs, "text", "doc_id", budget=budget) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    for col in ("doc_id", "n_tokens", "start_tok", "bin"):
        assert got[col].tolist() == want.column(col).to_pylist(), col


def test_pack_sequences_rejects_overlapping_blocks(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import pack_sequences

    t1 = pa.table({"doc_id": [1, 5], "text": ["a b", "c"]})
    t2 = pa.table({"doc_id": [3, 9], "text": ["d", "e f"]})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    with pytest.raises(ValueError, match="overlap"):
        pack_sequences(ds, "text", "doc_id", budget=10)


def test_stratified_sample_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import stratified_sample_per_key

    frac = 0.25
    con = duckdb.connect()
    want = con.execute(f"""
WITH r AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY source) AS cnt
  FROM read_parquet('{SF}/documents.parquet'))
SELECT source, doc_id FROM r WHERE rn <= ceil({frac} * cnt)
ORDER BY source, doc_id""").fetch_arrow_table()
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = stratified_sample_per_key(docs, "source", "doc_id", frac=frac)
    assert got.column("source").to_pylist() == want.column("source").to_pylist()
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()


def test_knuth_u32_matches_duckdb():
    from dataquality_cli_ray.functions.hashing import knuth_u32

    ids = np.array([0, 1, 7, 12345, 2**31 - 1], dtype=np.int64)
    got = knuth_u32(ids)
    con = duckdb.connect()
    want = con.execute(
        "SELECT (i * 2654435761) % 4294967296 FROM (SELECT unnest([0,1,7,12345,2147483647]) AS i)"
    ).fetchnumpy()
    assert np.array_equal(got.astype(np.int64),
                          list(want.values())[0].astype(np.int64))
    assert got.max() < 2**32


def test_temperature_resample(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import temperature_resample

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    # alpha=1 -> frac_k = 1 for every key -> identity
    full = temperature_resample(docs, "lang", "doc_id", alpha=1.0).count()
    assert full == 500
    # alpha=0.5 matches the SQL oracle row-for-row (deterministic)
    got = temperature_resample(docs, "lang", "doc_id", alpha=0.5).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(f"""
WITH c AS (SELECT lang, count(*) AS cnt
           FROM read_parquet('{SF}/documents.parquet') GROUP BY lang),
m AS (SELECT min(cnt) AS cmin FROM c),
f AS (SELECT lang, CAST(floor(sqrt(CAST(cmin AS DOUBLE)/cnt) * 4294967296) AS BIGINT) AS thr
      FROM c, m)
SELECT d.doc_id, d.lang FROM read_parquet('{SF}/documents.parquet') d
JOIN f USING (lang)
WHERE (d.doc_id * 2654435761) % 4294967296 < f.thr ORDER BY doc_id""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["lang"].tolist() == want["lang"].tolist()
    # the smallest key survives in full; bigger keys are downsampled
    cnts = got.groupby("lang").size()
    raw = want  # reuse connection for raw counts
    raw_cnts = con.execute(
        f"SELECT lang, count(*) c FROM read_parquet('{SF}/documents.parquet') GROUP BY lang"
    ).df().set_index("lang")["c"]
    assert cnts[raw_cnts.idxmin()] == raw_cnts.min()
    assert cnts[raw_cnts.idxmax()] < raw_cnts.max()
    with pytest.raises(ValueError):
        temperature_resample(docs, "lang", "doc_id", alpha=1.5)


def test_hash_split_deterministic_and_disjoint(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import hash_split

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    a = hash_split(docs, "doc_id").to_pandas().sort_values("doc_id")
    b = hash_split(docs, "doc_id").to_pandas().sort_values("doc_id")
    assert a["split"].tolist() == b["split"].tolist()      # rerun-stable
    vc = a["split"].value_counts()
    assert set(vc.index) == {"train", "val", "test"}
    assert vc.sum() == 500
    # ~10% each for val/test (low-discrepancy hash: near-exact)
    assert 40 <= vc["val"] <= 60 and 40 <= vc["test"] <= 60
    # membership is a pure function of id: growing the corpus never
    # moves an existing doc between splits
    half = rd.read_parquet(f"{SF}/documents.parquet").filter(
        lambda r: r["doc_id"] < 250)
    h = hash_split(half, "doc_id").to_pandas().sort_values("doc_id")
    sub = a[a["doc_id"] < 250].reset_index(drop=True)
    assert h["split"].tolist() == sub["split"].tolist()


def test_shard_shuffle_partitioned_write(ray_session, tmp_path):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import shard_shuffle

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    out = str(tmp_path / "shards")
    t = shard_shuffle(docs, "doc_id", n_shards=8, out_dir=out,
                      cols=["doc_id", "lang"])
    cnt = dict(zip(t["shard"].to_pylist(), t["cnt"].to_pylist()))
    assert sum(cnt.values()) == 500
    assert len(cnt) == 8 and max(cnt.values()) - min(cnt.values()) <= 4
    # partitioned layout on disk: one directory per shard, resumable
    back = rd.read_parquet(out).to_pandas()
    assert len(back) == 500
    assert sorted(back["doc_id"].tolist()) == list(range(500))
    import os
    dirs = [d for d in os.listdir(out) if d.startswith("shard=")]
    assert len(dirs) == 8


def test_cross_doc_shared_grams_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import cross_doc_shared_grams

    n = 5
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = cross_doc_shared_grams(docs, "text", "doc_id", n=n).to_pandas()
    con = duckdb.connect()
    want = con.execute(f"""
WITH w AS (SELECT doc_id, string_split(lower(coalesce(text,'')), ' ') AS ws
           FROM read_parquet('{SF}/documents.parquet')),
g AS (SELECT doc_id, array_to_string(ws[i:i+{n - 1}], ' ') AS s
      FROM (SELECT doc_id, ws,
                   unnest(generate_series(1, len(ws)-{n}+1)) AS i FROM w)),
dg AS (SELECT DISTINCT doc_id, s FROM g),
c AS (SELECT s, count(*) AS nd FROM dg GROUP BY s)
SELECT doc_id, count(*) AS n_grams,
       count(*) FILTER (WHERE nd >= 2) AS n_shared
FROM dg JOIN c USING (s) GROUP BY doc_id ORDER BY doc_id""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_grams"].tolist() == want["n_grams"].tolist()
    assert got["n_shared"].tolist() == want["n_shared"].tolist()
    # planted near-dups share almost everything; the signal separates
    assert got["shared_frac"].max() > 0.5
    assert (got["shared_frac"] == 0).sum() > 250


def test_oov_rate_matches_sql(ray_session):
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import oov_rate

    k = 10
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = oov_rate(docs, "text", "doc_id", vocab_k=k).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(f"""
WITH w AS (SELECT doc_id, string_split(lower(coalesce(text,'')), ' ') AS ws
           FROM read_parquet('{SF}/documents.parquet')),
flat AS (SELECT doc_id, unnest(ws) AS word FROM w),
vocab AS (SELECT word FROM (
  SELECT word, count(*) AS cnt FROM flat GROUP BY word
  ORDER BY cnt DESC, word ASC LIMIT {k})),
per AS (SELECT doc_id, count(*) AS n_words,
        count(*) FILTER (WHERE word NOT IN (SELECT word FROM vocab)) AS n_oov
        FROM flat GROUP BY doc_id)
SELECT doc_id, n_words, n_oov FROM per ORDER BY doc_id""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_words"].tolist() == want["n_words"].tolist()
    assert got["n_oov"].tolist() == want["n_oov"].tolist()
    assert got["oov_frac"].max() > 0      # the signal separates


def test_remove_duplicate_spans_semantics(ray_session):
    """Edge semantics of the span-removal rewrite: case-folded match,
    whole-gram coverage, untouched docs round-trip (lowercased), empty
    and short docs unchanged, within-doc repeats also removed."""
    import pyarrow as pa
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        remove_duplicate_spans)

    docs = pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog",
                 "a different sentence THE QUICK BROWN FOX JUMPS here",
                 "totally unique words nothing shared at all okay",
                 "",
                 "short one",
                 "x y a b c d e then a b c d e again"],  # within-doc dup
    })
    out = (remove_duplicate_spans(rd.from_arrow(docs), n=5)
           .to_pandas().sort_values("doc_id").set_index("doc_id"))
    assert out.loc[0, "clean_text"] == "over the lazy dog"
    assert out.loc[1, "clean_text"] == "a different sentence here"
    assert int(out.loc[0, "n_removed"]) == 5
    assert out.loc[2, "clean_text"] == docs["text"][2].as_py()
    assert out.loc[3, "clean_text"] == "" and int(out.loc[3, "n_words"]) == 1
    assert out.loc[4, "clean_text"] == "short one"
    assert out.loc[5, "clean_text"] == "x y then again"
    assert int(out.loc[5, "n_removed"]) == 10


def test_remove_duplicate_spans_keep_first_matches_sql(ray_session):
    """keep_first=True (Lee et al. keep-one-copy at gram granularity)
    matches a DuckDB rebuild where coverage excludes each dup gram's
    earliest (doc_id, position) occurrence."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        remove_duplicate_spans)

    n = 5
    con = duckdb.connect()
    want = con.execute(f"""
WITH w AS (SELECT doc_id, string_split(lower(coalesce(text,'')), ' ') AS ws
           FROM read_parquet('{SF}/documents.parquet')),
g AS (SELECT doc_id, i, array_to_string(ws[i:i+{n - 1}], ' ') AS s,
             row_number() OVER (PARTITION BY array_to_string(ws[i:i+{n - 1}], ' ')
                                ORDER BY doc_id, i) AS rn,
             count(*) OVER (PARTITION BY array_to_string(ws[i:i+{n - 1}], ' ')) AS c
      FROM (SELECT doc_id, ws,
                   unnest(generate_series(1, len(ws)-{n}+1)) AS i FROM w)),
cov AS (SELECT DISTINCT doc_id, i + d AS wi
        FROM g CROSS JOIN (SELECT unnest(generate_series(0, {n - 1})) AS d)
        WHERE c >= 2 AND rn >= 2),
words AS (SELECT doc_id, unnest(ws) AS word,
                 unnest(generate_series(1, len(ws))) AS wi FROM w),
j AS (SELECT wo.doc_id, wo.wi, wo.word, c.wi IS NOT NULL AS covered
      FROM words wo LEFT JOIN cov c ON c.doc_id = wo.doc_id AND c.wi = wo.wi)
SELECT doc_id,
       coalesce(string_agg(word, ' ' ORDER BY wi)
                FILTER (WHERE NOT covered), '') AS clean_text,
       count(*) FILTER (WHERE covered)::BIGINT AS n_removed
FROM j GROUP BY doc_id ORDER BY doc_id""").df()

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           override_num_blocks=8)
    got = (remove_duplicate_spans(docs, "text", "doc_id", n=n,
                                  keep_first=True)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["clean_text"].tolist() == want["clean_text"].tolist()
    assert got["n_removed"].tolist() == want["n_removed"].tolist()
    # keep_first must actually differ from remove-all on this corpus
    # (spared first occurrences), or the test proves nothing
    alltoo = (remove_duplicate_spans(docs, "text", "doc_id", n=n)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (got["n_removed"] < alltoo["n_removed"]).any()
    assert (got["n_removed"] <= alltoo["n_removed"]).all()


def test_remove_duplicate_spans_string_ids_no_dups(ray_session):
    """String doc ids + a corpus with NO duplicate spans: every doc
    partition hits _span_cov_lists's empty branch, whose schema must
    match the populated path's id type (regression: hardcoded int64
    made pc.index_in raise ArrowTypeError for string ids)."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        remove_duplicate_spans)

    docs = pa.table({
        "doc_id": pa.array(["d-a", "d-b", "d-c"]),
        "text": ["totally unique words nothing shared at all okay",
                 "another fully distinct line of sample prose here",
                 "third independent sentence with no overlap present"],
    })
    out = (remove_duplicate_spans(rd.from_arrow(docs), n=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == ["d-a", "d-b", "d-c"]
    assert out["clean_text"].tolist() == [t for t in docs["text"].to_pylist()]
    assert out["n_removed"].tolist() == [0, 0, 0]
    # and WITH a planted cross-doc dup, string ids still work end-to-end
    docs2 = pa.table({
        "doc_id": pa.array(["s1", "s2"]),
        "text": ["the quick brown fox jumps over the lazy dog",
                 "prefix words the quick brown fox jumps suffix"],
    })
    out2 = (remove_duplicate_spans(rd.from_arrow(docs2), n=5)
            .to_pandas().sort_values("doc_id").set_index("doc_id"))
    assert out2.loc["s1", "clean_text"] == "over the lazy dog"
    assert out2.loc["s2", "clean_text"] == "prefix words suffix"


def test_cap_per_key_empty_input_preserves_schema(ray_session):
    """Empty input: the result schema must derive from the input's
    (int key, string id here), not a hardcoded (string, int64)."""
    import ray.data as rd
    from dataquality_cli_ray.pipelines.corpus_ops import (
        cap_per_key, cap_per_key_dataset)

    empty = pa.table({
        "k": pa.array([], type=pa.int32()),
        "i": pa.array([], type=pa.string()),
    })
    ds = rd.from_arrow(empty)
    got = cap_per_key(ds, "k", "i", 2)
    assert got.num_rows == 0
    assert got.schema.field("k").type == pa.int32()
    assert got.schema.field("i").type == pa.string()
    got_ds = cap_per_key_dataset(ds, "k", "i", 2)
    sch = got_ds.schema().base_schema
    assert got_ds.count() == 0
    assert sch.field("k").type == pa.int32()
    assert sch.field("i").type == pa.string()
    # filtered to zero rows by a row function: Ray knows no schema, so
    # the columns are typed null (an AttributeError before)
    gone = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int32()),
                                   "i": ["a", "b"]})).filter(lambda r: False)
    got = cap_per_key(gone, "k", "i", 2)
    assert got.num_rows == 0 and got.column_names == ["k", "i"]
    assert cap_per_key_dataset(gone, "k", "i", 2).count() == 0


def test_dedup_lines_keep_first_semantics(ray_session):
    """Corpus-wide exact line dedup: first (doc, line-idx) occurrence
    survives, later exact copies are cut, short lines (< min_chars)
    and unique lines stay; counters per doc."""
    import ray.data as rd

    from dataquality_cli_ray.pipelines.corpus_ops import dedup_lines

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma\nshort\ndup line here",
            "dup line here\nunique middle\ndup line here",
            "zz\nalpha beta gamma",
        ]),
    })
    out = (dedup_lines(rd.from_arrow(t).repartition(3), min_chars=3)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 1 keeps everything (it holds the first occurrences)
    assert out.loc[0, "clean_text"] == "alpha beta gamma\nshort\ndup line here"
    assert out.loc[0, "n_removed"] == 0 and out.loc[0, "n_lines"] == 3
    # doc 2 loses BOTH copies of the dup line (first occurrence is doc 1's)
    assert out.loc[1, "clean_text"] == "unique middle"
    assert out.loc[1, "n_removed"] == 2
    # doc 3: "zz" is below min_chars=3 -> immune even though duplicated
    # nowhere; "alpha beta gamma" is a later copy -> cut
    assert out.loc[2, "clean_text"] == "zz"
    assert out.loc[2, "n_removed"] == 1 and out.loc[2, "n_lines"] == 2


def test_dedup_lines_within_doc_and_empty(ray_session):
    """Within-doc repeats count toward the duplicate decision; empty
    input and docs with every line removed rebuild cleanly."""
    import ray.data as rd

    from dataquality_cli_ray.pipelines.corpus_ops import dedup_lines

    t = pa.table({
        "doc_id": pa.array([10, 11], type=pa.int64()),
        "text": pa.array(["same\nsame\nsame", "same"]),
    })
    out = (dedup_lines(rd.from_arrow(t), min_chars=1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "clean_text"] == "same"      # keeps only (10, 0)
    assert out.loc[0, "n_removed"] == 2
    assert out.loc[1, "clean_text"] == ""          # all lines removed
    assert out.loc[1, "n_removed"] == 1


def test_dsir_select_matches_sql_and_hashed_mode(ray_session):
    """Exact-word DSIR scores/selection match the DuckDB oracle;
    hashed-feature mode (the unbounded-vocabulary path) picks the same
    documents on the fixture (no bucket collisions at 2^16 over ~30
    distinct words)."""
    import ray.data as rd

    from dataquality_cli_ray.entrypoints import (
        q_docs_dsir_select, sql_docs_dsir_select)
    from dataquality_cli_ray.pipelines.corpus_ops import dsir_select
    from dataquality_cli_ray.sources.readers import read_parquet_small

    out = q_docs_dsir_select(SF)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    o = con.execute(sql_docs_dsir_select()).fetchdf()
    assert (out["dsir_score"].to_numpy() == o["dsir_score"].to_numpy()).all()
    assert (out["selected"].to_numpy() == o["selected"].to_numpy()).all()
    assert 0 < out["selected"].sum() < len(out)

    docs = read_parquet_small(f"{SF}/documents.parquet",
                              columns=["doc_id", "text", "lang"])
    hashed = (dsir_select(docs, hash_buckets=1 << 16)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (hashed["selected"].to_numpy() == out["selected"].to_numpy()).all()
