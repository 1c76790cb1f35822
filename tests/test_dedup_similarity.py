"""Dedup family + ANN: planted-duplicate recall, exact verification,
LSH recall vs brute force."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd_mod

from dataquality_cli_ray.functions.hashing import (
    char_shingle_hashes,
    hamming64,
    jaccard,
    simhash64,
)
from dataquality_cli_ray.pipelines import dedup as DD
from dataquality_cli_ray.pipelines import similarity as SIM


def _near_dup_corpus(n_base=60, seed=3):
    """Base docs + one perturbed near-copy each + unrelated docs."""
    rng = np.random.default_rng(seed)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    docs, ids = [], []
    for i in range(n_base):
        base = " ".join(rng.choice(words, 30))
        docs.append(base)
        ids.append(2 * i)
        # near-dup: drop one word
        toks = base.split()
        toks.pop(int(rng.integers(len(toks))))
        docs.append(" ".join(toks))
        ids.append(2 * i + 1)
    return pd.DataFrame({"doc_id": ids, "text": docs})


def test_exact_dedup_keep_first(ray_session):
    df = pd.DataFrame({
        "doc_id": [5, 1, 2, 3, 4],
        "text": ["x", "x", "y", "y", "z"],
    })
    ds = rd_mod.from_pandas(df)
    kept = DD.exact_dedup_by_text(ds, "text", "doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == [1, 2, 4]


def test_exact_dup_groups_combiner(ray_session):
    df = pd.DataFrame({"k": [1, 1, 1, 2, 3, 3], "id": list("badcfe")})
    ds = rd_mod.from_pandas(df)
    g = DD.exact_dup_groups(ds, "k", "id").to_pandas().set_index("k")
    assert g.loc[1, "winner"] == "a" and g.loc[1, "cnt"] == 3
    assert g.loc[2, "cnt"] == 1
    assert g.loc[3, "winner"] == "e" and g.loc[3, "cnt"] == 2


def test_minhash_recall_on_planted_dups(ray_session):
    df = _near_dup_corpus()
    ds = rd_mod.from_pandas(df)
    pairs = DD.minhash_lsh_pairs(ds, "text", "doc_id",
                                 threshold=0.6).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    planted = {(2 * i, 2 * i + 1) for i in range(60)}
    recall = len(found & planted) / len(planted)
    assert recall >= 0.9, f"minhash recall {recall}"


def test_minhash_exact_verify(ray_session):
    df = _near_dup_corpus(n_base=20)
    ds = rd_mod.from_pandas(df)
    pairs = DD.minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.6)
    verified = DD.verify_pairs_exact_jaccard(
        pairs, ds, "text", "doc_id", threshold=0.6).to_pandas()
    # every surviving pair's exact jaccard really is >= threshold
    texts = dict(zip(df["doc_id"], df["text"]))
    for _, r in verified.iterrows():
        ja = jaccard(char_shingle_hashes(texts[r["id_a"]]),
                     char_shingle_hashes(texts[r["id_b"]]))
        assert ja >= 0.6 and abs(ja - r["jaccard"]) < 1e-12


def test_simhash_blocking_recall(ray_session):
    df = _near_dup_corpus(n_base=40)
    ds = rd_mod.from_pandas(df)
    pairs = DD.simhash_pairs(ds, "text", "doc_id", max_hamming=6).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    # count how many planted pairs are within hamming 6 at all (ground truth)
    gt = set()
    texts = dict(zip(df["doc_id"], df["text"]))
    for i in range(40):
        a = simhash64(char_shingle_hashes(texts[2 * i]))
        b = simhash64(char_shingle_hashes(texts[2 * i + 1]))
        d = hamming64(np.array([a], dtype=np.int64).view(np.uint64),
                      np.array([b], dtype=np.int64).view(np.uint64))[0]
        if d <= 6:
            gt.add((2 * i, 2 * i + 1))
    assert gt, "fixture produced no close simhash pairs"
    # pigeonhole guarantees pairs with hamming ≤ 3 are found; at ≤6 the
    # 4-block scheme may miss some — require most
    recall = len(found & gt) / len(gt)
    assert recall >= 0.7, f"simhash recall {recall} of {len(gt)}"


def test_embedding_dup_bruteforce_matches_numpy(ray_session):
    rng = np.random.default_rng(11)
    base = rng.standard_normal((40, 16))
    dups = base[:10] + rng.standard_normal((10, 16)) * 0.05
    M = np.vstack([base, dups])
    df = pd.DataFrame({"vec_id": np.arange(50),
                       "embedding": [list(map(float, v)) for v in M]})
    ds = rd_mod.from_pandas(df)
    got = DD.embedding_dup_pairs_bruteforce(
        ds, "embedding", "vec_id", 0.95).to_pandas()
    got_pairs = set(zip(got["id_a"], got["id_b"]))
    # numpy oracle
    N = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = N @ N.T
    iu = np.triu_indices(50, 1)
    exp_pairs = {(int(a), int(b)) for a, b in
                 zip(iu[0][S[iu] >= 0.95], iu[1][S[iu] >= 0.95])}
    assert got_pairs == exp_pairs and len(exp_pairs) >= 8


def test_embedding_lsh_recall(ray_session):
    rng = np.random.default_rng(12)
    base = rng.standard_normal((100, 32))
    dups = base + rng.standard_normal((100, 32)) * 0.03
    M = np.vstack([base, dups])
    df = pd.DataFrame({"vec_id": np.arange(200),
                       "embedding": [list(map(float, v)) for v in M]})
    ds = rd_mod.from_pandas(df)
    got = DD.embedding_dup_pairs_lsh(ds, "embedding", "vec_id", dim=32,
                                     threshold=0.95, nbits=8).to_pandas()
    found = set(zip(got["id_a"], got["id_b"]))
    planted = {(i, i + 100) for i in range(100)}
    recall = len(found & planted) / 100
    assert recall >= 0.5, f"lsh recall {recall}"   # 8-bit single table


def test_brute_force_topk_matches_numpy(ray_session):
    rng = np.random.default_rng(13)
    M = rng.standard_normal((300, 24))
    df = pd.DataFrame({"vec_id": np.arange(300),
                       "embedding": [list(map(float, v)) for v in M]})
    ds = rd_mod.from_pandas(df)
    Q, qids = M[:3], [0, 1, 2]
    got = SIM.brute_force_topk(ds, Q, qids, k=5).to_pandas()
    N = M / np.linalg.norm(M, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    S = Qn @ N.T
    for qi, qid in enumerate(qids):
        exp = np.argsort(-S[qi], kind="stable")[:5]
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert list(sub["vec_id"]) == list(exp)


def test_lsh_topk_recall(ray_session):
    """Plant 10 true near neighbours per query; the LSH index must find
    most of them (near-identical vectors share the hyperplane key)."""
    rng = np.random.default_rng(14)
    noise = rng.standard_normal((400, 32))
    Q = rng.standard_normal((5, 32))
    planted = np.vstack([q + rng.standard_normal((10, 32)) * 0.05 for q in Q])
    M = np.vstack([noise, planted])
    df = pd.DataFrame({"vec_id": np.arange(len(M)),
                       "embedding": [list(map(float, v)) for v in M]})
    ds = rd_mod.from_pandas(df)
    qids = list(range(5))
    approx = SIM.lsh_topk(ds, Q, qids, k=10, dim=32, nbits=8).to_pandas()
    recalls = []
    for qi, qid in enumerate(qids):
        truth = set(range(400 + qi * 10, 400 + (qi + 1) * 10))
        got = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(got & truth) / 10)
    assert np.mean(recalls) >= 0.6, recalls


def test_semi_join_filter(ray_session):
    """Distributed semi/anti membership filter (the 100 TB fallback for
    broadcast key sets) vs a straight set computation."""
    rows = [{"k": i % 7, "id": i} for i in range(50)]
    keys = [{"k": v} for v in [2, 5, 5, 6]]
    ds = rd_mod.from_items(rows)
    kds = rd_mod.from_items(keys)
    semi = DD.semi_join_filter(ds, kds, "k")
    anti = DD.semi_join_filter(ds, kds, "k", anti=True)
    got_semi = sorted(r["id"] for r in semi.take_all())
    got_anti = sorted(r["id"] for r in anti.take_all())
    want_semi = sorted(i for i in range(50) if i % 7 in {2, 5, 6})
    want_anti = sorted(i for i in range(50) if i % 7 not in {2, 5, 6})
    assert got_semi == want_semi
    assert got_anti == want_anti
    assert "__hit" not in semi.schema().names


def test_ivf_topk_recall_vs_bruteforce(ray_session):
    rng = np.random.default_rng(11)
    n, d = 3000, 32
    # clustered data so IVF cells are meaningful
    centers = rng.standard_normal((8, d)) * 3
    m = centers[rng.integers(0, 8, n)] + rng.standard_normal((n, d))
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(m.astype(np.float64)))})
    ds = rd_mod.from_arrow(t)
    Q, qids = m[:5], list(range(5))
    bf = SIM.brute_force_topk(ds, Q, qids, 10).to_pandas()
    ivf = SIM.ivf_topk(ds, Q, qids, 10, n_cells=16, nprobe=4,
                       iters=3).to_pandas()
    hits = 0
    for q in qids:
        got = set(ivf[ivf.query_id == q]["vec_id"])
        want = set(bf[bf.query_id == q]["vec_id"])
        hits += len(got & want)
    assert hits / (len(qids) * 10) >= 0.8  # nprobe=4/16 cells


def test_ivf_centroids_deterministic(ray_session):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((500, 16))
    t = pa.table({"vec_id": pa.array(np.arange(500, dtype=np.int64)),
                  "embedding": pa.array(list(m.astype(np.float64)))})
    ds = rd_mod.from_arrow(t)
    c1 = SIM.ivf_centroids(ds, 8, iters=3)
    c2 = SIM.ivf_centroids(ds, 8, iters=3)
    assert np.array_equal(c1, c2)


def test_verify_pairs_join_matches_broadcast(ray_session):
    """The bucketed-join verify fallback produces exactly the broadcast
    path's (id_a, id_b, est, jaccard) rows."""
    df = _near_dup_corpus(n_base=20)
    ds = rd_mod.from_pandas(df)
    pairs = DD.minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.6)
    pairs = pairs.materialize()
    cols = ["id_a", "id_b", "est_jaccard", "jaccard"]
    bc = (DD.verify_pairs_exact_jaccard(pairs, ds, "text", "doc_id",
                                        threshold=0.6, mode="broadcast")
          .to_pandas()[cols].sort_values(["id_a", "id_b"])
          .reset_index(drop=True))
    jn = (DD.verify_pairs_exact_jaccard(pairs, ds, "text", "doc_id",
                                        threshold=0.6, mode="join")
          .to_pandas()[cols].sort_values(["id_a", "id_b"])
          .reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, jn)
    assert len(bc) > 0


def test_stable_hash64_array_vectorized():
    """Arrow-buffer path == sequence path; nulls -> 0; no collisions on
    a 100k-string corpus; sliced/chunked arrays handled."""
    from dataquality_cli_ray.functions.hashing import stable_hash64_array

    texts = ["hello", "", None, "a", "aa", "héllo wörld", "x" * 9000]
    a1 = stable_hash64_array(texts)
    a2 = stable_hash64_array(pa.array(texts, type=pa.string()))
    assert np.array_equal(a1, a2)
    assert a1[2] == 0 and a1[1] != 0
    assert len(set(a1.tolist())) == len(texts)
    sl = pa.array(["aa", "bb", "cc", "dd"]).slice(1, 2)
    assert np.array_equal(stable_hash64_array(sl),
                          stable_hash64_array(["bb", "cc"]))
    ch = pa.chunked_array([pa.array(["bb"]), pa.array(["cc", "dd"])])
    assert np.array_equal(stable_hash64_array(ch),
                          stable_hash64_array(["bb", "cc", "dd"]))
    rng = np.random.default_rng(0)
    big = pa.array(["s%d_%d" % (i, rng.integers(0, 1 << 30))
                    for i in range(100000)])
    h = stable_hash64_array(big)
    assert len(np.unique(h)) == len(big)


def test_dup_clusters_modes_identical(ray_session):
    """driver union-find and distributed min-label propagation produce
    identical (doc_id, cluster_id); clusters are transitive and the
    cluster id is the min member."""
    import collections

    import ray.data as rd

    from dataquality_cli_ray.pipelines.dedup import dup_clusters

    rng = np.random.default_rng(7)
    ids = np.array([f"d{i:04d}" for i in range(200)])
    a = rng.integers(0, 200, 150)
    b = rng.integers(0, 200, 150)
    m = a != b
    pairs = pa.table({"id_a": pa.array(ids[np.minimum(a, b)[m]]),
                      "id_b": pa.array(ids[np.maximum(a, b)[m]])})
    drv = dup_clusters(pairs, mode="driver")
    part = dup_clusters(rd.from_arrow(pairs), mode="partitioned")
    assert drv.to_pydict() == part.to_pydict()

    lab = dict(zip(drv["doc_id"].to_pylist(), drv["cluster_id"].to_pylist()))
    for x, y in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        assert lab[x] == lab[y]          # endpoints co-clustered
    members = collections.defaultdict(list)
    for n, c in lab.items():
        members[c].append(n)
    for c, ms in members.items():
        assert c == min(ms)              # representative = min member

    # transitivity needs >1 propagation round: a chain a-b-c-d
    chain = pa.table({"id_a": ["a", "b", "c"], "id_b": ["b", "c", "d"]})
    out = dup_clusters(chain, mode="partitioned").to_pydict()
    assert sorted(out["doc_id"]) == ["a", "b", "c", "d"]
    assert set(out["cluster_id"]) == {"a"}

    # empty pair list -> empty result, typed
    empty = pa.table({"id_a": pa.array([], type=pa.string()),
                      "id_b": pa.array([], type=pa.string())})
    assert dup_clusters(empty, mode="driver").num_rows == 0
    # a pair Dataset whose every block is empty (no near-dups kept) has
    # no block to exchange: still a typed empty result in every mode
    for m in ("auto", "driver", "partitioned"):
        out = dup_clusters(rd.from_arrow(empty), mode=m)
        assert out.num_rows == 0
        assert out.schema.types == [pa.string(), pa.string()]


def test_hamming_neardup_exact_vs_bruteforce(ray_session):
    """Pigeonhole-banded phash near-dup must find EXACTLY the brute
    force pair set (recall 1.0 is guaranteed for radius <= nbands-1;
    precision 1.0 from the in-bucket popcount verify)."""
    from dataquality_cli_ray.fixtures.images import generate_images_parquet
    from dataquality_cli_ray.sources.readers import read_parquet_small

    path = generate_images_parquet(2000, use_ray=False)
    ds = read_parquet_small(path, columns=["image_id", "phash"])
    got = (DD.hamming_neardup_pairs(ds, "phash", "image_id", max_hamming=3)
           .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))

    import pyarrow.parquet as pq
    t = pq.read_table(f"{path}/part-0.parquet", columns=["image_id", "phash"])
    ids = np.array(t["image_id"].to_pylist())
    order = np.argsort(ids)
    ids = ids[order]
    h = t["phash"].to_numpy()[order].view(np.uint64)
    d = hamming64(h[None, :], h[:, None])  # broadcast popcount matrix
    iu, ju = np.nonzero(np.triu(d <= 3, k=1))
    want = pd.DataFrame({
        "id_a": ids[iu], "id_b": ids[ju],
        "hamming": d[iu, ju].astype(np.int64),
    }).sort_values(["id_a", "id_b"]).reset_index(drop=True)

    assert len(want) > 100  # fixture's cluster pool makes this rich
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hamming_neardup_radius_guard():
    with pytest.raises(ValueError):
        DD.hamming_neardup_pairs(None, "phash", "image_id", max_hamming=9)


def test_incremental_dedup_against_index(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from dataquality_cli_ray.pipelines.dedup import (
        build_dedup_index, dedup_against_index)

    SF = "/root/testdata/sf0.01"
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"],
                           override_num_blocks=4)
    hist = docs.filter(expr="doc_id < 250")
    idx_dir = str(tmp_path / "idx")
    n = build_dedup_index(hist, "text", "doc_id", idx_dir, n_partitions=16)
    assert n == 250          # fixture has no exact dups inside history
    import os
    assert any(d.startswith("part=") for d in os.listdir(idx_dir))

    def relabel(off):
        return lambda t: pa.table({
            "doc_id": pc.add(t["doc_id"], pa.scalar(off)),
            "text": t["text"]})

    # new batch: 250 fresh + 50 dups-of-history + 10 intra-batch dups
    new = docs.filter(expr="doc_id >= 250").union(
        docs.filter(expr="doc_id < 50").map_batches(
            relabel(100000), batch_format="pyarrow"),
        docs.filter(expr="doc_id >= 250 and doc_id < 260").map_batches(
            relabel(200000), batch_format="pyarrow"))
    kept = dedup_against_index(new, idx_dir, "text", "doc_id").to_pandas()
    assert sorted(kept["doc_id"].tolist()) == list(range(250, 500))

    # Bloom sidecars were written next to every non-empty partition,
    # and an index built WITHOUT them gives the identical answer
    # (the sidecar is a read-skipping accelerator, not a semantic)
    assert any(
        os.path.exists(os.path.join(idx_dir, d, "bloom.npz"))
        for d in os.listdir(idx_dir) if d.startswith("part="))
    idx2 = str(tmp_path / "idx_nobloom")
    build_dedup_index(hist, "text", "doc_id", idx2, n_partitions=16,
                      bloom_fpr=0)
    assert not any(
        os.path.exists(os.path.join(idx2, d, "bloom.npz"))
        for d in os.listdir(idx2) if d.startswith("part="))
    kept2 = dedup_against_index(new, idx2, "text", "doc_id").to_pandas()
    assert sorted(kept2["doc_id"].tolist()) == sorted(kept["doc_id"].tolist())

    # an empty history (typed, or filtered to zero rows by a row
    # function) builds an empty but valid layout, which keeps every new
    # document; an empty new batch keeps none
    fresh = docs.filter(expr="doc_id < 20")
    for i, empty in enumerate((docs.filter(expr="doc_id < 0"),
                               docs.filter(lambda r: False))):
        d = str(tmp_path / f"idx_empty{i}")
        assert build_dedup_index(empty, "text", "doc_id", d,
                                 n_partitions=4) == 0
        kept = dedup_against_index(fresh, d, "text", "doc_id").to_pandas()
        assert sorted(kept["doc_id"].tolist()) == list(range(20))
        assert dedup_against_index(empty, idx_dir, "text",
                                   "doc_id").count() == 0


def test_bloom_kernel_membership():
    from dataquality_cli_ray.functions.bloom import (
        bloom_build, bloom_params, bloom_probe)

    rng = np.random.default_rng(7)
    members = rng.integers(0, 2**63, size=20000, dtype=np.int64)
    others = rng.integers(0, 2**63, size=20000, dtype=np.int64)
    others = others[~np.isin(others, members)]
    m_bits, k = bloom_params(len(members), fpr=0.01)
    bits = bloom_build(members, m_bits, k)
    # no false negatives — the exactness guarantee the skip relies on
    assert bloom_probe(members, bits, k).all()
    fpr = bloom_probe(others, bits, k).mean()
    assert fpr < 0.05  # nominal 1% with power-of-two m headroom
    # build is associative: OR of per-block builds == one-shot build
    b2 = bloom_build(members[:9999], m_bits, k) | bloom_build(
        members[9999:], m_bits, k)
    assert (b2 == bits).all()


def test_semdedup_planted_dups(ray_session):
    # tight planted near-dups (cosine ~0.999) — the regime SemDeDup
    # targets; each dup must land in its base's k-means cell
    rng = np.random.default_rng(21)
    base = rng.standard_normal((100, 32))
    dups = base + rng.standard_normal((100, 32)) * 0.02
    M = np.vstack([base, dups])
    df = pd.DataFrame({"vec_id": np.arange(200),
                       "embedding": [list(map(float, v)) for v in M]})
    ds = rd_mod.from_pandas(df).repartition(4)
    kept = DD.semdedup(ds, "embedding", "vec_id", n_clusters=8,
                       threshold=0.95).to_pandas()
    surv = set(kept["vec_id"])
    # keep-first: every base vector survives, planted copies drop
    # unless a cross-cluster assignment saved them (rare at 0.999)
    assert set(range(100)) <= surv
    dropped = 200 - len(surv)
    assert dropped >= 90, f"only {dropped} of 100 planted dups dropped"
    # deterministic across layouts
    kept2 = DD.semdedup(rd_mod.from_pandas(df).repartition(7),
                        "embedding", "vec_id", n_clusters=8,
                        threshold=0.95).to_pandas()
    assert sorted(kept2["vec_id"]) == sorted(kept["vec_id"])


def test_near_dup_finders_empty_corpus(ray_session):
    """minhash_lsh_pairs, simhash_pairs and semdedup over an empty
    corpus return a typed empty result: the id type is the input's, or
    null when Ray knows no schema (a corpus filtered to zero rows by a
    row function)."""
    docs = pa.Table.from_pandas(_near_dup_corpus(n_base=4),
                                preserve_index=False)
    vecs = pa.table({"vec_id": pa.array([0, 1], pa.int64()),
                     "embedding": [[1.0, 0.0], [0.0, 1.0]]})
    assert docs.schema.field("doc_id").type == pa.int64()
    for empty, id_type in (
            (lambda t: rd_mod.from_arrow(t.slice(0, 0)), pa.int64()),
            (lambda t: rd_mod.from_arrow(t).filter(lambda r: False),
             pa.null())):
        for pairs, val in (
                (DD.minhash_lsh_pairs(empty(docs), "text", "doc_id"),
                 "est_jaccard"),
                (DD.simhash_pairs(empty(docs), "text", "doc_id"),
                 "hamming")):
            sch = pairs.schema().base_schema
            assert pairs.count() == 0
            assert sch.names == ["id_a", "id_b", val]
            assert sch.field("id_a").type == id_type
        kept = DD.semdedup(empty(vecs), "embedding", "vec_id", n_clusters=2)
        assert kept.count() == 0
        assert kept.schema().base_schema.field("vec_id").type == id_type


def test_semdedup_domination_rule(ray_session):
    # the documented drop rule: i drops iff ANY earlier j (kept or
    # not) dominates it — pin with a 3-chain a~b, b~c, a!~c
    th = np.deg2rad(20.0)   # cos 20 = 0.94 >= 0.9; cos 40 = 0.766 < 0.9
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([np.cos(th), np.sin(th), 0.0, 0.0])
    c = np.array([np.cos(2 * th), np.sin(2 * th), 0.0, 0.0])
    assert a @ b >= 0.9 and b @ c >= 0.9 and a @ c < 0.9
    df = pd.DataFrame({"vec_id": [0, 1, 2],
                       "embedding": [list(a), list(b), list(c)]})
    kept = DD.semdedup(rd_mod.from_pandas(df), "embedding", "vec_id",
                       n_clusters=1, threshold=0.9).to_pandas()
    # b dropped by a; c dropped by b even though b itself dropped
    assert sorted(kept["vec_id"]) == [0]


def test_ids_np_matches_pylist():
    """ids_np equals np.asarray(to_pylist()) for int64 (zero-copy path),
    string (object path), and chunked inputs."""
    import numpy as np
    import pyarrow as pa

    from dataquality_cli_ray.functions.arrays import ids_np

    ints = pa.chunked_array([pa.array([3, 1, 2], type=pa.int64()),
                             pa.array([9, 8], type=pa.int64())])
    assert np.array_equal(ids_np(ints), np.asarray(ints.to_pylist()))
    strs = pa.array(["b", "a", "c"])
    got = ids_np(strs)
    assert got.dtype == object
    assert np.array_equal(got, np.asarray(strs.to_pylist()))


def test_index_rebuild_removes_stale_bloom(ray_session, tmp_path):
    """Rebuilding an index in-place with bloom disabled must REMOVE the
    old sidecar: a Bloom filter describing the previous hash set gives
    false 'definitely absent' answers, so dedup_against_index would
    silently keep real duplicates (regression, round-3 advice)."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from dataquality_cli_ray.pipelines.dedup import (
        build_dedup_index, dedup_against_index)

    texts_v1 = [f"first corpus doc number {i}" for i in range(40)]
    texts_v2 = [f"second corpus doc number {i}" for i in range(40)]
    ids = list(range(40))
    idx = str(tmp_path / "idx")
    build_dedup_index(
        rd.from_arrow(pa.table({"doc_id": ids, "text": texts_v1})),
        "text", "doc_id", idx, n_partitions=4, bloom_fpr=0.01)
    assert any(os.path.exists(os.path.join(idx, d, "bloom.npz"))
               for d in os.listdir(idx) if d.startswith("part="))
    # rebuild IN PLACE over different content, bloom disabled
    build_dedup_index(
        rd.from_arrow(pa.table({"doc_id": ids, "text": texts_v2})),
        "text", "doc_id", idx, n_partitions=4, bloom_fpr=0)
    assert not any(os.path.exists(os.path.join(idx, d, "bloom.npz"))
                   for d in os.listdir(idx) if d.startswith("part="))
    # docs present in the NEW index must be dropped as duplicates
    new = rd.from_arrow(pa.table(
        {"doc_id": [1000, 1001], "text": [texts_v2[3], "genuinely new"]}))
    kept = dedup_against_index(new, idx, "text", "doc_id").to_pandas()
    assert kept["doc_id"].tolist() == [1001]


def test_ids_np_rejects_nulls():
    """Nullable id columns must raise, not silently promote int64 ids
    to float64-with-NaN (5.0-style ids in pair tables)."""
    import pyarrow as pa
    import pytest as _pytest

    from dataquality_cli_ray.functions.arrays import ids_np

    with _pytest.raises(ValueError, match="null"):
        ids_np(pa.array([1, None, 3], type=pa.int64()))
    with _pytest.raises(ValueError, match="null"):
        ids_np(pa.chunked_array([pa.array(["a", None])]))
