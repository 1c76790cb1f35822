"""Deduplication operators — the large-scale training-data extensions
(SURVEY.md §2.7: the reference only *documents* duplicate detection,
``CLAUDE.md:27`` *(doc claim)*; these are first-class here).

All variants share one shape: vectorized per-batch signature
computation (map_batches) → explode to (bucket_key, id [, sig]) rows →
``groupby(bucket_key)`` over the small exploded projection → pairwise
check inside each bucket → pair table. Raw documents never shuffle —
only ids + fixed-size signatures.

Skew/scale notes:
- exact dedup pre-combines per batch (one row per key per batch), so a
  hot key's group is bounded by #blocks (combiner = salted groupby).
- LSH bucket sizes are capped (``max_bucket``); overflowing buckets are
  truncated deterministically with the drop LOGGED (no silent caps)
  rather than silently exploding O(n²) pair generation.
- bucket reduction is a two-stage hash-partitioned exchange over raw
  Ray tasks (the ``_bucket_pair_exchange`` block comment): singleton
  buckets drop for free inside each partition, pairs dedup in a second
  tiny exchange — no global count pass, no broadcast, no O(rows ×
  bands) driver state anywhere on the dedup path.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

logger = logging.getLogger(__name__)


def _cap_bucket(g: pd.DataFrame, max_bucket: int, what: str) -> pd.DataFrame:
    """Deterministically truncate an oversized LSH bucket, LOGGING the
    drop (no silent caps): the dropped rows can't form pairs this round,
    so recall for them falls back to other bands/blocks."""
    if len(g) > max_bucket:
        logger.warning("%s bucket overflow: %d rows > cap %d, dropping %d",
                       what, len(g), max_bucket, len(g) - max_bucket)
        g = g.head(max_bucket)
    return g

import ray
import ray.data as rd

from ..functions.arrays import ids_np, list_col_to_matrix
from ..functions.hashing import (
    MinHasher,
    char_shingle_hashes,
    char_shingle_hashes_batch,
    dedupe_per_doc,
    hamming64,
    jaccard,
    simhash64,
    simhash64_batch,
    stable_hash64_array,
)
from .exchange import (
    block_refs, column_type, exchange, partitions, split, split_refs,
    worker_cached, worker_get)

# ---------------------------------------------------------------- exact


class _KeyCombiner:
    """Per-batch combiner: one (key, winner=min id, cnt) row per key."""

    def __init__(self, key_col: str, id_col: str):
        self.key_col, self.id_col = key_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = batch.select([self.key_col, self.id_col]).group_by(self.key_col).aggregate(
            [(self.id_col, "min"), (self.key_col, "count")]
        )
        return g.rename_columns([self.key_col, "winner", "cnt"])


def _group_minsum_local(key_col: str, *parts: pa.Table) -> pa.Table:
    """Per-partition merge of (key, winner, cnt) combiner rows: min
    winner + summed cnt per key (keys are co-located by the split)."""
    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return t
    g = t.group_by(key_col, use_threads=False).aggregate(
        [("winner", "min"), ("cnt", "sum")])
    return g.rename_columns([key_col, "winner", "cnt"])


_group_minsum_task = ray.remote(_group_minsum_local)


def exact_dup_groups(ds: "rd.Dataset", key_col: str, id_col: str) -> "rd.Dataset":
    """(key, winner, cnt) for every key — per-batch combiner + the
    hash-partitioned exchange, exact. cnt > 1 rows are duplicate
    groups; winner = min(id) (deterministic keep-first, SURVEY.md
    §2.7). ``Dataset.groupby`` paid a sort-based all-to-all of the same
    tiny rows (~0.4 s fixed at sf0.1; the round-2 dup-reduce measured
    it 3× slower than even a driver merge) — the exchange co-locates
    keys by hash and re-combines per partition instead."""
    combined = ds.select_columns([key_col, id_col]).map_batches(
        _KeyCombiner(key_col, id_col), batch_format="pyarrow",
        batch_size=65536, zero_copy_batch=True,
    )
    refs = block_refs(combined)
    if not refs:
        return combined
    return rd.from_arrow_refs(
        exchange(refs, key_col, _group_minsum_task, key_col))


class _HashText:
    def __init__(self, text_col: str):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = stable_hash64_array(batch[self.text_col])  # Arrow-buffer pass
        return batch.append_column("text_hash", pa.array(h, type=pa.int64()))


def exact_dedup_by_text(ds: "rd.Dataset", text_col: str, id_col: str) -> "rd.Dataset":
    """Keep-first exact dedup on content hash: returns the surviving
    rows' ids as a Dataset of (id_col,). Content (not id) moves only as
    a 64-bit hash."""
    hashed = ds.select_columns([text_col, id_col]).map_batches(
        _HashText(text_col), batch_format="pyarrow", batch_size=65536,
    )
    groups = exact_dup_groups(hashed, "text_hash", id_col)
    return groups.select_columns(["winner"]).rename_columns({"winner": id_col})


# ------------------------------------------------- bucket-pair exchange
#
# LSH pair generation over exploded (bucket_key, id, payload) rows as a
# two-stage hash-partitioned exchange over raw Ray tasks (``exchange.py``,
# shared with ``quality.dup_losers_from_refs``) — the documented
# Dataset-first exception
# (``Dataset.groupby`` pays a sort-based shuffle on these tiny rows:
# measured 11.5 s for the count pass + 7.5 s of per-group ``map_groups``
# over 80 k exploded rows / 3.3 k buckets at sf0.1; the exchange does the
# same reduction in well under a second and scales with CPUs).
#
# Stage A splits each exploded block by hash(bucket_key) % P, so stage B
# (one task per partition) sees every row of each of its keys: singleton
# buckets — the vast majority by design — are dropped locally for free
# (a value_counts, no global count pass, no broadcast, no driver state),
# full buckets feed the vectorized pair kernel, and a second tiny
# exchange on hash(id_a) deduplicates pairs that surface from several
# bands. Only (key, id, fixed-size sig) rows ever move.


def _nonsingleton_groups(df: pd.DataFrame, key_col: str):
    """Iterate (key, group) over keys with ≥ 2 rows — vectorized
    singleton drop, then a pandas groupby over the small remainder."""
    vc = df[key_col].value_counts()
    hot = vc.index[vc.to_numpy() > 1]
    if len(hot) == 0:
        return
    sub = df[df[key_col].isin(hot)]
    yield from sub.groupby(key_col, sort=False)


def _pairs_to_table(frames: list[pd.DataFrame], id_type: pa.DataType,
                    val_col: str, val_type: pa.DataType) -> pa.Table:
    """Concat per-bucket pair frames into one typed Arrow table (typed
    even when empty, so downstream concat/schema checks hold)."""
    if frames:
        df = pd.concat(frames, ignore_index=True)
    else:
        df = pd.DataFrame({"id_a": [], "id_b": [], val_col: []})
    return pa.table({
        "id_a": pa.array(df["id_a"], type=id_type),
        "id_b": pa.array(df["id_b"], type=id_type),
        val_col: pa.array(df[val_col], type=val_type),
    })


def _pair_dedup_local(val_col: str, how: str, *parts: pa.Table) -> pa.Table:
    """groupby (id_a, id_b), keep max est (minhash) / min hamming
    (simhash) — pairs from several bands collapse to one row."""
    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return t
    df = t.to_pandas()
    agg = getattr(df.groupby(["id_a", "id_b"], sort=False)[val_col], how)()
    out = agg.reset_index()
    return pa.table({
        "id_a": pa.array(out["id_a"], type=t.schema.field("id_a").type),
        "id_b": pa.array(out["id_b"], type=t.schema.field("id_b").type),
        val_col: pa.array(out[val_col], type=t.schema.field(val_col).type),
    })


_pair_dedup_task = ray.remote(_pair_dedup_local)


def _bucket_pair_exchange(exploded: "rd.Dataset", key_col: str,
                          partition_merge, merge_args: tuple,
                          val_col: str, how: str,
                          ds: "rd.Dataset", id_col: str) -> "rd.Dataset":
    """Run the full explode → bucket-pairs → pair-dedup reduction; see
    the block comment above. ``partition_merge`` is the per-partition
    remote task producing a (id_a, id_b, val_col) pair table. An empty
    ``exploded`` has no schema, so the empty pair table takes its id
    type from ``ds[id_col]``."""
    refs = block_refs(exploded)
    if not refs:
        id_type = column_type(ds, id_col)
        val_type = pa.float64() if how == "max" else pa.int64()
        return rd.from_arrow(pa.table({
            "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
            val_col: pa.array([], val_type)}))
    pair_refs = exchange(refs, key_col, partition_merge, *merge_args)
    # pairs ≪ exploded rows: a narrower second exchange is plenty (no
    # wider than the first, at most 8)
    deduped = exchange(pair_refs, "id_a", _pair_dedup_task, val_col, how,
                       P=partitions(limit=min(8, len(pair_refs))))
    return rd.from_arrow_refs(deduped)


# Partition size the join aggregators reserve memory for. Without a
# hint Ray assumes target_max_block_size (128 MiB by default), so each
# 4-partition join reserves 3.5 GiB of the node's ``memory`` resource;
# the join verify plan (marker groupby + three joins) then asks for
# 11.5 GiB of a 15 GiB host's 10.7 and never schedules. The rows these
# joins carry are ids, hit markers and shingle-hash blobs.
JOIN_PARTITION_SIZE_HINT = 32 << 20


def semi_join_filter(
    ds: "rd.Dataset", keys_ds: "rd.Dataset", key_col: str,
    anti: bool = False,
) -> "rd.Dataset":
    """Distributed semi-join (anti=True: anti-join) membership filter:
    keep rows of ``ds`` whose ``key_col`` appears (resp. does not
    appear) in ``keys_ds`` — a hash-partitioned ``Dataset.join``, with
    NO driver-side key set. This is the fallback for broadcast
    membership filters once the key set outgrows a single ``ray.put``;
    both sides shuffle only their key (+carried) columns."""
    from ray.data.aggregate import Count

    # join aggregators are actors: more partitions than CPUs can
    # deadlock a small cluster (a lazy join: no block term)
    num_partitions = partitions()
    marker = keys_ds.select_columns([key_col]).groupby(key_col).aggregate(
        Count(alias_name="__hit"))
    # the hash-shuffle aggregator can emit empty schema-less blocks for
    # empty partitions, which pyarrow's join rejects ("no match for key
    # field on right side"); a repartition coalesces them away
    marker = marker.repartition(num_partitions)
    joined = ds.join(marker, join_type="left_outer",
                     num_partitions=num_partitions, on=(key_col,),
                     partition_size_hint=JOIN_PARTITION_SIZE_HINT)

    def keep(t: pa.Table) -> pa.Table:
        hit = pa.compute.is_valid(t["__hit"])
        mask = pa.compute.invert(hit) if anti else hit
        return t.filter(mask).drop_columns(["__hit"])

    return joined.map_batches(keep, batch_format="pyarrow", batch_size=65536)


# ------------------------------------------- connected components (CC)
# Transitive dup-CLUSTER assignment over near-dup pairs — the step a
# real dedup pipeline runs after pair generation (pairs (a,b),(b,c)
# must collapse to ONE cluster so keep-first keeps exactly one doc).
# Distributed path: iterative min-label propagation over hash-
# partitioned edges (labels live as per-partition ObjectRefs; each
# round is one msg exchange + one min-merge per partition; converges in
# O(cluster diameter) rounds — near-dup clusters are shallow). The
# driver path is a plain union-find for small pair sets.


@ray.remote
def _cc_concat(*parts: pa.Table) -> pa.Table:
    return pa.concat_tables(parts)


@ray.remote
def _cc_init_labels(edges: pa.Table) -> pa.Table:
    """labels(node)=node for every SOURCE node of this partition's
    edges (edges are symmetric, so every member node appears as src in
    exactly its own hash partition)."""
    import pyarrow.compute as pc

    nodes = pc.unique(edges["src"].combine_chunks()) if edges.num_rows \
        else edges["src"].combine_chunks()
    return pa.table({"node": nodes, "label": nodes})


@ray.remote
def _cc_msg_task(P: int, labels: pa.Table, edges: pa.Table) -> list[pa.Table]:
    """One propagation round, send side: label(src) rides each edge to
    dst; messages are hash-split by dst for the per-partition min."""
    import pyarrow.compute as pc

    empty = pa.table({"node": pa.array([], type=edges.schema.field("dst").type),
                      "label": pa.array([], type=edges.schema.field("src").type)})
    if edges.num_rows == 0 or labels.num_rows == 0:
        return [empty] * P
    idx = pc.index_in(edges["src"], value_set=labels["node"].combine_chunks())
    lab = pc.take(labels["label"], idx)
    return split(pa.table({"node": edges["dst"], "label": lab}), "node", P)


@ray.remote(num_returns=2)
def _cc_update_task(labels: pa.Table, *msg_parts: pa.Table):
    """One propagation round, receive side: new label(node) = min(own,
    incoming); returns (new labels, #changed) — the driver only ever
    fetches the int."""
    import pyarrow.compute as pc

    live = [p for p in msg_parts if p.num_rows > 0]
    if not live:
        return labels, 0
    m = pa.concat_tables(live)
    g = pa.concat_tables([labels, m]).group_by("node").aggregate(
        [("label", "min")])
    g = g.rename_columns(["node", "label"])
    idx = pc.index_in(g["node"], value_set=labels["node"].combine_chunks())
    old = pc.take(labels["label"], idx)
    changed = pc.sum(pc.cast(pc.not_equal(g["label"], old), pa.int64()))
    return g, (changed.as_py() or 0)


def _cc_driver(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Union-find with path halving; cluster id = MIN member id (the
    same fixpoint label propagation converges to)."""
    nodes, codes = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = codes[: len(a)], codes[len(a):]
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(ea.tolist(), eb.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            # union by smaller code → root is the min member, since
            # np.unique sorted the nodes
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(nodes),
        "cluster_id": pa.array(nodes[roots]),
    })


def dup_clusters(pairs: "rd.Dataset | pa.Table", id_a: str = "id_a",
                 id_b: str = "id_b", mode: str = "auto",
                 max_rounds: int = 50) -> pa.Table:
    """Connected components over a near-dup pair list → one
    ``(doc_id, cluster_id)`` row per clustered doc, cluster_id = min
    member id (deterministic keep-first representative), sorted by
    doc_id.

    modes:
    - "driver": union-find over the pulled pair columns — O(pairs)
      driver memory, the fast path while the PAIR list (≪ corpus) fits
      one machine.
    - "partitioned": distributed min-label propagation — symmetric
      edges hash-partitioned by src ONCE (pinned in the object store);
      each round exchanges only (node, label) messages and the driver
      sees one int per partition per round. O(cluster diameter)
      rounds; partitioning assumption: none beyond a hash on node ids.
    - "auto": driver below 5 M pairs, else partitioned.

    Output is identical across modes (pinned by
    ``test_dup_clusters_modes_identical``). The result is O(clustered
    docs) on the driver — callers that expect cluster membership to
    outgrow the driver should consume the partitioned path's label
    refs instead (one table per partition)."""
    if isinstance(pairs, pa.Table):
        pairs_tbl: pa.Table | None = pairs
        refs = None
        npairs = pairs.num_rows
    else:
        refs = block_refs(pairs.select_columns([id_a, id_b]))
        pairs_tbl = None
        npairs = sum(ray.get([_cc_nrows.remote(r) for r in refs]))
    if npairs == 0:       # typed empty result (no blocks to exchange)
        sch = (pairs.schema if pairs_tbl is not None
               else pairs.schema().base_schema)
        return pa.table({"doc_id": pa.array([], sch.field(id_a).type),
                         "cluster_id": pa.array([], sch.field(id_b).type)})
    if mode == "auto":
        mode = "driver" if npairs < 5_000_000 else "partitioned"

    if mode == "driver":
        if pairs_tbl is None:
            pairs_tbl = pa.concat_tables(ray.get(refs)).select([id_a, id_b])
        a = pairs_tbl[id_a].to_numpy(zero_copy_only=False)
        b = pairs_tbl[id_b].to_numpy(zero_copy_only=False)
        out = _cc_driver(a, b)
        return out.take(pa.array(np.argsort(
            out["doc_id"].to_numpy(zero_copy_only=False), kind="stable")))

    # ---- partitioned label propagation ----
    if pairs_tbl is not None:
        refs = [ray.put(pairs_tbl.select([id_a, id_b]))]
    # no block term: the P edge partitions stay pinned for every round,
    # so their count follows the CPUs, not the (often 1) input blocks
    P = partitions()

    @ray.remote
    def to_edges(t: pa.Table) -> pa.Table:
        # symmetric edge list: (a,b) and (b,a)
        fwd = pa.table({"src": t[id_a], "dst": t[id_b]})
        rev = pa.table({"src": t[id_b], "dst": t[id_a]})
        return pa.concat_tables([fwd, rev])

    edge_refs = [to_edges.remote(r) for r in refs]
    edges = exchange(edge_refs, "src", _cc_concat, P=P)  # pinned per part
    labels = [_cc_init_labels.remote(e) for e in edges]
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        msg_splits = [
            _cc_msg_task.options(num_returns=P).remote(P, labels[p], edges[p])
            for p in range(P)
        ]
        new_labels, changed_refs = [], []
        for p in range(P):
            nl, ch = _cc_update_task.remote(
                labels[p], *[s[p] for s in msg_splits])
            new_labels.append(nl)
            changed_refs.append(ch)
        labels = new_labels
        if sum(ray.get(changed_refs)) == 0:
            break
    else:
        logger.warning("dup_clusters: label propagation hit max_rounds=%d "
                       "before convergence", max_rounds)
    out = pa.concat_tables(
        [t.rename_columns(["doc_id", "cluster_id"]) for t in ray.get(labels)])
    return out.take(pa.array(np.argsort(
        out["doc_id"].to_numpy(zero_copy_only=False), kind="stable")))


@ray.remote
def _cc_nrows(t: pa.Table) -> int:
    return t.num_rows


# ------------------------------------------------------------- minhash


class MinHashStage:
    """Task stage: text → 128-perm MinHash signature, exploded to
    one row per LSH band: (band_key:uint64->int64, doc_id, sig:binary).
    The MinHasher's permutation coefficients are built once per worker
    process (``exchange.worker_cached``).

    Fully batched: shingling is one rolling-hash pass over the
    concatenated batch (char_shingle_hashes_batch), signatures are one
    chunked (shingles × num_perm) hash + ``np.minimum.reduceat``, and
    the exploded table is built with numpy repeat — no per-document
    Python loop (duplicate shingles don't change minima, so the batch
    path skips the per-doc np.unique and stays value-identical)."""

    def __init__(self, text_col: str, id_col: str, num_perm: int = 128,
                 bands: int = 16, shingle_k: int = 5, seed: int = 42):
        self.mh = MinHasher(num_perm, seed)
        self.text_col, self.id_col = text_col, id_col
        self.bands = bands
        self.shingle_k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        hashes, offsets = char_shingle_hashes_batch(texts, self.shingle_k)
        # dedupe per doc: minima are unchanged, and repeated shingles
        # (natural text repeats itself) would pay the 128-perm hash for
        # every occurrence
        hashes, offsets = dedupe_per_doc(hashes, offsets)
        sigs = self.mh.signatures_batch(hashes, offsets)      # (n, perm)
        keys = self.mh.band_keys_batch(sigs, self.bands)      # (n, bands)
        n = len(texts)
        ids = batch[self.id_col].combine_chunks()
        out_ids = ids.take(pa.array(np.repeat(np.arange(n), self.bands)))
        sig_bytes = np.empty(n, dtype=object)
        for i in range(n):                    # one .tobytes() per doc
            sig_bytes[i] = sigs[i].tobytes()
        return pa.table({
            "band_key": pa.array((keys >> np.uint64(1)).astype(np.int64).ravel(),
                                 type=pa.int64()),
            "doc_id": out_ids,
            "sig": pa.array(np.repeat(sig_bytes, self.bands), type=pa.binary()),
        })


def _bucket_pairs(g: pd.DataFrame, threshold: float, max_bucket: int) -> pd.DataFrame:
    """All-pairs signature-estimated Jaccard within one LSH bucket."""
    g = _cap_bucket(g.drop_duplicates("doc_id").sort_values("doc_id"),
                    max_bucket, "minhash")
    n = len(g)
    if n < 2:
        return pd.DataFrame({"id_a": [], "id_b": [], "est_jaccard": []})
    sigs = np.stack([np.frombuffer(s, dtype=np.uint64) for s in g["sig"]])
    ids = g["doc_id"].to_numpy()
    ia, ib, est = [], [], []
    for i in range(n - 1):
        agree = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
        hit = np.nonzero(agree >= threshold)[0]
        for j in hit:
            ia.append(ids[i])
            ib.append(ids[i + 1 + j])
            est.append(float(agree[j]))
    return pd.DataFrame({"id_a": ia, "id_b": ib, "est_jaccard": est})


@ray.remote
def _minhash_partition_task(threshold: float, max_bucket: int,
                            *parts: pa.Table) -> pa.Table:
    """One exchange partition: drop singleton buckets (free — all rows
    of each key are here), run the pair kernel per surviving bucket,
    dedup pairs across this partition's bands."""
    t = pa.concat_tables(parts)
    id_type = t.schema.field("doc_id").type
    frames = []
    if t.num_rows:
        df = t.to_pandas()
        for _, g in _nonsingleton_groups(df, "band_key"):
            frames.append(_bucket_pairs(g, threshold, max_bucket))
    out = _pairs_to_table(frames, id_type, "est_jaccard", pa.float64())
    return _pair_dedup_local("est_jaccard", "max", out)


def minhash_lsh_pairs(
    ds: "rd.Dataset", text_col: str, id_col: str,
    threshold: float = 0.7, num_perm: int = 128, bands: int = 16,
    shingle_k: int = 5, max_bucket: int = 200,
) -> "rd.Dataset":
    """Candidate near-dup pairs (id_a < id_b, est_jaccard ≥ threshold),
    deduplicated across bands. Shuffles only (band_key, id, 1KB sig)
    through the bucket-pair exchange (see block comment above)."""
    def explode(batch: pa.Table) -> pa.Table:
        stage = worker_cached(("minhash", text_col, id_col, num_perm, bands,
                         shingle_k),
                        lambda: MinHashStage(text_col, id_col, num_perm,
                                             bands, shingle_k))
        return stage(batch)

    # batch_size sets task granularity on few-block inputs: ~0.5 s of
    # signature work per task keeps small corpora parallel
    exploded = ds.select_columns([text_col, id_col]).map_batches(
        explode, batch_format="pyarrow", batch_size=512,
    )
    return _bucket_pair_exchange(
        exploded, "band_key", _minhash_partition_task,
        (threshold, max_bucket), "est_jaccard", "max", ds, id_col)


def verify_pairs_exact_jaccard(
    pairs: "rd.Dataset", docs_ds: "rd.Dataset", text_col: str, id_col: str,
    shingle_k: int = 5, threshold: float = 0.7,
    mode: str = "auto", broadcast_max_docs: int = 2_000_000,
) -> "rd.Dataset":
    """Exact-Jaccard verification of candidate pairs.

    mode="broadcast" (default when the candidate set is small): a
    broadcast id→text map holding ONLY ids that appear in ``pairs``
    (candidates ≪ corpus — the broadcast is O(candidate docs), not
    O(corpus)).

    mode="join" (selected by "auto" above ``broadcast_max_docs``
    potential candidate docs): zero driver state — candidate docs are
    selected with a hash-partitioned semi-join, each doc's distinct
    shingle-hash set is serialized once, and the sets reach their pairs
    through two hash-partitioned ``Dataset.join``s (on id_a, then id_b).
    Identical output to broadcast mode (pytest-pinned)."""
    # pairs is consumed more than once — pin the small pair table so
    # the upstream LSH work isn't recomputed
    pairs = pairs.materialize()
    if mode == "auto":
        mode = ("join" if 2 * pairs.count() > broadcast_max_docs
                else "broadcast")
    if mode == "join":
        return _verify_pairs_join(pairs, docs_ds, text_col, id_col,
                                  shingle_k, threshold)
    # 1) distinct candidate ids from the (small) pairs dataset — pure
    # Arrow (pc.unique over the concatenated id chunks), no per-row
    # Python objects on the candidate path
    chunks: list = []
    for b in pairs.select_columns(["id_a", "id_b"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        chunks.append(b["id_a"].combine_chunks())
        chunks.append(b["id_b"].combine_chunks())
    id_set = (pc.unique(pa.chunked_array(chunks)) if chunks
              else pa.array([]))
    if len(id_set) == 0:
        return pairs.map_batches(
            lambda t: t.append_column("jaccard", pa.array([], type=pa.float64())),
            batch_format="pyarrow")
    # 2) filtered scan: fetch texts only for candidate ids
    texts: dict = {}
    filtered = docs_ds.select_columns([id_col, text_col]).map_batches(
        lambda t: t.filter(pa.compute.is_in(t[id_col], value_set=id_set)),
        batch_format="pyarrow", batch_size=65536)
    for b in filtered.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            texts[i] = t
    ref = ray.put(texts)

    def verify(batch: pa.Table) -> pa.Table:
        tmap = worker_get(ref)
        ja = []
        for a, b_ in zip(batch["id_a"].to_pylist(), batch["id_b"].to_pylist()):
            sa = char_shingle_hashes(tmap.get(a) or "", shingle_k)
            sb = char_shingle_hashes(tmap.get(b_) or "", shingle_k)
            ja.append(jaccard(sa, sb))
        out = batch.append_column("jaccard", pa.array(ja, type=pa.float64()))
        return out.filter(pa.compute.greater_equal(out["jaccard"], threshold))

    return pairs.map_batches(verify, batch_format="pyarrow", batch_size=4096)


def _verify_pairs_join(
    pairs: "rd.Dataset", docs_ds: "rd.Dataset", text_col: str, id_col: str,
    shingle_k: int, threshold: float,
) -> "rd.Dataset":
    """Bucketed verify path: shingle sets meet their pairs through
    hash-partitioned joins — no driver-side id set or text map."""
    P = partitions()                  # lazy joins: no block term
    cand_ids = pairs.select_columns(["id_a"]).rename_columns(
        {"id_a": id_col}).union(
        pairs.select_columns(["id_b"]).rename_columns({"id_b": id_col}))

    def distinct_ids(t: pa.Table) -> pa.Table:
        return pa.table({id_col: pa.compute.unique(
            t[id_col].combine_chunks())})

    cand_ids = cand_ids.map_batches(distinct_ids, batch_format="pyarrow",
                                    batch_size=65536)
    cand_docs = semi_join_filter(
        docs_ds.select_columns([id_col, text_col]), cand_ids, id_col)

    def to_shingles(t: pa.Table) -> pa.Table:
        hashes, offsets = char_shingle_hashes_batch(
            t[text_col].to_pylist(), shingle_k)
        hashes, offsets = dedupe_per_doc(hashes, offsets)
        blobs = [hashes[offsets[i]:offsets[i + 1]].tobytes()
                 for i in range(len(offsets) - 1)]
        return pa.table({id_col: t[id_col],
                         "sh": pa.array(blobs, type=pa.large_binary())})

    shingles = cand_docs.map_batches(to_shingles, batch_format="pyarrow",
                                     batch_size=4096)
    # two hash-partitioned joins carry each side's shingle set to the pair
    j = pairs.join(shingles, join_type="inner", num_partitions=P,
                   on=("id_a",), right_on=(id_col,), right_suffix="_a",
                   partition_size_hint=JOIN_PARTITION_SIZE_HINT)
    sh_a = "sh" if "sh" in j.schema().names else "sh_a"
    j = j.rename_columns({sh_a: "sh_a"}) if sh_a == "sh" else j
    # the right key column (id_col) may survive the join — drop it so it
    # can't collide with the second join's right side
    if id_col in j.schema().names and id_col not in pairs.schema().names:
        j = j.drop_columns([id_col])
    j = j.join(shingles, join_type="inner", num_partitions=P,
               on=("id_b",), right_on=(id_col,), right_suffix="_b",
               partition_size_hint=JOIN_PARTITION_SIZE_HINT)
    sh_b = "sh" if "sh" in j.schema().names else "sh_b"
    j = j.rename_columns({sh_b: "sh_b"}) if sh_b == "sh" else j

    keep_cols = [c for c in pairs.schema().names] + ["jaccard"]

    def verify(batch: pa.Table) -> pa.Table:
        ja = np.empty(batch.num_rows, dtype=np.float64)
        a_col, b_col = batch["sh_a"].to_pylist(), batch["sh_b"].to_pylist()
        for i in range(batch.num_rows):
            sa = np.frombuffer(a_col[i] or b"", dtype=np.uint64)
            sb = np.frombuffer(b_col[i] or b"", dtype=np.uint64)
            ja[i] = jaccard(sa, sb)
        out = batch.append_column("jaccard", pa.array(ja, type=pa.float64()))
        out = out.filter(pa.compute.greater_equal(out["jaccard"], threshold))
        return out.select(keep_cols)

    return j.map_batches(verify, batch_format="pyarrow", batch_size=4096)


# ------------------------------------------------------------- simhash


class SimHashStage:
    """text → 64-bit SimHash, exploded to 4 x 16-bit blocking keys
    (any near pair within Hamming ≤ 3 shares at least one block —
    pigeonhole over 4 blocks)."""

    def __init__(self, text_col: str, id_col: str, shingle_k: int = 5):
        self.text_col, self.id_col, self.shingle_k = text_col, id_col, shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        sh, off = char_shingle_hashes_batch(texts, self.shingle_k)
        sh, off = dedupe_per_doc(sh, off)      # SimHash votes need sets
        sims = simhash64_batch(sh, off)        # (n,) int64
        n = len(texts)
        u = sims.view(np.uint64)
        # 4 × 16-bit blocking keys per doc, doc-major to match groupby
        blk = np.arange(4, dtype=np.uint64)
        parts = (u[:, None] >> (np.uint64(16) * blk[None, :])) & np.uint64(0xFFFF)
        keys = ((blk[None, :] << np.uint64(16)) | parts).astype(np.int64)
        ids = batch[self.id_col].combine_chunks()
        out_ids = ids.take(pa.array(np.repeat(np.arange(n), 4)))
        return pa.table({
            "block_key": pa.array(keys.ravel(), type=pa.int64()),
            "doc_id": out_ids,
            "simhash": pa.array(np.repeat(sims, 4), type=pa.int64()),
        })


def _simhash_bucket_pairs(g: pd.DataFrame, max_hamming: int,
                          max_bucket: int) -> pd.DataFrame:
    """All-pairs Hamming check within one blocking bucket."""
    g = _cap_bucket(g.drop_duplicates("doc_id").sort_values("doc_id"),
                    max_bucket, "simhash")
    n = len(g)
    if n < 2:
        return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
    hs = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    ids = g["doc_id"].to_numpy()
    ia, ib, hm = [], [], []
    for i in range(n - 1):
        d = hamming64(hs[i + 1 :], hs[i])
        hit = np.nonzero(d <= max_hamming)[0]
        for j in hit:
            ia.append(ids[i]); ib.append(ids[i + 1 + j]); hm.append(int(d[j]))
    return pd.DataFrame({"id_a": ia, "id_b": ib, "hamming": hm})


@ray.remote
def _simhash_partition_task(max_hamming: int, max_bucket: int,
                            *parts: pa.Table) -> pa.Table:
    t = pa.concat_tables(parts)
    id_type = t.schema.field("doc_id").type
    frames = []
    if t.num_rows:
        df = t.to_pandas()
        for _, g in _nonsingleton_groups(df, "block_key"):
            frames.append(_simhash_bucket_pairs(g, max_hamming, max_bucket))
    out = _pairs_to_table(frames, id_type, "hamming", pa.int64())
    return _pair_dedup_local("hamming", "min", out)


def simhash_pairs(
    ds: "rd.Dataset", text_col: str, id_col: str,
    max_hamming: int = 3, shingle_k: int = 5, max_bucket: int = 500,
) -> "rd.Dataset":
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming, via the
    bucket-pair exchange (see block comment above)."""

    def explode(batch: pa.Table) -> pa.Table:
        stage = worker_cached(("simhash", text_col, id_col, shingle_k),
                        lambda: SimHashStage(text_col, id_col, shingle_k))
        return stage(batch)

    exploded = ds.select_columns([text_col, id_col]).map_batches(
        explode, batch_format="pyarrow", batch_size=512,
    )
    return _bucket_pair_exchange(
        exploded, "block_key", _simhash_partition_task,
        (max_hamming, max_bucket), "hamming", "min", ds, id_col)


def hamming_neardup_pairs(
    ds: "rd.Dataset", sig_col: str, id_col: str,
    max_hamming: int = 3, max_bucket: int = 2000,
) -> "rd.Dataset":
    """Near-dup pairs over a PRECOMPUTED 64-bit signature column —
    image perceptual-hash (phash) near-duplicates with Hamming ≤
    ``max_hamming``, the image-tier analog of ``simhash_pairs`` (whose
    SimHash step is skipped: the signature already exists on the row).

    Pigeonhole blocking: the signature splits into ``nbands`` equal
    bands; any pair within Hamming ≤ nbands-1 agrees exactly on at
    least one band, so exact-match bucketing per band + an in-bucket
    popcount verify finds EVERY qualifying pair (recall 1.0 up to the
    ``max_bucket`` cap, which is logged, never silent). 4 × 16-bit
    bands cover radius ≤ 3, 8 × 8-bit bands radius ≤ 7. Only
    (band_key, id, signature) rows enter the bucket-pair exchange —
    image bytes never shuffle."""
    nbands = 4 if max_hamming <= 3 else 8
    if max_hamming >= nbands:
        raise ValueError(f"max_hamming {max_hamming} needs < {nbands} bands")
    width = 64 // nbands
    mask = np.uint64((1 << width) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        sig = batch[sig_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        u = sig.view(np.uint64)
        n = len(u)
        blk = np.arange(nbands, dtype=np.uint64)
        parts = (u[:, None] >> (np.uint64(width) * blk[None, :])) & mask
        # tag each band value with its band index so cross-band values
        # never collide into one bucket
        keys = ((blk[None, :] << np.uint64(width)) | parts).astype(np.int64)
        ids = batch[id_col].combine_chunks().take(
            pa.array(np.repeat(np.arange(n), nbands)))
        return pa.table({
            "block_key": pa.array(keys.ravel(), type=pa.int64()),
            "doc_id": ids,
            "simhash": pa.array(np.repeat(sig, nbands), type=pa.int64()),
        })

    exploded = ds.select_columns([sig_col, id_col]).map_batches(
        explode, batch_format="pyarrow", batch_size=65536,
        zero_copy_batch=True,
    )
    return _bucket_pair_exchange(
        exploded, "block_key", _simhash_partition_task,
        (max_hamming, max_bucket), "hamming", "min", ds, id_col)


# ---------------------------------------------------- embedding cosine


def embedding_dup_pairs_bruteforce(
    ds: "rd.Dataset", vec_col: str, id_col: str, threshold: float = 0.95,
) -> "rd.Dataset":
    """Exact all-pairs cosine ≥ threshold (id_a < id_b) via a broadcast
    normalized matrix + per-batch matmul. The broadcast side is the
    whole corpus — valid while N×D fits worker memory (the baseline /
    oracle path); the scale path is ``embedding_dup_pairs_lsh``."""
    ids_l, vecs_l = [], []
    for b in ds.select_columns([id_col, vec_col]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        ids_l.append(ids_np(b[id_col]))
        vecs_l.append(list_col_to_matrix(b[vec_col], dtype=np.float64))
    M = np.concatenate(vecs_l)
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    all_ids = np.concatenate(ids_l)
    order = np.argsort(all_ids)
    M, all_ids = M[order], all_ids[order]
    ref = ray.put((all_ids, M))

    def pairs_fn(batch: pa.Table) -> pa.Table:
        ids_b, M_b = worker_get(ref)
        q = list_col_to_matrix(batch[vec_col], dtype=np.float64)
        # zero-copy matrices are read-only (plasma buffer) — not in-place
        q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        qids = ids_np(batch[id_col])
        sims = q @ M_b.T
        ia, ib, cs = [], [], []
        for i in range(len(qids)):
            hit = np.nonzero(sims[i] >= threshold)[0]
            for j in hit:
                if qids[i] < ids_b[j]:
                    ia.append(qids[i]); ib.append(ids_b[j])
                    cs.append(float(sims[i, j]))
        return pa.table({
            "id_a": pa.array(ia), "id_b": pa.array(ib),
            "cosine": pa.array(cs, type=pa.float64()),
        })

    return ds.select_columns([id_col, vec_col]).map_batches(
        pairs_fn, batch_format="pyarrow", batch_size=2048,
    )


class _HyperplaneLSH:
    """vec → nbits-bit signature via seeded random hyperplanes."""

    def __init__(self, vec_col: str, id_col: str, dim: int, nbits: int = 16,
                 seed: int = 42):
        rng = np.random.default_rng(seed)
        self.H = rng.standard_normal((dim, nbits))
        self.vec_col, self.id_col = vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = list_col_to_matrix(batch[self.vec_col], dtype=np.float64)
        bits = (m @ self.H) > 0
        key = np.zeros(len(m), dtype=np.int64)
        for b in range(bits.shape[1]):
            key |= bits[:, b].astype(np.int64) << b
        out = batch.append_column("lsh_key", pa.array(key, type=pa.int64()))
        return out


def _emb_bucket_pairs(g: pd.DataFrame, M: np.ndarray, id_col: str,
                      threshold: float, max_bucket: int) -> pd.DataFrame:
    """Exact all-pairs cosine within one hyperplane-LSH bucket; vectors
    are gathered by row index from the partition's pre-normalized
    matrix ``M`` (built once, zero-copy from Arrow)."""
    g = _cap_bucket(g.sort_values(id_col), max_bucket, "embedding-lsh")
    n = len(g)
    if n < 2:
        return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
    m = M[g["__row"].to_numpy()]
    ids = g[id_col].to_numpy()
    sims = m @ m.T
    iu = np.triu_indices(n, 1)
    hit = sims[iu] >= threshold
    return pd.DataFrame({
        "id_a": ids[iu[0][hit]], "id_b": ids[iu[1][hit]],
        "cosine": sims[iu][hit],
    })


@ray.remote
def _emb_partition_task(vec_col: str, id_col: str, threshold: float,
                        max_bucket: int, *parts: pa.Table) -> pa.Table:
    t = pa.concat_tables(parts)
    id_type = t.schema.field(id_col).type
    frames = []
    if t.num_rows:
        from ..functions.arrays import list_col_to_matrix
        M = list_col_to_matrix(t[vec_col], dtype=np.float64)
        # zero-copy matrices are read-only (Arrow buffer) — not in-place
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        df = t.drop_columns([vec_col]).to_pandas()
        df["__row"] = np.arange(len(df), dtype=np.int64)
        for _, g in _nonsingleton_groups(df, "lsh_key"):
            frames.append(
                _emb_bucket_pairs(g, M, id_col, threshold, max_bucket))
    return _pairs_to_table(frames, id_type, "cosine", pa.float64())


def embedding_dup_pairs_lsh(
    ds: "rd.Dataset", vec_col: str, id_col: str, dim: int,
    threshold: float = 0.95, nbits: int = 12, max_bucket: int = 2000,
) -> "rd.Dataset":
    """Scale path: hyperplane-LSH bucket, exact cosine within buckets,
    reduced through the bucket-pair exchange (one key per row — no
    cross-band pair dedup needed). Recall < 1 by construction
    (reported vs brute force in tests)."""

    def add_key(batch: pa.Table) -> pa.Table:
        stage = worker_cached(("hplsh", vec_col, id_col, dim, nbits),
                        lambda: _HyperplaneLSH(vec_col, id_col, dim, nbits))
        return stage(batch)

    keyed = ds.select_columns([id_col, vec_col]).map_batches(
        add_key, batch_format="pyarrow", batch_size=4096,
    )
    refs = block_refs(keyed)
    if not refs:
        return rd.from_arrow(
            _pairs_to_table([], pa.string(), "cosine", pa.float64()))
    pair_refs = exchange(refs, "lsh_key", _emb_partition_task,
                         vec_col, id_col, threshold, max_bucket)
    return rd.from_arrow_refs(pair_refs)


# ------------------------------------------------- incremental dedup
#
# Production pipelines dedup each NEW crawl against everything already
# ingested, not just within the batch. The index is the corpus's
# content-hash set persisted as parquet PARTITIONED BY
# ``part = mix(text_hash) % P`` — O(8 bytes) a document, append-only.
# The on-disk partitioning function IS ``exchange.partition_ids`` on the
# text_hash column (shared with every other exchange — changing it
# invalidates existing indexes), so deduping a new batch needs NO
# shuffle of the index at all: the new
# side's (hash, id) pairs are hash-split by the same function, and one
# merge task per partition reads exactly its index partition's files,
# anti-filters, and resolves keep-first locally (equal hashes always
# share a partition). Dataset.join on these tiny rows measured 40 s
# for 500 k-vs-500 k at 32 CPUs; this exchange filters in ~6 s warm
# (build 3 s + filter 6 s vs 59 s total for the join version).


def _hash_id_pairs(ds: "rd.Dataset", text_col: str,
                   id_col: str) -> list:
    """(text_hash, id) pair blocks of a corpus, as block refs."""
    hashed = ds.select_columns([text_col, id_col]).map_batches(
        _HashText(text_col), batch_format="pyarrow", batch_size=65536
    ).select_columns(["text_hash", id_col])
    return block_refs(hashed)


def _min_per_hash(t: pa.Table, id_col: str) -> pa.Table:
    """Distinct (text_hash, id_col=min id per hash) — keep-first
    resolution via one Arrow sort + first-of-run mask (id column keeps
    its type; works for string ids too)."""
    idx = pc.sort_indices(t, sort_keys=[("text_hash", "ascending"),
                                        (id_col, "ascending")])
    t = t.take(idx)
    h = t["text_hash"].to_numpy(zero_copy_only=False)
    first = np.ones(len(h), dtype=bool)
    first[1:] = h[1:] != h[:-1]
    return t.filter(pa.array(first))


@ray.remote
def _index_write_part(p: int, out_dir: str, id_col: str,
                      bloom_fpr: float, *parts) -> int:
    """Reduce one partition to distinct (hash, winner) and write its
    parquet file (atomic: tmp + rename) plus, when ``bloom_fpr`` > 0,
    a Bloom sidecar over the partition's hashes (~1.2 bytes/key at
    1 % fpr) so incremental queries can skip the data read when none
    of their hashes can possibly be present."""
    import os

    from ..functions.bloom import bloom_build, bloom_params

    d = os.path.join(out_dir, f"part={p}")
    # Drop any pre-existing sidecar BEFORE touching data.parquet: a Bloom
    # filter describing an older hash set gives false "definitely absent"
    # answers (silently kept duplicates) if this rebuild disables the
    # sidecar or crashes between the two os.replace calls below.
    bpath = os.path.join(d, "bloom.npz")
    if os.path.exists(bpath):
        os.remove(bpath)
    os.makedirs(d, exist_ok=True)
    if not any(part.num_rows for part in parts):
        # empty in this build (or the corpus is): an older build's
        # hashes must not stay behind
        dpath = os.path.join(d, "data.parquet")
        if os.path.exists(dpath):
            os.remove(dpath)
        return 0
    out = _min_per_hash(pa.concat_tables(parts), id_col).rename_columns(
        ["text_hash", "winner"])
    tmp = os.path.join(d, ".data.parquet.tmp")
    pq.write_table(out, tmp)
    os.replace(tmp, os.path.join(d, "data.parquet"))
    if bloom_fpr > 0:
        m_bits, k = bloom_params(out.num_rows, bloom_fpr)
        bits = bloom_build(
            out["text_hash"].to_numpy(zero_copy_only=False), m_bits, k)
        btmp = os.path.join(d, ".bloom.npz.tmp")
        with open(btmp, "wb") as fh:
            np.savez(fh, bits=bits, k=np.int64(k))
        os.replace(btmp, os.path.join(d, "bloom.npz"))
    return out.num_rows


@ray.remote
def _incr_filter_part(p: int, index_dir: str, id_col: str,
                      *parts) -> pa.Table:
    """One partition's incremental dedup: read ONLY this partition's
    index files (partition-pruned — the index never shuffles),
    anti-filter the new pairs, keep-first the survivors."""
    import glob
    import os

    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return t.select([id_col])
    m = _min_per_hash(t, id_col)
    files = sorted(glob.glob(os.path.join(index_dir, f"part={p}", "*.parquet")))
    if files:
        hu = m["text_hash"].to_numpy(zero_copy_only=False)
        maybe = None
        bpath = os.path.join(index_dir, f"part={p}", "bloom.npz")
        if os.path.exists(bpath):
            # Bloom sidecar: no false negatives, so bloom-negative
            # hashes are definitively absent — when NONE can hit,
            # skip reading the (possibly huge) index partition.
            from ..functions.bloom import bloom_probe

            with np.load(bpath) as bz:
                maybe = bloom_probe(hu, bz["bits"], int(bz["k"]))
            if not maybe.any():
                return m.select([id_col])
        idx = pa.concat_tables(pq.read_table(f, columns=["text_hash"])
                               for f in files)
        known = np.sort(idx["text_hash"].to_numpy(zero_copy_only=False))
        probe = hu if maybe is None else hu[maybe]
        pos = np.searchsorted(known, probe)
        inb = pos < len(known)
        phit = np.zeros(len(probe), dtype=bool)
        phit[inb] = known[pos[inb]] == probe[inb]
        hit = phit if maybe is None else np.zeros(len(hu), dtype=bool)
        if maybe is not None:
            hit[maybe] = phit
        m = m.filter(pa.array(~hit))
    return m.select([id_col])


def _index_layout(index_dir: str) -> int:
    """Partition count from the on-disk ``part=N`` layout."""
    import os

    parts = [d for d in os.listdir(index_dir) if d.startswith("part=")]
    if not parts:
        raise ValueError(f"{index_dir} has no part=N index partitions")
    return max(int(d.split("=", 1)[1]) for d in parts) + 1


def build_dedup_index(
    ds: "rd.Dataset", text_col: str, id_col: str, out_dir: str,
    n_partitions: int = 64, bloom_fpr: float = 0.01,
) -> int:
    """Persist the corpus's exact-dedup index: one row per DISTINCT
    content hash, (text_hash, winner id), hash-partitioned on disk by
    ``part = mix(text_hash) % n_partitions`` so a later
    :func:`dedup_against_index` reads only the partitions it needs.
    One hash-partitioned exchange (the dup-reduce pattern), one
    atomic parquet file per partition plus a Bloom sidecar
    (``bloom_fpr`` ≤ 0 disables it) that lets incremental queries
    skip partitions with zero possible hits. Returns the distinct
    count. A rebuild into the same directory leaves exactly the new
    layout: partitions this corpus leaves empty lose their old files,
    and ``part=N`` dirs with N ≥ ``n_partitions`` go. An empty corpus
    leaves the layout's ``part=N`` dirs with no files, an index that
    holds no hash."""
    import os
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    P = n_partitions
    # stale partitions first: _index_layout reads P from the largest N
    for d in os.listdir(out_dir):
        if d.startswith("part=") and int(d.split("=", 1)[1]) >= P:
            shutil.rmtree(os.path.join(out_dir, d))
    # no blocks (an empty corpus): no split task, each write task gets
    # no part
    splits = split_refs(_hash_id_pairs(ds, text_col, id_col), "text_hash", P)
    counts = ray.get([
        _index_write_part.remote(p, out_dir, id_col, bloom_fpr,
                                 *[s[p] for s in splits])
        for p in range(P)
    ])
    return int(sum(counts))


def dedup_against_index(
    ds: "rd.Dataset", index_dir: str, text_col: str, id_col: str,
) -> "rd.Dataset":
    """Incremental exact dedup: drop new documents whose content hash
    is already in the persisted index, keep-first (min id) among the
    rest. Returns the surviving ids as a Dataset of (id_col,).

    The new side moves only (hash, id) pairs through the exchange;
    the index side never moves — each merge task reads its own
    ``part=N`` files (equal hashes share a partition by the on-disk
    contract, so the anti join and the keep-first are both exact
    per-partition)."""
    P = _index_layout(index_dir)
    refs = _hash_id_pairs(ds, text_col, id_col)
    if not refs:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], column_type(ds, id_col))}))
    splits = split_refs(refs, "text_hash", P)
    out_refs = [
        _incr_filter_part.remote(p, index_dir, id_col,
                                 *[s[p] for s in splits])
        for p in range(P)
    ]
    return rd.from_arrow_refs(out_refs)


# ------------------------------------------------------------ SemDeDup
#
# Semantic dedup (public method: SemDeDup, Abbas et al. 2023,
# arXiv:2303.09540): cluster embeddings with k-means, then resolve
# near-duplicates ONLY within each cluster — the cluster key plays the
# LSH-bucket role, so the whole op is one exchange. Unlike
# embedding_dup_pairs_* this returns the SURVIVOR id set directly: the
# keep/drop decision happens inside the partition task (clusters are
# wholly contained in one partition), so no pair table, no loser
# broadcast, no join — the only data that moves is (id, embedding,
# cluster) once, which any within-cluster method needs anyway.


def _sem_cluster_survivors(t: pa.Table, vec_col: str, id_col: str,
                           threshold: float,
                           max_bucket: int) -> pa.Table:
    """Survivors of ONE cluster: sort by id ascending; drop row i iff
    some EARLIER row j (kept or not) has cosine(i, j) >= threshold —
    deterministic keep-first domination (documented divergence from
    the paper's keep-farthest-from-centroid tie-break; same ids kept
    on every rerun and layout)."""
    idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    if n < 2:
        return t.select([id_col])
    if n > max_bucket:
        logger.warning("semdedup cluster overflow: %d rows > cap %d, "
                       "dropping %d from the comparison", n, max_bucket,
                       n - max_bucket)
        t = t.slice(0, max_bucket)
        n = max_bucket
    m = list_col_to_matrix(t[vec_col], dtype=np.float64)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    sims = m @ m.T
    # column j is dominated iff any row i < j has sims[i, j] >= t
    dominated = (np.triu(sims, 1) >= threshold).any(axis=0)
    return t.filter(pa.array(~dominated)).select([id_col])


@ray.remote
def _sem_partition_task(vec_col: str, id_col: str, threshold: float,
                        max_bucket: int, *parts: pa.Table) -> pa.Table:
    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return t.select([id_col])
    outs = []
    cells = t["sem_cell"].to_numpy(zero_copy_only=False)
    order = np.argsort(cells, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.flatnonzero(np.r_[True, np.diff(cells[order]) != 0,
                                  True])
    for i in range(len(bounds) - 1):
        outs.append(_sem_cluster_survivors(
            t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])),
            vec_col, id_col, threshold, max_bucket))
    return pa.concat_tables(outs)


def semdedup(
    ds: "rd.Dataset", vec_col: str, id_col: str, n_clusters: int = 32,
    threshold: float = 0.95, iters: int = 3, max_bucket: int = 4000,
) -> "rd.Dataset":
    """SemDeDup: k-means cluster blocking + within-cluster cosine
    keep-first. Returns surviving ids as a Dataset of (id_col,).

    The centroids come from the deterministic distributed Lloyd of
    ``similarity.ivf_centroids`` (streaming (sum,count) partials, no
    RNG); cluster assignment is a broadcast argmax per batch; the
    exchange routes each cluster to one partition task which resolves
    survivors locally. Cross-cluster near-dups are missed by
    construction (recall vs brute force asserted in tests, like the
    LSH paths). Oversized clusters are capped WITH the drop logged —
    rows past the cap survive uncompared."""
    from .similarity import ivf_centroids

    C = ivf_centroids(ds, n_clusters, iters=iters, vec_col=vec_col,
                      id_col=id_col)
    if len(C) == 0:                                 # no rows
        return rd.from_arrow(
            pa.table({id_col: pa.array([], column_type(ds, id_col))}))
    cref = ray.put(C)

    def add_cell(batch: pa.Table) -> pa.Table:
        C_b = worker_get(cref)
        m = list_col_to_matrix(batch[vec_col], dtype=np.float64)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                           1e-12)
        cell = np.argmax(m @ C_b.T, axis=1).astype(np.int64)
        return batch.select([id_col, vec_col]).append_column(
            "sem_cell", pa.array(cell, type=pa.int64()))

    keyed = ds.select_columns([id_col, vec_col]).map_batches(
        add_cell, batch_format="pyarrow", batch_size=4096)
    refs = block_refs(keyed)
    out_refs = exchange(refs, "sem_cell", _sem_partition_task,
                        vec_col, id_col, threshold, max_bucket,
                        P=partitions(len(refs), limit=n_clusters))
    return rd.from_arrow_refs(out_refs)
