"""The fused stage's shared caption pass: rules, langid and perplexity
read one lowered, padded buffer and one rolling hash per block, and
label exactly as the standalone scorers and per-text oracles do."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from dataquality_cli_ray.fixtures.images import gen_rows, seed_corpus
from dataquality_cli_ray.functions import text as T
from dataquality_cli_ray.pipelines.quality import (
    QualityFusedStage, _mark_dup, dup_losers_from_table)
from dataquality_cli_ray.stages.langid import LangIdScorer, train_langid_model
from dataquality_cli_ray.stages.perplexity import PerplexityScorer
from dataquality_cli_ray.stages.rules import (
    HeuristicRules, QualityConfig, finalize_decision)

EDGE = ["", "x", "xy", "İstanbul", "K", "ΟΔΟΣ", "🙂", "Straße", "ǅ",
        "a" * 1024, None, " ", "Hello 42 World", "1234567890", "ab"]
RULE_COLS = ["caption_trimmed", "rule_null_blank", "rule_length_bounds",
             "rule_char_class", "rule_fmt_whitelist"]
SCORE_COLS = ["lang_pred", "lang_score", "rule_lang_unknown", "ppl",
              "rule_high_perplexity"]


def _poly(b: bytes) -> int:
    h = 0
    for c in b:
        h = (h * T.HASH_P + c) % (1 << 64)
    return h


def _lowered(texts) -> list:
    return pc.utf8_lower(pa.array(list(texts), type=pa.string())).to_pylist()


def _langid_oracle(model, texts):
    """Per-text langid: uint64 hashes of each " t " window, counts per
    bucket in bucket order, and the cosine sums accumulated in that
    order (the order ``np.bincount`` adds in)."""
    n, dim = model["n"], model["dim"]
    profiles = model["profiles"].astype(np.float64)
    preds, scores = [], []
    for t in _lowered(texts):
        b = b"" if t is None else f" {t} ".encode()
        buckets = [_poly(b[i: i + n]) % dim for i in range(len(b) - n + 1)]
        uniq, cnt = np.unique(np.asarray(buckets, dtype=np.int64),
                              return_counts=True)
        cf = cnt.astype(np.float64)
        sq = 0.0
        for c in cf:
            sq += c * c
        norm = math.sqrt(sq) or 1.0
        sims = np.zeros(len(profiles))
        for li, prof in enumerate(profiles):
            s = 0.0
            for c, u in zip(cf, uniq):
                s += c * prof[u]
            sims[li] = s / norm
        best = int(sims.argmax())
        preds.append(model["langs"][best])
        scores.append(sims[best])
    return preds, scores


def _ppl_oracle(model, texts):
    """Per-text bits/char: -log2 P of each "  t " trigram window, summed
    by one ``add.reduceat`` over the text's windows (999.0 for an empty
    or null text, as the scorer reports inf)."""
    dim, k, V = model["dim"], model["k"], model["vocab"]
    out = []
    for t, raw in zip(_lowered(texts), texts):
        if not raw:
            out.append(999.0)
            continue
        b = f"  {t} ".encode()
        w = range(len(b) - 2)
        tri = np.array([model["tri"][_poly(b[i: i + 3]) % dim] for i in w])
        bi = np.array([model["bi"][_poly(b[i: i + 2]) % dim] for i in w])
        logs = -np.log2((tri.astype(np.float64) + k)
                        / (bi.astype(np.float64) + k * V))
        out.append(float(np.add.reduceat(logs, [0])[0] / len(logs)))
    return out


def _layouts(texts):
    """The caption column as one chunk, three chunks, a slice at offset
    3 of a longer array, and ``large_string``."""
    plain = pa.array(texts, type=pa.string())
    third = len(texts) // 3
    chunked = pa.chunked_array(
        [texts[:third], texts[third: 2 * third], texts[2 * third:]],
        type=pa.string())
    sliced = pa.array(["pad", None, "more pad"] + texts,
                      type=pa.string()).slice(3)
    return {"plain": plain, "chunked": chunked, "sliced": sliced,
            "large_string": pa.array(texts, type=pa.large_string())}


@pytest.fixture(scope="module")
def odd_dim_langid():
    """A langid model whose dim is not a power of two (uint64 path)."""
    texts, labels = seed_corpus(n_per_lang=60)
    return train_langid_model(texts, labels, dim=1000)


@pytest.mark.parametrize("layout", ["plain", "chunked", "sliced",
                                    "large_string"])
@pytest.mark.parametrize("odd_dim", [False, True])
def test_fused_caption_pass_equals_standalone_and_oracles(
        models, odd_dim_langid, layout, odd_dim):
    lm, pm = models
    if odd_dim:
        lm = odd_dim_langid
    fixture = gen_rows(np.arange(40), 40)["caption"].to_pylist()
    texts = EDGE + fixture
    caps = _layouts(texts)[layout]
    batch = pa.table({"caption": caps})
    cfg = QualityConfig(check_fmt=False)
    fused = QualityFusedStage(cfg, lm, pm)(batch)
    chain = HeuristicRules(cfg)(batch)
    chain = LangIdScorer(lm, min_score=cfg.langid_min_score)(chain)
    chain = PerplexityScorer(pm, max_ppl=cfg.max_perplexity)(chain)
    for c in RULE_COLS + SCORE_COLS:
        assert fused[c].to_pylist() == chain[c].to_pylist(), c
    trimmed = fused["caption_trimmed"].to_pylist()
    preds, scores = _langid_oracle(lm, trimmed)
    assert fused["lang_pred"].to_pylist() == preds
    assert fused["lang_score"].to_pylist() == scores
    assert fused["ppl"].to_pylist() == _ppl_oracle(pm, trimmed)


def test_langid_int64_key_block_equals_oracle():
    """A block of m rows with m * dim >= 2**32 keys its (row, bucket)
    runs in int64, not uint32: at dim 2**20 one block of 5,000 short
    captions (a uint32 key would wrap from row 4,096 on) scores as the
    per-text oracle does."""
    texts, labels = seed_corpus(n_per_lang=60)
    lm = train_langid_model(texts, labels, dim=1 << 20)
    words = [w for t in texts for w in t.split()]
    rng = np.random.default_rng(11)
    caps = EDGE[:9] + [" ".join(rng.choice(words, rng.integers(1, 4)))[:20]
                       for _ in range(5000 - 9)]
    grams = T.CaptionGrams(caps)
    assert grams.m * lm["dim"] >= 1 << 32
    assert len(list(grams.blocks())) == 1
    out = LangIdScorer(lm, text_col="caption")(pa.table({"caption": caps}))
    preds, scores = _langid_oracle(lm, caps)
    assert out["lang_pred"].to_pylist() == preds
    assert out["lang_score"].to_pylist() == scores


def test_multi_block_batch_equals_one_text_at_a_time(models):
    """A batch over several caption blocks labels each row as a batch
    holding that row alone."""
    lm, pm = models
    batch = gen_rows(np.arange(2500), 2500)
    grams = T.CaptionGrams(HeuristicRules(QualityConfig())(batch)
                           ["caption_trimmed"])
    assert len(list(grams.blocks())) > 1
    out = QualityFusedStage(QualityConfig(), lm, pm)(batch)
    idx = np.random.default_rng(3).choice(2500, 40, replace=False)
    lone = [QualityFusedStage(QualityConfig(), lm, pm)(batch.slice(i, 1))
            for i in idx]
    for c in RULE_COLS + SCORE_COLS:
        assert out[c].take(idx).to_pylist() == [
            t[c][0].as_py() for t in lone], c


def test_fused_stage_lowers_and_hashes_each_caption_byte_once(
        models, monkeypatch):
    lm, pm = models
    builds, swept = [], []
    init, roll = T.CaptionGrams.__init__, T._roll

    def counting_init(self, texts):
        builds.append(len(texts))
        init(self, texts)

    def counting_roll(data, n, wide):
        swept.append(len(data))
        return roll(data, n, wide)

    monkeypatch.setattr(T.CaptionGrams, "__init__", counting_init)
    monkeypatch.setattr(T, "_roll", counting_roll)
    stage = QualityFusedStage(QualityConfig(), lm, pm)
    stage(gen_rows(np.arange(300), 300))
    assert builds == [300] and len(swept) == 1
    builds.clear()
    swept.clear()
    big = gen_rows(np.arange(2500), 2500)
    stage(big)
    grams = T.CaptionGrams(HeuristicRules(QualityConfig())(big)
                           ["caption_trimmed"])
    assert builds == [2500, 2500]      # the stage's, then this test's
    assert len(swept) == len(list(grams.blocks())) > 1
    assert sum(swept) == len(grams.data)


def test_char_class_ratios_match_per_codepoint_count():
    texts = EDGE + ["A1b2C3", "ñandú 7", "   "]
    alpha, digit = T.char_class_ratios(pa.array(texts, type=pa.string()))
    for t, a, d in zip(texts, alpha, digit):
        s = t or ""
        n = len(s)
        assert a == (1.0 if n == 0 else
                     sum(c.isascii() and c.isalpha() for c in s) / n), t
        assert d == (0.0 if n == 0 else
                     sum(c.isascii() and c.isdigit() for c in s) / n), t
    for arr in _layouts(texts).values():
        got = T.char_class_ratios(arr)
        assert np.array_equal(got[0], alpha) and np.array_equal(got[1], digit)


def test_polars_written_batch_labels_as_pyarrow_written(models, tmp_path):
    """A polars-written parquet holds ``large_string`` captions and ids
    and ``large_binary`` payloads; the fused stage, mark and finalize
    label it as the same rows written by pyarrow."""
    pl = pytest.importorskip("polars")
    lm, pm = models
    batch = gen_rows(np.arange(300), 300)
    pa_path, pl_path = (os.path.join(tmp_path, f) for f in ("a.parquet",
                                                              "b.parquet"))
    pq.write_table(batch, pa_path)
    pl.from_arrow(batch).write_parquet(pl_path)
    by_pl = pq.read_table(pl_path)
    assert pa.types.is_large_string(by_pl.schema.field("caption").type)

    def label(t):
        out = QualityFusedStage(QualityConfig(), lm, pm)(t)
        out = finalize_decision(_mark_dup(out, *dup_losers_from_table(t)))
        return out.select(["image_id", "keep", "drop_reason",
                           "caption_scrubbed", "lang_pred", "lang_score",
                           "ppl", "pii_hits"]).to_pylist()

    assert label(by_pl) == label(pq.read_table(pa_path))
