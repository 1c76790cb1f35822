"""Unit tests: fake codec, image stages, langid, perplexity, textqa
kernels, sources."""

import numpy as np
import pyarrow as pa
import pytest

from dataquality_cli_ray.functions import imagefake as IF
from dataquality_cli_ray.functions import text as T
from dataquality_cli_ray.functions.hashing import (
    rolling_fingerprints,
    stable_hash64,
)
from dataquality_cli_ray.fixtures.images import LANGS, VOCAB, seed_corpus
from dataquality_cli_ray.stages.image_stages import (
    AudioFeatureStage,
    DecodeImageStage,
    FrameSampleStage,
    ResizeImageStage,
)
from dataquality_cli_ray.stages.langid import (
    LangIdScorer,
    merge_langid_partials,
    train_langid_model,
)
from dataquality_cli_ray.stages.perplexity import (
    PerplexityScorer,
    score_text,
    train_char_lm,
)


def _img(w=16, h=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 3)).astype(np.uint8)


# ---------------------------------------------------------------- codec

def test_codec_lossless_roundtrip():
    arr = _img()
    out, fmt = IF.decode_image(IF.encode_image(arr, "png"))
    assert fmt == "png" and np.array_equal(out, arr)


def test_codec_lossy_psnr():
    arr = _img(64, 64)
    out, _ = IF.decode_image(IF.encode_image(arr, "jpeg"))
    assert IF.psnr(arr, out) >= 40.0


def test_codec_corrupt_raises():
    with pytest.raises(IF.CorruptImageError):
        IF.decode_image(b"not an image")
    with pytest.raises(IF.CorruptImageError):
        IF.decode_image(IF.encode_image(_img(), "png")[:-5])


def test_resize_and_ahash():
    arr = _img(32, 32, 1)
    r = IF.resize_nearest(arr, 8, 8)
    assert r.shape == (8, 8, 3)
    assert IF.average_hash64(arr) == IF.average_hash64(arr)   # deterministic
    assert np.iinfo(np.int64).min <= IF.average_hash64(arr) <= np.iinfo(np.int64).max


# --------------------------------------------------------------- stages

def test_decode_stage_quarantine():
    good = IF.encode_image(_img(8, 8), "png")
    batch = pa.table({
        "bytes": pa.array([good, b"junk", None], type=pa.binary()),
        "w": pa.array([8, 8, 8], type=pa.int32()),
        "h": pa.array([8, 8, 8], type=pa.int32()),
    })
    out = DecodeImageStage()(batch)
    assert out["rule_decode_error"].to_pylist() == [False, True, True]
    assert out["decode_err"][1].as_py() is not None
    assert out["dec_w"][0].as_py() == 8


def test_decode_stage_meta_mismatch():
    good = IF.encode_image(_img(8, 8), "png")
    batch = pa.table({
        "bytes": pa.array([good], type=pa.binary()),
        "w": pa.array([16], type=pa.int32()),
        "h": pa.array([8], type=pa.int32()),
    })
    out = DecodeImageStage()(batch)
    assert out["rule_decode_error"].to_pylist() == [True]


def test_decode_stage_meta_one_null_is_mismatch():
    """Or-of-validity: a row with exactly ONE null meta field is still
    checkable — the null side counts as a mismatch; only both-null rows
    skip the meta check."""
    good = IF.encode_image(_img(8, 8), "png")
    batch = pa.table({
        "bytes": pa.array([good, good, good], type=pa.binary()),
        "w": pa.array([8, None, None], type=pa.int32()),
        "h": pa.array([None, 8, None], type=pa.int32()),
    })
    out = DecodeImageStage()(batch)
    assert out["rule_decode_error"].to_pylist() == [True, True, False]


_DECODE_COLS = ["rule_decode_error", "decode_err", "dec_w", "dec_h",
                "brightness", "contrast", "ahash"]
_FEATURE_COLS = ["brightness", "contrast", "ahash"]


def _decode_oracle(batch: pa.Table) -> dict:
    """The decode columns one image at a time: ``IF.decode_image``, the
    meta check, the int64 sum and sum of squares, ``IF.average_hash64``."""
    out = {c: [] for c in _DECODE_COLS}

    def put(*vals):
        for c, v in zip(_DECODE_COLS, vals):
            out[c].append(v)

    for r in batch.select(["bytes", "w", "h"]).to_pylist():
        try:
            arr, _ = IF.decode_image(r["bytes"])
        except IF.CorruptImageError as e:
            put(True, str(e), 0, 0, 0.0, 0.0, 0)
            continue
        h, w = arr.shape[:2]
        wm, hm = r["w"], r["h"]
        if (wm is not None or hm is not None) and (wm != w or hm != h):
            put(True, f"meta {-1 if wm is None else wm}x"
                      f"{-1 if hm is None else hm} != decoded {w}x{h}",
                w, h, 0.0, 0.0, 0)
            continue
        flat = arr.reshape(-1).astype(np.int64)
        mu = flat.sum() / flat.size
        var = (flat * flat).sum() / flat.size - mu * mu
        put(False, None, w, h, float(mu), float(np.sqrt(max(var, 0.0))),
            IF.average_hash64(arr))
    return out


def _decode_cases() -> pa.Table:
    """``gen_rows`` fixture rows (9 shapes, ~1 % corrupt) followed by the
    edge rows: null, junk, truncated, unknown format code, meta
    mismatches with one null side, both meta null, a > 64 KiB payload."""
    from dataquality_cli_ray.fixtures.images import gen_rows

    fx = gen_rows(np.arange(300), 300).select(["bytes", "w", "h"])
    assert len(set(zip(fx["w"].to_pylist(), fx["h"].to_pylist()))) >= 9
    good = IF.encode_image(_img(8, 8), "png")
    bad_code = good[:4] + bytes([9]) + good[5:]
    big = IF.encode_image(_img(300, 200, 3), "jpeg")
    assert len(big) > 64 * 1024
    edge = pa.table({
        "bytes": pa.array([None, b"junk", good[:-5], bad_code, good, good,
                           good, big], type=pa.binary()),
        "w": pa.array([8, 8, 8, 8, None, 8, None, 300], type=pa.int32()),
        "h": pa.array([8, 8, 8, 8, 8, None, None, 200], type=pa.int32()),
    })
    return pa.concat_tables([fx, edge]).combine_chunks()


def _decode_layouts():
    """(name, table) for each payload layout the decode walks: one
    chunk, four chunks with their own buffers, a slice at a non-zero
    offset, and large_binary."""
    t = _decode_cases()
    n = t.num_rows
    cuts = [0, n // 5, n // 2, n - 5, n]
    four = pa.concat_tables([
        pa.Table.from_pylist(t.slice(a, b - a).to_pylist(), schema=t.schema)
        for a, b in zip(cuts, cuts[1:])])
    assert four["bytes"].num_chunks == 4
    large = t.set_column(0, "bytes", t["bytes"].cast(pa.large_binary()))
    return [("one_chunk", t), ("four_chunks", four),
            ("sliced", t.slice(7)), ("large_binary", large)]


def test_batched_decode_equals_per_image_oracle():
    for name, t in _decode_layouts():
        got = DecodeImageStage()(t)
        want = _decode_oracle(t)
        for c in _DECODE_COLS:
            assert got[c].to_pylist() == want[c], (name, c)
        assert got.select(t.column_names).equals(t), name


def test_decode_parse_only_equals_full_minus_features():
    for name, t in _decode_layouts():
        full = DecodeImageStage()(t)
        parse = DecodeImageStage(features=False)(t)
        assert parse.equals(full.drop_columns(_FEATURE_COLS)), name


def test_pillow_decode_stage_golden_parity():
    """Golden parity, fake codec vs Pillow (auto-skips without the
    lib): the SAME pixel arrays encoded once as FIMG and once as real
    lossless PNG must yield identical dec_w/dec_h/brightness/contrast/
    ahash from DecodeImageStage — the Pillow fallback branch computes
    the exact same integer-sum feature math as the batched kernels."""
    from dataquality_cli_ray.functions import imagecodec as IC

    if not IC.HAVE_PIL:
        pytest.skip("Pillow not installed (sandbox)")
    import io

    from PIL import Image

    rng = np.random.default_rng(11)
    arrs = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            for h, w in [(8, 8), (16, 12), (8, 8), (5, 7)]]

    def png_bytes(a):
        buf = io.BytesIO()
        Image.fromarray(a).save(buf, format="PNG")
        return buf.getvalue()

    meta = {"w": pa.array([a.shape[1] for a in arrs], type=pa.int32()),
            "h": pa.array([a.shape[0] for a in arrs], type=pa.int32())}
    fake = pa.table({"bytes": pa.array(
        [IF.encode_image(a, "png") for a in arrs], type=pa.binary()), **meta})
    real = pa.table({"bytes": pa.array(
        [png_bytes(a) for a in arrs], type=pa.binary()), **meta})
    of, orl = DecodeImageStage()(fake), DecodeImageStage()(real)
    assert orl["rule_decode_error"].to_pylist() == [False] * len(arrs)
    for c in ["dec_w", "dec_h", "brightness", "contrast", "ahash"]:
        assert of[c].to_pylist() == orl[c].to_pylist(), c


def test_resize_stage():
    good = IF.encode_image(_img(16, 16), "jpeg")
    batch = pa.table({"bytes": pa.array([good, b"bad"], type=pa.binary()),
                      "fmt": ["jpeg", "jpeg"]})
    out = ResizeImageStage(4, 4)(batch)
    rb = out["bytes_resized"].to_pylist()
    assert rb[1] is None
    arr, _ = IF.decode_image(rb[0])
    assert arr.shape == (4, 4, 3)


def test_video_codec_roundtrip():
    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
              for _ in range(5)]
    blob = IF.encode_video(frames, "png", 12)
    f2, fmt, fps = IF.decode_video(blob)
    assert fmt == "png" and fps == 12 and len(f2) == 5
    assert all(np.array_equal(a, b) for a, b in zip(frames, f2))
    with pytest.raises(IF.CorruptVideoError):
        IF.decode_video(blob[:-3])
    with pytest.raises(IF.CorruptVideoError):
        IF.decode_video(b"nope")


def test_frame_sample_stage_explode_and_quarantine():
    rng = np.random.default_rng(1)
    frames = [rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
              for _ in range(7)]
    good = IF.encode_video(frames, "bmp", 24)
    out = FrameSampleStage(every_n=3)(pa.table({
        "video_id": pa.array(["v0", "v1"]),
        "bytes": pa.array([good, b"corrupt"], type=pa.binary()),
    }))
    d = out.to_pydict()
    # v0: frames 0, 3, 6 sampled; v1: one quarantine row
    assert d["video_id"] == ["v0", "v0", "v0", "v1"]
    assert d["frame_idx"] == [0, 3, 6, -1]
    assert d["decode_err"][:3] == [None] * 3
    assert d["decode_err"][3] is not None and d["frame_bytes"][3] is None
    # sampled frame bytes decode back to the original frames
    for j, fi in enumerate([0, 3, 6]):
        arr, _ = IF.decode_image(d["frame_bytes"][j])
        assert np.array_equal(arr, frames[fi])
        assert d["frame_ahash"][j] == IF.average_hash64(frames[fi])


def test_audio_stub():
    pcm = (np.sin(np.linspace(0, 100, 16000)) * 10000).astype(np.int16)
    out = AudioFeatureStage()(
        pa.table({"audio_bytes": pa.array([pcm.tobytes()], type=pa.binary())}))
    assert abs(out["audio_sec"][0].as_py() - 1.0) < 1e-6
    assert out["audio_rms"][0].as_py() > 1000


# ---------------------------------------------------------- langid / ppl

def test_langid_accuracy_on_fixture_corpus():
    texts, labels = seed_corpus(n_per_lang=100)
    model = train_langid_model(texts, labels)
    scorer = LangIdScorer(model, text_col="t")
    # held-out texts from the same vocabularies
    rng = np.random.default_rng(99)
    test_texts, test_labels = [], []
    for lang in LANGS:
        for _ in range(30):
            test_texts.append(" ".join(rng.choice(VOCAB[lang], 12)))
            test_labels.append(lang)
    out = scorer(pa.table({"t": test_texts}))
    acc = np.mean(np.array(out["lang_pred"].to_pylist()) == np.array(test_labels))
    assert acc >= 0.95, acc


def test_langid_gibberish_scores_low():
    texts, labels = seed_corpus(n_per_lang=100)
    model = train_langid_model(texts, labels)
    scorer = LangIdScorer(model, text_col="t", min_score=0.22)
    out = scorer(pa.table({"t": ["qzxv jkwpf zzkqj xxyzw vvqpz",
                                 "lorem ipsum dolor sit amet"]}))
    flags = out["rule_lang_unknown"].to_pylist()
    assert flags == [True, False]


def test_langid_partial_merge_equals_direct():
    texts, labels = seed_corpus(n_per_lang=50)
    direct = train_langid_model(texts, labels)
    # split into 3 chunks, build partials, merge
    from dataquality_cli_ray.stages.langid import LangIdTrainPartials
    import pickle
    parts = []
    stage = LangIdTrainPartials("t", "l")
    for i in range(0, len(texts), 50):
        t = pa.table({"t": texts[i:i+50], "l": labels[i:i+50]})
        parts.append(pickle.loads(stage(t)["partial"][0].as_py()))
    merged = merge_langid_partials(parts)
    assert merged["langs"] == direct["langs"]
    # counts are exact integers on both paths: the profiles are equal
    np.testing.assert_array_equal(merged["profiles"], direct["profiles"])


def test_perplexity_separates_gibberish():
    texts, _ = seed_corpus(n_per_lang=150)
    model = train_char_lm(texts)
    natural = "lorem ipsum dolor sit amet consectetur"
    gibber = "qzx vkwjp zzkqjj xxyzww vvqpzk jjqxxw"
    assert score_text(model, natural) + 1.5 < score_text(model, gibber)


def test_perplexity_scorer_stage():
    texts, _ = seed_corpus(n_per_lang=50)
    model = train_char_lm(texts)
    st = PerplexityScorer(model, text_col="t", max_ppl=14.0)
    out = st(pa.table({"t": ["lorem ipsum dolor", ""]}))
    assert out["ppl"][1].as_py() == 999.0
    assert out["rule_high_perplexity"][1].as_py()


# ------------------------------------- training vs per-text oracles
#
# The trainers count over the whole corpus in one pass; these oracles
# are the per-text formulations they replaced, and the models must be
# array-identical to them.

TRAIN_EDGE_TEXTS = ["", None, "a", " \t ", "café au lait", "İstanbul",
                    "party \U0001F389 time", "lorem ipsum " * 100,
                    "dolor sit amet"]
TRAIN_EDGE_LABELS = ["x", "y", "x", "y", "x", "y", "x", "y", "x"]


def _seed_corpus_per_draw(n_per_lang=300, seed=42):
    texts, labels = [], []
    for li, lang in enumerate(LANGS):
        rng = np.random.default_rng([seed, 999_000_001, li])
        words = VOCAB[lang]
        for _ in range(n_per_lang):
            k = int(rng.integers(6, 25))
            texts.append(" ".join(rng.choice(words, k)))
            labels.append(lang)
    return texts, labels


def _char_lm_per_text(texts, dim=1 << 18, order=3):
    from dataquality_cli_ray.stages.perplexity import _hash_grams

    tri = np.zeros(dim, dtype=np.float64)
    bi = np.zeros(dim, dtype=np.float64)
    for t in texts:
        if not t:
            continue
        # lowered as the engine lowers (Arrow's utf8_lower)
        b = np.frombuffer(f"  {T.lower([t])[0].as_py()} ".encode(
            "utf-8", "ignore"), dtype=np.uint8)
        np.add.at(tri, _hash_grams(b, order, dim), 1.0)
        np.add.at(bi, _hash_grams(b, order - 1, dim), 1.0)
    return {"tri": tri, "bi": bi, "dim": dim, "order": order, "k": 0.1,
            "vocab": 64.0}


def _langid_per_text(texts, labels, dim=4096, n=3):
    langs = sorted(set(labels))
    idx = {l: i for i, l in enumerate(langs)}
    prof = np.zeros((len(langs), dim), dtype=np.float64)
    counts = T.ngram_count_matrix(np.asarray(texts, dtype=object), n, dim)
    for row, lab in zip(counts, labels):
        prof[idx[lab]] += row
    norms = np.linalg.norm(prof, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return {"langs": langs, "profiles": (prof / norms).astype(np.float32),
            "dim": dim, "n": n}


def _assert_models_equal(got: dict, ref: dict):
    assert got.keys() == ref.keys()
    for k, v in ref.items():
        if isinstance(v, np.ndarray):
            assert got[k].dtype == v.dtype, k
            np.testing.assert_array_equal(got[k], v, err_msg=k)
        else:
            assert got[k] == v, k


@pytest.mark.parametrize("kw", [{}, {"n_per_lang": 37, "seed": 7}])
def test_seed_corpus_matches_per_draw_choice(kw):
    assert seed_corpus(**kw) == _seed_corpus_per_draw(**kw)


def test_char_lm_matches_per_text_counts():
    texts, _ = seed_corpus(n_per_lang=60)
    for probe in (texts, TRAIN_EDGE_TEXTS, texts[:5] + TRAIN_EDGE_TEXTS,
                  [], ["", None]):
        _assert_models_equal(train_char_lm(probe), _char_lm_per_text(probe))
    # an order longer than the first padded text ("  a ")
    probe = ["a"] + TRAIN_EDGE_TEXTS
    _assert_models_equal(train_char_lm(probe, dim=1000, order=6),
                         _char_lm_per_text(probe, 1000, 6))


def test_langid_matches_per_text_counts():
    from dataquality_cli_ray.stages.langid import LangIdTrainPartials
    import pickle

    texts, labels = seed_corpus(n_per_lang=60)
    for t, l in ((texts, labels), (TRAIN_EDGE_TEXTS, TRAIN_EDGE_LABELS)):
        _assert_models_equal(train_langid_model(t, l), _langid_per_text(t, l))
    # the distributed partials count the same way; a null label counts
    # nowhere
    batch = pa.table({"t": TRAIN_EDGE_TEXTS + ["stray"],
                      "l": TRAIN_EDGE_LABELS + [None]})
    part = pickle.loads(LangIdTrainPartials("t", "l")(batch)["partial"][0]
                        .as_py())
    _assert_models_equal(merge_langid_partials([part]),
                         _langid_per_text(TRAIN_EDGE_TEXTS, TRAIN_EDGE_LABELS))


def test_build_models_matches_per_text_training():
    from dataquality_cli_ray.pipelines.quality import build_models

    texts, labels = _seed_corpus_per_draw()
    langid, ppl = build_models()
    _assert_models_equal(langid, _langid_per_text(texts, labels))
    _assert_models_equal(ppl, _char_lm_per_text(texts))


def test_build_models_built_once_and_read_only():
    """``build_models`` returns the same pair on every call for a seed,
    its arrays refuse writes, and its pickle is the seeded models' own
    (the read-only flag is not pickled)."""
    import hashlib
    import pickle

    from dataquality_cli_ray.pipelines.quality import build_models

    models = build_models()
    assert build_models() is models and build_models(42) is models
    assert all(a is b for a, b in zip(build_models(seed=42), models))
    arrays = [v for m in models for v in m.values()
              if isinstance(v, np.ndarray)]
    assert len(arrays) == 3
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    digest = hashlib.sha256(pickle.dumps(models)).hexdigest()
    assert digest.startswith("30d79b74a2b746c5")


# ----------------------------------------------------------- text utils

def test_token_counts_match_python():
    import re
    texts = ["a b  c", "  x  ", "", "don't stop-me now!", "1+2=3"]
    ws = T.token_count_ws(pa.array(texts)).to_pylist()
    bpe = T.token_count_bpe(pa.array(texts)).to_pylist()
    for i, t in enumerate(texts):
        assert ws[i] == len(t.split()), t
        assert bpe[i] == len(re.findall(T.TOKEN_REGEX, t)), t


def test_alpha_digit_ratio():
    arr = pa.array(["abc", "a1", "123", ""])
    a = T.alpha_ratio(arr).to_pylist()
    d = T.digit_ratio(arr).to_pylist()
    assert a == [1.0, 0.5, 0.0, 1.0]
    assert d == [0.0, 0.5, 1.0, 0.0]


def test_stable_hash_and_fingerprints():
    assert stable_hash64("x") == stable_hash64("x")
    assert stable_hash64("x") != stable_hash64("y")
    fp1 = rolling_fingerprints("the quick brown fox jumps over the lazy dog")
    fp2 = rolling_fingerprints("the quick brown fox jumps over the lazy dog")
    assert np.array_equal(fp1, fp2)
    fp3 = rolling_fingerprints("a completely different document body here")
    assert len(np.intersect1d(fp1, fp3)) < min(len(fp1), len(fp3))


def test_is_null_or_blank():
    arr = pa.array(["a", "", " ", None])
    assert T.is_null_or_blank(arr).to_pylist() == [False, True, True, True]


def _ngram_hash_rows_u64_reference(texts, n, dim, seed=0):
    """The original uint64 object-loop implementation, kept as the test
    oracle for the uint16 Arrow-buffer fast path (buckets are invariant
    under the narrower arithmetic because dim divides 2^16). Lowering
    via Arrow to match the production kernel's case mapping."""
    import pyarrow.compute as pc
    lowered = pc.utf8_lower(pa.array(
        [None if t is None else str(t) for t in texts])).to_pylist()
    bs, keep = [], []
    for i, t in enumerate(lowered):
        if t is None:
            continue
        b = f" {t} ".encode("utf-8", "ignore")
        if len(b) < n:
            continue
        bs.append(b)
        keep.append(i)
    if not bs:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=len(bs))
    arr = np.frombuffer(b"".join(bs), dtype=np.uint8).astype(np.uint64)
    nw = len(arr) - n + 1
    with np.errstate(over="ignore"):
        h = np.zeros(nw, dtype=np.uint64)
        for j in range(n):
            h = h * np.uint64(1000003) + arr[j: nw + j]
    counts_per = lens - n + 1
    starts = np.zeros(len(bs), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    offs = np.zeros(len(bs) + 1, dtype=np.int64)
    np.cumsum(counts_per, out=offs[1:])
    total = int(offs[-1])
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(offs[:-1], counts_per)
           + np.repeat(starts, counts_per))
    buckets = ((h[idx] ^ np.uint64(seed)) % np.uint64(dim)).astype(np.int64)
    row_of = np.repeat(np.asarray(keep, dtype=np.int64), counts_per)
    return row_of, buckets


def test_ngram_hash_rows_arrow_matches_object_path():
    texts = [None, "", " ", "ab", "abc", "The Quick  Brown_fox!",
             "emoji 🙂 mixed", "a" * 500, "\ttab\nnewline", "número ñ",
             "x", "repeated " * 40]
    for dim, seed in [(4096, 0), (256, 0), (65536, 7), (1 << 12, 12345)]:
        ref = _ngram_hash_rows_u64_reference(texts, 3, dim, seed)
        via_arrow = T.ngram_hash_rows(pa.array(texts, type=pa.string()),
                                      3, dim, seed)
        via_obj = T.ngram_hash_rows(np.asarray(texts, dtype=object),
                                    3, dim, seed)
        for got in (via_arrow, via_obj):
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])
    # chunked + sliced inputs hit the offset-handling branch
    chunked = pa.chunked_array([texts[:5], texts[5:]], type=pa.string())
    ref = _ngram_hash_rows_u64_reference(texts, 3, 4096)
    got = T.ngram_hash_rows(chunked, 3, 4096)
    assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])
    sliced = pa.array(texts, type=pa.string()).slice(2, 8)
    ref = _ngram_hash_rows_u64_reference(texts[2:10], 3, 4096)
    got = T.ngram_hash_rows(sliced, 3, 4096)
    assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])
    # non-power-of-two dim falls back to the object path
    ref = _ngram_hash_rows_u64_reference(texts, 3, 1000)
    got = T.ngram_hash_rows(pa.array(texts, type=pa.string()), 3, 1000)
    assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])


def test_axis_mean_bit_identical_to_per_row():
    # the decode stage's ahash threshold relies on mean(axis=1) over a
    # contiguous (k, 64) float32 block being bit-identical to the
    # per-image 1-D .mean() formulation (same pairwise summation order)
    rng = np.random.default_rng(7)
    small = np.ascontiguousarray(
        rng.random((4096, 64), dtype=np.float32) * 255)
    ref = np.array([row.mean() for row in small], dtype=np.float32)
    got = small.mean(axis=1, dtype=np.float32)
    assert np.array_equal(ref.view(np.int32), got.view(np.int32))


def test_ppl_arrow_matches_list_path():
    from dataquality_cli_ray.stages.perplexity import score_texts_batch
    texts, _ = seed_corpus(n_per_lang=30)
    model = train_char_lm(texts)
    probe = list(texts[:40]) + [None, "", " ", "ab", "UPPER lower 123"]
    via_list = score_texts_batch(model, probe)
    via_arrow = score_texts_batch(model, pa.array(probe, type=pa.string()))
    assert np.array_equal(via_list, via_arrow)
    # per-position probabilities identical to the single-text scorer
    for t in probe[:5]:
        lone = score_texts_batch(model, [t])[0]
        assert abs(lone - score_text(model, t)) < 1e-9


def test_ppl_wide_dim_scorer_matches_score_text():
    """A model whose ``dim`` is not a power of two takes the uint64
    buckets path (gathered through their int64 view): the scorer's
    ``ppl`` equals the per-text scorer's, text by text, up to the batch
    mean's float summation order."""
    texts, _ = seed_corpus(n_per_lang=30)
    model = train_char_lm(texts, dim=1000)
    probe = list(texts[:40]) + ["UPPER lower 123", "ab", "İstanbul"]
    got = PerplexityScorer(model)(
        pa.table({"caption_trimmed": pa.array(probe)}))["ppl"].to_pylist()
    for t, g in zip(probe, got):
        assert abs(g - score_text(model, t)) < 1e-12, t


def test_ppl_scorers_lower_alike():
    """The per-text scorer and the batch scorer lower text the same way
    (Arrow's simple case mapping), also where Python's ``str.lower``
    differs: 'İ' (two code points under str.lower), a final capital
    sigma, the Kelvin sign and the titlecase digraph 'ǅ'."""
    from dataquality_cli_ray.stages.perplexity import score_texts_batch
    texts, _ = seed_corpus(n_per_lang=30)
    model = train_char_lm(texts)
    probe = ["İstanbul", "ΟΔΟΣ", "\u212a", "ǅ"]
    batch = score_texts_batch(model, probe)
    for t, b in zip(probe, batch):
        assert abs(score_text(model, t) - b) < 1e-12, t
