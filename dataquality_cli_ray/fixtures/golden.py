"""Straight-line single-process GOLDEN ORACLE for the flagship quality
pipeline (FIXTURES.md §3: "computed once by a straight-line
single-process Python oracle implementing the same rule spec").

This is the 'reference labels' source for the F1 ≥ 0.99 keep/drop check
and the exact scrubbed-caption equality check. It deliberately shares
NO execution machinery with the Ray pipeline: plain Python loops, `re`
(not Arrow/RE2) for the scrub, dict-based dedup. It *does* share the
rule constants/models (they are the spec).
"""

from __future__ import annotations

import numpy as np

from ..functions import imagefake as IF
from ..functions.text import ngram_count_matrix
from ..stages.perplexity import score_text
from ..stages.rules import QualityConfig
from ..stages.scrub import scrub_python


def _langid_one(model: dict, text: str) -> tuple[str, float]:
    counts = ngram_count_matrix(np.array([text], dtype=object), model["n"], model["dim"])[0]
    nrm = np.linalg.norm(counts)
    if nrm == 0:
        nrm = 1.0
    sims = (counts / nrm) @ model["profiles"].astype(np.float32).T
    best = int(np.argmax(sims))
    return model["langs"][best], float(sims[best])


def golden_labels(rows: list[dict], cfg: QualityConfig,
                  langid_model: dict, ppl_model: dict) -> list[dict]:
    """rows: list of dicts with image_id, bytes, w, h, fmt, caption,
    phash. Returns per-row dicts: keep, drop_reason, caption_scrubbed,
    lang_pred, ppl."""
    # dedup decision first (independent of other rules, same as pipeline):
    # winner = min image_id per phash; loser iff group size > 1 and not
    # winner; null phashes are never dups
    groups: dict[int, list[str]] = {}
    for r in rows:
        if r["phash"] is not None:
            groups.setdefault(r["phash"], []).append(r["image_id"])
    losers = set()
    for ph, ids in groups.items():
        if len(ids) > 1:
            w = min(ids)
            losers.update(i for i in ids if i != w)

    out = []
    for r in rows:
        cap = r["caption"]
        trimmed = (cap or "").strip()
        reason = None

        def alpha_digit(s):
            if not s:
                return 1.0, 0.0
            a = sum(c.isascii() and c.isalpha() for c in s)
            d = sum(c.isdigit() for c in s)
            return a / len(s), d / len(s)

        if cap is None or trimmed == "":
            reason = "null_blank"
        elif len(trimmed) < cfg.min_len or len(trimmed) > cfg.max_len:
            reason = "length_bounds"
        else:
            ar, dr = alpha_digit(trimmed)
            if ar < cfg.min_alpha_ratio or dr > cfg.max_digit_ratio:
                reason = "char_class"
        if reason is None and cfg.check_fmt and r["fmt"] not in cfg.fmt_whitelist:
            reason = "fmt_whitelist"
        if reason is None:
            try:
                arr, _ = IF.decode_image(r["bytes"])
                if arr.shape[1] != r["w"] or arr.shape[0] != r["h"]:
                    raise IF.CorruptImageError("meta mismatch")
            except Exception:
                reason = "decode_error"
        lang, score = _langid_one(langid_model, trimmed)
        if reason is None and score < cfg.langid_min_score:
            reason = "lang_unknown"
        ppl = score_text(ppl_model, trimmed)
        if not np.isfinite(ppl):
            ppl = 999.0
        if reason is None and ppl > cfg.max_perplexity:
            reason = "high_perplexity"
        if reason is None and r["image_id"] in losers:
            reason = "phash_dup"
        scrubbed, hits = scrub_python(trimmed)
        out.append(
            {
                "image_id": r["image_id"],
                "keep": reason is None,
                "drop_reason": reason,
                "caption_scrubbed": scrubbed,
                "lang_pred": lang,
                "ppl": ppl,
                "pii_hits": hits,
            }
        )
    return out
