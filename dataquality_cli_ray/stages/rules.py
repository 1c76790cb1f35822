"""Heuristic quality rules — the reference's quality checks as vectorized
Arrow predicates, composed in ONE ``map_batches`` stage.

Reference analogues (SURVEY.md §2.2): M2 null/blank
(``adaptive_streaming_engine.go:206-209``), M5 field-size guard
(``csv_parser.go:185-187``) → length bounds, M7 file-type gate
(``cmd/describe.go:137-139``) → fmt whitelist; char-class ratios are the
north-rule extension. The ``PipelineStage`` chain idea mirrors the
reference's latent ``PipelineProcessor`` (``parallel_engine.go:767-798``).

Rule ORDER is part of the spec: the first violated rule (in
``RULE_ORDER``) becomes ``drop_reason``. Stateful stages (langid,
perplexity, dedup) append their own flag columns; ``finalize_decision``
folds everything into ``keep``/``drop_reason`` in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T


@dataclass(frozen=True)
class QualityConfig:
    caption_col: str = "caption"
    min_len: int = 3
    max_len: int = 1024
    min_alpha_ratio: float = 0.5
    max_digit_ratio: float = 0.5
    fmt_whitelist: tuple = ("jpeg", "png", "webp")
    check_fmt: bool = True            # off for text-only tables
    # stateful-stage thresholds
    langid_min_score: float = 0.22    # max-cosine below this => lang_unknown
    max_perplexity: float = 14.0      # bits/char above this => high_perplexity
    # image-caption alignment (CLIP-archetype, stages/align.py):
    # None = stage off (default — flagship golden unchanged); a float
    # enables the dual-tower cosine rule (drop when score < threshold)
    align_threshold: float | None = None
    # decoded-dimension gates (LAION-style curation: drop tiny or
    # extreme-aspect images); None = off. Evaluated on DECODED dims
    # (dec_w/dec_h), so they compose with meta-validation for free.
    min_image_px: int | None = None      # min(dec_w, dec_h) lower bound
    max_aspect: float | None = None      # max(w,h)/min(w,h) upper bound
    # low-information gate (near-solid / flat images carry no training
    # signal): drop decodable rows whose pixel population-std falls
    # below this; None = off. Uses the contrast the decode stage
    # already computed — the gate itself touches no pixels.
    min_contrast: float | None = None
    # dedup
    dedup_key: str = "phash"
    id_col: str = "image_id"


# Order matters: first firing rule = drop_reason. Heuristics first
# (cheap), then model stages, then the wide dedup decision.
HEURISTIC_RULES = ("null_blank", "length_bounds", "char_class", "fmt_whitelist")
STATEFUL_RULES = ("decode_error", "image_size", "low_information",
                  "lang_unknown", "high_perplexity", "misaligned")
WIDE_RULES = ("phash_dup",)
RULE_ORDER = HEURISTIC_RULES + STATEFUL_RULES + WIDE_RULES


class HeuristicRules:
    """Stateless map_batches callable: adds one ``rule_<name>`` bool
    column per heuristic rule + the trimmed caption."""

    def __init__(self, cfg: QualityConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        cap = batch[cfg.caption_col]
        trimmed_raw = pc.utf8_trim_whitespace(cap)
        trimmed = trimmed_raw.fill_null("")
        # same rule as T.is_null_or_blank(cap), reusing the trim pass
        null_blank = pc.or_kleene(
            pc.is_null(cap), pc.equal(trimmed_raw, "")).fill_null(True)
        ln = pc.utf8_length(trimmed)
        length_bounds = pc.and_(
            pc.invert(null_blank),
            pc.or_(pc.less(ln, cfg.min_len), pc.greater(ln, cfg.max_len)),
        )
        alpha, digit = T.char_class_ratios(trimmed, ln)
        char_class = pc.and_(
            pc.invert(null_blank),
            pa.array((alpha < cfg.min_alpha_ratio)
                     | (digit > cfg.max_digit_ratio)),
        )
        out = batch.append_column("caption_trimmed", trimmed)
        out = out.append_column("rule_null_blank", null_blank)
        out = out.append_column("rule_length_bounds", length_bounds)
        out = out.append_column("rule_char_class", char_class)
        if cfg.check_fmt and "fmt" in batch.column_names:
            bad_fmt = pc.invert(
                pc.is_in(batch["fmt"], value_set=pa.array(list(cfg.fmt_whitelist)))
            ).fill_null(True)
        else:
            bad_fmt = pa.array([False] * len(batch))
        out = out.append_column("rule_fmt_whitelist", bad_fmt)
        return out


def finalize_decision(batch: pa.Table) -> pa.Table:
    """Fold all present ``rule_*`` columns into keep/drop_reason using
    RULE_ORDER (first violation wins)."""
    n = len(batch)
    reason = pa.array([None] * n, type=pa.string())
    keep = pa.array([True] * n, type=pa.bool_())
    for name in RULE_ORDER:
        col = f"rule_{name}"
        if col not in batch.column_names:
            continue
        fired = batch[col].combine_chunks() if isinstance(batch[col], pa.ChunkedArray) else batch[col]
        fired = pc.fill_null(fired, False)
        newly = pc.and_(fired, pc.is_null(reason))
        reason = pc.if_else(newly, pa.scalar(name, type=pa.string()), reason)
        keep = pc.and_(keep, pc.invert(fired))
    out = batch.append_column("keep", keep)
    return out.append_column("drop_reason", reason)


def rule_hit_counts(batch: pa.Table) -> dict[str, int]:
    """Per-batch lineage counters: fires per rule (for manifests)."""
    out = {}
    for name in RULE_ORDER:
        col = f"rule_{name}"
        if col in batch.column_names:
            out[name] = pc.sum(pc.fill_null(batch[col], False).cast(pa.int64())).as_py() or 0
    return out
