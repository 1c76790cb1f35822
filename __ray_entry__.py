"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in ``dataquality_cli_ray``) calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline smoke: quality-filter + scrub + dedup over the
    sf0.001 documents table (text mode of the image+caption pipeline;
    the dedup key is a 64-bit hash of the text)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataquality_cli_ray.functions.hashing import stable_hash64_array
    from dataquality_cli_ray.pipelines.quality import (
        dup_losers_from_table,
        quality_pipeline,
    )
    from dataquality_cli_ray.pipelines.textqa import train_langid_on_dataset
    from dataquality_cli_ray.stages.perplexity import train_char_lm
    from dataquality_cli_ray.stages.rules import QualityConfig

    sf_dir = "/root/testdata/sf0.001"
    cfg = QualityConfig(caption_col="text", check_fmt=False,
                        dedup_key="text_hash", id_col="doc_id")
    full = rd.read_parquet(f"{sf_dir}/documents.parquet")
    # models trained on the corpus itself (distributed partial counts)
    langid_model = train_langid_on_dataset(full, "text", "lang")
    sample = [r["text"] for r in full.take(200)]
    ppl_model = train_char_lm(sample)
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    docs = docs.append_column(
        "text_hash", pa.array(stable_hash64_array(docs["text"])))
    out = quality_pipeline(rd.from_arrow(docs),
                           dup_losers_from_table(docs, "text_hash", "doc_id"),
                           cfg, langid_model, ppl_model)
    return out.select_columns(
        ["doc_id", "keep", "drop_reason", "caption_scrubbed",
         "lang_pred", "lang_score", "ppl", "pii_hits"]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from dataquality_cli_ray.entrypoints import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    from dataquality_cli_ray.entrypoints import build_oracles

    return build_oracles()
