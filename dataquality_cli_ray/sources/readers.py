"""Sources: file discovery, CSV (with sniffing), parquet, lance-gated.

Reference parity (SURVEY.md §2.1):
- S1 DiscoverFiles (``internal/connectors/filescanner.go:28-132``):
  recursive/non-recursive walk, extension filter (case-insensitive),
  min/max size, modified before/after, error when zero matches →
  ``discover_files`` below, feeding the file list to ``read_*`` so
  size/mtime predicates prune BEFORE any data is read.
- S2-S4 CSV readers: Ray's Arrow CSV reader is strictly more correct
  than the reference's naive scanner (no quote handling,
  ``adaptive_streaming_engine.go:125-153``); the custom parser FSM's
  config surface (``csv_parser.go:23-46``) maps to pyarrow options.
- S5 delimiter sniffing (``csv_parser.go:352-391``): head-sample count
  of , ; tab | — most frequent wins. Reimplemented.
- S6 UTF-8 validation (``csv_parser.go:393-396``).
- Parquet: one local reader, :func:`read_parquet`, in work units
  planned from the files' footers; object-store URIs keep Ray's reader.
- Lance: the north rule names Lance tables; the lib is absent in this
  sandbox, so the reader is gated behind import-try with a parquet
  fallback (same Dataset downstream).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import pyarrow as pa
import ray
import ray.data as rd
from ray.data.block import BlockMetadata

from ..pipelines.exchange import cluster_cpus


@dataclass
class DiscoveryOptions:
    recursive: bool = True
    min_size: int = 0
    max_size: int | None = None
    modified_after: float | None = None   # unix ts
    modified_before: float | None = None


def discover_files(root: str, ext: str, options: DiscoveryOptions | None = None
                   ) -> list[dict]:
    """Returns [{path, size, mtime}] matching the filters; raises if no
    files match (reference errors on zero matches,
    filescanner.go:48-55)."""
    opt = options or DiscoveryOptions()
    ext = ext.lower().lstrip(".")
    out = []
    if opt.recursive:
        walker = os.walk(root)
    else:
        try:
            entries = [(root, [], os.listdir(root))]
        except NotADirectoryError:
            entries = [(os.path.dirname(root), [], [os.path.basename(root)])]
        walker = entries
    for dirpath, _, files in walker:
        for f in files:
            if not f.lower().endswith("." + ext):
                continue
            p = os.path.join(dirpath, f)
            try:
                st = os.stat(p)
            except OSError:
                continue
            if st.st_size < opt.min_size:
                continue
            if opt.max_size is not None and st.st_size > opt.max_size:
                continue
            if opt.modified_after is not None and st.st_mtime <= opt.modified_after:
                continue
            if opt.modified_before is not None and st.st_mtime >= opt.modified_before:
                continue
            out.append({"path": p, "size": st.st_size, "mtime": st.st_mtime})
    if not out:
        raise FileNotFoundError(f"no .{ext} files found under {root}")
    return sorted(out, key=lambda d: d["path"])


def detect_delimiter(sample: bytes, max_lines: int = 5) -> str:
    """Reference S5 sniffer: count , ; tab | over ≤5 sample lines; most
    frequent wins, ',' on ties (csv_parser.go:352-391)."""
    lines = sample.split(b"\n")[:max_lines]
    head = b"\n".join(lines)
    counts = {",": head.count(b","), ";": head.count(b";"),
              "\t": head.count(b"\t"), "|": head.count(b"|")}
    best = max(counts.items(), key=lambda kv: (kv[1], kv[0] == ","))
    return best[0] if best[1] > 0 else ","


def validate_utf8(data: bytes) -> bool:
    """Reference S6 (csv_parser.go:393-396)."""
    try:
        data.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


def read_csv_auto(paths: str | list[str], tolerate_ragged: bool = True,
                  ragged: str = "skip", **kw) -> "rd.Dataset":
    """CSV → Dataset with sniffed delimiter and permissive parsing.

    Ragged-row handling:

    - ``ragged="skip"`` (default): Arrow's chunked CSV reader; invalid
      rows are DROPPED (Arrow cannot repair them in-stream).
    - ``ragged="truncate"``: the reference's tolerate semantics
      (``adaptive_streaming_engine.go:199-202`` ``FieldsPerRecord=-1``
      keeps short/long rows) — rows with extra fields are truncated to
      the header width, short rows padded with nulls; every data line
      survives. One Ray task per file (the dirty-CSV profile path; the
      strict path keeps Arrow's chunked reads)."""
    from pyarrow import csv as pacsv

    first = paths[0] if isinstance(paths, list) else paths
    with open(first, "rb") as f:
        delim = detect_delimiter(f.read(64 * 1024))
    if ragged == "truncate":
        plist = list(paths) if isinstance(paths, (list, tuple)) else [paths]
        refs = [_read_csv_truncate_task.remote(p, delim) for p in plist]
        return rd.from_arrow_refs(refs)
    popts = {"delimiter": delim}
    if tolerate_ragged:
        popts["invalid_row_handler"] = lambda row: "skip"
    parse_options = pacsv.ParseOptions(**popts)
    return rd.read_csv(paths, parse_options=parse_options, **kw)


def _read_csv_truncate_table(path: str, delim: str) -> "pa.Table":
    """One file → Arrow table with reference tolerate semantics: extra
    fields ignored, short rows null-padded (pandas ``on_bad_lines``
    callable is invoked only for too-MANY-field rows; too-few rows are
    NaN-padded natively)."""
    import pandas as pd
    import pyarrow as pa

    with open(path, encoding="utf-8", errors="replace") as f:
        header = f.readline().rstrip("\r\n").split(delim)
    ncols = len(header)
    import warnings

    with warnings.catch_warnings():
        # pandas warns that extra fields are dropped — that IS the
        # requested truncate semantics
        warnings.simplefilter("ignore")
        df = pd.read_csv(
            path, sep=delim, engine="python", index_col=False,
            on_bad_lines=lambda row: row[:ncols],
        )
    return pa.Table.from_pandas(df, preserve_index=False)


@ray.remote
def _read_csv_truncate_task(path: str, delim: str):
    return _read_csv_truncate_table(path, delim)


try:  # Ray's default read_json filter (private module, so guarded)
    from ray.data._internal.datasource.json_datasource import (
        JSON_FILE_EXTENSIONS)
except ImportError:  # pragma: no cover - Ray layout change
    JSON_FILE_EXTENSIONS = ["json", "jsonl", "json.gz", "jsonl.gz"]
NDJSON_FILE_EXTENSIONS = [*JSON_FILE_EXTENSIONS, "ndjson", "ndjson.gz"]


def read_jsonl(paths: str | list[str], columns: list[str] | None = None,
               **kw) -> "rd.Dataset":
    """JSONL (newline-delimited JSON) → Dataset.

    The dominant text-corpus interchange format (C4 / Pile / RedPajama
    dumps ship as ``.jsonl[.gz]``); the reference never grew past CSV.
    Ray's ``read_json`` wraps the Arrow JSON reader — one read task per
    file, gzip auto-detected by extension, rows with missing keys
    null-padded. Arrow's JSON parser has no column pushdown, so the
    projection runs immediately after the parse (fused into the read
    task) and only requested columns reach the object store.

    Ray's default extension filter omits ``.ndjson``; it is added here
    so a directory or file of ``.ndjson[.gz]`` is not "no input files"."""
    kw.setdefault("file_extensions", NDJSON_FILE_EXTENSIONS)
    ds = rd.read_json(paths, **kw)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def is_lance_dataset(path) -> bool:
    """True when the path is a Lance dataset (by layout; cheap stat)."""
    p = str(path)
    return p.endswith(".lance") or os.path.isdir(os.path.join(p, "_versions"))


def read_table(path: str, columns: list[str] | None = None, **kw) -> "rd.Dataset":
    """Format-dispatching table reader: Lance if available and the path
    is a Lance dataset; JSONL / CSV by extension; else parquet. One
    call site for the north rule's 'read via lance → Dataset'."""
    if is_lance_dataset(path):
        try:
            import lance  # noqa: F401

            return rd.read_lance(path, columns=columns, **kw)
        except ImportError:
            pass
    low = str(path).lower()
    if low.endswith((".jsonl", ".jsonl.gz", ".ndjson", ".ndjson.gz")):
        return read_jsonl(path, columns=columns, **kw)
    if low.endswith(".csv"):
        ds = read_csv_auto(path, **kw)
        return ds.select_columns(columns) if columns else ds
    return read_parquet(path, columns=columns, **kw)


def table_rows(path) -> tuple[int, list[str] | None]:
    """(total rows, parquet file list or None) for a parquet dir/file/
    file list or a Lance dataset — metadata only (Lance counts from its
    manifest and has no file list). The file list is the one the row
    count came from: read it, not the directory, so the probe and the
    reads see the same files."""
    if not isinstance(path, (list, tuple)) and is_lance_dataset(path):
        try:
            import lance

            return lance.dataset(str(path)).count_rows(), None
        except ImportError:
            pass
    files = parquet_files(path)
    return parquet_footer_rows(files)[0], files


def parquet_files(path) -> list[str]:
    """The sorted ``.parquet`` files of a file, a directory (walked
    recursively) or a list of files. Names starting with ``.`` or ``_``
    are skipped, as Ray's and pyarrow's directory readers skip them;
    unlike those readers, non-parquet files (a stray ``notes.txt``) are
    skipped too instead of failing the read."""
    if isinstance(path, (list, tuple)):
        return [str(p) for p in path]
    if not os.path.isdir(path):
        return [str(path)]
    files: list[str] = []
    for root, dirs, names in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        files.extend(os.path.join(root, f) for f in names
                     if f.endswith(".parquet")
                     and not f.startswith((".", "_")))
    return sorted(files)


def parquet_footer_rows(path) -> tuple[int, int]:
    """(total rows, file count) for a local parquet file/dir/file list
    (see :func:`parquet_files`) from footers ONLY (see
    :func:`parquet_file_rows`)."""
    files = parquet_files(path)
    return sum(parquet_file_rows(files)), len(files)


class Footer(NamedTuple):
    num_rows: int
    row_groups: list[tuple[int, int]]  # (rows, uncompressed bytes) each
    schema: "pa.Schema"


# footer cache keyed by (path, mtime_ns, size): a table read several
# times per run (row-count probes, the work-unit planner, each read)
# pays its footer reads once; a changed file is read again
_FOOTER_CACHE: dict = {}


def _footers(files: list[str]) -> list[Footer]:
    """The :class:`Footer` of each local parquet file, read at most once
    per process (see ``_FOOTER_CACHE``).

    Cached entries are looked up first; the misses are fetched with a
    small thread pool (pyarrow releases the GIL during file I/O, and a
    many-file table pays one open+parse per file), so a fully cached
    call starts no thread."""
    import pyarrow.parquet as pq

    cache = _FOOTER_CACHE

    def key_of(f: str):
        try:
            st = os.stat(f)
        except OSError:
            return None
        return (f, st.st_mtime_ns, st.st_size)

    def read(f: str, key):
        md = pq.read_metadata(f)
        meta = Footer(md.num_rows, [(md.row_group(i).num_rows,
                                     md.row_group(i).total_byte_size)
                                    for i in range(md.num_row_groups)],
                      md.schema.to_arrow_schema())
        if key is not None:
            if len(cache) > 65536:
                cache.clear()
            cache[key] = meta
        return meta

    keys = [key_of(f) for f in files]
    out = [cache.get(k) if k is not None else None for k in keys]
    miss = [i for i, m in enumerate(out) if m is None]
    if len(miss) <= 4:
        for i in miss:
            out[i] = read(files[i], keys[i])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as ex:
            for i, meta in zip(miss, ex.map(
                    read, [files[i] for i in miss], [keys[i] for i in miss])):
                out[i] = meta
    return out


def parquet_file_rows(files: list[str]) -> list[int]:
    """Per-file footer row counts of local parquet ``files`` (each
    footer read at most once per process; see :func:`_footers`)."""
    return [m.num_rows for m in _footers(files)]


# A unit holds at least UNIT_MIN_ROWS rows, so a run over many small
# files packs them into a few tasks; a piece (the row groups one unit
# reads from one file) holds at most PIECE_MAX_BYTES uncompressed, and
# the quality plan's task labels a unit in batches of at most that size.
# 4,096 rather than 1,024: at 4 CPUs over 8,192 rows in 8 files (2 vs 8
# units) rows/s was the same, CPU per row 30 % and peak RSS 21 % lower.
UNIT_MIN_ROWS = 4096
PIECE_MAX_BYTES = 32 << 20


def plan_units(files: list[str], row_groups: list[list[tuple[int, int]]],
               cpus: int) -> list[list[tuple[str, list[int]]]]:
    """Work units for reading ``files``, whose row groups are
    ``row_groups[i]`` = [(rows, uncompressed bytes), ...]: one unit per
    CPU, each a list of ``(file, [row group index, ...])`` pieces.

    With the target T = max(UNIT_MIN_ROWS, ceil(total rows / cpus)),
    each file splits at row-group boundaries into pieces of at most T
    rows and PIECE_MAX_BYTES (a single row group over either limit is a
    piece by itself), and consecutive pieces pack, in file order, into
    units of at most T rows. Row groups with no rows are skipped; when
    no row is left, one unit reads no row group of the first file, so
    the read still has the input's schema. One unit per CPU, not two:
    each task and each kernel call pays a fixed cost (CLAUDE.md)."""
    total = sum(r for groups in row_groups for r, _ in groups)
    target = max(UNIT_MIN_ROWS, -(-total // max(1, cpus)))
    pieces = []                                  # (file, groups, rows)
    for f, groups in zip(files, row_groups):
        cur, rows, size = [], 0, 0
        for i, (r, b) in enumerate(groups):
            if r == 0:
                continue
            if cur and (rows + r > target or size + b > PIECE_MAX_BYTES):
                pieces.append((f, cur, rows))
                cur, rows, size = [], 0, 0
            cur.append(i)
            rows, size = rows + r, size + b
        if cur:
            pieces.append((f, cur, rows))
    units, cur, rows = [], [], 0
    for f, groups, r in pieces:
        if cur and rows + r > target:
            units.append(cur)
            cur, rows = [], 0
        cur.append((f, groups))
        rows += r
    if cur:
        units.append(cur)
    if not units and files:
        units.append([(files[0], [])])
    return units


def parquet_units(files: list[str], cpus: int) -> list:
    """:func:`plan_units` for local parquet ``files`` at ``cpus`` CPUs,
    from their footers (read at most once per process)."""
    return plan_units(files, [m.row_groups for m in _footers(files)], cpus)


def read_unit(unit, columns: list[str] | None = None,
              with_path: bool = False):
    """The rows of one work unit (``[(file, [row group, ...]), ...]``,
    see :func:`plan_units`), read piece by piece and joined into tables
    of at most PIECE_MAX_BYTES (a piece over it alone), so a unit is
    never held whole. With ``with_path`` each row gets a ``path`` column
    naming its file. A unit reading no row group yields one empty table
    with the file's schema."""
    import pyarrow.parquet as pq

    batch, size = [], 0
    for f, groups in unit:
        t = pq.ParquetFile(f).read_row_groups(groups, columns=columns)
        if with_path:
            t = t.append_column(
                "path", pa.repeat(pa.scalar(f, pa.string()), t.num_rows))
        if batch and size + t.nbytes > PIECE_MAX_BYTES:
            yield pa.concat_tables(batch, promote_options="permissive")
            batch, size = [], 0
        batch.append(t)
        size += t.nbytes
    if batch:
        yield pa.concat_tables(batch, promote_options="permissive")


class ParquetUnitsDatasource(rd.Datasource):
    """Local parquet ``files`` as one ``ReadTask`` per work unit
    (:func:`parquet_units`); each task runs :func:`read_unit`. A unit's
    size is its row groups' uncompressed bytes, all columns counted.
    Each task carries its first file's (pruned) schema, so
    ``Dataset.schema()`` reads no data."""

    def __init__(self, files: list[str], columns: list[str] | None):
        self.units = parquet_units(files, cluster_cpus())
        self.columns = columns
        self.footers = dict(zip(files, _footers(files)))

    def _meta(self, unit) -> BlockMetadata:
        groups = [self.footers[f].row_groups[i] for f, g in unit for i in g]
        return BlockMetadata(
            num_rows=sum(r for r, _ in groups),
            size_bytes=sum(b for _, b in groups), exec_stats=None,
            input_files=list(dict.fromkeys(f for f, _ in unit)))

    def _schema(self, unit) -> "pa.Schema":
        schema = self.footers[unit[0][0]].schema
        if self.columns is None:
            return schema
        return pa.schema(map(schema.field, dict.fromkeys(self.columns)),
                         metadata=schema.metadata)

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._meta(u).size_bytes for u in self.units)

    def get_read_tasks(self, parallelism: int) -> list:
        return [rd.ReadTask(partial(read_unit, u, self.columns), self._meta(u),
                            schema=self._schema(u))
                for u in self.units]


def read_parquet(path, columns: list[str] | None = None) -> "rd.Dataset":
    """Parquet (a file, a directory or a file list) → Dataset.

    A local input is read in the work units :func:`parquet_units` plans
    from its cached footers (files from :func:`parquet_files`), one
    ``ReadTask`` per unit, each reading only ``columns`` of its row
    groups. At least one block per CPU: with fewer units than CPUs (a
    one-row-group file is one unit), Ray's ``SplitBlocks`` splits the
    read's blocks, so a downstream batched map still runs on every CPU
    without the file being read twice. Object-store URIs keep Ray's
    reader.

    Not ``from_items(units).map_batches(read)``: that map fuses with a
    following ``map_batches(batch_size=...)``, and the fused operator
    keeps the unit list's task count, one task for a one-unit input. A
    read whose blocks Ray splits is not fused with the map, which then
    runs over the split blocks."""
    paths = path if isinstance(path, (list, tuple)) else [path]
    if any("://" in str(p) for p in paths):
        return rd.read_parquet(path, columns=columns)
    files = parquet_files(path)
    if not files:
        raise FileNotFoundError(f"no .parquet files in {path}")
    source = ParquetUnitsDatasource(files, columns)
    return rd.read_datasource(
        source, override_num_blocks=max(len(source.units), cluster_cpus()))
