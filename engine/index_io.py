"""Index segment I/O: atomic per-part commits, manifest, checkpoint/resume.

The index layout (SURVEY.md §1.2 "on-disk index"):

    index_dir/
      part=00000/            one per term partition (hash64(term) % P)
        terms.parquet        term -> df, cf, byte ranges (schema.TERMS)
        postings.bin         concatenated delta+varbyte posting blocks
        skips.bin            concatenated block-max skip arrays
        _COMMIT.json         PartMetrics; presence == durably committed
      docmeta=00000/         one per docmeta partition (hash(doc_id) % D)
        docmeta.parquet      doc_id (sorted) -> url, doclen
        _COMMIT.json
      _manifest.json         finalize(): config + rolled-up stats

Resumability (north_rule "resumable from checkpoint with per-partition
lineage + metrics"): each part directory is written to a ``.tmp`` path
and atomically renamed, the commit marker written last.  A rerun lists
committed parts and anti-joins them out of the shuffle — the reference's
``get_files_to_index`` primitive
(/root/reference/rust/src/file_loader.rs:118-126) promoted to the core
checkpoint mechanism.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from engine.config import EngineConfig
from engine.metrics import PartMetrics

MANIFEST = "_manifest.json"
COMMIT = "_COMMIT.json"
DELETES = "_deletes.parquet"


class CorruptIndexError(OSError):
    """A part the manifest lists is missing or unreadable: a server
    fault, never an empty lookup (and never a FileNotFoundError, which
    callers read as an absent optional sidecar)."""


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone-delete documents: union ``doc_ids`` into the index's
    deletion overlay (``_deletes.parquet``, one sorted-unique int64
    column) without touching any segment.  Lucene-style semantics:
    deleted docs stop appearing in results immediately (the loader
    masks them at decode), but corpus statistics (N, avgdl, df) stay
    STALE until ``engine.merge.compact_index`` rewrites the segments.
    Atomic via tmp+replace; idempotent.  Returns the total tombstone
    count after the union."""
    import numpy as np
    new = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    existing = load_deletes(index_dir)
    if existing.size:
        new = np.union1d(existing, new)
    path = os.path.join(index_dir, DELETES)
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(new, pa.int64())}), tmp)
    os.replace(tmp, path)
    return int(new.size)


def load_deletes(index_dir: str):
    """-> sorted-unique int64 ndarray of tombstoned doc_ids ([] if none)."""
    import numpy as np
    path = os.path.join(index_dir, DELETES)
    if not os.path.exists(path):
        return np.empty(0, dtype=np.int64)
    return pq.read_table(path).column("doc_id").to_numpy().astype(np.int64)


def part_dir(index_dir: str, kind: str, part: int) -> str:
    prefix = "part" if kind == "postings" else "docmeta"
    return os.path.join(index_dir, f"{prefix}={part:05d}")


def _atomic_write_dir(final_dir: str, files: dict[str, bytes],
                      tables: dict[str, pa.Table], metrics: PartMetrics) -> None:
    """Write payload files + tables + commit marker, atomically rename.

    Idempotent under task retry: an already-committed part is left
    untouched; a half-written final dir (no commit marker) is replaced.
    """
    if os.path.exists(os.path.join(final_dir, COMMIT)):
        return
    tmp = final_dir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    for name, blob in files.items():
        with open(os.path.join(tmp, name), "wb") as f:
            f.write(blob)
    for name, table in tables.items():
        pq.write_table(table, os.path.join(tmp, name))
    with open(os.path.join(tmp, COMMIT), "w") as f:
        f.write(metrics.to_json())
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp, final_dir)


def write_postings_part(index_dir: str, part: int, terms: pa.Table,
                        postings_blob: bytes, skips_blob: bytes,
                        metrics: PartMetrics,
                        positions_blob: bytes | None = None) -> None:
    files = {"postings.bin": postings_blob, "skips.bin": skips_blob}
    if positions_blob is not None:
        files["positions.bin"] = positions_blob
    _atomic_write_dir(
        part_dir(index_dir, "postings", part),
        files=files,
        tables={"terms.parquet": terms},
        metrics=metrics,
    )


def write_docmeta_part(index_dir: str, part: int, docmeta: pa.Table,
                       metrics: PartMetrics) -> None:
    _atomic_write_dir(
        part_dir(index_dir, "docmeta", part),
        files={},
        tables={"docmeta.parquet": docmeta},
        metrics=metrics,
    )


def committed_parts(index_dir: str) -> dict[tuple[str, int], PartMetrics]:
    """Scan for committed parts -> {(kind, part): metrics}. Resume input."""
    out: dict[tuple[str, int], PartMetrics] = {}
    if not os.path.isdir(index_dir):
        return out
    for name in os.listdir(index_dir):
        if "=" not in name or name.endswith(".tmp"):
            continue
        commit = os.path.join(index_dir, name, COMMIT)
        if not os.path.exists(commit):
            continue
        prefix, num = name.split("=")
        kind = "postings" if prefix == "part" else "docmeta"
        with open(commit) as f:
            out[(kind, int(num))] = PartMetrics.from_json(f.read())
    return out


def finalize(index_dir: str, cfg: EngineConfig, lineage: dict | None = None) -> dict:
    """Roll committed part metrics into the manifest (corpus stats live
    here: N, avgdl — the reference delegates IDF to the vector DB,
    /root/reference/examples/hybridsearch.py:40-42; ours is explicit)."""
    parts = committed_parts(index_dir)
    n_docs = sum(m.n_docs for (k, _), m in parts.items() if k == "docmeta")
    sum_dl = sum(m.sum_doclen for (k, _), m in parts.items() if k == "docmeta")
    manifest = {
        "version": 1,
        "config": cfg.to_dict(),
        "lineage": lineage or {},
        "stats": {
            "n_docs": n_docs,
            "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
            "total_tokens": sum_dl,
            "n_terms": sum(m.n_terms for (k, _), m in parts.items() if k == "postings"),
            "n_postings": sum(m.n_postings for (k, _), m in parts.items() if k == "postings"),
        },
        "parts": {
            f"{kind}:{part:05d}": {
                "n_terms": m.n_terms, "n_postings": m.n_postings,
                "n_docs": m.n_docs, "checksum": m.checksum,
                "wall_s": round(m.wall_s, 4), "lineage": m.lineage,
            }
            for (kind, part), m in sorted(parts.items())
        },
    }
    tmp = os.path.join(index_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(index_dir, MANIFEST))
    return manifest


def load_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, MANIFEST)) as f:
        return json.load(f)


def _mmap_readonly(path: str):
    """Read-only mmap of a file; zero-length files map to b'' (mmap
    rejects empty mappings).  Slicing a mmap copies only the slice —
    a term lookup touches just its byte range, not the whole blob."""
    import mmap
    size = os.path.getsize(path)
    if size == 0:
        return b""
    with open(path, "rb") as f:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def read_postings_part(index_dir: str, part: int, use_mmap: bool = False):
    """-> (terms table, postings bytes-like, skips bytes-like) for one
    segment.  ``use_mmap=True`` maps the blobs instead of reading them:
    the page cache backs lookups, resident memory tracks the term WORKING
    SET rather than the segment size — the serving-tier mode."""
    d = part_dir(index_dir, "postings", part)
    terms = pq.read_table(os.path.join(d, "terms.parquet"))
    if use_mmap:
        return (terms, _mmap_readonly(os.path.join(d, "postings.bin")),
                _mmap_readonly(os.path.join(d, "skips.bin")))
    with open(os.path.join(d, "postings.bin"), "rb") as f:
        postings = f.read()
    with open(os.path.join(d, "skips.bin"), "rb") as f:
        skips = f.read()
    return terms, postings, skips


def read_positions_blob(index_dir: str, part: int,
                        use_mmap: bool = False):
    """positions.bin of one positional segment — loaded lazily by the
    phrase path so BM25-only serving never touches it.  A missing file
    raises ``CorruptIndexError``: its offsets would read nothing."""
    path = os.path.join(part_dir(index_dir, "postings", part),
                        "positions.bin")
    if not os.path.exists(path):
        raise CorruptIndexError(
            f"positional postings part {part} has no {path}")
    if use_mmap:
        return _mmap_readonly(path)
    with open(path, "rb") as f:
        return f.read()


def read_docmeta(index_dir: str, cfg: EngineConfig,
                 doc_range: tuple[int, int] | None = None) -> pa.Table:
    """All docmeta parts, optionally filtered to a doc-id range [lo, hi).

    The filter is applied PER PART before concat so a doc-range shard's
    transient peak is one part + its slice, and resident memory is
    O(corpus / n_ranges) — docmeta parts are doc_id % D so every part
    contributes ~1/D of the range.  A part the manifest lists but that
    is gone from disk raises ``CorruptIndexError``: without its docs,
    postings would resolve to other documents' slots."""
    listed = load_manifest(index_dir).get("parts", {})
    tables = []
    for p in range(cfg.docmeta_parts):
        path = os.path.join(part_dir(index_dir, "docmeta", p), "docmeta.parquet")
        if not os.path.exists(path):
            if f"docmeta:{p:05d}" in listed:
                raise CorruptIndexError(
                    f"docmeta part {p} is listed in the manifest but "
                    f"{path} is missing")
            continue
        t = pq.read_table(path)
        if doc_range is not None:
            import pyarrow.compute as pc
            lo, hi = doc_range
            ids = t.column("doc_id")
            # doc ids are 63-bit positive; the last range's hi is
            # 2^63, which overflows int64 — drop the upper test then
            mask = pc.greater_equal(ids, pa.scalar(lo, pa.int64()))
            if hi <= (1 << 63) - 1:
                mask = pc.and_(mask, pc.less(
                    ids, pa.scalar(hi, pa.int64())))
            t = t.filter(mask)
        tables.append(t)
    if not tables:
        import pyarrow as _pa
        from engine.schema import DOCMETA
        return _pa.table({f.name: [] for f in DOCMETA}, schema=DOCMETA)
    return pa.concat_tables(tables)
