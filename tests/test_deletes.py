"""Per-document deletion (tombstone overlay) + compaction.

Semantics under test (Lucene-style, engine/index_io.py delete_docs):
  * deleted docs stop ranking immediately, every method/path;
  * surviving docs keep their EXACT pre-delete scores (stats stay
    stale until compaction);
  * compact_index == a fresh build over the surviving corpus,
    bit-for-bit (part checksums), with re-based statistics.
"""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from engine import index_io
from engine.build import build_index
from engine.config import EngineConfig
from engine.merge import compact_index
from engine.query import InvertedIndex

CFG = EngineConfig(num_parts=8, docmeta_parts=3)
BIG_K = 10**6


@pytest.fixture(scope="module")
def built(e2e_webtext, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("delidx") / "idx")
    build_index(e2e_webtext, d, CFG)
    return d


@pytest.fixture(scope="module")
def victims(built):
    """doc_ids to delete: every 5th hit of a broad query (so the
    deleted set intersects real result lists)."""
    idx = InvertedIndex(built)
    hits = idx.search("the", k=BIG_K, method="daat")
    assert len(hits) > 20
    return sorted(d for i, (d, _) in enumerate(hits) if i % 5 == 0)


QUERIES = ["the", "the a value", "hash join table", "data"]


def test_deleted_docs_stop_ranking_scores_unchanged(built, victims,
                                                    tmp_path_factory):
    import shutil
    d2 = str(tmp_path_factory.mktemp("ovl") / "idx")
    shutil.copytree(built, d2)
    n = index_io.delete_docs(d2, victims)
    assert n == len(victims)
    base = InvertedIndex(built)
    deld = InvertedIndex(d2)
    gone = set(victims)
    for q in QUERIES:
        want = [(d, s) for d, s in base.search(q, k=BIG_K, method="daat")
                if d not in gone]
        got = deld.search(q, k=BIG_K, method="daat")
        assert got == want, q  # exact: same floats, same order


@pytest.mark.parametrize("method", ["daat", "bmw"])
def test_methods_rank_identical_under_deletes(built, victims, method):
    deld = InvertedIndex(built, deleted=np.asarray(victims))
    ref = InvertedIndex(built, deleted=np.asarray(victims))
    for q in QUERIES:
        a = deld.search(q, k=10, method=method)
        b = ref.search(q, k=10, method="daat")
        assert [d for d, _ in a] == [d for d, _ in b], q
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb, rel=1e-9)


def test_in_memory_deleted_matches_overlay(built, victims,
                                           tmp_path_factory):
    import shutil
    d2 = str(tmp_path_factory.mktemp("ovl2") / "idx")
    shutil.copytree(built, d2)
    index_io.delete_docs(d2, victims)
    a = InvertedIndex(d2)
    b = InvertedIndex(built, deleted=np.asarray(victims))
    for q in QUERIES:
        assert a.search(q, k=50) == b.search(q, k=50), q


def test_delete_docs_unions_idempotently(built, tmp_path_factory):
    import shutil
    d2 = str(tmp_path_factory.mktemp("ovl3") / "idx")
    shutil.copytree(built, d2)
    assert index_io.delete_docs(d2, [3, 1, 2]) == 3
    assert index_io.delete_docs(d2, [2, 9]) == 4       # union, not append
    assert index_io.delete_docs(d2, [1, 3]) == 4       # idempotent
    assert index_io.load_deletes(d2).tolist() == [1, 2, 3, 9]


def test_conjunctive_respects_deletes(built, victims):
    deld = InvertedIndex(built, deleted=np.asarray(victims))
    got = deld.search("the a", k=BIG_K, require_all=True)
    assert set(d for d, _ in got).isdisjoint(victims)


def test_compact_equals_fresh_build(built, victims, e2e_webtext,
                                    tmp_path_factory):
    import shutil
    base = tmp_path_factory.mktemp("cmp")
    d2 = str(base / "overlay")
    shutil.copytree(built, d2)
    index_io.delete_docs(d2, victims)
    compacted = str(base / "compacted")
    m_c = compact_index(d2, compacted)

    # fresh build over the surviving corpus: drop the victims' urls
    idx = InvertedIndex(built)
    victim_urls = set(idx.url_of(np.asarray(victims)))
    tabs = [pq.read_table(f)
            for f in sorted(glob.glob(f"{e2e_webtext}/*.parquet"))]
    src = pa.concat_tables(tabs)
    keep = [u not in victim_urls for u in src.column("url").to_pylist()]
    survivors = src.filter(pa.array(keep))
    ds = ray.data.from_arrow(survivors)
    fresh = str(base / "fresh")
    m_f = build_index(ds, fresh, CFG)

    assert m_c["stats"] == m_f["stats"]
    cks_c = {k: v["checksum"] for k, v in m_c["parts"].items()}
    cks_f = {k: v["checksum"] for k, v in m_f["parts"].items()}
    assert cks_c == cks_f
    # the compacted output carries no overlay and re-based stats
    assert not os.path.exists(os.path.join(compacted, index_io.DELETES))
    assert m_c["stats"]["n_docs"] == m_f["stats"]["n_docs"] > 0
    # post-compact queries equal fresh-build queries exactly
    a = InvertedIndex(compacted)
    b = InvertedIndex(fresh)
    for q in QUERIES:
        assert a.search(q, k=20) == b.search(q, k=20), q
