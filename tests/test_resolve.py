"""Term resolution: routing bit-identity and per-request work counts.

- ``parts_of`` (one hasher call for a list of terms) equals ``part_of``
  term by term and the build's own term -> part routing
  (engine/build.py make_tokenize_partial), for both term hashes and a
  power-of-two and a prime part count, over ASCII, accented and
  CJK-unigram terms.
- On a cold loader every query shape resolves all of its terms with at
  most one hasher call per request, whatever its term count; a term
  the decoded cache holds costs no hasher call and no dictionary probe,
  so a warm repeat of any request makes neither (the cached run
  carries its df).
"""

import types

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.build import build_index, make_tokenize_partial
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.query import InvertedIndex, part_of, parts_of
from engine.serve import IndexWorker, _Front
from engine.tokenize import HASH_FNS

VOCAB_TEXTS = [
    "the quick brown fox jumps over the lazy dog hash join table",
    "Straße café über élève naïve garçon Ünïcode Grüße déjà",
    "日本語の検索エンジン 中文分词 한국어",
    "x1 a b c 42 zz-top o'neil",
]


def _build_routing(cfg: EngineConfig) -> dict[str, int]:
    """term -> part as the build writes it (no Ray: the tokenize UDF
    alone, fed an in-memory docs-mode batch)."""
    udf = make_tokenize_partial(cfg, frozenset(), frozenset(),
                                with_url=False)
    out = udf(pa.table({"doc_id": pa.array(range(1, len(VOCAB_TEXTS) + 1),
                                           pa.int64()),
                        "text": VOCAB_TEXTS}))
    rows = out.filter(out.column("term").is_valid())
    return dict(zip(rows.column("term").to_pylist(),
                    rows.column("part").to_pylist()))


@pytest.mark.parametrize("term_hash", ["sip", "md5"])
@pytest.mark.parametrize("num_parts", [16, 7])
def test_parts_of_matches_part_of_and_build(term_hash, num_parts):
    cfg = EngineConfig(num_parts=num_parts, term_hash=term_hash)
    built = _build_routing(cfg)
    terms = sorted(built)
    # the vocabulary really covers the three scripts
    assert {"the", "straße", "élève", "日", "本"} <= set(terms)
    got = parts_of(terms, cfg)
    assert got == [built[t] for t in terms]
    assert got == [part_of(t, cfg) for t in terms]
    assert len(set(got)) > 1
    assert parts_of([], cfg) == []


# ---------------------------------------------------------------------------
# per-request work counts
# ---------------------------------------------------------------------------

CFG = EngineConfig(num_parts=8, docmeta_parts=2, store_positions=True)
WORDS = [f"w{i:02d}" for i in range(40)]
DOCS = [" ".join(WORDS[j] for j in range(40) if (j * 7 + i) % 3)
        + " hash join table" + (" the cat" if i % 2 else " cat the")
        for i in range(12)]
LANGS = ["en", "de", "fr"] * 4


@pytest.fixture(scope="module")
def count_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("resolve")
    src = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(1, len(DOCS) + 1), pa.int64()),
        "text": DOCS, "lang": LANGS}), src)
    out = str(d / "idx")
    build_index(src, out, CFG, mode="docs")
    attach_doc_values(out, src, ["lang"])
    return out


@pytest.fixture
def hash_calls(monkeypatch):
    """Sizes of the term-hasher calls made while the test runs."""
    calls: list[int] = []
    real = HASH_FNS[CFG.term_hash]

    def counted(values):
        calls.append(len(values))
        return real(values)
    monkeypatch.setitem(HASH_FNS, CFG.term_hash, counted)
    return calls


def _local(actor_cls, *args):
    """An instance of a Ray actor class's own class, run in-process."""
    return actor_cls.__ray_metadata__.modified_class(*args)


QUERY = "hash join table w01 w02 w04 w05 w07 cat"
MUST, EXCLUDE = "table w08", "w03"
REQUESTS = {
    "search_bmw": lambda idx: idx.search(QUERY, 5, must=MUST,
                                         exclude=EXCLUDE),
    "search_daat": lambda idx: idx.search(QUERY, 5, method="daat",
                                          must=MUST, exclude=EXCLUDE),
    "search_and": lambda idx: idx.search(QUERY, 5, require_all=True),
    "search_weighted": lambda idx: idx.search_weighted(
        {t: 0.5 + i / 32 for i, t in enumerate(WORDS[:32])}, 5),
    "match_count": lambda idx: idx.match_count(QUERY, must=MUST,
                                               exclude=EXCLUDE),
    "match_count_weighted": lambda idx: idx.match_count_weighted(
        {t: 1.0 for t in WORDS[:32]}),
    "facet_counts": lambda idx: idx.facet_counts(QUERY, "lang", must=MUST,
                                                 exclude=EXCLUDE),
    "search_phrase": lambda idx: idx.search_phrase("hash join table", 5,
                                                   exclude=EXCLUDE),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_one_hasher_call_per_request(count_index, hash_calls, monkeypatch,
                                     name):
    idx = InvertedIndex(count_index)          # cold: empty caches
    first = REQUESTS[name](idx)
    assert first, f"{name} found nothing — fixture drifted"
    assert len(hash_calls) == 1
    assert hash_calls[0] > 1                  # all terms in that one call
    # the same request again: the decoded caches answer every term, df
    # included, so it routes and probes nothing at all
    del hash_calls[:]
    probes = []
    real = idx._term_row
    monkeypatch.setattr(idx, "_term_row",
                        lambda *a: probes.append(a) or real(*a))
    assert REQUESTS[name](idx) == first
    assert hash_calls == [] and probes == []


def test_shard_worker_score_terms_one_hasher_call(count_index, hash_calls):
    w = _local(IndexWorker, count_index)
    terms = WORDS[:20] + ["nosuchterm"]
    got = w.score_terms(terms)
    assert hash_calls == [len(terms)]
    assert got["nosuchterm"] is None
    for t in WORDS[:20]:
        ids, scores, df = got[t]
        assert df == w.idx.df_of(t) == ids.size == scores.size
    del hash_calls[:]
    w.term_doc_ids(WORDS[:20])                # cached: no routing
    assert hash_calls == []


def test_doc_shard_term_dfs_one_hasher_call(count_index, hash_calls):
    w = _local(IndexWorker, count_index)
    terms = WORDS[:20] + ["nosuchterm"]
    got = w.term_dfs(terms)
    assert hash_calls == [len(terms)]
    assert got == {t: w.idx.df_of(t) for t in terms}
    assert got["nosuchterm"] == 0 and all(got[t] > 0 for t in WORDS[:20])


def test_front_routes_a_request_with_one_hasher_call(count_index,
                                                     hash_calls):
    # stub replicas: only the routing is under test, no future resolves
    stub = types.SimpleNamespace(**{
        m: types.SimpleNamespace(remote=lambda *a, **k: a)
        for m in ("score_terms", "term_doc_ids", "call")})
    front = _Front(CFG, [[[stub]], [[stub]]])
    terms = QUERY.split()
    shard = front._shards_of(terms)
    assert set(shard.values()) == {0, 1}      # the query spans both shards
    del hash_calls[:]
    front._submit(QUERY, 5)
    front._submit(QUERY, 5, must=MUST, exclude=EXCLUDE)
    front._submit("hash", 5)                  # single-shard fast path
    assert len(hash_calls) == 3
    plan = front._scatter(terms, must=MUST, exclude=EXCLUDE)
    assert plan[0] == terms
    routed = {t: si for (si, _), args in plan[1].items() for t in args[0]}
    assert routed == shard


def test_decoded_hit_skips_hash_and_probe(count_index, hash_calls,
                                          monkeypatch):
    idx = InvertedIndex(count_index)
    first = idx._decoded("table")
    assert len(hash_calls) == 1
    probes = []
    real = idx._term_row
    monkeypatch.setattr(idx, "_term_row",
                        lambda *a: probes.append(a) or real(*a))
    assert idx._decoded("table") is first
    assert hash_calls == [1] and probes == []
    # lookup is the uncached path: it always hashes and probes
    df, pbytes, skips = idx.lookup("table")
    assert df == first[0].size and hash_calls == [1, 1]
    assert len(probes) == 1 and skips.shape[1] == 4


def test_dictionary_rows_are_one_block(count_index):
    idx = InvertedIndex(count_index)
    for part in range(CFG.num_parts):
        entry = idx._load_part(part)[0]
        if entry is None:
            continue
        term_arr, nums = entry
        assert nums.dtype == np.int64 and nums.shape == (term_arr.size, 8)
    terms = WORDS + ["cat", "nosuchterm"]
    assert idx.dfs_of(terms) == [idx.df_of(t) for t in terms]
    assert idx.dfs_of(terms)[-1] == 0
    assert idx.suggest("w0", 3) == sorted(
        ((t, idx.df_of(t)) for t in WORDS[:10]),
        key=lambda e: (-e[1], e[0]))[:3]
