"""Query-path rank-identity (FIXTURES.md §4, BASELINE.md §3.5).

Build the e2e index once; every frozen query must return rank-identical
top-k doc_ids vs tests/expected_topk.json with scores equal at 1e-6
relative tolerance — for BOTH the exhaustive DAAT path and block-max
WAND.  Mirrors the reference's golden-expected-value test style
(/root/reference/rust/src/embeddings/local/bert.rs:407-419).
"""

import json
import os

import numpy as np
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.query import InvertedIndex

HERE = os.path.dirname(os.path.abspath(__file__))
CFG = EngineConfig(num_parts=8, docmeta_parts=3)


@pytest.fixture(scope="module")
def index(e2e_webtext, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("qidx") / "e2e_index")
    build_index(e2e_webtext, idx, CFG)
    return InvertedIndex(idx)


@pytest.fixture(scope="module")
def frozen():
    with open(os.path.join(HERE, "queries.json")) as f:
        queries = json.load(f)
    with open(os.path.join(HERE, "expected_topk.json")) as f:
        expected = json.load(f)
    return queries, expected


def _assert_rank_identical(got, want, query):
    got_ids = [d for d, _ in got]
    want_ids = [d for d, _ in want]
    assert got_ids == want_ids, f"rank mismatch for {query!r}"
    for (_, gs), (_, ws) in zip(got, want):
        assert gs == pytest.approx(ws, rel=1e-6), query


@pytest.mark.parametrize("method", ["daat", "bmw"])
def test_rank_identical_vs_frozen(index, frozen, method):
    queries, expected = frozen
    for q in queries:
        got = index.search(q, k=10, method=method)
        _assert_rank_identical(got, expected[q], q)


def test_zero_hit(index):
    assert index.search("zzqqxxnevergenerated", 10) == []
    assert index.search("", 10) == []
    assert index.search("!!! ...", 10) == []


def test_degenerate_k(index):
    assert index.search("the", 0) == []
    assert index.search("the", -3) == []
    # k far beyond corpus size returns every scored doc, still ordered
    big = index.search("the", 10**6, method="bmw")
    ref = index.search("the", 10**6, method="daat")
    assert [d for d, _ in big] == [d for d, _ in ref]


def test_bmw_equals_daat_random(index):
    """Property: the default route never changes results, to the bit
    (50 random queries built from indexed terms)."""
    rng = np.random.default_rng(123)
    # sample real terms from one part's dictionary (sorted term array)
    entry, _, _ = index._load_part(0)
    terms = entry[0].tolist()
    for _ in range(50):
        n = int(rng.integers(1, 5))
        q = " ".join(terms[int(i)] for i in rng.integers(0, len(terms), n))
        a = index.search(q, k=10, method="daat")
        b = index.search(q, k=10, method="bmw")
        assert a == b, q


def test_url_hydration(index):
    got = index.search("the", k=3)
    urls = index.url_of([d for d, _ in got])
    assert all(u.startswith("https://") for u in urls)


def test_oracle_self_consistency(index, frozen):
    """The engine's DAAT on a tiny corpus equals a fresh oracle run."""
    queries, expected = frozen
    assert len(expected) == len(queries)


def test_conjunctive_and(index):
    """require_all=True: every hit contains all query terms, the hit
    set is the brute-force AND subset of the disjunctive candidates,
    and scores equal the disjunctive score for the same doc bit for bit
    (one sum order; 50 random multi-term queries from indexed terms)."""
    rng = np.random.default_rng(7)
    entry, _, _ = index._load_part(0)
    terms = entry[0].tolist()
    n_checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        q = " ".join(terms[int(i)] for i in rng.integers(0, len(terms), n))
        want_terms = set(index.query_terms(q))
        big_k = 10**6
        any_hits = dict(index.search(q, k=big_k, method="daat"))
        # brute-force AND set: docs present in every per-term result
        per_term = [dict(index.search(t, k=big_k)) for t in want_terms]
        and_ids = set(per_term[0])
        for d in per_term[1:]:
            and_ids &= set(d)
        got = index.search(q, k=big_k, require_all=True)
        assert set(d for d, _ in got) == and_ids, q
        for d, s in got:
            assert s == any_hits[d], q
        # ordering contract: score desc, doc_id asc
        key = [(-s, d) for d, s in got]
        assert key == sorted(key), q
        n_checked += len(got)
    assert n_checked > 0  # the random queries did exercise non-empty ANDs


def test_daat_equals_weighted_ones_random(index):
    """Property: BM25 is weighted search at w = 1 — both add a
    document's term scores in one order, so ``search(method="daat")``
    equals ``search_weighted`` with every weight 1.0 bit for bit (200
    random queries of 3-6 indexed terms, every hit compared)."""
    rng = np.random.default_rng(11)
    entry, _, _ = index._load_part(0)
    terms = entry[0].tolist()
    for _ in range(200):
        n = int(rng.integers(3, 7))
        q = " ".join(terms[int(i)] for i in rng.integers(0, len(terms), n))
        want = index.search(q, k=10**6, method="daat")
        got = index.search_weighted(
            {t: 1.0 for t in index.query_terms(q)}, k=10**6)
        assert got == want, q


def test_conjunctive_unknown_term_empties(index):
    assert index.search("the zzqqxxnevergenerated", 10,
                        require_all=True) == []
    # single-term AND == single-term OR
    assert index.search("the", 10, require_all=True) == \
        index.search("the", 10, method="daat")


@pytest.mark.parametrize("method", ["dense", "foo", "BMW", ""])
def test_unknown_method_raises(index, method):
    """Only "bmw" and "daat" are search methods; anything else is an
    error, not a silent fallback to bmw (k <= 0 included)."""
    for k in (10, 0):
        with pytest.raises(ValueError, match="method"):
            index.search("the data", k, method=method)


def test_suggest_matches_brute_force(index, e2e_webtext):
    """Prefix suggestion == tokenizing the deduped fixture and counting
    distinct docs per prefixed term (independent oracle)."""
    import pandas as pd
    import pyarrow.parquet as pq
    from collections import Counter
    from engine.extract import extract_batch
    from engine.tokenize import tokenize

    files = sorted(os.path.join(e2e_webtext, f)
                   for f in os.listdir(e2e_webtext) if f.endswith(".parquet"))
    df = (pd.concat([pq.read_table(f).to_pandas() for f in files])
          .sort_values(["url", "warc_ts"], kind="stable")
          .drop_duplicates(subset="url", keep="first"))
    ex = extract_batch({"url": df["url"].to_numpy(dtype=object),
                        "warc_ts": df["warc_ts"].to_numpy(),
                        "html": df["html"].to_numpy(dtype=object)})
    texts = ex["text"]
    if not isinstance(texts, (list, np.ndarray)):
        texts = texts.to_pylist()
    dfs = Counter()
    for text in texts:
        for t in set(tokenize(text)):
            dfs[t] += 1

    for prefix in ("th", "a", "wh", "zz"):
        want = sorted(((t, n) for t, n in dfs.items()
                       if t.startswith(prefix)),
                      key=lambda x: (-x[1], x[0]))[:10]
        assert index.suggest(prefix, k=10) == want, prefix

    assert index.suggest("", k=10) == []
    assert index.suggest("th", k=0) == []
    # a huge k returns every prefixed term, still fully ordered
    allth = index.suggest("th", k=1 << 20)
    wantall = sorted(((t, n) for t, n in dfs.items()
                      if t.startswith("th")), key=lambda x: (-x[1], x[0]))
    assert allth == wantall


def test_exclude_matches_brute_force(index):
    """MUST_NOT == exhaustive unfiltered scoring with excluded-term
    docs dropped, same tie cut; survivors keep exact scores."""
    q, ex = "the house", "of"
    full = index.search(q, k=index.n_docs, method="daat")
    ex_hits = {d for d, _ in index.search(ex, k=index.n_docs,
                                          method="daat")}
    want = [(d, s) for d, s in full if d not in ex_hits]
    want.sort(key=lambda t: (-t[1], t[0]))
    got = index.search(q, k=10, exclude=ex)
    assert got == want[:10]
    # survivors' scores identical to the unexcluded run
    full_map = dict(full)
    assert all(s == full_map[d] for d, s in got)
    # unknown excluded term excludes nothing
    assert index.search(q, k=10, exclude="zzzznope") == \
        index.search(q, k=10, method="daat")
    # composes with require_all
    fa = index.search(q, k=index.n_docs, method="daat", require_all=True)
    want_all = [(d, s) for d, s in fa if d not in ex_hits]
    want_all.sort(key=lambda t: (-t[1], t[0]))
    assert index.search(q, k=10, require_all=True, exclude=ex) == \
        want_all[:10]


def test_suggest_case_normalized(index):
    assert index.suggest("TH", k=5) == index.suggest("th", k=5)


def test_must_matches_brute_force(index):
    """Mixed boolean MUST: candidates contain every must-term, scores
    still sum all query terms."""
    q, must = "the house", "of"
    full = index.search(q, k=index.n_docs, method="daat")
    musts = [set(d for d, _ in index.search(t, k=index.n_docs))
             for t in index.query_terms(must)]
    req = set.intersection(*musts)
    want = [(d, s) for d, s in full if d in req]
    want.sort(key=lambda t: (-t[1], t[0]))
    got = index.search(q, k=10, must=must)
    assert got == want[:10]
    assert got, "must produced no hits — fixture drifted"
    # unknown must-term empties; empty must is a no-op
    assert index.search(q, k=10, must="zzqqneverthere") == []
    assert index.search(q, k=10, must="...") == \
        index.search(q, k=10, method="daat")


def test_search_weighted(index):
    """SPLADE-seam weighted-term retrieval: brute-force parity, the
    all-ones degeneracy to daat, and the zero/unknown-term rules."""
    q = "the house of"
    terms = index.query_terms(q)
    # all-ones weights == plain disjunctive search (exact float equality:
    # same per-doc contributions added in the same order)
    got = index.search_weighted({t: 1.0 for t in terms}, k=10)
    want = index.search(q, k=10, method="daat")
    assert got == want
    # weighted parity vs brute force over full results
    w = {"the": 2.0, "house": 0.5, "of": 1.25}
    per_term = {t: dict(index.search(t, k=index.n_docs, method="daat"))
                for t in terms}
    acc = {}
    for t, wt in w.items():
        for d, s in per_term[t].items():
            acc[d] = acc.get(d, 0.0) + wt * s
    want_rows = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = index.search_weighted(w, k=10)
    assert [d for d, _ in got] == [d for d, _ in want_rows]
    for (_, gs), (_, ws) in zip(got, want_rows):
        assert gs == pytest.approx(ws, rel=1e-9)
    # zero-weight terms are skipped; unknown terms contribute nothing
    assert index.search_weighted(
        {"the": 2.0, "house": 0.0, "zzqneverthere": 3.0}, k=10) == \
        index.search_weighted({"the": 2.0}, k=10)
    # k<=0 and empty/unknown-only vectors return []
    assert index.search_weighted(w, k=0) == []
    assert index.search_weighted({}, k=10) == []
    assert index.search_weighted({"zzqneverthere": 1.0}, k=10) == []
    # iterable-of-pairs input accepted
    assert index.search_weighted(list(w.items()), k=10) == got
