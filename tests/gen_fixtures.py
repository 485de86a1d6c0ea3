"""Generate the frozen query set + expected top-k (FIXTURES.md §4).

Run from the repo root:  python tests/gen_fixtures.py

Writes tests/queries.json (25 fixed queries) and tests/expected_topk.json
(query -> top-10 [(doc_id, score)]) computed by the brute-force BM25
oracle over the deduplicated e2e fixture corpus.  Both files are
committed; tests assert the engine is rank-identical with scores equal
to 1e-6 relative tolerance.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from engine.fixtures import gen_webtext, STOPWORDS, _VOCAB, TIERS
from bm25_oracle import bm25_oracle
from engine.tokenize import doc_ids_from_urls

HERE = os.path.dirname(os.path.abspath(__file__))


def build_queries() -> list[str]:
    en = _VOCAB["en"]
    ja = _VOCAB["ja"]
    defr = _VOCAB["defr"]
    qs = [
        # pure stopword
        "the", "the of and", "to a in",
        # common terms (zipf head)
        en[0], f"{en[1]} {en[2]}", f"{en[0]} {en[3]} {en[5]}",
        # mid-frequency
        en[50], f"{en[100]} {en[200]}", f"{en[333]} {en[77]} {en[12]}",
        # rare terms (zipf tail)
        en[4400], en[4550], f"{en[4500]} {en[4300]}",
        # mixed stopword + content
        f"the {en[10]}", f"of {en[40]} and {en[4000]}",
        f"{en[7]} the {en[2000]}",
        # diacritics
        defr[0], f"{defr[3]} {en[20]}",
        # CJK (non-ASCII)
        ja[0], f"{ja[1]} {ja[2]}", f"{ja[0]} {en[9]}",
        # case/punct normalization exercised
        f"{en[4].upper()}!", f"**{en[6]}** don't",
        # duplicated query term (counted once)
        f"{en[15]} {en[15]} {en[15]}",
        # zero-hit
        "zzqqxxnevergenerated", "qqq zzz www",
    ]
    assert len(qs) == 25
    return qs


def main():
    queries = build_queries()
    with open(os.path.join(HERE, "queries.json"), "w") as f:
        json.dump(queries, f, ensure_ascii=False, indent=1)

    # dedup the e2e corpus exactly like the engine (earliest warc_ts wins)
    t = gen_webtext(TIERS["e2e"])
    best = {}
    for url, ts, text in zip(t["url"].to_pylist(),
                             t["warc_ts"].cast("int64").to_pylist(),
                             t["text"].to_pylist()):
        if url not in best or ts < best[url][0]:
            best[url] = (ts, text)
    urls = sorted(best)
    ids = doc_ids_from_urls(urls)
    texts = [best[u][1] for u in urls]
    expected = bm25_oracle(texts, list(ids), queries, k=10)
    with open(os.path.join(HERE, "expected_topk.json"), "w") as f:
        json.dump(expected, f, ensure_ascii=False, indent=1)
    n_hit = sum(1 for v in expected.values() if v)
    print(f"wrote {len(queries)} queries, {n_hit} with hits")


if __name__ == "__main__":
    main()
