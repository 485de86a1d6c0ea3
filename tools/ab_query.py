"""A/B of the in-process query mix between two checkouts.

Runs perfbench's in-process query round (its BM25, phrase and weighted
queries for ``--seed``, in the benchmark's order) against two checkouts
of this repository, each in its own fresh subprocess, alternating which
side runs first in each pair.  Both sides query one copy of one index,
so only the engine code differs.  Per pair and query kind it reports
p50 and p95 of each query's best-of-N latency, the parent/change ratio
(above 1: the change is faster), a digest of each kind's answers (both
sides must agree, kind by kind, so a change shows which kind's bits
moved) and the host probe of each worker.

    python tools/ab_query.py --parent ../parent --change . --seed 5 \\
        --pairs 2 --best-of 5 --budget warm

``--budget cold`` gives the loader perfbench's cold cache budget (the
mix's working set / 10).  Without ``--index`` the tool generates the
seed's fixture and builds the positional index once, in a 2-CPU Ray
session, with the engine of the checkout it lives in; with ``--index``
it copies that index instead.  Everything goes under ``--workdir``.

``--rows N`` replaces perfbench's 3,000-row fixture with N rows of
``engine.fixtures.gen_webtext`` (same seed and duplicate rate) and draws
the mix from them with perfbench's ``fixture.make_query_mix``: the
scale point where pruning can pay.  ``--parent-route`` /
``--change-route`` force one side's BM25/weighted route (``pruned`` or
``exhaustive``, by patching ``InvertedIndex._prunes``); both routes
return the same bits, so the digests must still agree.  To time the
routes against each other, pass one checkout as both sides:

    python tools/ab_query.py --parent . --change . --rows 60000 \
        --parent-route exhaustive --change-route pruned

A table goes to stderr; the last line of stdout is the whole result as
JSON.  Exits 1 when the two sides' answers of any kind differ.

perfbench's ``fixture``, ``oracle`` and ``lifecycle`` modules are
imported as they are; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
KINDS = ("bm25", "phrase", "weighted")


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (perfbench's rule)."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, math.ceil(q * len(v)) - 1))]


# ---------------------------------------------------------------------------
# worker: one checkout, one process
# ---------------------------------------------------------------------------

def worker(args) -> None:
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(0, os.path.abspath(args.checkout))
    from hostprobe import HostProbe
    from lifecycle import query_items, run_query
    from engine.query import InvertedIndex

    if args.route != "default":
        # the one routing predicate: forced either way, the same bits
        forced = args.route == "pruned"
        InvertedIndex._prunes = lambda self, entries, k: forced
    probe = HostProbe()
    with open(args.mix) as f:
        mix = json.load(f)
    items = query_items(mix, args.seed)
    idx = InvertedIndex(args.index, cache_budget_bytes=args.budget_bytes)
    answers = [run_query(idx, kind, q) for kind, q in items]   # warm-up
    best = [float("inf")] * len(items)
    for _ in range(args.best_of):
        for i, (kind, q) in enumerate(items):
            t = time.perf_counter()
            got = run_query(idx, kind, q)
            best[i] = min(best[i], time.perf_counter() - t)
            if got != answers[i]:
                raise SystemExit(f"{kind} {q!r}: answer changed between "
                                 "rounds")
    lat = {k: [b * 1e3 for b, (kind, _) in zip(best, items) if kind == k]
           for k in KINDS}
    print(json.dumps({
        "p50_ms": {k: statistics.median(v) for k, v in lat.items()},
        "p95_ms": {k: pct(v, 0.95) for k, v in lat.items()},
        "digests": {k: hashlib.sha256(json.dumps(
            [a for a, (kind, _) in zip(answers, items) if kind == k]
        ).encode()).hexdigest() for k in KINDS},
        "host": probe.finish(),
        "module": sys.modules["engine.query"].__file__,
    }))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def prepare(args) -> tuple[str, str, int]:
    """-> (index copy, mix json, cache budget bytes) under the workdir."""
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(0, ROOT)
    import fixture
    from lifecycle import Session
    from oracle import Corpus

    os.makedirs(args.workdir, exist_ok=True)
    if args.rows:
        from engine.fixtures import gen_webtext
        name = f"s{args.seed}-n{args.rows}"
        src = os.path.join(args.workdir, f"webtext-{name}")
        if not os.path.isdir(src):
            table = gen_webtext(args.rows, seed=args.seed,
                                dup_rate=fixture.DUP_RATE)
            os.makedirs(src + ".tmp", exist_ok=True)
            pq.write_table(table,
                           os.path.join(src + ".tmp", "part-0.parquet"))
            os.replace(src + ".tmp", src)
    else:
        name = f"s{args.seed}"
        src = fixture.make_fixture(os.path.join(args.workdir, "fixtures"),
                                   args.seed)["all"]
    corpus = Corpus.from_parquet(src)
    mix = fixture.make_query_mix(args.seed, corpus)
    mix_path = os.path.join(args.workdir, f"mix-{name}.json")
    with open(mix_path, "w") as f:
        json.dump(mix, f)
    # perfbench's own budget rule, fed this seed's corpus and mix
    s = Session(args.seed)
    s.corpus, s.mix = corpus, mix
    budget = s.cache_budget(args.budget)

    index = os.path.join(args.workdir, f"index-{name}")
    shutil.rmtree(index, ignore_errors=True)
    if args.index:
        shutil.copytree(args.index, index)
    else:
        import ray
        from engine.build import build_index
        from engine.config import EngineConfig
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
        try:
            build_index(src, index, EngineConfig(store_positions=True),
                        resume=False)
        finally:
            ray.shutdown()
    return index, mix_path, budget


def run_side(args, checkout: str, route: str, index: str, mix: str,
             budget: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(checkout))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         "--checkout", checkout, "--index", index, "--mix", mix,
         "--seed", str(args.seed), "--best-of", str(args.best_of),
         "--budget-bytes", str(budget), "--route", route],
        cwd=os.path.abspath(checkout), env=env, capture_output=True,
        text=True)
    if out.returncode != 0:
        raise SystemExit(f"worker for {checkout} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout measured as the base")
    ap.add_argument("--change", default=ROOT,
                    help="checkout measured against it (default: this one)")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=2)
    ap.add_argument("--best-of", type=int, default=5)
    ap.add_argument("--budget", choices=("warm", "cold"), default="warm")
    ap.add_argument("--index", help="existing positional index to copy")
    ap.add_argument("--rows", type=int,
                    help="gen_webtext rows instead of perfbench's fixture")
    for side in ("parent", "change"):
        ap.add_argument(f"--{side}-route", default="default",
                        choices=("default", "pruned", "exhaustive"),
                        help=f"route forced on the {side} side")
    ap.add_argument("--workdir",
                    default=os.path.join(ROOT, ".perfbench", "ab"))
    # worker mode (internal)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--checkout", help=argparse.SUPPRESS)
    ap.add_argument("--mix", help=argparse.SUPPRESS)
    ap.add_argument("--budget-bytes", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--route", default="default", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args)
        return 0
    if not args.parent:
        ap.error("--parent is required")

    index, mix, budget = prepare(args)
    sides = {"parent": (args.parent, args.parent_route),
             "change": (args.change, args.change_route)}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pairs.append({name: run_side(args, *sides[name], index, mix, budget)
                      for name in order} | {"first": order[0]})
    equal = {k: all(p["parent"]["digests"][k] == p["change"]["digests"][k]
                    for p in pairs) for k in KINDS}
    log = sys.stderr
    print(f"seed {args.seed}, rows {args.rows or 'perfbench'}, budget "
          f"{args.budget} ({budget} B), best of {args.best_of}, "
          f"{args.pairs} pairs, routes {args.parent_route} -> "
          f"{args.change_route}, {len(os.sched_getaffinity(0))} CPUs",
          file=log)
    for i, p in enumerate(pairs):
        print(f"pair {i} (first: {p['first']})", file=log)
        for k in KINDS:
            a, b = p["parent"], p["change"]
            print(f"  {k:9s} p50 {a['p50_ms'][k]:.3f} -> "
                  f"{b['p50_ms'][k]:.3f} ms "
                  f"(x{a['p50_ms'][k] / b['p50_ms'][k]:.2f})  "
                  f"p95 {a['p95_ms'][k]:.3f} -> {b['p95_ms'][k]:.3f} ms "
                  f"(x{a['p95_ms'][k] / b['p95_ms'][k]:.2f})", file=log)
        for side in ("parent", "change"):
            h = p[side]["host"]
            print(f"  host {side}: numpy {h['start']['numpy_ms']:.1f}/"
                  f"{h['end']['numpy_ms']:.1f} ms, python "
                  f"{h['start']['python_ms']:.1f}/"
                  f"{h['end']['python_ms']:.1f} ms, steal "
                  f"{h['steal_share']}", file=log)
    for k in KINDS:
        print(f"{k} digests {'equal' if equal[k] else 'DIFFER'}: "
              f"{pairs[0]['parent']['digests'][k][:16]}", file=log)
    print(json.dumps({"seed": args.seed, "rows": args.rows,
                      "routes": [args.parent_route, args.change_route],
                      "cpus": len(os.sched_getaffinity(0)),
                      "budget": args.budget,
                      "budget_bytes": budget, "best_of": args.best_of,
                      "digests_equal": equal, "pairs": pairs}))
    return 0 if all(equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
