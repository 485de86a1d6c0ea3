"""``/v1/search`` throughput of one serving tier at 1, 2 and 4 clients.

Serves an index from an ``EngineHttpServer`` in a subprocess that
imports the engine of ``--checkout``, then drives it with N client
processes, each posting perfbench's BM25 queries for ``--seed`` (k=10)
back to back for ``--seconds``.  ``--tier local`` (the default) serves
the in-process ``InvertedIndex``, no Ray actors; ``replica``,
``termshard`` and ``docshard`` start that ``engine.serve`` tier in a
2-CPU Ray session, sized as perfbench's server sizes it, and put the
HTTP server in front of it.  A warm-up pass runs every query once
first, so the caches hold the working set.  Clients are processes, so
their own request handling does not share the server's GIL.

    python tools/http_qps.py --seed 1 --seconds 10
    python tools/http_qps.py --tier docshard --seed 1
    python tools/http_qps.py --checkout ../parent --index .perfbench/qps/index-s1

Without ``--index`` the tool generates the seed's perfbench fixture and
builds a positional index once, in a 2-CPU Ray session, under
``--workdir``; ``docshard`` serves the fixture's url-hash halves, built
there too.  Per concurrency it prints QPS and the p50 / p95 request
latency to stderr; the last stdout line is the whole result as JSON,
with the tier and the affinity CPU count.  Non-200 answers are counted
as failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SESSION_CPUS = 2      # the Ray session of the build and of the actor tiers
ACTOR_CPUS = 0.25     # per serving actor, as in perfbench/server.py
TIERS = ("local", "replica", "termshard", "docshard")


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (perfbench's rule)."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, math.ceil(q * len(v)) - 1))]


def post(port: int, query: str) -> int:
    rq = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/search",
        data=json.dumps({"query": query, "k": 10}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(rq, timeout=60) as r:
            r.read()
            return r.status
    except urllib.error.HTTPError as e:
        return e.code


def client(port: int, queries: list[str], start: float, seconds: float,
           offset: int) -> tuple[int, int, list[float]]:
    """Post ``queries`` in a loop from ``offset`` between ``start`` and
    ``start + seconds`` -> (completed, failed, latencies in s)."""
    time.sleep(max(0.0, start - time.time()))
    done = failed = 0
    lat = []
    i = offset
    while time.time() < start + seconds:
        t = time.perf_counter()
        failed += post(port, queries[i % len(queries)]) != 200
        lat.append(time.perf_counter() - t)
        done += 1
        i += 1
    return done, failed, lat


def init_ray() -> None:
    import ray
    ray.init(address="local", num_cpus=SESSION_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)


def start_tier(tier: str, index: str, shards: list[str]):
    """The actor tier ``tier``, warm, with perfbench's shapes: one
    replica, two term shards, or one doc shard per url-hash half."""
    from engine import serve as sv
    if tier == "replica":
        return sv.QueryService(index, replicas=1, num_cpus=ACTOR_CPUS)
    if tier == "termshard":
        return sv.ShardedQueryService(index, n_shards=2,
                                      num_cpus=ACTOR_CPUS)
    return sv.DocShardedQueryService(shards, num_cpus=ACTOR_CPUS)


def serve(tier: str, index: str, shards: list[str]) -> None:
    """Server mode: print the port, serve until stdin closes."""
    from engine.http_serve import EngineHttpServer
    if tier == "local":
        svc, srv = None, EngineHttpServer(index_dir=index)
    else:
        init_ray()
        svc = start_tier(tier, index, shards)
        srv = EngineHttpServer(service=svc)
    try:
        print(srv.start(), flush=True)
        sys.stdin.read()
    finally:
        srv.stop()
        if svc is not None:
            import ray
            svc.shutdown()
            ray.shutdown()


def prepare(args) -> tuple[str, list[str], list[str]]:
    """-> (index dir, shard index dirs, BM25 queries), building the
    indexes the tier needs if they are missing."""
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(0, ROOT)
    import fixture
    from oracle import Corpus

    fx = fixture.make_fixture(os.path.join(args.workdir, "fixtures"),
                              args.seed)
    queries = fixture.make_query_mix(args.seed,
                                     Corpus.from_parquet(fx["all"]))["bm25"]
    index = args.index or os.path.join(args.workdir, f"index-s{args.seed}")
    shards = [os.path.join(args.workdir, f"index-s{args.seed}-shard-{i}")
              for i in range(len(fx["shards"]))]
    pairs = [(fx["all"], index)]
    if args.tier == "docshard":
        pairs += zip(fx["shards"], shards)
    todo = [(src, dst) for src, dst in pairs if not os.path.isdir(dst)]
    if todo:
        import ray
        from engine.build import build_index
        from engine.config import EngineConfig
        init_ray()
        try:
            for src, dst in todo:
                build_index(src, dst, EngineConfig(store_positions=True),
                            resume=False)
        finally:
            ray.shutdown()
    return index, shards, queries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=ROOT,
                    help="checkout whose engine serves (default: this one)")
    ap.add_argument("--tier", choices=TIERS, default="local")
    ap.add_argument("--index", help="existing index to serve")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--clients", default="1,2,4")
    ap.add_argument("--workdir",
                    default=os.path.join(ROOT, ".perfbench", "qps"))
    # server mode: --serve INDEX [SHARD_INDEX ...], serving --tier
    ap.add_argument("--serve", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.serve:
        serve(args.tier, args.serve[0], args.serve[1:])
        return 0

    index, shards, queries = prepare(args)
    checkout = os.path.abspath(args.checkout)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--tier", args.tier,
         "--serve", index, *shards],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=checkout),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    result = {"checkout": checkout, "tier": args.tier, "seed": args.seed,
              "seconds": args.seconds, "queries": len(queries),
              "cpus": len(os.sched_getaffinity(0)), "runs": []}
    try:
        port = int(proc.stdout.readline())
        fails = sum(post(port, q) != 200 for q in queries)    # warm-up
        if fails:
            raise SystemExit(f"{fails} warm-up requests failed")
        for n in [int(c) for c in args.clients.split(",")]:
            start = time.time() + 1.0
            with ProcessPoolExecutor(n) as pool:
                outs = list(pool.map(
                    client, [port] * n, [queries] * n, [start] * n,
                    [args.seconds] * n,
                    [i * len(queries) // n for i in range(n)]))
            done = sum(o[0] for o in outs)
            lat = [x for o in outs for x in o[2]]
            run = {"clients": n, "qps": done / args.seconds,
                   "failed": sum(o[1] for o in outs),
                   "p50_ms": pct(lat, 0.5) * 1e3,
                   "p95_ms": pct(lat, 0.95) * 1e3}
            result["runs"].append(run)
            print(f"{n} clients: {run['qps']:.1f} qps, p50 "
                  f"{run['p50_ms']:.2f} ms, p95 {run['p95_ms']:.2f} ms, "
                  f"{run['failed']} failed", file=sys.stderr)
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
    print(json.dumps(result))
    return 0 if all(r["failed"] == 0 for r in result["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
