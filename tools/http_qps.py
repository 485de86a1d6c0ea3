"""Local-index ``/v1/search`` throughput at 1, 2 and 4 concurrent clients.

Serves one index from an ``EngineHttpServer`` in local mode (the
in-process ``InvertedIndex``, no Ray actors) in a subprocess that
imports the engine of ``--checkout``, then drives it with N client
processes, each posting perfbench's BM25 queries for ``--seed`` (k=10)
back to back for ``--seconds``.  A warm-up pass runs every query once
first, so the loader's caches hold the working set.  Clients are
processes, so their own request handling does not share the server's
GIL.

    python tools/http_qps.py --seed 1 --seconds 10
    python tools/http_qps.py --checkout ../parent --index .perfbench/qps/index-s1

Without ``--index`` the tool generates the seed's perfbench fixture and
builds a positional index once, in a 2-CPU Ray session, under
``--workdir``.  Per concurrency it prints QPS and the p50 / p95 request
latency to stderr; the last stdout line is the whole result as JSON,
with the affinity CPU count.  Non-200 answers are counted as failures.
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


def serve(index: str) -> None:
    """Server mode: print the port, serve until stdin closes."""
    from engine.http_serve import EngineHttpServer
    srv = EngineHttpServer(index_dir=index)
    print(srv.start(), flush=True)
    sys.stdin.read()
    srv.stop()


def prepare(args) -> tuple[str, list[str]]:
    """-> (index dir, BM25 queries), building the index if needed."""
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(0, ROOT)
    import fixture
    from oracle import Corpus

    src = fixture.make_fixture(os.path.join(args.workdir, "fixtures"),
                               args.seed)["all"]
    queries = fixture.make_query_mix(args.seed,
                                     Corpus.from_parquet(src))["bm25"]
    index = args.index or os.path.join(args.workdir, f"index-s{args.seed}")
    if not os.path.isdir(index):
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
    return index, queries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=ROOT,
                    help="checkout whose engine serves (default: this one)")
    ap.add_argument("--index", help="existing index to serve")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--clients", default="1,2,4")
    ap.add_argument("--workdir",
                    default=os.path.join(ROOT, ".perfbench", "qps"))
    ap.add_argument("--serve", help=argparse.SUPPRESS)   # server mode
    args = ap.parse_args()
    if args.serve:
        serve(args.serve)
        return 0

    index, queries = prepare(args)
    checkout = os.path.abspath(args.checkout)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", index],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=checkout),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    result = {"checkout": checkout, "seed": args.seed,
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
