"""The HTTP serving process of the benchmark.

Joins the benchmark's Ray session, starts the three serving tiers over
the indexes it is given, puts one ``EngineHttpServer`` in front of each,
prints ``{"ports": {tier: port}}`` as one line on stdout, and serves
until its stdin closes; then it stops the servers and the tiers' actors
and leaves the session.

    python3 perfbench/server.py --address ADDR --full IDX --shards IDX0 IDX1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# Logical CPUs per serving actor.  The session has 2; five actors at
# 0.25 each leave room for Ray's own tasks (the engine default of 0.5-1.0
# per actor would not place all three tiers at once).
ACTOR_CPUS = 0.25


def start_tiers(full_index: str, shard_indexes: list[str]) -> dict:
    """-> {tier name: service}, each warm when returned."""
    from engine.serve import (DocShardedQueryService, QueryService,
                              ShardedQueryService)
    return {
        "replica": QueryService(full_index, replicas=1, num_cpus=ACTOR_CPUS),
        "termshard": ShardedQueryService(full_index, n_shards=2,
                                         num_cpus=ACTOR_CPUS),
        "docshard": DocShardedQueryService(shard_indexes,
                                           num_cpus=ACTOR_CPUS),
    }


def stop_tiers(services: dict) -> None:
    for svc in services.values():
        svc.shutdown()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--address", required=True)
    ap.add_argument("--full", required=True)
    ap.add_argument("--shards", nargs="+", required=True)
    args = ap.parse_args()

    import ray
    ray.init(address=args.address, logging_level="ERROR",
             log_to_driver=False)
    from engine.http_serve import EngineHttpServer
    services: dict = {}
    servers: list = []
    try:
        services = start_tiers(args.full, args.shards)
        ports = {}
        for name, svc in services.items():
            srv = EngineHttpServer(service=svc)
            ports[name] = srv.start()
            servers.append(srv)
        print(json.dumps({"ports": ports}), flush=True)
        sys.stdin.read()          # serve until the benchmark closes stdin
    finally:
        for srv in servers:
            srv.stop()
        stop_tiers(services)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
