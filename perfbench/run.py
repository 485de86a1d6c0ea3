#!/usr/bin/env python3
"""The repository benchmark: one engine lifecycle per run, checked
against an oracle computed apart from the engine.

    python3 perfbench/run.py --workload warm --seed 1 --seconds 10 --trace 0

Every run starts its own Ray session (2 logical CPUs), generates the
seeded webtext fixture, builds the positional index over it and over its
two url-hash halves, attaches doc values, loads an in-process
``InvertedIndex`` and starts ``perfbench/server.py`` (the three serving
tiers behind HTTP) as a child process.  It then measures whole rounds
until ``--seconds`` have passed; a round is the in-process query mix
once and the request mix once against each tier, in alternating slices,
from one client thread over one HTTP connection at a time (closed
loop).

Workloads differ only in the in-process loader's decoded-term cache:
``warm`` keeps the default budget, which holds the whole working set;
``cold`` gets a tenth of the working set.  The builds and the serving
tiers are the same in both, so their metrics should not move between
the two.

The last stdout line is the JSON result.  ``--trace 1`` runs the layer
probes of perfbench/layers.py instead and reports per-layer metrics.
Scratch files (fixtures, indexes, Ray's session dir, traces, run
records) go to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback


def _process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


PROC_START = time.perf_counter() - _process_age_s()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from hostprobe import HostProbe  # noqa: E402
from lifecycle import (DEFAULT_BUDGET, SCRATCH, TIERS,  # noqa: E402
                       CheckFailed, Server, Session, check_queries,
                       check_response, counted, descendants,
                       is_kept_failure, post, query_items, run_query)

WORKLOADS = ("warm", "cold")
# Slices of a round.  The round alternates between a slice of the query
# mix and a slice of each tier's requests, so that every kind of
# operation is measured across the whole run: the host's speed changes
# every few seconds, and a query mix run as one block of half a second
# per round sampled it a handful of times per run.
CHUNKS = 8


def pin_process_tree() -> int:
    """Move this process and every process it started (Ray's own, the
    serving process, the actors), thread by thread, onto one CPU, and
    return that CPU.  Spread over the host's CPUs, each hop of a request
    wakes a process on another CPU; on a host whose CPUs are taken away
    now and then (steal), those wake-ups made serving latencies swing
    several-fold from run to run.  Only the measured phase is pinned:
    the builds keep every CPU."""
    cpu = min(os.sched_getaffinity(0))
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:     # the thread ended meanwhile
                pass
    return cpu


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, int(np.ceil(q * len(v))) - 1))]


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

def measured_run(s: Session, probe: HostProbe, workload: str,
                 seconds: float) -> dict:
    from engine.query import InvertedIndex

    seed = s.seed
    s.make_inputs()
    server = None
    try:
        s.start_ray()
        s.build_all()
        s.attach_all()
        budget = s.cache_budget(workload)
        idx = s.timed("index_load", InvertedIndex, s.full,
                      cache_budget_bytes=budget)
        server = s.timed("serve_start", Server, s)
        setup_s = (time.perf_counter() - PROC_START) - s.excluded_s
        pinned_cpu = pin_process_tree()

        items = query_items(s.mix, seed)
        reqs = s.reqs
        # warm-up: one untimed round of everything
        t = time.perf_counter()
        for kind, q in items:
            run_query(idx, kind, q)
        for tier in TIERS:
            for r in reqs:
                post(server.ports[tier], r["body"])
        s.phases["warmup"] = time.perf_counter() - t

        q_lat = {"bm25": [], "phrase": [], "weighted": []}
        t_lat = {tier: [] for tier in TIERS}
        # per request shape, for the record: the pooled serving metrics
        # depend on the mix's shape counts, which are assumed
        shape_lat = {tier: {} for tier in TIERS}
        # throughput per round (recorded); the metric is operations over
        # busy time of the whole run, which moves smoothly with the share
        # of the run the host spends in its fast and its slow state, where
        # a median over rounds jumps between the two
        q_qps: list[float] = []
        t_qps = {tier: [] for tier in TIERS}
        first_q, first_r = None, None
        mismatches: list[str] = []
        rounds = 0
        t_run = time.perf_counter()
        q_cut = np.linspace(0, len(items), CHUNKS + 1).astype(int)
        r_cut = np.linspace(0, len(reqs), CHUNKS + 1).astype(int)
        while True:
            answers = []
            q_busy = 0.0
            responses = {tier: [] for tier in TIERS}
            busy = dict.fromkeys(TIERS, 0.0)
            n = dict.fromkeys(TIERS, 0)
            for c in range(CHUNKS):
                for kind, q in items[q_cut[c]:q_cut[c + 1]]:
                    a = time.perf_counter()
                    answers.append(run_query(idx, kind, q))
                    dt = time.perf_counter() - a
                    q_lat[kind].append(dt)
                    q_busy += dt
                    s.attempted += 1
                for tier in TIERS:
                    for r in reqs[r_cut[c]:r_cut[c + 1]]:
                        a = time.perf_counter()
                        status, raw = post(server.ports[tier], r["body"])
                        dt = time.perf_counter() - a
                        s.attempted += 1
                        if status != 200:
                            s.failed += 1
                        shape_lat[tier].setdefault(r["shape"], []).append(dt)
                        if counted(tier, r["shape"]):
                            t_lat[tier].append(dt)
                            busy[tier] += dt
                            n[tier] += 1
                        responses[tier].append((status, raw))
            q_qps.append(len(items) / q_busy)
            for tier in TIERS:
                t_qps[tier].append(n[tier] / busy[tier])
            if first_q is None:
                first_q = answers
            elif answers != first_q:
                mismatches.append(f"round {rounds}: query answers changed")
            if first_r is None:
                first_r = responses
            elif responses != first_r:
                mismatches.append(f"round {rounds}: responses changed")
            rounds += 1
            if time.perf_counter() - t_run >= seconds:
                break
        run_wall = time.perf_counter() - t_run

        # checks against the oracle (first round; later rounds equal it)
        t = time.perf_counter()
        errs = list(mismatches)
        errs += check_queries(s.corpus, items, first_q)
        other = InvertedIndex(s.full, cache_budget_bytes=(
            s.cache_budget("cold") if workload == "warm"
            else DEFAULT_BUDGET))
        if [run_query(other, k, q) for k, q in items] != first_q:
            errs.append("warm and cold cache budgets answer differently")
        for tier in TIERS:
            for r, (status, raw) in zip(reqs, first_r[tier]):
                payload = json.loads(raw) if raw else None
                if is_kept_failure(tier, r, status, payload):
                    continue
                err = check_response(s.corpus, tier, r, status, payload)
                if err:
                    errs.append(f"{tier} {r['shape']} {r['body']}: {err}")
        s.phases["check"] = time.perf_counter() - t
    finally:
        t = time.perf_counter()
        if server is not None:
            server.close()
        s.stop_ray()
        s.phases["teardown"] = time.perf_counter() - t

    def ms(v):
        return v * 1e3

    def rate(per_round: list[float]) -> float:
        """Operations per busy second over all rounds (each round runs
        the same operations, so this is the harmonic mean)."""
        return len(per_round) / sum(1.0 / r for r in per_round)

    metrics = {
        "setup_s": (setup_s, "s"),
        "build_docs_per_s": (sum(s.build_docs) / sum(s.build_s), "docs/s"),
        "index_bytes_per_posting": (s.index_bytes_per_posting(),
                                    "B/posting"),
        "bm25_p50_ms": (ms(statistics.median(q_lat["bm25"])), "ms"),
        "bm25_p95_ms": (ms(pct(q_lat["bm25"], 0.95)), "ms"),
        "phrase_p50_ms": (ms(statistics.median(q_lat["phrase"])), "ms"),
        "weighted_p50_ms": (ms(statistics.median(q_lat["weighted"])), "ms"),
        "query_qps": (rate(q_qps), "1/s"),
    }
    for tier in TIERS:
        metrics[f"serve_{tier}_p50_ms"] = (
            ms(statistics.median(t_lat[tier])), "ms")
        metrics[f"serve_{tier}_qps"] = (rate(t_qps[tier]), "1/s")
    record = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "run_wall_s": run_wall, "cpus": s.cpus, "phases": s.phases,
        "build_s": s.build_s, "cache_budget_bytes": budget,
        "working_set_postings": s.working_set_postings(),
        "samples": {k: len(v) for k, v in q_lat.items()}
        | {f"serve_{t}": len(v) for t, v in t_lat.items()},
        "round_qps": {"query": q_qps} | t_qps, "pinned_cpu": pinned_cpu,
        "mean_ms": {k: ms(statistics.mean(v)) for k, v in q_lat.items()}
        | {tier: {sh: ms(statistics.mean(v)) for sh, v in by.items()}
           for tier, by in shape_lat.items()},
        "p50_ms": {tier: {sh: ms(statistics.median(v))
                          for sh, v in by.items()}
                   for tier, by in shape_lat.items()},
        "host": probe.finish(), "errors": errs[:20],
    }
    return {"correct": not errs, "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "record": record}


def main() -> int:
    # a plain SIGTERM would skip the finally blocks that stop the
    # serving process and the Ray session (see also Session.start_ray)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(SCRATCH, exist_ok=True)
    t = time.perf_counter()
    probe = HostProbe()
    s = Session(args.seed)
    s.excluded_s += time.perf_counter() - t     # the probe is no set-up
    try:
        if args.trace:
            from layers import traced_run
            res = traced_run(s, probe, args.workload)
        else:
            res = measured_run(s, probe, args.workload, args.seconds)
    except Exception as e:
        if isinstance(e, CheckFailed):
            log(f"check failed: {e}")
        else:
            traceback.print_exc()
        # the operations counted so far; a run that fails before its
        # first operation has none to report and prints no result
        if s.attempted:
            print(json.dumps({"correct": False, "attempted": s.attempted,
                              "failed": s.failed, "metrics": {}}))
        return 1
    record = res.pop("record")
    runs = os.path.join(SCRATCH, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump(record | res, f, indent=1)
    log(json.dumps(record))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
