"""Set-up shared by the measured and the traced run, the serving child
process, and the checks of every answer against the oracle."""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import fixture
from oracle import Corpus, check_ranking

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

RAY_CPUS = 2
SERVER_READY_TIMEOUT_S = 120
TIERS = ("replica", "termshard", "docshard")
DEFAULT_BUDGET = 1 << 30      # InvertedIndex's default cache budget
COLD_DIVISOR = 10             # cold budget = working set / 10
BYTES_PER_CACHED_POSTING = 12  # int32 position + float64 score


def descendants(pid: int) -> list[int]:
    """Every process below ``pid`` in the process tree, from /proc."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = [], list(children.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo += children.get(p, [])
    return out


def _state(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def _nproc() -> int | None:
    """What ``nproc`` prints: usable CPUs, capped by OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True,
                                  text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None



# ---------------------------------------------------------------------------
# set-up shared by the measured and the traced run
# ---------------------------------------------------------------------------

class Session:
    """Inputs, oracle, Ray session and built indexes of one run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.excluded_s = 0.0      # fixture + oracle: not set-up time
        self.phases: dict[str, float] = {}
        self.ray_tmp = None
        # operations of the measured phase (queries, HTTP requests); a
        # run that fails reports these as far as it got
        self.attempted = 0
        self.failed = 0
        self.cpus = {"nproc": _nproc(),
                     "affinity": len(os.sched_getaffinity(0)),
                     "ray_logical": RAY_CPUS}

    def timed(self, name: str, fn, *a, **kw):
        t = time.perf_counter()
        out = fn(*a, **kw)
        self.phases[name] = self.phases.get(name, 0.0) + (
            time.perf_counter() - t)
        return out

    def make_inputs(self) -> None:
        t = time.perf_counter()
        self.fx = self.timed("fixture", fixture.make_fixture,
                             os.path.join(SCRATCH, "fixtures"), self.seed)
        self.corpus = self.timed("oracle", Corpus.from_parquet,
                                 self.fx["all"])
        self.mix = fixture.make_query_mix(self.seed, self.corpus)
        self.reqs = fixture.make_request_mix(self.seed, self.corpus)
        self.excluded_s += time.perf_counter() - t

    def start_ray(self) -> None:
        import ray
        env_path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + env_path
                                           if env_path else "")
        kw = {}
        tmp = os.path.join(SCRATCH, "ray")
        # Ray puts unix sockets under its temp dir; their paths must stay
        # under 108 bytes, so a deep checkout falls back to Ray's default
        if len(tmp) <= 40:
            os.makedirs(tmp, exist_ok=True)
            kw["_temp_dir"] = tmp
            self.ray_tmp = tmp
        self.timed("ray_init", ray.init, address="local", num_cpus=RAY_CPUS,
                   include_dashboard=False, logging_level="ERROR",
                   log_to_driver=False, object_store_memory=256 << 20, **kw)
        # Ray's core worker answers SIGTERM by exiting on the spot, which
        # skips the finally blocks that stop the session; exit through
        # Python instead
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop_ray(self) -> None:
        """End the session, stop any of its processes that outlive the
        shutdown (an interrupted run can leave Ray's agents behind), and
        drop its session dir (logs, sockets)."""
        import ray
        left = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        deadline = time.monotonic() + 10
        while left and time.monotonic() < deadline:
            left = [p for p in left if os.path.exists(f"/proc/{p}")
                    and _state(p) not in ("Z", None)]
            time.sleep(0.2)
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        if self.ray_tmp:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)

    def build_all(self) -> None:
        """Positional index over the whole fixture and over each url-hash
        half; every manifest is checked against the oracle."""
        from engine.build import build_index
        from engine.config import EngineConfig
        self.cfg = EngineConfig(store_positions=True)
        idx_root = os.path.join(SCRATCH, "index")
        shutil.rmtree(idx_root, ignore_errors=True)
        self.full = os.path.join(idx_root, "full")
        self.shards = [os.path.join(idx_root, f"shard-{i}")
                       for i in range(fixture.N_DOC_SHARDS)]
        shard_of = fixture.url_shard(self.corpus.urls)
        self.build_s = []
        self.manifests = {}
        for name, src, dst, mask in (
                [("full", self.fx["all"], self.full, None)]
                + [(f"shard-{i}", self.fx["shards"][i], self.shards[i],
                    shard_of == i) for i in range(fixture.N_DOC_SHARDS)]):
            t = time.perf_counter()
            m = build_index(src, dst, self.cfg, resume=False)
            self.build_s.append(time.perf_counter() - t)
            self.phases["build"] = self.phases.get("build", 0.0) + \
                self.build_s[-1]
            self.manifests[name] = m
            check_build(m["stats"], self.corpus, mask)
        self.build_docs = [m["stats"]["n_docs"]
                           for m in self.manifests.values()]
        if self.manifests["full"]["stats"]["n_docs"] != \
                self.corpus.n_distinct_urls:
            raise CheckFailed("n_docs differs from DuckDB's distinct urls")

    def attach_all(self) -> None:
        from engine.docvalues import attach_doc_values
        for dst, src in [(self.full, self.fx["all"])] + list(
                zip(self.shards, self.fx["shards"])):
            self.timed("attach", attach_doc_values, dst, src,
                       ["lang", "text"], dedup="earliest")

    def index_bytes_per_posting(self) -> float:
        from engine import index_io
        total = 0
        for p in range(self.cfg.num_parts):
            d = index_io.part_dir(self.full, "postings", p)
            for f in ("postings.bin", "skips.bin"):
                path = os.path.join(d, f)
                if os.path.exists(path):
                    total += os.path.getsize(path)
        return total / self.manifests["full"]["stats"]["n_postings"]

    def working_set_postings(self) -> int:
        terms = set()
        for q in self.mix["bm25"] + self.mix["phrase"]:
            terms.update(self.corpus.query_terms(q))
        for w in self.mix["weighted"]:
            terms.update(w)
        return int(sum(self.corpus.postings[t][0].size for t in terms
                       if t in self.corpus.postings))

    def cache_budget(self, workload: str) -> int:
        if workload == "warm":
            return DEFAULT_BUDGET
        return (self.working_set_postings() * BYTES_PER_CACHED_POSTING
                // COLD_DIVISOR)


class CheckFailed(Exception):
    pass


def check_build(stats: dict, corpus: Corpus, mask) -> None:
    docs = (np.ones(corpus.n_docs, bool) if mask is None
            else np.asarray(mask, bool))
    want = {
        "n_docs": int(docs.sum()),
        "total_tokens": int(corpus.dl[docs].sum()),
        "n_postings": int(corpus.doc_terms[docs].sum()),
    }
    for key, v in want.items():
        if int(stats[key]) != v:
            raise CheckFailed(f"build {key}={stats[key]}, oracle {v}")


# ---------------------------------------------------------------------------
# serving child process + HTTP client
# ---------------------------------------------------------------------------

class Server:
    def __init__(self, session: Session):
        import ray
        self.log = open(os.path.join(SCRATCH, "server.log"), "w")
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--address", ray.get_runtime_context().gcs_address,
               "--full", session.full, "--shards", *session.shards]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("serving process did not start; see "
                               + self.log.name)
        self.ports = json.loads(line)["ports"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


def post(port: int, body: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/v1/search", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def counted(tier: str, shape: str) -> bool:
    """Requests that enter a tier's latency and QPS: every shape, except
    facet on the term-sharded tier, which has no facet support today and
    whose failures are counted in ``failed`` instead."""
    return not (tier == "termshard" and shape == "facet")


# ---------------------------------------------------------------------------
# answers and their checks
# ---------------------------------------------------------------------------

def run_query(idx, kind: str, q):
    if kind == "bm25":
        return idx.search(q, k=fixture.K)
    if kind == "phrase":
        return idx.search_phrase(q, k=fixture.K)
    return idx.search_weighted(q, k=fixture.K)


def query_items(mix: dict, seed: int) -> list[tuple[str, object]]:
    items = ([("bm25", q) for q in mix["bm25"]]
             + [("phrase", q) for q in mix["phrase"]]
             + [("weighted", w) for w in mix["weighted"]])
    order = np.random.default_rng([seed, 7003]).permutation(len(items))
    return [items[i] for i in order]


def oracle_ranking(corpus: Corpus, kind: str, q, lang=None):
    if kind == "bm25":
        return corpus.bm25(q, fixture.K, lang)
    if kind == "phrase":
        return corpus.phrase(q, fixture.K)
    return corpus.weighted(q, fixture.K)


def check_queries(corpus: Corpus, items, answers) -> list[str]:
    errs = []
    for (kind, q), got in zip(items, answers):
        err = check_ranking(got, oracle_ranking(corpus, kind, q))
        if err is None and kind == "phrase":
            for d, _ in got:
                if not corpus.has_phrase(corpus.index_of(d), q):
                    err = f"hit {d} lacks the phrase"
        if err:
            errs.append(f"{kind} {q!r}: {err}")
    return errs


def check_response(corpus: Corpus, tier: str, req: dict, status: int,
                   payload) -> str | None:
    from engine.tokenize import tokenize
    shape, body = req["shape"], req["body"]
    if status != 200:
        return f"HTTP {status}: {payload}"
    hits = payload.get("hits", [])
    got = [(h["doc_id"], h["score"]) for h in hits]
    if shape == "weights":
        want = corpus.weighted(body["weights"], fixture.K)
    else:
        lang = body["filter"]["values"][0] if shape == "lang" else None
        want = corpus.bm25(body["query"], fixture.K, lang)
    err = check_ranking(got, want)
    if err:
        return err
    for h in hits:
        if h["url"] != corpus.url_of(h["doc_id"]):
            return f"doc {h['doc_id']}: url {h['url']!r}"
    if shape == "total" and payload.get("total") != \
            corpus.match_count(body["query"]):
        return f"total {payload.get('total')}"
    if shape == "lang":
        lang = body["filter"]["values"][0]
        if any(corpus.lang_of(h["doc_id"]) != lang for h in hits):
            return "hit outside the lang filter"
    if shape == "snippets":
        terms = set(corpus.query_terms(body["query"]))
        for h in hits:
            sn = h.get("snippet")
            if not isinstance(sn, str) or not terms & set(tokenize(sn)):
                return f"doc {h['doc_id']}: snippet {sn!r}"
    if shape == "facet":
        got_f = {f["value"]: f["n_docs"] for f in payload.get("facets", [])}
        if got_f != corpus.facet(body["query"]):
            return f"facets {got_f}"
    return None


def is_kept_failure(tier: str, req: dict, status: int, payload) -> bool:
    return (tier == "termshard" and req["shape"] == "facet"
            and status == 400 and isinstance(payload, dict)
            and payload.get("error", {}).get("code") == "unsupported_filter")
