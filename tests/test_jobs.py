"""Smoke tests for the cluster job entrypoints (the north-rule
deployment shape: ``ray job submit -- python tools/build_job.py`` /
``serve_job.py``).  Each CLI owns its OWN Ray session, so the tests
run them as fresh subprocesses with ``--local-cpus`` — independent of
the pytest fixture session — and check the documented JSON contract:
build stats line, resume on resubmit, serve + one search round-trip.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, timeout=420):
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, cwd=REPO, timeout=timeout)


def _json_lines(stdout: str) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


def test_build_job_cli(unit_webtext, tmp_path):
    out_dir = str(tmp_path / "jobidx")
    argv = ["tools/build_job.py", "--input", unit_webtext,
            "--output", out_dir, "--num-parts", "4",
            "--docmeta-parts", "2", "--local-cpus", "4",
            "--smoke-query", "the data"]
    r = _run(argv)
    assert r.returncode == 0, r.stderr[-2000:]
    stats, smoke = _json_lines(r.stdout)[-2:]
    assert stats["n_docs"] > 0 and stats["n_postings"] > 0
    assert stats["num_parts"] == 4
    assert smoke["topk"], smoke

    # resubmitting the same job must resume (manifest anti-join skips
    # committed parts) and report the SAME corpus stats
    r2 = _run(argv)
    assert r2.returncode == 0, r2.stderr[-2000:]
    stats2 = _json_lines(r2.stdout)[-2]
    assert stats2["n_docs"] == stats["n_docs"]
    assert stats2["n_postings"] == stats["n_postings"]


def test_build_job_one_cpu_session(tmp_path):
    """A build makes progress in a 1-CPU Ray session: the hash-shuffle
    aggregators must leave a whole CPU to the map tasks (a pool that
    reserved the only CPU stalled the build with no error)."""
    import pyarrow.parquet as pq
    from engine.fixtures import gen_webtext
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(gen_webtext(1000), str(src / "part-0.parquet"))
    r = _run(["tools/build_job.py", "--input", str(src),
              "--output", str(tmp_path / "idx1cpu"), "--local-cpus", "1"],
             timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    assert _json_lines(r.stdout)[-1]["n_docs"] > 0


def test_serve_job_cli(unit_webtext, tmp_path):
    out_dir = str(tmp_path / "srvidx")
    r = _run(["tools/build_job.py", "--input", unit_webtext,
              "--output", out_dir, "--num-parts", "4",
              "--docmeta-parts", "2", "--local-cpus", "4"])
    assert r.returncode == 0, r.stderr[-2000:]

    for tier, extra in (("replicas", ["--replicas", "1"]),
                        ("term-shards", ["--shards", "2",
                                         "--fronts", "1"])):
        r = _run(["tools/serve_job.py", "--index", out_dir,
                  "--tier", tier, "--local-cpus", "4", "--smoke"]
                 + extra)
        assert r.returncode == 0, (tier, r.stderr[-2000:])
        lines = _json_lines(r.stdout)
        assert lines[0]["status"] == "serving" and \
            lines[0]["tier"] == tier
        hits = lines[1]["smoke_search"]["hits"]
        assert hits and all("doc_id" in h and "score" in h
                            for h in hits), tier


def test_serve_job_cli_doc_shards(ray_session, unit_webtext, tmp_path):
    """doc-shards tier through the CLI: two url-hash shard indexes
    (disjoint docs — the tier's correctness requirement), --index given
    once per shard, one smoke search through the distributed-IDF
    exchange."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.tokenize import stable_hash64

    dirs = []
    for si in range(2):
        def keep(batch: pa.Table, _si=si) -> pa.Table:
            urls = np.asarray(batch.column("url").to_pylist(),
                              dtype=object)
            m = (stable_hash64(urls) % np.uint64(2)) == np.uint64(_si)
            return batch.filter(pa.array(m))

        ds = (ray.data.read_parquet(unit_webtext,
                                    columns=["url", "warc_ts", "html"])
              .map_batches(keep, batch_format="pyarrow"))
        d = str(tmp_path / f"dsh{si}")
        build_index(ds, d, EngineConfig(num_parts=4, docmeta_parts=2))
        dirs.append(d)

    r = _run(["tools/serve_job.py", "--index", dirs[0],
              "--index", dirs[1], "--tier", "doc-shards",
              "--local-cpus", "4", "--smoke"])
    assert r.returncode == 0, r.stderr[-2000:]
    lines = _json_lines(r.stdout)
    assert lines[0]["tier"] == "doc-shards"
    assert lines[1]["smoke_search"]["hits"]
