#!/usr/bin/env python3
"""The scoris benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload est_dense --seed 42 --trace 0

It works on the scoris source tree that holds perfbench/.  The first run
configures and builds perfbench/ (the scoris library and CLI from that
tree plus perfbench/driver.cpp) in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR); inputs, outputs, sockets, logs and run records go
under .perfbench/.

--trace 0 times the program as users run it (the library's public API in
perfbench_driver, `scoris serve`, `scoris worker`) and prints the
end-to-end metrics.  --trace 1 is the separate traced run: perfbench_driver
replays the workload by calling each layer's public functions with a span
around every call, and the per-layer metrics come from those spans.  The
last stdout line of a run is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it the full run record (fingerprint, samples,
counters, digests); a run that cannot complete prints neither and exits
with status 1.  Every run checks its outputs: m8 digests against the
`scoris` CLI on the same files, exact work counters across repetitions and
against perfbench/expected.json for its recorded seeds, served answers
against an in-process Session::search.

Maintenance:
    --write-benchmark-json   regenerate BENCHMARK.json from the tables below
    --record-expected        record digests and counters of --seed into
                             perfbench/expected.json
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
THREADS = min(4, NPROC)
SETUP_ONLY_REPS = 3        # extra set-up samples per batch run
STREAM_SETUPS = 3          # set-up-only server spawns per query_stream run
STREAM_WINDOWS = 4         # query windows, each on a fresh server
STREAM_QUERIES = 64        # the fixed query set
STREAM_CONNECTIONS = 2
STREAM_SAMPLE = 8          # queries cross-checked against Session::search
STREAM_TRACED = 16         # queries the traced run replays
DIST_WORKERS = 2
DIST_WORKER_THREADS = 2
DIST_SLICES = 8
STEP_TIMEOUT = 120         # seconds, any single child process

WORKLOADS = {
    "est_dense": dict(
        data="est", strand="plus", kind="batch",
        why="EST5xEST7 at scale 0.1, plus strand: the paper's intensive "
            "EST case; rich homology makes the gapped stage the largest "
            "share of wall time on one strand-group."),
    "genome_sparse": dict(
        data="genome", strand="both", kind="batch",
        why="H19xBCT at scale 0.1, both strands: tens of millions of seed "
            "hits and no alignment, so index and scan do all the work and "
            "the gapped stage none."),
    "query_stream": dict(
        data="stream", strand="plus", kind="stream",
        why="scoris serve on a .scix of EST5 at scale 0.2, closed loop over "
            "2 connections of one-sequence EST7 queries: small-query "
            "latency, store and connection server."),
    "est_dist": dict(
        data="est", strand="plus", kind="dist",
        why="est_dense's inputs through 2 scoris worker processes (8 "
            "slices): coordinator, spill-run wire streaming and the "
            "multi-group merge, with est_dense's compute."),
}

# name, unit, better, bound, what a user sees.  The time bounds are wide
# because the host's speed drifts by 10-20% over minutes (shared VM).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "time until the program accepts work (median of several set-ups)"),
    ("wall_s", "s", "lower", 0.25,
     "batch: FASTA on disk to m8 closed; stream: one pass over the "
     "query set"),
    ("cpu_s", "s", "lower", 0.25,
     "user+sys seconds of the program's processes per wall_s operation"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest peak RSS among the program's processes (wait4 rusage)"),
    ("query_p50_ms", "ms", "lower", 0.25,
     "median latency of one query: QRY to DONE, or one search() call"),
    ("query_p95_ms", "ms", "lower", 0.25,
     "p95 latency, or the highest percentile with 10 samples beyond it"),
    ("queries_per_s", "1/s", "higher", 0.25,
     "bank-2 sequences (queries) answered per second of search"),
]

# name, unit, better, what it counts -> the end-to-end metric it should
# move, and where.  Every workload prints every metric; a layer that does
# no work on a workload reads 0 there.
PER_LAYER = [
    ("seqio.read_s", "s", "lower", "read_fasta_file -> setup_s, batch"),
    ("seqio.subject_s", "s", "lower",
     "slice_bank + reverse_complement -> wall_s, genome_sparse/est_dist"),
    ("filter.dust_s", "s", "lower", "dust_mask -> setup_s, wall_s, batch"),
    ("filter.masked_bases", "count", "lower", "DUST-masked positions"),
    ("index.build1_s", "s", "lower",
     "bank-1 BankIndex -> setup_s, est_dense/genome_sparse"),
    ("index.build2_s", "s", "lower",
     "bank-2 BankIndex, all groups -> wall_s genome_sparse, query_p50_ms"),
    ("index.resident_bytes", "B", "lower",
     "dictionary + chain + CSR -> peak_rss_mb"),
    ("index.paper_bytes", "B", "lower", "memory_bytes(), the paper's 5N"),
    ("store.write_s", "s", "lower", "write_index_file, query_stream"),
    ("store.load_s", "s", "lower", "load_index -> setup_s, query_stream"),
    ("store.file_bytes", "B", "lower", ".scix size, query_stream"),
    ("exec.plan_s", "s", "lower", "compile_plan / slice plan -> wall_s"),
    ("scan.s", "s", "lower",
     "scan_seed_range, all shards -> wall_s genome_sparse, query_p50_ms"),
    ("scan.hit_pairs", "count", "lower", "occurrence pairs examined"),
    ("scan.order_aborts", "count", "lower", "extensions cut by order rule"),
    ("scan.hsps", "count", "higher", "HSPs above S1"),
    ("scan.yield", "ratio", "higher", "hsps / hit_pairs"),
    ("scan.shard_max_s", "s", "lower", "slowest step-2 shard"),
    ("scan.shard_median_s", "s", "lower", "median step-2 shard"),
    ("gapped.s", "s", "lower",
     "gapped_stage -> wall_s est_dense/est_dist"),
    ("gapped.hsps_in", "count", "lower", "HSPs entering step 3"),
    ("gapped.skipped_contained", "count", "higher", "HSPs already covered"),
    ("gapped.extensions", "count", "lower", "gapped extensions run"),
    ("gapped.below_cutoff", "count", "lower", "extensions failing e-value"),
    ("gapped.yield", "ratio", "higher", "alignments / extensions"),
    ("exec.merge_s", "s", "lower",
     "RunMerger add_run + merge -> wall_s, peak_rss_mb est_dist"),
    ("exec.spilled_runs", "count", "lower", "runs spilled to temp files"),
    ("exec.spill_bytes", "B", "lower", "spill file bytes"),
    ("exec.peak_delivery_bytes", "B", "lower",
     "delivery buffer peak -> peak_rss_mb"),
    ("compare.m8_s", "s", "lower",
     "to_m8 + format_m8 + write -> wall_s est_dense"),
    ("compare.m8_rows", "count", "higher", "m8 rows written"),
    ("compare.m8_bytes", "B", "lower", "m8 bytes written"),
    ("api.build_s", "s", "lower", "Session construction -> setup_s"),
    ("api.search_s", "s", "lower", "Session::search -> query_p50_ms"),
    ("net.query_s", "s", "lower", "QueryClient::query, traced queries"),
    ("net.server_ms_p50", "ms", "lower",
     "server seconds from DONE -> query_p50_ms"),
    ("net.overhead_ms_p50", "ms", "lower",
     "client minus server time -> query_p95_ms, queries_per_s"),
    ("daemon.busy_rejects", "count", "lower", "BUSY refusals (STAT)"),
    ("dist.run_s", "s", "lower", "run_distributed -> wall_s est_dist"),
    ("dist.overhead_s", "s", "lower",
     "run_distributed minus Session::search, same inputs"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall"),
    ("unattributed_s", "s", "lower", "wall minus summed layer self time"),
    ("error_rate", "ratio", "lower", "failed / attempted operations"),
]

COUNTERS = ("hit_pairs", "order_aborts", "hsps", "gapped_extensions",
            "alignments")


class BenchError(Exception):
    """A step failed: the run prints no result and exits non-zero."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build and fingerprint --------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build perfbench/ in Release; refuse others."""
    bdir = build_dir()
    blog = WORK / "build.log"
    WORK.mkdir(parents=True, exist_ok=True)
    with open(blog, "a") as out:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT, check=False,
                timeout=600).check_returncode()
        r = subprocess.run(
            ["cmake", "--build", str(bdir), "-j", str(THREADS),
             "--target", "perfbench_driver"],
            stdout=out, stderr=subprocess.STDOUT, timeout=1800)
    if r.returncode != 0:
        raise BenchError(f"build failed, see {blog}")
    cache = (bdir / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    if not m or m.group(1) != "Release":
        raise BenchError("refusing a non-Release build "
                         f"({m.group(1) if m else 'unset'})")
    return bdir / "perfbench_driver", bdir / "scoris" / "scoris"


def source_digest():
    """SHA-256 over the program's sources (the checkout may lack .git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "cmake", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint(driver, scoris, src):
    info = json.loads(check_output([str(driver), "info"]))
    if info["build_type"] != "Release":
        raise BenchError(f"refusing a {info['build_type']} driver build")
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": src,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "kernel": check_output([str(scoris), "--kernel"]).strip(),
        "nproc": NPROC,
        "loadavg": list(os.getloadavg()),
        "threads": THREADS,
    }


# ---- processes --------------------------------------------------------------

def check_output(cmd):
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=STEP_TIMEOUT)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {r.returncode}: "
                         f"{r.stderr.strip()[-400:]}")
    return r.stdout


class Child:
    """A spawned process reaped with wait4, so its rusage is known.  Its
    stdout goes to <log>.out and its stderr to <log>."""

    def __init__(self, cmd, log_path):
        self.cmd = cmd
        self.out_path = log_path.with_suffix(".out")
        with open(self.out_path, "wb") as out, open(log_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        self.rusage = None

    def wait(self, timeout=STEP_TIMEOUT):
        deadline = time.monotonic() + timeout
        while self.rusage is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.reaped(status, rusage)
            elif time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"{self.cmd[:2]} timed out")
            else:
                time.sleep(0.002)
        return self.out_path.read_text()

    def run_json(self, timeout=STEP_TIMEOUT):
        """The last stdout line as JSON, or None on a non-zero exit."""
        out = self.wait(timeout)
        if self.proc.returncode != 0:
            return None
        return json.loads(out.strip().splitlines()[-1])

    def terminate(self):
        if self.rusage is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(30)

    def kill(self):
        if self.rusage is None:
            self.proc.kill()
            _, status, rusage = os.wait4(self.proc.pid, 0)
            self.reaped(status, rusage)

    def reaped(self, status, rusage):
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0


def wait_for_line(path, needle, child, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file() and needle in path.read_text(errors="replace"):
            return
        if child.proc.poll() is not None:
            raise BenchError(f"{child.cmd[:2]} exited before ready")
        time.sleep(0.0005)
    raise BenchError(f"{child.cmd[:2]} not ready after {timeout}s")


class Workers:
    """`scoris worker` processes on unix sockets, for est_dist."""

    def __init__(self, scoris, rundir):
        self.children = []
        self.endpoints = []
        start = time.monotonic()
        try:
            for i in range(DIST_WORKERS):
                sock = rundir / f"w{i}.sock"
                logf = rundir / f"w{i}.log"
                for p in (sock, logf):
                    p.unlink(missing_ok=True)
                self.children.append(Child(
                    [str(scoris), "worker", "--listen", f"unix:{sock}",
                     "--threads", str(DIST_WORKER_THREADS),
                     "--log-file", str(logf)], rundir / f"w{i}.stderr"))
                self.endpoints.append(f"unix:{sock}")
            for i, child in enumerate(self.children):
                wait_for_line(rundir / f"w{i}.log", "listening on", child)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - start

    def stop(self):
        for child in self.children:
            child.terminate()
        return self.children


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---- statistics -------------------------------------------------------------

def tail_percentile(values):
    """(label, value): p95 when 200+ samples, else the highest percentile
    with at least 10 samples beyond it, else the maximum."""
    v = sorted(values)
    n = len(v)
    if n >= 200:
        p = 95
    elif n > 10:
        p = math.floor(100 * (1 - 10 / n))
    else:
        return "max", v[-1]
    return f"p{p}", v[min(n - 1, math.ceil(p / 100 * n) - 1)]


# ---- inputs -----------------------------------------------------------------

def inputs(driver, data, seed):
    """Generate (once per seed) the FASTA files of a data set."""
    d = WORK / "data" / data / f"seed{seed}"
    done = d / "done.json"
    if not done.is_file():
        shutil.rmtree(d, ignore_errors=True)
        args = [str(driver), "gen", "--data", data, "--seed", str(seed),
                "--dir", str(d)]
        if data == "stream":
            args += ["--queries", str(STREAM_QUERIES)]
        done_json = check_output(args)
        done.write_text(done_json)
    return d


def cli_reference(scoris, d, strand, src):
    """m8 digest of the `scoris` CLI on the same files (cached per source
    tree and strand)."""
    key = d / f"cli-{strand}-{src[:16]}.json"
    if key.is_file():
        return json.loads(key.read_text())
    out = d / f"cli-{strand}.m8"
    check_output([str(scoris), "--bank1", str(d / "bank1.fa"),
                  "--bank2", str(d / "bank2.fa"), "--threads", str(THREADS),
                  "--strand", strand, "--out", str(out)])
    ref = {"m8_sha256": sha256_file(out),
           "rows": sum(1 for _ in open(out, "rb"))}
    out.unlink()
    key.write_text(json.dumps(ref))
    return ref


def fresh_rundir(workload):
    """An empty directory for one run's outputs, sockets and logs."""
    rundir = WORK / "run" / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    return rundir


def expected_for(workload, seed):
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(str(seed), {}).get(workload)


# ---- batch workloads (est_dense, genome_sparse, est_dist) -------------------

def batch_once(driver, scoris, d, spec, rundir, out=None):
    """One untraced operation; returns the driver's JSON plus rusage."""
    workers = Workers(scoris, rundir) if spec["kind"] == "dist" else None
    try:
        cmd = [str(driver), "batch", "--bank1", str(d / "bank1.fa"),
               "--bank2", str(d / "bank2.fa"), "--threads", str(THREADS),
               "--strand", spec["strand"]]
        if out is not None:
            cmd += ["--out", str(out)]
        if workers:
            cmd += ["--workers", ",".join(workers.endpoints),
                    "--dist-slices", str(DIST_SLICES)]
        child = Child(cmd, rundir / "driver.log")
        res = child.run_json()
    finally:
        stopped = workers.stop() if workers else []
    if res is None:
        return None
    procs = [child] + stopped
    ready = workers.ready_s if workers else 0.0
    res["setup_s"] += ready
    if "wall_s" in res:
        res["wall_s"] += ready
    res["cpu_s"] = sum(p.cpu_s() for p in procs)
    res["rss_mb"] = max(p.rss_mb() for p in procs)
    return res


def run_batch(workload, spec, seed, seconds, driver, scoris, src, trace):
    d = inputs(driver, spec["data"], seed)
    rundir = fresh_rundir(workload)
    ref = cli_reference(scoris, d, spec["strand"], src)
    expected = expected_for(workload, seed)
    problems = []

    def check(res, m8):
        if res is None:
            return "driver failed"
        digest = sha256_file(m8)
        if digest != ref["m8_sha256"]:
            return "m8 differs from the scoris CLI's"
        if res["alignments"] != ref["rows"]:
            return "alignment count differs from the scoris CLI's"
        if expected and digest != expected["m8_sha256"]:
            return "m8 differs from expected.json"
        return None

    reps = []
    failed = 0
    if trace:
        # One untraced operation for trace.overhead_s and the engine's
        # counters, then the traced replay.
        m8 = rundir / "untraced.m8"
        res = batch_once(driver, scoris, d, spec, rundir, m8)
        why = check(res, m8)
        if why:
            raise BenchError(why)
        layers = trace_batch(driver, scoris, d, spec, rundir)
        problems += trace_problems(layers, spec, ref, rundir, expected, res)
        failed = 1 if problems else 0
        layers["trace.overhead_s"] = layers["replay_wall_s"] - res["wall_s"]
        layers["error_rate"] = failed / 2
        return finish(workload, seed, trace, 2, failed, problems,
                      metrics_per_layer(layers), {"reference": ref})

    attempted = 0
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds or len(reps) < 2:
        m8 = rundir / "out.m8"
        res = batch_once(driver, scoris, d, spec, rundir, m8)
        attempted += 1
        why = check(res, m8)
        if why:
            problems.append(why)
            failed += 1
            if failed > 2:
                break
            continue
        reps.append(res)
    if not reps:
        raise BenchError("; ".join(problems))
    setups = [r["setup_s"] for r in reps]
    rss = [r["rss_mb"] for r in reps]
    for _ in range(SETUP_ONLY_REPS):
        res = batch_once(driver, scoris, d, spec, rundir)
        attempted += 1
        if res is None:
            problems.append("set-up run failed")
            failed += 1
        else:
            setups.append(res["setup_s"])
            rss.append(res["rss_mb"])

    # Exact work counters: every repetition matches expected.json, or for
    # an unrecorded seed the first repetition.  est_dist's coordinator
    # reports its local share only, so only its alignment count is exact.
    keys = COUNTERS if spec["kind"] == "batch" else ("alignments",)
    want = expected["counters"] if expected else reps[0]
    counters = {k: want[k] for k in keys}
    for r in reps:
        drift = {k: r[k] for k in keys if r[k] != counters[k]}
        if drift:
            problems.append(f"work counters {drift} != {counters}")
            failed += 1

    search = [r["search_s"] for r in reps]
    label, tail = tail_percentile(search)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": max(rss),
        "query_p50_ms": 1000 * statistics.median(search),
        "query_p95_ms": 1000 * tail,
        "queries_per_s": statistics.median(r["queries"] / r["search_s"]
                                           for r in reps),
    }
    detail = {"reference": ref, "counters": counters,
              "query_tail_percentile": label,
              "samples": {"wall_s": [r["wall_s"] for r in reps],
                          "setup_s": setups, "search_s": search,
                          "rss_mb": rss}}
    return finish(workload, seed, trace, attempted, failed, problems,
                  metrics_end_to_end(metrics), detail)


def trace_batch(driver, scoris, d, spec, rundir):
    workers = Workers(scoris, rundir) if spec["kind"] == "dist" else None
    try:
        cmd = [str(driver), "trace", "--bank1", str(d / "bank1.fa"),
               "--bank2", str(d / "bank2.fa"), "--threads", str(THREADS),
               "--strand", spec["strand"], "--out", str(rundir / "traced.m8")]
        if workers:
            cmd += ["--workers", ",".join(workers.endpoints),
                    "--dist-slices", str(DIST_SLICES)]
        res = Child(cmd, rundir / "trace.log").run_json()
    finally:
        if workers:
            workers.stop()
    if res is None:
        raise BenchError("traced run failed, see " + str(rundir))
    return res


# Work counters of the traced replay, by the engine's names.
TRACE_COUNTERS = {"hit_pairs": "scan.hit_pairs",
                  "order_aborts": "scan.order_aborts", "hsps": "scan.hsps",
                  "gapped_extensions": "gapped.extensions",
                  "alignments": "compare.m8_rows"}


def trace_counters(layers):
    return {k: int(layers[v]) for k, v in TRACE_COUNTERS.items()}


def trace_problems(layers, spec, ref, rundir, expected, untraced):
    """The traced run must describe the untraced program: same m8 bytes,
    same counters (est_dist's sliced plan has its own)."""
    problems = []
    if sha256_file(rundir / "traced.m8") != ref["m8_sha256"]:
        problems.append("traced m8 differs from the untraced m8")
    digests = layers.pop("digests")
    if len(set(digests.values())) > 1:
        problems.append(f"m8 digests differ across paths: {digests}")
    counters = trace_counters(layers)
    if spec["kind"] == "batch":
        for k, v in counters.items():
            if v != untraced[k]:
                problems.append(f"traced {k} {v} != untraced {untraced[k]}")
    if expected and counters != expected["counters"]:
        problems.append(f"traced counters {counters} != expected "
                        f"{expected['counters']}")
    return problems


# ---- query_stream -----------------------------------------------------------

class Server:
    def __init__(self, scoris, scix, rundir):
        self.sock = rundir / "serve.sock"
        self.logf = rundir / "serve.log"
        for p in (self.sock, self.logf):
            p.unlink(missing_ok=True)
        self.spawned_at = time.monotonic()
        self.child = Child(
            [str(scoris), "serve", "--index", str(scix),
             "--listen", f"unix:{self.sock}", "--threads", str(THREADS),
             "--max-clients", str(STREAM_CONNECTIONS + 2),
             "--log-file", str(self.logf)], rundir / "serve.stderr")

    def endpoint(self):
        return f"unix:{self.sock}"


def load(driver, server, queries, seconds, rundir, start=0):
    return Child([str(driver), "load", "--connect", server.endpoint(),
                  "--spawned-at", repr(server.spawned_at),
                  "--seconds", repr(seconds), "--queries", str(queries),
                  "--connections", str(STREAM_CONNECTIONS),
                  "--start", str(start)],
                 rundir / "load.log").run_json()


def trace_stream(driver, scoris, d, scix, rundir):
    """The traced query_stream run, against a live `scoris serve`."""
    server = Server(scoris, scix, rundir)
    try:
        wait_for_line(server.logf, "listening on", server.child)
        res = Child([str(driver), "trace", "--scix", str(scix),
                     "--ref", str(d / "ref.fa"), "--queries",
                     str(d / "queries.fa"), "--threads", str(THREADS),
                     "--count", str(STREAM_TRACED),
                     "--connect", server.endpoint(),
                     "--store-out", str(rundir / "rewritten.scix")],
                    rundir / "trace.log").run_json()
    finally:
        server.child.terminate()
    if res is None:
        raise BenchError("traced run failed, see " + str(rundir))
    return res


def run_stream(workload, spec, seed, seconds, driver, scoris, src, trace):
    d = inputs(driver, spec["data"], seed)
    rundir = fresh_rundir(workload)
    scix = rundir / "ref.scix"
    check_output([str(scoris), "index", "--bank", str(d / "ref.fa"),
                  "--out", str(scix)])
    queries = d / "queries.fa"
    expected = expected_for(workload, seed)
    problems = []
    failed = 0

    # In-process Session::search answers for a sample of the query set.
    sample = json.loads(check_output(
        [str(driver), "answers", "--scix", str(scix), "--queries",
         str(queries), "--threads", str(THREADS), "--count",
         str(STREAM_SAMPLE)]))

    def answer_problems(answers, what):
        out = [f"{what} answer {q} differs from Session::search"
               for q, v in sample.items() if answers.get(q, v) != v]
        if expected:
            out += [f"{what} answer {q} differs from expected.json"
                    for q, v in answers.items()
                    if expected["answers"].get(q) != v]
        return out

    if trace:
        res = trace_stream(driver, scoris, d, scix, rundir)
        answers = res.pop("answers")
        problems += answer_problems(answers, "traced")
        for path, dmap in res.pop("paths").items():
            if dmap != answers:
                problems.append(f"{path} answers differ from the replay")
        if expected and trace_counters(res) != expected["counters"]:
            problems.append(f"traced counters {trace_counters(res)} != "
                            f"expected {expected['counters']}")
        failed = 1 if problems else 0
        res["error_rate"] = failed
        return finish(workload, seed, trace, 1, failed, problems,
                      metrics_per_layer(res), {})

    # Set-up only: spawn to first HELO.  Their CPU is the server's
    # set-up cost, taken off the query windows' CPU below.
    setups, setup_cpu = [], []
    for _ in range(STREAM_SETUPS):
        server = Server(scoris, scix, rundir)
        try:
            res = load(driver, server, queries, 0, rundir)
        finally:
            server.child.terminate()
        if res is None:
            raise BenchError("server set-up failed, see " + str(rundir))
        setups.append(res["setup_s"])
        setup_cpu.append(server.child.cpu_s())

    # Query windows, each on a fresh server: a pause of the host hits one
    # window, and the peak RSS is the largest of several server lives.
    windows = []
    for _ in range(STREAM_WINDOWS):
        server = Server(scoris, scix, rundir)
        try:
            # Each window resumes the query cycle where the last stopped.
            res = load(driver, server, queries, seconds / STREAM_WINDOWS,
                       rundir, sum(w["completed"] for w in windows))
        finally:
            server.child.terminate()
        if res is None or res["completed"] == 0:
            raise BenchError("query load failed, see " + str(rundir))
        res["cpu_s"] = server.child.cpu_s() - statistics.median(setup_cpu)
        res["rss_mb"] = server.child.rss_mb()
        windows.append(res)
        setups.append(res["setup_s"])

    digests = {}
    latency = []
    for w in windows:
        failed += w["failed"] + w["inconsistent"]
        if w["busy"]:
            problems.append(f"{w['busy']} BUSY refusals")
        if w["failed"]:
            problems.append(f"{w['failed']} failed queries")
        for q, v in w["digests"].items():
            if digests.setdefault(q, v) != v:
                w["inconsistent"] += 1
        if w["inconsistent"]:
            problems.append("one query got different answers")
            failed += w["inconsistent"]
        latency += w["latency_s"]
    wrong = answer_problems(digests, "served")
    if len(digests) < STREAM_QUERIES:
        wrong.append("the run did not cover the query set")
    problems += wrong
    failed += len(wrong)

    label, tail = tail_percentile(latency)
    qps = statistics.median(w["completed"] / w["elapsed_s"] for w in windows)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": STREAM_QUERIES / qps,
        "cpu_s": statistics.median(w["cpu_s"] * STREAM_QUERIES /
                                   w["completed"] for w in windows),
        "peak_rss_mb": max(w["rss_mb"] for w in windows),
        "query_p50_ms": 1000 * statistics.median(latency),
        "query_p95_ms": 1000 * tail,
        "queries_per_s": qps,
    }
    detail = {"query_tail_percentile": label, "completed": len(latency),
              "samples": {"setup_s": setups,
                          "queries_per_s": [w["completed"] / w["elapsed_s"]
                                            for w in windows],
                          "rss_mb": [w["rss_mb"] for w in windows]}}
    attempted = len(latency) + sum(w["failed"] for w in windows) + \
        len(setups)
    return finish(workload, seed, trace, attempted, failed, problems,
                  metrics_end_to_end(metrics), detail)


# ---- output -----------------------------------------------------------------

def metrics_end_to_end(values):
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _, _ in END_TO_END}


def metrics_per_layer(values):
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _, _ in PER_LAYER}


FINGERPRINT = {}


def finish(workload, seed, trace, attempted, failed, problems, metrics,
           detail):
    record = {"workload": workload, "seed": seed, "trace": trace,
              "fingerprint": FINGERPRINT, "problems": problems,
              "metrics": metrics, **detail}
    rec_dir = WORK / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    (rec_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    for p in problems:
        log(f"{workload}: {p}")
    return {"record": record,
            "result": {"correct": not problems and failed == 0,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def record_expected(seed, driver, scoris, src):
    """Record the m8 digest (or per-query answers) and the exact work
    counters of `seed` for every workload into expected.json."""
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    entry = {}
    for name, spec in WORKLOADS.items():
        d = inputs(driver, spec["data"], seed)
        rundir = fresh_rundir(name)
        if spec["kind"] == "stream":
            scix = rundir / "ref.scix"
            check_output([str(scoris), "index", "--bank", str(d / "ref.fa"),
                          "--out", str(scix)])
            answers = json.loads(check_output(
                [str(driver), "answers", "--scix", str(scix), "--queries",
                 str(d / "queries.fa"), "--threads", str(THREADS),
                 "--count", str(STREAM_QUERIES)]))
            layers = trace_stream(driver, scoris, d, scix, rundir)
            entry[name] = {"answers": answers,
                           "counters": trace_counters(layers)}
            continue
        ref = cli_reference(scoris, d, spec["strand"], src)
        layers = trace_batch(driver, scoris, d, spec, rundir)
        if sha256_file(rundir / "traced.m8") != ref["m8_sha256"]:
            raise BenchError(f"{name}: traced m8 differs from the CLI's")
        entry[name] = {"m8_sha256": ref["m8_sha256"],
                       "counters": trace_counters(layers)}
    data[str(seed)] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    try:
        if not (ROOT / "src" / "api" / "session.hpp").is_file():
            raise BenchError(f"{ROOT} is not a scoris source tree")
        # Spill files and any other temp files stay inside the checkout.
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(WORK / "tmp")
        driver, scoris = build()
        src = source_digest()
        FINGERPRINT.update(fingerprint(driver, scoris, src))
        if args.record_expected:
            record_expected(args.seed, driver, scoris, src)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        spec = WORKLOADS[args.workload]
        run = run_stream if spec["kind"] == "stream" else run_batch
        out = run(args.workload, spec, args.seed, args.seconds, driver,
                  scoris, src, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
