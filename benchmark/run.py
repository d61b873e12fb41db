#!/usr/bin/env python3
"""The repo benchmark: wake-sleep learning and dc_serve under load.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds dc_perf and dc_serve from source into
.bench_build/ (Release, telemetry compiled in but off), runs one workload,
checks its outputs, and prints a results table followed, as the last line
of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Workloads, metrics and the layer -> end-to-end map: benchmark/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from aggregate import (OpCounts, median, median_rate,  # noqa: E402
                       percentile, span_self_times, tail_count,
                       window_percentile)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")

WORKLOADS = ("wakesleep-list", "serve-solve")
NPROC = os.cpu_count() or 1
# Wake-sleep threads, dc_serve workers and load-generator clients. Two,
# not one per core: on a shared 4-core host the spare cores absorb the
# collector, acceptor, load generator and neighbours (repeated wake-sleep
# runs spread +-9% at four threads, +-4% at two), and two threads still
# exercise every parallel region.
THREADS = min(2, NPROC)
CONNS = THREADS

SOLVE_BUDGETS = (300, 600, 1200)
# The connection-churn probe of the traced serve-solve run: a fresh
# connection per request, this mix (dc_perf load adds a reload every
# 500 ms).
CHURN_BUDGETS = (50, 100)
CHURN_MIX = (("health", 0.50), ("stats", 0.25), ("solve", 0.25))
CHURN_SECONDS = 3.0
MIN_LATENCY_SAMPLES = 1000     # >= 10 samples beyond the p99
MIN_RUNS = 3                   # wake-sleep runs behind each median
FAIL_LATENCY_MS = 120000.0     # a failure misses every latency limit

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "ops_per_s": "1/s", "solved_share": "ratio", "ok_share": "ratio",
    "peak_rss_mb": "MB", "peak_vm_mb": "MB",
}
PER_LAYER = {
    "wakesleep.wake_s": "s", "wakesleep.abstraction_s": "s",
    "wakesleep.dreaming_s": "s", "wakesleep.evaluate_s": "s",
    "wakesleep.abstraction_share": "ratio",
    "enum.busy_s": "s", "enum.nodes": "count", "enum.nodes_per_s": "1/s",
    "enum.programs": "count", "enum.solved_ratio": "ratio",
    "type.unify_per_s": "1/s", "type.instantiate_per_s": "1/s",
    "program.intern_per_s": "1/s", "program.parse_per_s": "1/s",
    "eval.candidates": "count", "eval.per_s": "1/s",
    "eval.fail_ratio": "ratio", "program.subterms": "count",
    "vs.compress_s": "s", "vs.topdown_compress_s": "s",
    "vs.inventions": "count", "vs.score_gain": "nats",
    "vs.cache_hit_ratio": "ratio", "vs.closure_merge_s": "s",
    "vs.prewarm_s": "s", "vs.score_s": "s", "vs.work_events": "count",
    "recognition.train_s": "s", "recognition.examples_per_s": "1/s",
    "recognition.predict_per_s": "1/s",
    "recognition.predict_batch_per_s": "1/s",
    "nn.gemm_gflops": "GFLOP/s",
    "serve.queue_ms_p50": "ms", "serve.solve_ms_p50": "ms",
    "serve.io_ms_p50": "ms", "serve.enum_recog_share": "ratio",
    "serve.threads_peak": "count", "serve.rejected": "count",
    "serve.batch_size_mean": "count",
    "serve.json_parse_per_s": "1/s", "serve.service_create_s": "s",
    "serve.conn_p50_ms": "ms", "serve.conn_p99_ms": "ms",
    "serve.conn_per_s": "1/s", "serve.reload_ms_p50": "ms",
    "serve.vm_mb_per_kconn": "MB",
    "obs.trace_overhead_share": "ratio",
    "load.client_cpu_share": "ratio", "fail_share": "ratio",
}
VS_PREFIXES = ("compress", "vs.", "vs_cache", "topdown")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("benchmark: " + msg)
    sys.exit(code)


def run(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, **kw)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


# --------------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "dc_serve.cpp"))):
        fail("no DreamCoder sources next to benchmark/ (run from the repo "
             "root of a full checkout)", 2)
    if not shutil.which("cmake"):
        fail("cmake not found", 2)
    os.makedirs(WORK, exist_ok=True)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    run(["cmake", "--build", CMAKE_DIR, "-j", str(NPROC),
         "--target", "dc_perf", "dc_serve_bin"])
    return build_info()


def build_info():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    # The flags dc_perf was really compiled with (the cache still lists
    # -DNDEBUG, which the benchmark's CMakeLists strips).
    flags = ""
    with open(os.path.join(CMAKE_DIR, "compile_commands.json")) as f:
        for entry in json.load(f):
            if entry["file"].endswith("dc_perf.cpp"):
                flags = " ".join(w for w in entry["command"].split()
                                 if w.startswith(("-O", "-D", "-f", "-g",
                                                  "-m", "--cov", "-s")))
    flags += " " + cache.get("CMAKE_EXE_LINKER_FLAGS", "")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing to report numbers from a %r build" % build_type)
    for bad in ("-fsanitize", "--coverage", "-fprofile-arcs", "-O0"):
        if bad in flags:
            fail("refusing to report numbers from a build with " + bad)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"build_type": build_type, "cxx_flags": flags.strip(),
            "compiler": version}


def calibration_ms():
    """Median time of a fixed pure-Python loop: a host-speed reading
    recorded beside every result, so host drift can be told apart from a
    change in the code."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200000):
            x += i * i
        times.append((time.perf_counter() - t0) * 1000)
    return median(times)


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def host_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": model,
            "calibration_ms": calibration_ms()}


def exe(name):
    path = {"dc_perf": os.path.join(CMAKE_DIR, "dc_perf"),
            "dc_serve": os.path.join(CMAKE_DIR, "dc_tools", "dc_serve")}[name]
    if not os.access(path, os.X_OK):
        fail("missing binary " + path)
    return path


def perf(*args):
    return run([exe("dc_perf")] + [str(a) for a in args])


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Served artifacts: learned once per build of the code under test.


def artifacts():
    art = os.path.join(BUILD, "artifacts")
    st = os.stat(exe("dc_perf"))
    stamp = "%d %d" % (st.st_size, st.st_mtime_ns)
    stamp_path = os.path.join(art, "stamp")
    if os.path.isfile(stamp_path) and open(stamp_path).read() == stamp:
        return art
    shutil.rmtree(art, ignore_errors=True)
    os.makedirs(art)
    perf("artifacts", "--dir", art, "--threads", THREADS)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return art


# --------------------------------------------------------------------------
# Inputs from the workload seed


def make_requests(mix, seed, tasks, count=30000):
    """Request lines drawn from --seed alone; mix is "solve" (the
    serve-solve workload) or "churn" (the traced run's churn probe).

    The stream is a sequence of rounds. Each round holds every distinct
    request of the mix once (churn adds health and stats requests in
    CHURN_MIX proportions) in an order shuffled by the seed, so every seed
    exercises the same mix and only the order differs.
    """
    rng = random.Random("%s/%d" % (mix, seed))
    budgets = SOLVE_BUDGETS if mix == "solve" else CHURN_BUDGETS
    round_ = [("solve", (t, b)) for t in tasks for b in budgets]
    if mix == "churn":
        share = dict(CHURN_MIX)
        per_solve = len(round_) / share["solve"]
        for kind in ("health", "stats"):
            round_ += [(kind, None)] * round(per_solve * share[kind])
    lines = []
    while len(lines) < count:
        rng.shuffle(round_)
        for kind, params in round_:
            req = {"id": len(lines), "method": kind}
            if params:
                req["params"] = {"task": params[0], "node_budget": params[1],
                                 "timeout_ms": 600000}
            lines.append(json.dumps(req, separators=(",", ":")))
    return lines


# --------------------------------------------------------------------------
# dc_serve process management


def proc_status(pid):
    out = {}
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                key, _, value = line.partition(":")
                out[key] = value.split()
    except OSError:
        pass
    return out


class Server:
    """One dc_serve process; stop() always reaps it."""

    def __init__(self, art, tag, telemetry=False):
        self.port_file = os.path.join(WORK, "port-%s" % tag)
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [exe("dc_serve"), "--workers", str(CONNS), "--queue", "64",
               "--max-batch", str(CONNS), "--batch-linger-us", "200",
               "--default-timeout-ms", "600000", "--port", "0",
               "--port-file", self.port_file,
               "--domain", "list", "--checkpoint",
               os.path.join(art, "list.ckpt"),
               "--model", os.path.join(art, "list.model")]
        self.metrics_path = self.trace_path = None
        if telemetry:
            self.metrics_path = os.path.join(WORK, "serve-metrics.json")
            self.trace_path = os.path.join(WORK, "serve-trace.json")
            cmd += ["--metrics-out", self.metrics_path,
                    "--trace-out", self.trace_path]
        self.log = open(os.path.join(WORK, "serve-%s.log" % tag), "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = None
        self.threads_peak = 0
        self._sampling = False

    def wait_ready(self, timeout=60):
        """Seconds from launch to the first answered health request."""
        deadline = self.t0 + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                fail("dc_serve exited during start-up")
            if self.port is None:
                try:
                    with open(self.port_file) as f:
                        text = f.read()
                    if text.endswith("\n"):
                        self.port = int(text)
                except (OSError, ValueError):
                    pass
            if self.port is not None:
                answer = request_once(self.port, {"id": 0, "method": "health"})
                if answer and answer.get("ok"):
                    return time.perf_counter() - self.t0
            time.sleep(0.0005)
        fail("dc_serve not ready after %ds" % timeout)

    def status(self):
        return proc_status(self.proc.pid)

    def sample_threads(self):
        self._sampling = True

        def loop():
            while self._sampling:
                threads = self.status().get("Threads")
                if threads:
                    self.threads_peak = max(self.threads_peak, int(threads[0]))
                time.sleep(0.05)
        self._sampler = threading.Thread(target=loop, daemon=True)
        self._sampler.start()

    def stop(self):
        if self._sampling:
            self._sampling = False
            self._sampler.join()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def request_once(port, req):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall((json.dumps(req) + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    return None
                data += chunk
            return json.loads(data)
    except (OSError, ValueError):
        return None


def memory_mb(status, key):
    value = status.get(key)
    return float(value[0]) / 1024.0 if value else 0.0


# --------------------------------------------------------------------------
# Workloads


def wakesleep(args, result):
    """Fresh dc_perf processes, one runWakeSleep call each, until
    --seconds have passed and at least MIN_RUNS ran (one, the traced
    process, with --trace 1)."""
    trace_out = os.path.join(WORK, "wakesleep-trace.json")
    runs = []
    start = time.perf_counter()
    while len(runs) < (1 if args.trace else MIN_RUNS) or (
            not args.trace and time.perf_counter() - start < args.seconds):
        out = os.path.join(WORK, "wakesleep-%d.json" % len(runs))
        cmd = ["wakesleep", "--threads", THREADS, "--trace", args.trace,
               "--out", out]
        if args.trace:
            cmd += ["--trace-out", trace_out, "--bench-trace-out",
                    os.path.join(WORK, "wakesleep-bench-trace.json")]
        perf(*cmd)
        runs.append(load_json(out))
    r = runs[0]
    result.fingerprint = r["fingerprint"]
    # A cycle succeeds when its run completed every cycle and reproduced
    # the first run's fingerprint; cycles a run did not complete failed.
    done = [(x["fingerprint"], x["cycles"]) for x in runs]
    if args.trace:
        done.append((r["traced_fingerprint"], r["traced_cycles"]))
    prints = set(p for p, _ in done)
    result.check(len(prints) == 1,
                 "wake-sleep fingerprints differ: %s" % sorted(prints))
    for print_, cycles in done:
        result.ops.add("cycle", print_ == result.fingerprint, cycles)
        result.ops.add("cycle", False, r["iterations"] - cycles)
    total = r["train_tasks"] + r["test_tasks"]
    solved = r["train_solved"] + r["test_solved"]
    run_ms = [x["run_s"] * 1000 for x in runs]
    m = result.metrics
    m["setup_s"] = median([t for x in runs for t in x["setup_s"]])
    m["op_p50_ms"] = median(run_ms)
    m["op_p99_ms"] = percentile(run_ms, 0.99)
    m["ops_per_s"] = len(run_ms) / (sum(run_ms) / 1000)
    m["solved_share"] = solved / total
    m["peak_rss_mb"] = median([x["peak_rss_mb"] for x in runs])
    m["peak_vm_mb"] = median([x["peak_vm_mb"] for x in runs])
    result.detail.update(tasks_solved=solved, tasks=total,
                         run_s=[x["run_s"] for x in runs], threads=THREADS)
    if not args.trace:
        return
    layers = r["layers"]
    phases = r["phases"]
    for phase in ("wake", "abstraction", "dreaming", "evaluate"):
        m["wakesleep.%s_s" % phase] = phases[phase]
    m["wakesleep.abstraction_share"] = phases["abstraction"] / r["traced_run_s"]
    m.update({k: v for k, v in layers.items() if k in PER_LAYER})
    events = load_json(trace_out)
    self_us = span_self_times(events)
    m["vs.closure_merge_s"] = self_us.get("compress.closure.merge", 0) / 1e6
    m["vs.prewarm_s"] = self_us.get("compress.prewarm", 0) / 1e6
    m["vs.score_s"] = (self_us.get("compress.score", 0) +
                       self_us.get("compress.score.candidate", 0)) / 1e6
    m["vs.work_events"] = vs_events(events)
    m["obs.trace_overhead_share"] = r["traced_run_s"] / r["run_s"] - 1


def vs_events(events):
    """Spans the version-space layer recorded in a trace."""
    return sum(1 for e in events if e["name"].startswith(VS_PREFIXES))


def write_lines(name, lines):
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def run_load(art, tag, req_path, seconds, churn=False, telemetry=False,
             min_samples=0):
    """One dc_serve process under a closed-loop load; returns the load
    generator's record plus the server's memory and thread readings."""
    srv = Server(art, tag, telemetry)
    try:
        srv.wait_ready()
        vm_before = memory_mb(srv.status(), "VmSize")
        srv.sample_threads()
        out = os.path.join(WORK, "load-%s.json" % tag)
        cmd = ["load", "--port", srv.port, "--conns", CONNS,
               "--requests", req_path, "--seconds", seconds, "--out", out,
               "--mode", "churn" if churn else "persistent",
               "--min-samples", min_samples]
        perf(*cmd)
        load = load_json(out)
        status = srv.status()
        load.update(rss=memory_mb(status, "VmHWM"),
                    vm=memory_mb(status, "VmPeak"),
                    vm_growth=memory_mb(status, "VmSize") - vm_before)
    finally:
        srv.stop()
    load["returncode"] = srv.proc.returncode
    load["threads_peak"] = srv.threads_peak
    load["server"] = srv
    return load


def serve_workload(args, result):
    art = artifacts()
    info = load_json(os.path.join(art, "info.json"))
    tasks = info["train_tasks"] + info["test_tasks"]
    lines = make_requests("solve", args.seed, tasks)
    req_path = write_lines("requests.jsonl", lines)
    churn_lines = make_requests("churn", args.seed, tasks)

    # Set-up: launch -> first health answer, median of launches made
    # before and after the load so it samples the host at both ends.
    setups = []

    def time_setup(launches):
        for _ in range(launches):
            srv = Server(art, "setup")
            try:
                setups.append(srv.wait_ready())
            finally:
                srv.stop()

    time_setup(16)
    if args.trace:
        # Half the time untraced, half against a telemetry-on server (the
        # difference is the tracing overhead), then the churn probe.
        half = max(1.0, args.seconds / 2)
        base = run_load(art, "untraced", req_path, half)
        traced = run_load(art, "traced", req_path, half, telemetry=True)
        churn = run_load(art, "churn", write_lines("churn.jsonl", churn_lines),
                         CHURN_SECONDS, churn=True)
        runs = (base, traced, churn)
    else:
        base = run_load(art, "untraced", req_path, args.seconds,
                        min_samples=MIN_LATENCY_SAMPLES)
        runs = (base,)
    time_setup(15)
    result.metrics["setup_s"] = median(setups)
    for load in runs:
        result.check(load["returncode"] == 0,
                     "dc_serve exited with %s" % load["returncode"])

    # The oracle: every distinct solve of both streams, replayed in-process.
    replay_out = os.path.join(WORK, "replay.json")
    perf("replay", "--checkpoint", os.path.join(art, "list.ckpt"),
         "--model", os.path.join(art, "list.model"),
         "--requests", write_lines("replay.jsonl", lines + churn_lines),
         "--trace", args.trace,
         "--trace-out", os.path.join(WORK, "replay-bench-trace.json"),
         "--out", replay_out)
    replay = load_json(replay_out)
    expected = {(a["task"], a["node_budget"]): a for a in replay["answers"]}

    stats = score_samples(base, lines, expected, result)
    m = result.metrics
    # The median over 1-s windows of each window's p50 (and the same
    # windows' median completion count): a disturbed stretch of the
    # run moves the windows it covers, not the figure. The p99 needs
    # every sample to have ten beyond it.
    m["op_p50_ms"] = window_percentile(stats["latency_done_s"],
                                       stats["latency"], base["wall_s"], 0.50)
    m["op_p99_ms"] = percentile(stats["latency"], 0.99)
    m["ops_per_s"] = median_rate(stats["done_s"], base["wall_s"])
    m["solved_share"] = stats["solved"] / max(1, stats["solves"])
    m["peak_rss_mb"] = base["rss"]
    m["peak_vm_mb"] = base["vm"]
    if not args.trace:
        result.check(tail_count(stats["latency"], 0.99) >= 10,
                     "fewer than ten samples beyond the p99")
    result.detail.update(
        connections=base["connections"],
        client_cpu_share=base["client_cpu_share"], clients=CONNS,
        server_workers=CONNS, samples=len(stats["latency"]))
    if not args.trace:
        return

    events = load_json(traced["server"].trace_path)
    counters = load_json(traced["server"].metrics_path)
    tstats = score_samples(traced, lines, expected, result)
    cstats = score_samples(churn, churn_lines, expected, result)
    m.update({k: v for k, v in replay["layers"].items() if k in PER_LAYER})
    m["serve.queue_ms_p50"] = percentile(stats["queue_ms"], 0.5)
    m["serve.solve_ms_p50"] = percentile(stats["solve_ms"], 0.5)
    m["serve.io_ms_p50"] = percentile(stats["io_ms"], 0.5)
    m["serve.threads_peak"] = max(r["threads_peak"] for r in runs)
    m["serve.rejected"] = stats["rejected"] + cstats["rejected"]
    batch = counters.get("histograms", {}).get("recog.batch.size", {})
    m["serve.batch_size_mean"] = (batch["sum"] / batch["count"]
                                  if batch.get("count") else 0.0)
    m["serve.conn_p50_ms"] = percentile(cstats["latency"], 0.50)
    m["serve.conn_p99_ms"] = percentile(cstats["latency"], 0.99)
    m["serve.conn_per_s"] = median_rate(cstats["done_s"], churn["wall_s"])
    m["serve.reload_ms_p50"] = percentile(cstats["reload_ms"] or [0], 0.5)
    m["serve.vm_mb_per_kconn"] = churn["vm_growth"] / (churn["connections"] /
                                                       1000)
    m["load.client_cpu_share"] = base["client_cpu_share"]
    m["obs.trace_overhead_share"] = (percentile(tstats["latency"], 0.5) /
                                     percentile(stats["latency"], 0.5) - 1)
    self_us = span_self_times(events)
    # Server time from admission to answer that went to search and to
    # recognition (the collector's batched predictions), over every solve
    # the telemetry-on server answered (warm-up included, like its spans).
    hist = counters.get("histograms", {})
    server_ms = sum(hist.get(k, {}).get("sum", 0)
                    for k in ("serve.queue_ms", "serve.solve_ms"))
    m["serve.enum_recog_share"] = (
        (self_us.get("enum.solveTask", 0) +
         self_us.get("serve.batch.predict", 0)) / 1000 / server_ms
        if server_ms else 0.0)
    m["vs.work_events"] = vs_events(events)


def score_samples(load, lines, expected, result):
    """Checks every answer of one load-generator run, counts its
    operations and collects its latency rows.

    Connects are counted from the generator's own tally (every connection
    it opened, warm-up included). A request whose connection could not be
    opened was never sent: its failure is booked once, as a failed
    connect; it still enters the latency rows as a miss, and a solve
    still enters the solved_share base."""
    ops = result.ops
    ops.add("connect", True, load["connections"] - load["connect_failures"])
    ops.add("connect", False, load["connect_failures"])
    out = {"latency": [], "latency_done_s": [], "queue_ms": [],
           "solve_ms": [], "io_ms": [], "reload_ms": [], "done_s": [],
           "solved": 0, "solves": 0, "rejected": 0}
    for s in sorted(load["samples"], key=lambda s: s["done_s"]):
        ok = not s["failed_at"]
        answer = None
        if ok:
            try:
                answer = json.loads(s["answer"])
            except ValueError:
                ok = False
        booked = s["failed_at"] != "connect"
        if s["kind"] == "reload":
            good = ok and answer.get("ok") is True
            result.check(good, "reload failed: %s" % s["answer"][:200])
            if booked:
                ops.add("reload", good)
            out["reload_ms"].append(s["latency_ms"])
            continue
        req = json.loads(lines[s["request"]])
        kind = req["method"]
        good = ok and answer.get("ok") is True
        if ok and not good and answer.get("error", {}).get("code") == "overloaded":
            out["rejected"] += 1
        out["latency"].append(s["latency_ms"] if good else FAIL_LATENCY_MS)
        out["latency_done_s"].append(s["done_s"])
        if good:
            out["done_s"].append(s["done_s"])
        if good and kind == "health":
            good = answer["result"].get("status") == "ok"
            result.check(good, "bad health answer")
        elif good and kind == "stats":
            good = isinstance(answer["result"], dict)
            result.check(good, "bad stats answer")
        elif kind == "solve":
            out["solves"] += 1
            if good:
                got = answer["result"]
                p = req["params"]
                want = expected[(p["task"], p["node_budget"])]
                programs = [e["program"] for e in got["programs"]]
                st = got["stats"]
                same = (programs == want["programs"] and
                        st["nodes_expanded"] == want["nodes_expanded"] and
                        got["status"] == want["status"])
                result.check(same, "solve %s/%d differs from replay" %
                             (p["task"], p["node_budget"]))
                out["solved"] += got["status"] == "solved"
                out["queue_ms"].append(st["queue_ms"])
                out["solve_ms"].append(st["solve_ms"])
                out["io_ms"].append(s["latency_ms"] - st["queue_ms"] -
                                    st["solve_ms"])
        if booked:
            ops.add(kind, good)
    return out


# --------------------------------------------------------------------------
# Result


class Result:
    def __init__(self, workload, trace):
        self.workload = workload
        self.trace = trace
        self.metrics = {}
        self.ops = OpCounts()
        self.detail = {}
        self.errors = []
        self.fingerprint = None

    def check(self, cond, msg):
        if not cond and len(self.errors) < 20:
            self.errors.append(msg)

    def finish(self, host, build_meta, seed, seconds):
        self.metrics["ok_share"] = 1.0 - self.ops.fail_share()
        self.metrics["fail_share"] = self.ops.fail_share()
        names = PER_LAYER if self.trace else END_TO_END
        for name in names:
            if name not in self.metrics:
                self.metrics[name] = 0.0  # the layer does no work here
        record = {
            "workload": self.workload, "seed": seed, "seconds": seconds,
            "trace": self.trace, "host": host, "build": build_meta,
            "threads": THREADS, "ops": self.ops.as_dict(),
            "detail": self.detail, "fingerprint": self.fingerprint,
            "errors": self.errors,
        }
        for err in self.errors:
            log("benchmark: CHECK FAILED: " + err)
        print("# %s seed %d trace %d" % (self.workload, seed, self.trace))
        print("# host %s" % json.dumps(host, sort_keys=True))
        print("# build %s" % json.dumps(build_meta, sort_keys=True))
        print("# ops %s" % json.dumps(self.ops.as_dict(), sort_keys=True))
        print("# detail %s" % json.dumps(self.detail, sort_keys=True))
        for name in names:
            print("%-16s %-34s %16.6g %s" % (self.workload, name,
                                            self.metrics[name], names[name]))
        os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
        record["metrics"] = {n: self.metrics[n] for n in names}
        path = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" %
                            (self.workload, seed, self.trace))
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        return {
            "correct": not self.errors,
            "attempted": max(1, self.ops.attempted()),
            "failed": self.ops.failed(),
            "metrics": {n: {"value": self.metrics[n], "unit": names[n]}
                        for n in names},
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_meta = build()
    host = host_info()
    result = Result(args.workload, args.trace)
    steal0, total0 = cpu_times()
    if args.workload == "wakesleep-list":
        wakesleep(args, result)
    else:
        serve_workload(args, result)
    steal1, total1 = cpu_times()
    # CPU time the hypervisor took from this machine during the run: the
    # first suspect when a figure moves and the code did not.
    host["steal_share"] = ((steal1 - steal0) / (total1 - total0)
                           if total1 > total0 else 0.0)
    print(json.dumps(result.finish(host, build_meta, args.seed,
                                   args.seconds), sort_keys=True))


if __name__ == "__main__":
    main()
