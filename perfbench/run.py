#!/usr/bin/env python3
"""The repo benchmark: time an sfetch workload end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
simulator and the sfbench harness from source into .bench_build/ (or
$CARGO_TARGET_DIR when set). Workloads (see BENCHMARK.json for why
each exists and perfbench/metrics.json for the metric map):

  offline_sweep  in-process SweepDriver over a paper-shaped grid
  serve_warm     one sfetchd, closed loop of small jobs on a cached hot set
  serve_churn    one sfetchd whose memory budget is below the working set
  fanout         a front over three loopback-TCP worker daemons

The seed generates the varying inputs: the layout and order of the
daemon jobs, and the offline points re-run live. With --trace 0 the
result line holds the end-to-end metrics; with --trace 1 it holds the
per-layer ones, measured with spans recorded by the harness around each
layer call.
Every served or swept row is checked against a fresh offline run of the
same point; the result line's `correct` and `failed` carry the outcome.

Everything above the last stdout line is a human-readable report. The
last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A full record with provenance and sample counts is also
appended to --results (default .bench_build/perfbench-results.jsonl);
perfbench/compare.py reads those records.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shlex
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_sweep", "serve_warm", "serve_churn", "fanout")
ENGINES = ("ev8", "ftb", "stream", "trace", "seq")
PRESETS = ("gzip", "vpr", "gcc", "crafty", "parser", "eon", "perlbmk",
           "gap", "vortex", "bzip2", "twolf")
FAMILIES = ("loops", "server", "thrash", "phased")
# A p95 needs this many samples beyond it before it is reported.
TAIL_SAMPLES = 10
# Daemon throughputs are the median of per-window rates, so a burst of
# host noise costs one window instead of shifting the whole run.
WINDOW_S = 2.0
# The shared hosts this runs on drift in speed by tens of percent over
# minutes. Every end-to-end time is therefore scaled to a reference
# host: seconds x (host speed / REF_SPEED), and rates inversely. The
# host speed is the mean of sfbench's two samples, before and after
# its measured phase, in calibration units per second per thread;
# REF_SPEED is roughly the 4-core development container's.
REF_SPEED = 9000.0


def scaled(e2e, speeds):
    """{name: (value, samples)} at the reference host speed."""
    f = statistics.mean(speeds) / REF_SPEED
    out = {}
    for name, (value, n) in e2e.items():
        unit = CATALOGUE["end_to_end"][name]["unit"]
        if unit == "s":
            value *= f
        elif unit.endswith("/s"):
            value /= f
        out[name] = (value, n)
    return out


class BenchError(Exception):
    """A run that cannot produce a result (build, daemon or harness)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_catalogue():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


CATALOGUE = load_catalogue()


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then an incremental build of sfbench + sfetchd."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no simulator sources at %s: run from the root "
                         "of a source checkout" % ROOT)
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return {"sfbench": os.path.join(bdir, "sfbench"),
            "sfetchd": os.path.join(bdir, "tools", "sfetchd")}


def provenance(args):
    """Where a result came from and the command that regenerates it."""
    commit = "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except OSError:
        pass
    # A checkout without git metadata still gets a stable identity.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for p in files:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    build_type = "unknown"
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "build_type": build_type, "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload,
            "command": " ".join(shlex.quote(c) for c in cmd)}


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail_ok(n, q):
    return n * (1.0 - q) >= TAIL_SAMPLES


def hmean(values):
    values = [v for v in values if v > 0]
    return len(values) / sum(1.0 / v for v in values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Per-span self time: duration minus the part of it that child
    spans cover. spans: [id, parent, job, name, t0, t1] lists."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        t0, t1 = s[4], s[5]
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(s[0], [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s[0]] = (t1 - t0) - covered
    return out


def span_errors(spans, measured, slack):
    """Seconds by which each traced root's span tree fails to account
    for its job's interval as measured outside the span recorder.

    measured: {job: (start, wall, threads)}; slack: what recording one
    span costs. Every span of the tree must lie inside the interval
    and the tree's self times must add up to the wall. Serial children
    (threads 1) must tile it: a gap shows as root self time, an
    overlap as self times beyond the wall. Parallel children may add
    up to threads x wall, no more. Returns {job: error} for trees
    whose error exceeds slack per span."""
    kids = {}
    for s in spans:
        kids.setdefault(s[1], []).append(s)
    selfs = self_times(spans)
    out = {}
    for root in kids.get(0, []):
        if root[2] not in measured:
            continue
        start, wall, threads = measured[root[2]]
        tree = [root] + kids.get(root[0], [])
        err = sum(max(0.0, start - s[4]) + max(0.0, s[5] - start - wall)
                  for s in tree)
        total = sum(selfs[s[0]] for s in tree)
        if threads == 1:
            err += abs(total - wall) + selfs[root[0]]
        else:
            err += abs(root[5] - root[4] - wall) \
                + max(0.0, total - threads * wall)
        if err > slack * len(tree):
            out[root[2]] = err
    return out


# ---------------------------------------------------------------------
# Simulated counts (identical for a given seed, on any host)
# ---------------------------------------------------------------------

def simulated_counts(rows):
    rows = [r for r in rows if r]
    st = [r["stats"] for r in rows]

    def eng(arch):
        return [r["stats"]["engine"] for r in rows
                if r["config"]["arch"] == arch]

    def pair_rate(engs, hits, total):
        return ratio(sum(sum(e.get(h, 0) for h in hits) for e in engs),
                     sum(e.get(total, 0) for e in engs))

    fetched = sum(s["fetched_correct"] + s["fetched_wrong"] for s in st)
    btb = [e["ev8.btb_hit_rate"] for e in eng("ev8")
           if "ev8.btb_hit_rate" in e]
    return {
        "pipeline.sim_cycles": sum(s["cycles"] for s in st),
        "pipeline.sim_ipc_hmean": hmean([s["ipc"] for s in st]),
        "fetch.fetch_ipc": ratio(sum(s["fetch_opp_insts"] for s in st),
                                 sum(s["fetch_cycles_attempted"]
                                     for s in st)),
        "fetch.wrong_path_share": ratio(sum(s["fetched_wrong"]
                                            for s in st), fetched),
        "bpred.mispredicts_per_kinst": 1000.0 * ratio(
            sum(s["mispredicts"] for s in st),
            sum(s["committed_insts"] for s in st)),
        "cache.l1i_miss_rate": ratio(sum(s["l1i_miss_rate"] for s in st),
                                     len(st)),
        "cache.l1d_miss_rate": ratio(sum(s["l1d_miss_rate"] for s in st),
                                     len(st)),
        "core.nsp_hit_rate": pair_rate(
            eng("stream"), ("nsp.first_hits", "nsp.second_hits"),
            "nsp.lookups"),
        "tcache.trace_hit_rate": pair_rate(eng("trace"), ("tc.trace_hits",),
                                           "tc.lookups"),
        "tcache.ntp_hit_rate": pair_rate(
            eng("trace"), ("ntp.first_hits", "ntp.second_hits"),
            "ntp.lookups"),
        "bpred.ev8_btb_hit_rate": ratio(sum(btb), len(btb)),
        "fetch.ftb_hit_rate": pair_rate(eng("ftb"), ("ftb.hits",),
                                        "ftb.lookups"),
    }


def pipeline_costs(samples):
    """samples: (arch, wall_s, sim_insts, cycles, arena) per row."""
    out = {"pipeline.run_s": sum(s[1] for s in samples)}

    def ns_per_inst(sel):
        sel = list(sel)
        return 1e9 * ratio(sum(s[1] for s in sel), sum(s[2] for s in sel))

    out["pipeline.ns_per_inst"] = ns_per_inst(samples)
    out["pipeline.ns_per_cycle"] = 1e9 * ratio(
        out["pipeline.run_s"], sum(s[3] for s in samples))
    for arch in ENGINES:
        out["pipeline.ns_per_inst." + arch] = ns_per_inst(
            s for s in samples if s[0] == arch)
    out["pipeline.ns_per_inst.arena"] = ns_per_inst(
        s for s in samples if s[4])
    out["pipeline.ns_per_inst.live"] = ns_per_inst(
        s for s in samples if not s[4])
    return out


# ---------------------------------------------------------------------
# Daemons
# ---------------------------------------------------------------------

def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def request(addr, obj, timeout=10.0):
    """One request/reply exchange with a daemon at unix:PATH or
    tcp:HOST:PORT (paths relative to the repo root)."""
    if addr.startswith("unix:"):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target = os.path.relpath(os.path.join(ROOT, addr[5:]))
    else:
        host, port = addr[4:].rsplit(":", 1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target = (host, int(port))
    with sock:
        sock.settimeout(timeout)
        sock.connect(target)
        sock.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise BenchError("daemon at %s closed the connection" % addr)
            buf += chunk
    return json.loads(buf)


def in_rundir(addr, rundir):
    """@addr as seen by a process whose working directory is @rundir:
    short relative Unix paths stay under the 108-byte socket limit."""
    if not addr.startswith("unix:"):
        return addr
    return "unix:" + os.path.relpath(os.path.join(ROOT, addr[5:]), rundir)


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Daemons:
    """The sfetchd processes of one set-up; stops them all on exit."""

    def __init__(self, sfetchd, rundir):
        self.sfetchd = sfetchd
        self.rundir = rundir
        self.procs = []  # (addr, Popen)

    def spawn(self, addr, extra):
        """Start one sfetchd at @addr (unix: paths relative to the repo
        root; the daemon runs in the run directory)."""
        logf = open(os.path.join(self.rundir, "sfetchd-%d.log"
                                 % len(self.procs)), "ab")
        with logf:
            proc = subprocess.Popen(
                [self.sfetchd, "--listen", in_rundir(addr, self.rundir),
                 "--quiet"] + extra,
                cwd=self.rundir, stdout=logf, stderr=logf)
        self.procs.append((addr, proc))

    def wait_healthy(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        for addr, proc in self.procs:
            while True:
                if proc.poll() is not None:
                    raise BenchError("sfetchd at %s exited with %d"
                                     % (addr, proc.returncode))
                try:
                    if request(addr, {"verb": "health"}).get("ok"):
                        break
                except (OSError, ValueError, BenchError):
                    pass
                if time.monotonic() > deadline:
                    raise BenchError("sfetchd at %s never got healthy"
                                     % addr)
                time.sleep(0.002)

    def peak_rss_mb(self):
        return sum(peak_rss_mb(p.pid) for _, p in self.procs)

    def stop(self):
        for addr, proc in self.procs:
            if proc.poll() is None:
                try:
                    request(addr, {"verb": "shutdown", "drain": False},
                            timeout=5.0)
                except (OSError, ValueError, BenchError):
                    proc.send_signal(signal.SIGTERM)
        for addr, proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_harness(cmd, cwd, timeout=170):
    res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=timeout)
    if res.returncode != 0:
        raise BenchError("sfbench failed (%d): %s" % (res.returncode,
                                                      res.stderr[-2000:]))
    return json.loads(res.stdout)


# ---------------------------------------------------------------------
# Workload plans (inputs come from the seed alone)
# ---------------------------------------------------------------------

# Every workload's mix of programs and engines is the same for every
# seed: one program's shape or one engine moves host cost by tens of
# percent, which would drown the run-to-run spread. On the daemons the
# seed varies which layout each job gets and the order of the jobs.
# Offline it picks the points re-run live; the grid keeps its order,
# because the order moves when each row lands.
WARM_BENCHES = ("gzip", "gcc", "server", "phased")
FANOUT_BENCHES = ("gzip", "gcc", "loops")
FANOUT_CHUNK = 4
# 24 distinct programs for serve_churn: the suite presets plus three
# generation seeds of each other family.
CHURN_BENCHES = PRESETS + tuple("%s:seed=%d" % (f, s) for f in FAMILIES
                                for s in (1, 2, 3)) + ("synth:seed=2",)


def point(bench, spec, width, layout, insts, warmup):
    return {"bench": bench, "spec": spec, "width": width, "layout": layout,
            "insts": insts, "warmup": warmup}


def halves(rng, n):
    """A seeded layout per item: exactly half base, half opt."""
    layouts = ["base", "opt"] * (n // 2) + ["opt"] * (n % 2)
    rng.shuffle(layouts)
    return layouts


def warm_requests(rng):
    """40 four-point jobs: every bench with every engine pair (x widths
    4 and 8). The warm-up pass decodes every (bench, layout) arena and
    the measured loop only hits."""
    pairs = list(itertools.combinations(ENGINES, 2))
    reqs = []
    for bench in WARM_BENCHES:
        for pair, layout in zip(pairs, halves(rng, len(pairs))):
            reqs.append([point(bench, e, w, layout, 50000, 10000)
                         for e in pair for w in (4, 8)])
    rng.shuffle(reqs)
    return reqs


def churn_requests(rng):
    """24 three-point jobs, one program each, cycled in a seeded order.
    Two concurrent jobs' arenas do not fit the budget together, so the
    governor evicts (whole workloads once in-use arenas block it) and
    falls back to live generation: builds, decodes, evictions and
    fallbacks recur on nearly every job."""
    benches = list(CHURN_BENCHES)
    rng.shuffle(benches)
    reqs = []
    for k, (bench, layout) in enumerate(zip(benches,
                                            halves(rng, len(benches)))):
        reqs.append([point(bench, ENGINES[(k + j) % 5], (4, 8)[k % 2],
                           layout, 150000, 30000) for j in range(3)])
    return reqs


def fanout_requests(rng):
    """30 twelve-point grids: each bench pair of a three-bench hot set
    with each engine triple (x widths 4 and 8). Chunks of 4 points
    spread each grid over the 3 workers. Points are long enough (a job
    takes about 50 ms) that a time slice one worker loses to the host
    does not set the job's tail: at half this length the quartile
    spread of the p95 over ten runs reached 23% on a shared 4-core
    host."""
    pairs = list(itertools.combinations(FANOUT_BENCHES, 2))
    triples = list(itertools.combinations(ENGINES, 3))
    combos = [(p, t) for p in pairs for t in triples]
    reqs = []
    for (pair, engines), layout in zip(combos, halves(rng, len(combos))):
        reqs.append([point(b, e, w, layout, 80000, 16000)
                     for b in pair for e in engines for w in (4, 8)])
    rng.shuffle(reqs)
    return reqs


def write_requests(path, reqs):
    with open(path, "w") as f:
        for pts in reqs:
            f.write(json.dumps({"verb": "submit", "points": pts}) + "\n")


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------

# Daemon set-ups timed per run (offline the harness fixes its own).
SERVE_SETUP_REPS = 5


def run_offline(args, bins, rundir):
    """The grid, its run lengths and the set-up sampling are constants
    of sfbench offline; the seed picks the points re-run live."""
    out = run_harness(
        [bins["sfbench"], "offline", "--seconds", str(args.seconds),
         "--seed", str(args.seed), "--trace", str(args.trace)], rundir)

    rows = out["rows"]

    def sample(i, wall, arena):
        r = rows[i]
        return (r["config"]["arch"], wall,
                r["stats"]["committed_insts"] + r["config"]["warmup"],
                r["stats"]["cycles"], arena)

    samples, traced_walls, untraced_walls = [], [], []
    for sw in out["sweeps"]:
        (traced_walls if sw["traced"] else untraced_walls).append(sw["wall"])
        samples += [sample(i, wall, True) for i, _, wall in sw["rows"]]
    busy = sum(s[1] for s in samples)
    sweep_insts = sum(r["stats"]["committed_insts"] + r["config"]["warmup"]
                      for r in rows if r)
    samples += [sample(v["point"], v["wall"], False) for v in out["live"]]

    # Each set-up sample is several cold set-ups back to back; figures
    # below are per set-up.
    per = out["setups_per_sample"]
    setups = [{k: v // per if isinstance(v, int) else v / per
               for k, v in s.items()} for s in out["setups"]]
    mid = sorted(setups, key=lambda s: s["wall"])[len(setups) // 2]
    failed = out["mismatched"] + out["missing"]

    # Sweeps are the windows here: throughputs are per-sweep medians.
    lat = [t for sw in out["sweeps"] for _, t, _ in sw["rows"]]
    e2e = {
        "setup_s": (mid["wall"], len(setups)),
        "sim_minsts_per_s": (statistics.median(
            sweep_insts / sw["wall"] for sw in out["sweeps"]) / 1e6,
            len(out["sweeps"])),
        "job_latency_s": lat,
        "first_row_s": lat,
        "jobs_per_s": (statistics.median(
            len(sw["rows"]) / sw["wall"] for sw in out["sweeps"]),
            len(out["sweeps"])),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
    }
    layer = {
        "workload.build_s": mid["build_s"],
        "workload.builds": mid["builds"],
        "workload.cache_hits": out["cache"]["hits"],
        "workload.cache_misses": out["cache"]["misses"],
        "workload.cache_evictions": out["cache"]["evictions"],
        "layout.arena_decode_s": mid["decode_s"],
        "layout.arena_decodes": mid["decodes"],
        "layout.arena_resident_mb": out["cache"]["resident_bytes"] / 2 ** 20,
        "layout.arena_bytes_per_inst": ratio(mid["arena_bytes"],
                                             mid["arena_insts"]),
        "sim.sweep_wall_s": statistics.median(s["wall"]
                                              for s in out["sweeps"]),
        "sim.parallel_efficiency": ratio(busy, out["jobs"] * sum(
            s["wall"] for s in out["sweeps"])),
    }
    layer.update(pipeline_costs(samples))
    layer.update(simulated_counts(rows))
    if args.trace:
        layer["trace.overhead_share"] = ratio(
            statistics.mean(traced_walls),
            statistics.mean(untraced_walls)) - 1.0 \
            if traced_walls and untraced_walls else 0.0
    checks = {"repeat_sweeps_identical": out["mismatched"] == 0,
              "no_missing_rows": out["missing"] == 0,
              "live_sample_matches_arena": all(v["match"]
                                               for v in out["live"])}
    # The sweep's pipeline.run spans come from the driver's own row
    # wall_seconds, so they are checked against the harness's wall.
    measured = {sw["sweep"]: (sw["start"], sw["wall"], out["jobs"])
                for sw in out["sweeps"] if sw["traced"]}
    return {"e2e": e2e, "speeds": out["speeds"], "layer": layer,
            "attempted": out["attempted"],
            "failed": failed, "checks": checks, "spans": out["spans"],
            "measured": measured, "span_cost_s": out["span_cost_s"]}


def client_cmd(bins, addr, reqfile, clients, seconds, trace, reference):
    cmd = [bins["sfbench"], "client", "--connect", addr,
           "--requests", reqfile, "--clients", str(clients),
           "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + ["--reference"] if reference else cmd


def stats_sum(addrs):
    """Field-wise sum of numeric stats over several daemons."""
    total = {}
    for addr in addrs:
        for k, v in request(addr, {"verb": "stats"}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                total[k] = total.get(k, 0) + v
    return total


def run_serve(args, bins, rundir, rng):
    """serve_warm, serve_churn and fanout: set up the daemons (several
    times, timing each), then one closed loop on the last set-up."""
    wl = args.workload
    nproc = os.cpu_count() or 1
    # The warm-up pass sends every request once. On serve_churn that
    # leaves only the last few programs cached, so the rotation that
    # follows still misses on nearly every job.
    load_file = os.path.join(rundir, "requests.ndjson")
    if wl == "serve_warm":
        reqs, clients = warm_requests(rng), min(4, nproc)
    elif wl == "serve_churn":
        reqs, clients = churn_requests(rng), min(4, nproc)
    else:
        reqs, clients = fanout_requests(rng), 1
    write_requests(load_file, reqs)

    def start(daemons, rep):
        front = "unix:" + os.path.relpath(
            os.path.join(rundir, "d%d.sock" % rep), ROOT)
        if wl == "serve_warm":
            daemons.spawn(front, ["--workers", "2", "--max-jobs", "16",
                                  "--mem-budget-mb", "256"])
            return front, [front]
        if wl == "serve_churn":
            state = os.path.join(rundir, "state%d" % rep)
            daemons.spawn(front, ["--workers", "2", "--max-jobs", "16",
                                  "--mem-budget-mb", "4",
                                  "--state-dir", state])
            return front, [front]
        workers = ["tcp:127.0.0.1:%d" % free_port() for _ in range(3)]
        for w in workers:
            daemons.spawn(w, ["--workers", "1", "--max-jobs", "16"])
        daemons.spawn(front, ["--worker", ",".join(workers), "--max-jobs",
                              "16", "--chunk-points", str(FANOUT_CHUNK)])
        return front, workers

    setup_walls = []
    for rep in range(SERVE_SETUP_REPS):
        with Daemons(bins["sfetchd"], rundir) as daemons:
            t0 = time.monotonic()
            front, backends = start(daemons, rep)
            daemons.wait_healthy()
            target = in_rundir(front, rundir)
            warm = run_harness(client_cmd(bins, target, load_file, clients,
                                          0, 0, False), rundir)
            setup_walls.append(time.monotonic() - t0)
            bad = [j for j in warm["jobs"] if j["outcome"] != "done"]
            if bad:
                raise BenchError("warm-up job failed: %s" % bad[0])
            if rep + 1 < SERVE_SETUP_REPS:
                continue
            before = stats_sum(backends)
            front_before = request(front, {"verb": "stats"})
            out = run_harness(client_cmd(bins, target, load_file, clients,
                                         args.seconds, args.trace, True),
                              rundir)
            after = stats_sum(backends)
            front_after = request(front, {"verb": "stats"})
            rss = daemons.peak_rss_mb()
    return serve_metrics(args, out, setup_walls, before, after,
                         front_before, front_after, rss)


def serve_metrics(args, out, setup_walls, before, after, front_before,
                  front_after, rss):
    wl = args.workload
    jobs = out["jobs"]

    def delta(stats_a, stats_b, key):
        return stats_b.get(key, 0) - stats_a.get(key, 0)

    ok = [j for j in jobs if j["outcome"] == "done"
          and j["rows"] == j["expected"]]
    samples = [tuple(r) for j in jobs for r in j["row_stats"]]
    failed = (len(jobs) - len(ok)) + out["repeat_mismatched"] \
        + out["ref_mismatched"]

    # Throughput windows by completion time; jobs still in flight at
    # the deadline finish after the last window and count only in the
    # latencies.
    n = max(1, int(args.seconds // WINDOW_S))
    width = args.seconds / n
    done_jobs, done_insts = [0] * n, [0] * n
    for j in ok:
        k = int((j["done"] - out["start"]) / width)
        if k < n:
            done_jobs[k] += 1
            done_insts[k] += sum(r[2] for r in j["row_stats"])
    e2e = {
        "setup_s": (statistics.median(setup_walls), len(setup_walls)),
        "sim_minsts_per_s": (statistics.median(done_insts) / width / 1e6,
                             n),
        "job_latency_s": [j["done"] - j["send"] for j in ok],
        "first_row_s": [j["first"] - j["send"] for j in ok],
        "jobs_per_s": (statistics.median(done_jobs) / width, n),
        "peak_rss_mb": (rss, 1 if wl != "fanout" else 4),
    }

    latency = e2e["job_latency_s"]
    rows_wall = sum(j["rows_wall"] for j in ok)
    n_workers = 3 if wl == "fanout" else 1
    # The simulation on a job's critical path: one daemon runs a job's
    # points serially; a front runs each chunk of FANOUT_CHUNK points
    # (rows arrive in point order) on its own worker, in parallel.
    chunk = FANOUT_CHUNK if wl == "fanout" else 1 << 30

    def overhead(j):
        walls = [r[1] for r in j["row_stats"]]
        path = max(sum(walls[c:c + chunk])
                   for c in range(0, len(walls), chunk))
        return j["done"] - j["send"] - path

    overheads = [overhead(j) for j in ok]
    layer = {
        "workload.builds": delta(before, after, "cache_misses"),
        "workload.cache_hits": delta(before, after, "cache_hits"),
        "workload.cache_misses": delta(before, after, "cache_misses"),
        "workload.cache_evictions": delta(before, after, "cache_evictions"),
        "layout.arena_resident_mb": after.get("resident_arena_bytes", 0)
        / 2 ** 20,
        "sim.sweep_wall_s": statistics.median(j["sweep_wall"] for j in ok)
        if ok else 0.0,
        "sim.parallel_efficiency": ratio(
            rows_wall, n_workers * sum(j["sweep_wall"] for j in ok)),
        "serve.ack_s_p50": statistics.median(j["ack"] - j["send"]
                                             for j in ok) if ok else 0.0,
        "serve.overhead_s_p50": statistics.median(overheads)
        if ok else 0.0,
        "serve.overhead_share": ratio(sum(overheads), sum(latency)),
        "serve.rows_per_s": sum(j["rows"] for j in jobs) / args.seconds,
        "serve.jobs_rejected": delta(front_before, front_after,
                                     "jobs_rejected"),
        "serve.arena_fallbacks": delta(before, after, "arena_fallbacks"),
    }
    if wl == "fanout":
        per_worker = []
        wb = {w["addr"]: w for w in front_before.get("workers", [])}
        for w in front_after.get("workers", []):
            per_worker.append(w["dispatch_successes"]
                              - wb.get(w["addr"], {}).get(
                                  "dispatch_successes", 0))
        ewma = [w["ewma_latency_ms"] for w in front_after.get("workers", [])]
        layer.update({
            "fleet.shards_dispatched": delta(front_before, front_after,
                                             "shards_dispatched"),
            "fleet.shard_retries": delta(front_before, front_after,
                                         "shard_retries"),
            "fleet.points_redispatched": delta(front_before, front_after,
                                               "points_redispatched"),
            "fleet.chunk_imbalance": ratio(
                max(per_worker), statistics.mean(per_worker))
            if per_worker else 0.0,
            "fleet.fanout_efficiency": ratio(rows_wall,
                                             n_workers * sum(latency)),
            "fleet.probe_ewma_ms": statistics.mean(ewma) if ewma else 0.0,
        })
    layer.update(pipeline_costs(samples))
    layer.update(simulated_counts(out["ref_rows"]))
    if args.trace:
        tr = [j["done"] - j["send"] for j in ok if j["traced"]]
        un = [j["done"] - j["send"] for j in ok if not j["traced"]]
        layer["trace.overhead_share"] = ratio(
            statistics.median(tr), statistics.median(un)) - 1.0 \
            if tr and un else 0.0
    checks = {
        "all_jobs_done": len(ok) == len(jobs),
        "repeat_rows_identical": out["repeat_mismatched"] == 0,
        "rows_match_offline_reference": out["ref_mismatched"] == 0,
        "every_served_point_checked":
            out["ref_checked"] == out["distinct_served"],
        "no_client_errors": not out["errors"],
    }
    measured = {j["seq"]: (j["send"], j["done"] - j["send"], 1)
                for j in ok if j["traced"]}
    return {"e2e": e2e, "speeds": out["speeds"], "layer": layer,
            "attempted": len(jobs), "failed": failed, "checks": checks,
            "spans": out["spans"], "measured": measured,
            "span_cost_s": out["span_cost_s"]}


# ---------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------

def end_to_end_metrics(e2e, omitted):
    """Turn raw measurements into the named end-to-end metrics:
    {name: (value, samples)}; p95s without enough tail are omitted
    with the reason recorded."""
    out = {}
    for name in ("setup_s", "sim_minsts_per_s", "jobs_per_s",
                 "peak_rss_mb"):
        out[name] = e2e[name]
    for base in ("job_latency_s", "first_row_s"):
        values = e2e[base]
        if not values:
            raise BenchError("no completed jobs to time")
        out[base + "_p50"] = (statistics.median(values), len(values))
        if tail_ok(len(values), 0.95):
            out[base + "_p95"] = (percentile(values, 0.95), len(values))
        else:
            omitted[base + "_p95"] = (
                "%d samples leave %.1f beyond the p95; %d are needed"
                % (len(values), len(values) * 0.05, TAIL_SAMPLES))
    return out


def layer_metrics(res, workload):
    layer = dict(res["layer"])
    spans = res["spans"]
    if spans:
        selfs = self_times(spans)
        for s in spans:
            key = "trace.self_s." + s[3].split(".")[0]
            layer[key] = layer.get(key, 0.0) + selfs[s[0]]
    not_applicable = []
    out = {}
    for name, meta in CATALOGUE["per_layer"].items():
        if name in layer:
            out[name] = layer[name]
        elif workload in meta["workloads"] and (
                not name.startswith("trace.") or spans):
            raise BenchError("per-layer metric %s was not measured" % name)
        else:
            out[name] = 0
            not_applicable.append(name)
    return out, not_applicable


def result_line(correct, attempted, failed, metrics):
    """The contract's last stdout line. Refuses names the catalogue
    does not define, so a typo cannot slip a new metric in."""
    known = dict(CATALOGUE["end_to_end"])
    known.update(CATALOGUE["per_layer"])
    body = {}
    for name, value in metrics.items():
        if name not in known:
            raise ValueError("unknown metric name: %s" % name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))
        body[name] = {"value": value, "unit": known[name]["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": body})


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="sfetch repo benchmark (see module docstring)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=None,
                   help="JSONL file to append the full record to")
    p.add_argument("--spans", default=None,
                   help="with --trace 1, write the recorded spans here")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error("unknown workload %r; choose from %s"
                % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    return args


def main(argv):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        bins = build()
        prov = provenance(args)
        rundir = os.path.join(build_dir(), "run", "%s-%d"
                              % (args.workload, os.getpid()))
        os.makedirs(rundir)
        try:
            if args.workload == "offline_sweep":
                res = run_offline(args, bins, rundir)
            else:
                res = run_serve(args, bins, rundir,
                                random.Random(args.seed))
        finally:
            subprocess.run(["rm", "-rf", rundir])
        omitted = {}
        raw = end_to_end_metrics(res["e2e"], omitted)
        e2e = scaled(raw, res["speeds"])
        layer, not_applicable = layer_metrics(res, args.workload)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    if res["spans"]:
        res["checks"]["spans_account_for_measured_walls"] = not span_errors(
            res["spans"], res["measured"], res["span_cost_s"])
    correct = res["failed"] == 0 and all(res["checks"].values())
    error_rate = ratio(res["failed"], res["attempted"])

    print("# perfbench %s seed=%d seconds=%s trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# provenance: " + json.dumps(prov))
    print("# %-22s %14s %-8s %14s" % ("metric", "value", "unit",
                                      "unscaled"))
    for name, (value, n) in e2e.items():
        print("%-24s %14.6g %-8s %14.6g (n=%d)" % (
            name, value, CATALOGUE["end_to_end"][name]["unit"],
            raw[name][0], n))
    for name, why in omitted.items():
        print("%-24s %14s          omitted: %s" % (name, "-", why))
    print("%-24s %14.6g %-8s (%d of %d failed)" % (
        "error_rate", error_rate, "ratio", res["failed"], res["attempted"]))
    for name, ok in res["checks"].items():
        print("# check %-30s %s" % (name, "ok" if ok else "FAILED"))
    if args.trace:
        for name, value in layer.items():
            print("%-32s %14.6g %s%s" % (
                name, value, CATALOGUE["per_layer"][name]["unit"],
                "  (not applicable)" if name in not_applicable else ""))
        print("# span record cost %.3g s, %d spans"
              % (res["span_cost_s"], len(res["spans"])))

    metrics = layer if args.trace else {k: v for k, (v, _) in e2e.items()}
    line = result_line(correct, res["attempted"], res["failed"], metrics)

    record = {"provenance": prov, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct,
              "attempted": res["attempted"], "failed": res["failed"],
              "error_rate": error_rate, "checks": res["checks"],
              "samples": {k: n for k, (_, n) in e2e.items()},
              "omitted": omitted, "not_applicable": not_applicable,
              "unscaled": {k: v for k, (v, _) in raw.items()},
              "metrics": json.loads(line)["metrics"]}
    results = args.results or os.path.join(os.path.dirname(build_dir()),
                                           "perfbench-results.jsonl")
    with open(results, "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.spans:
        with open(args.spans, "w") as f:
            json.dump({"span_cost_s": res["span_cost_s"],
                       "measured": [[job] + list(m) for job, m
                                    in res["measured"].items()],
                       "spans": res["spans"]}, f)
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
