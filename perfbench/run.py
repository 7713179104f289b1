#!/usr/bin/env python3
"""perfbench: the repository benchmark, driving the real release `epvf` binary.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # every workload at :tiny scale, a few ops each
    python3 perfbench/run.py --record    # re-record perfbench/expected.json

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's `end_to_end` list, measured
with a single closed-loop client and no tracing; with --trace 1 they are its
`per_layer` list, from the traced in-process replay (perfbench/tracer) plus,
on serve-sharded, a daemon session read through its socket and --metrics-out.
See perfbench/README.md for the workloads and the layer -> metric map.
"""

import argparse
import collections
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_DIR = ".bench_run"  # relative to ROOT, so the socket path stays short
EXPECTED = os.path.join(HERE, "expected.json")

# Campaign seeds come from this pool, so every op any --seed can issue has
# a recorded expected output.
SEED_POOL = list(range(1, 9))
SHARDS = 2
OP_TIMEOUT_S = 120

WORKLOADS = {
    "analyze-standard": {
        "kind": "analyze",
        "targets": [f"{t}:standard" for t in ("bfs", "hotspot", "particlefilter", "mm", "srad", "kmeans")],
        "runs": 0,
        "setup_reps": 11,
        "min_rounds": 2,
    },
    "inject-small": {
        "kind": "inject",
        "targets": [f"{t}:small" for t in ("bfs", "lud", "mm", "hotspot", "srad", "pathfinder")],
        "runs": 3000,
        "setup_reps": 11,
        "min_rounds": 2,
    },
    "serve-sharded": {
        "kind": "serve",
        "targets": [
            "lud:standard",
            "pathfinder:standard",
            "nw:standard",
            "bfs:small",
            "mm:small",
            "hotspot:small",
        ],
        "runs": 300,
        "setup_reps": 3,
        # 17 rounds of 6 requests: at least 100 warm requests for p90.
        "min_rounds": 17,
    },
}

# Smoke mode: the same workloads at :tiny scale, a few ops each.
SMOKE = {"runs": {"analyze": 0, "inject": 400, "serve": 300}, "seed": SEED_POOL[0]}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def targets_of(wl, smoke):
    return [t.split(":")[0] + ":tiny" for t in wl["targets"]] if smoke else wl["targets"]


def mask(stdout):
    """Blank the one timing line `epvf analyze` prints; all else is exact."""
    lines = stdout.split("\n")
    return "\n".join(
        "analysis time : <masked>" if l.startswith("analysis time :") else l for l in lines
    )


# ---------------------------------------------------------------- building


def build():
    """Build the release `epvf` binary and the tracer; exit 1 on failure."""
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        (ROOT, ["cargo", "build", "--release", "--offline", "-p", "epvf-cli", "--bin", "epvf"]),
        (os.path.join(HERE, "tracer"), ["cargo", "build", "--release", "--offline"]),
    ]
    for cwd, argv in steps:
        try:
            r = subprocess.run(argv, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=420)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            sys.exit(1)
        if r.returncode != 0:
            log(f"build failed: {' '.join(argv)} (exit {r.returncode})")
            sys.exit(1)
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "epvf"), os.path.join(release, "perfbench-tracer")


def stamp():
    def cmd(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "git_sha": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
        "rustc": cmd(["rustc", "-V"]),
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------- processes


# One finished `epvf` process.
Op = collections.namedtuple("Op", "wall stdout code rss_mb")


def run_epvf(exe, args, timeout=OP_TIMEOUT_S):
    """Run `epvf ARGS`; wall time, stdout, exit code and max RSS from rusage."""
    err = open(os.path.join(RUN_DIR, "last.stderr"), "wb")
    start = time.perf_counter()
    p = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, stderr=err)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
        err.close()
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, out.decode("utf-8", "replace"), p.returncode, ru.ru_maxrss / 1024.0)


class Checker:
    """Counts ops and compares each op's stdout with the recorded one."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.problems.append(what)
        log(f"FAILED: {what}")

    def op(self, key, code, stdout):
        self.attempted += 1
        want = self.expected.get(key)
        if code != 0:
            problem = f"`{key}` exited {code}"
        elif want is None:
            problem = f"`{key}` has no recorded output"
        elif mask(stdout) != want:
            problem = f"`{key}` printed other output than recorded"
        else:
            return
        self.failed += 1
        self.fail(problem)

    def traced(self, key, lines):
        """A traced replay's summary lines must all be in the recorded output."""
        self.attempted += 1
        want = self.expected.get(key, "").split("\n")
        missing = [l for l in lines if l not in want]
        if missing:
            self.failed += 1
            self.fail(f"traced `{key}` disagrees with the recorded output: {missing[0]!r}")

    def require(self, ok, what):
        if not ok:
            self.fail(what)


class Daemon:
    """`epvf serve --socket` with one client connection."""

    def __init__(self, exe, tag):
        self.sock_path = os.path.join(RUN_DIR, f"{tag}.sock")
        self.metrics_path = os.path.join(RUN_DIR, f"{tag}.metrics.json")
        tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
        os.makedirs(tmp, exist_ok=True)
        for path in (self.sock_path, self.metrics_path):
            if os.path.exists(path):
                os.remove(path)
        self.requests = 0
        self.start = time.perf_counter()
        self.err = open(os.path.join(RUN_DIR, f"{tag}.stderr"), "wb")
        self.proc = subprocess.Popen(
            [exe, "--metrics-out", self.metrics_path, "serve", "--socket", self.sock_path],
            stdout=subprocess.PIPE,
            stderr=self.err,
            env=dict(os.environ, TMPDIR=tmp),
            start_new_session=True,
        )
        self.rss_mb = 0.0
        self.conn = None
        banner = self.proc.stdout.readline().decode()
        if not banner.startswith("serving on"):
            self.kill()
            raise RuntimeError(f"serve did not start: {banner!r}")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.settimeout(OP_TIMEOUT_S)
        self.conn.connect(self.sock_path)
        self.reader = self.conn.makefile("rb")

    def send(self, line):
        self.conn.sendall((line + "\n").encode())

    def readline(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("serve closed the connection")
        return line.decode().rstrip("\n")

    def run(self, target, runs, seed):
        """One `run` request; returns (output text or None, timestamps)."""
        self.requests += 1
        t_sent = time.perf_counter()
        self.send(f"run {target} {runs} {seed} --shards {SHARDS}")
        stamps, out, ok = {"sent": t_sent}, [], False
        while True:
            line = self.readline()
            word, rest = (line.split(" ", 1) + [""])[:2]
            now = time.perf_counter()
            if word in ("queued", "start", "done", "error"):
                stamps[word] = now
            if word == "out":
                out.append(rest.split(" ", 1)[1] if " " in rest else "")
            elif word == "done":
                ok = True
                break
            elif word == "error":
                log(f"serve error: {line}")
                break
        return ("\n".join(out) + "\n") if ok else None, stamps

    def shutdown(self):
        """Drain and stop the daemon; returns (exit code, metrics snapshot)."""
        self.send("shutdown")
        while self.readline() != "bye":
            pass
        self.reader.close()
        self.conn.close()
        self.conn = None
        self.proc.stdout.read()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        # Children the daemon reaped (its shard workers) are included.
        self.rss_mb = ru.ru_maxrss / 1024.0
        with open(self.metrics_path) as f:
            return self.proc.returncode, json.loads(f.readline())

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        if self.conn is not None:
            self.conn.close()
        self.proc.stdout.close()
        self.err.close()


def check_daemon(chk, exe, daemon, distinct):
    """Exit code, conservation laws and the counters the requests imply."""
    code, report = daemon.shutdown()
    c = report["counters"]
    chk.require(code == 0, f"serve exited {code}")
    chk.require(
        c["supervisor.spawned"] == SHARDS * daemon.requests,
        f"supervisor.spawned {c['supervisor.spawned']} != {SHARDS} x {daemon.requests} requests",
    )
    chk.require(c["supervisor.restarts"] == 0, f"supervisor.restarts {c['supervisor.restarts']} != 0")
    chk.require(
        c["serve.cache.hits"] == daemon.requests - distinct,
        f"serve.cache.hits {c['serve.cache.hits']} != {daemon.requests - distinct} warm requests",
    )
    mc = run_epvf(exe, ["metrics-check", daemon.metrics_path])
    chk.require(mc.code == 0, f"metrics-check on the daemon's metrics exited {mc.code}")
    return report


def inject_key(target, runs, seed, threads=False):
    key = f"inject {target} {runs} {seed}"
    return key + " --threads 2" if threads else key


# ---------------------------------------------------------------- workloads


def one_shot_args(kind, target, runs, seed):
    if kind == "analyze":
        return ["analyze", target]
    return ["inject", target, str(runs), str(seed), "--threads", "2"]


def plan_round(rng, targets, smoke):
    """One round's (target, campaign seed) pairs, in a seeded shuffled order."""
    if smoke:
        return [(t, SMOKE["seed"]) for t in targets]
    order = list(targets)
    rng.shuffle(order)
    return [(t, rng.choice(SEED_POOL)) for t in order]


def runs_of(wl, smoke):
    return SMOKE["runs"][wl["kind"]] if smoke else wl["runs"]


def work_units(kind, stdout, runs):
    """Records analysed (analyze), requested runs (inject)."""
    if kind == "analyze":
        for line in stdout.split("\n"):
            if line.startswith("dyn IR insts  :"):
                return int(line.split(":")[1])
        return 0
    return runs


def measure_rounds(seconds, min_rounds, run_round):
    """Whole rounds until the next one would overrun `seconds`; returns
    (work done, wall seconds). `run_round` returns the work it did."""
    start = time.perf_counter()
    rounds, work = 0, 0
    while True:
        t = time.perf_counter()
        work += run_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (now - start) + (now - t) > seconds:
            return work, now - start


def summarize(setups, work, wall, latencies, rss):
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": work / wall,
        "latency_ms.p50": 1e3 * statistics.median(latencies),
        "latency_ms.p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": rss,
    }


def run_one_shot(exe, wl, seed, seconds, chk, smoke):
    kind, targets, runs = wl["kind"], targets_of(wl, smoke), runs_of(wl, smoke)
    rng = random.Random(seed)
    rss = 0.0

    def op(args):
        nonlocal rss
        r = run_epvf(exe, args)
        chk.op(" ".join(args), r.code, r.stdout)
        rss = max(rss, r.rss_mb)
        return r

    # Set-up: one golden `epvf run` per target, several times; median.
    setups = [sum(op(["run", t]).wall for t in targets) for _ in range(1 if smoke else wl["setup_reps"])]
    if not smoke:
        for t, s in plan_round(rng, targets, smoke):  # discarded warm-up round
            op(one_shot_args(kind, t, runs, s))
    latencies = []

    def one_round():
        work = 0
        for t, s in plan_round(rng, targets, smoke):
            r = op(one_shot_args(kind, t, runs, s))
            latencies.append(r.wall)
            work += work_units(kind, r.stdout, runs)
        return work

    work, wall = measure_rounds(0 if smoke else seconds, 1 if smoke else wl["min_rounds"], one_round)
    return summarize(setups, work, wall, latencies, rss)


def serve_requests(daemon, chk, plan, runs, stamps=None):
    """One request per (target, seed) of `plan`; returns the request count."""
    for target, s in plan:
        out, st = daemon.run(target, runs, s)
        chk.op(inject_key(target, runs, s), 0 if out is not None else 1, out or "")
        if stamps is not None:
            stamps.append(st)
    return len(plan)


def run_serve(exe, wl, seed, seconds, chk, smoke, reps=None, min_rounds=None):
    """Set-up `reps` times (spawn -> one warm-up request per target), keep
    the last daemon for a discarded warm-up round and the measured rounds."""
    targets, runs = targets_of(wl, smoke), runs_of(wl, smoke)
    rng = random.Random(seed)

    def seeds():
        return plan_round(rng, targets, smoke)

    reps = reps or (1 if smoke else wl["setup_reps"])
    setups, rss = [], 0.0
    for rep in range(reps):
        d = Daemon(exe, f"serve{rep}")
        try:
            serve_requests(d, chk, seeds(), runs)
            setups.append(time.perf_counter() - d.start)
            if rep < reps - 1:
                check_daemon(chk, exe, d, len(targets))
                rss = max(rss, d.rss_mb)
                continue
            if not smoke:
                serve_requests(d, chk, seeds(), runs)  # discarded warm-up round
            stamps = []
            work, wall = measure_rounds(
                0 if smoke else seconds,
                1 if smoke else (min_rounds or wl["min_rounds"]),
                lambda: serve_requests(d, chk, seeds(), runs, stamps),
            )
            report = check_daemon(chk, exe, d, len(targets))
            rss = max(rss, d.rss_mb)
        finally:
            d.kill()
    latencies = [st["done"] - st["sent"] for st in stamps if "done" in st]
    e2e = summarize(setups, work, wall, latencies, rss)
    return e2e, stamps, report


# ---------------------------------------------------------------- tracing

# Work counters that must be nonzero where a workload exercises the layer.
COVERAGE = {
    "analyze": [
        "interp.golden.insts_retired",
        "memsim.fault_checks",
        "ddg.nodes_created",
        "ace.nodes_visited",
        "core.propagation.slices_walked",
    ],
    "inject": [
        "interp.golden.insts_retired",
        "memsim.fault_checks",
        "memsim.cow_page_copies",
        "ddg.nodes_created",
        "ace.nodes_visited",
        "core.propagation.slices_walked",
        "llfi.campaign.runs_total",
    ],
    "serve": [
        "interp.golden.insts_retired",
        "memsim.fault_checks",
        "memsim.cow_page_copies",
        "llfi.campaign.runs_total",
        "llfi.wal.records_appended",
        "llfi.wal.records_recovered",
    ],
}
DAEMON_COVERAGE = ["serve.campaigns", "serve.cache.hits", "supervisor.spawned", "llfi.merge.shard_wals"]


def ratio(a, b):
    return a / b if b else 0.0


def run_traced(exe, tracer, wl, seed, seconds, chk, smoke):
    kind, targets, runs = wl["kind"], targets_of(wl, smoke), runs_of(wl, smoke)
    plan = plan_round(random.Random(seed), targets, smoke)
    budget = 0 if smoke else (seconds / 2 if kind == "serve" else seconds)
    wal_dir = os.path.join(RUN_DIR, "tracer-wal")
    argv = [tracer, kind, str(budget), str(runs), wal_dir] + [f"{t}@{s}" for t, s in plan]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"tracer exited {p.returncode}")
    tr = json.loads(p.stdout.strip().split("\n")[-1])

    # The traced replay must reproduce every op's recorded summary lines.
    for key, lines in tr["checks"]:
        target, s = key.split("@")
        recorded = f"analyze {target}" if kind == "analyze" else inject_key(target, runs, s, kind == "inject")
        chk.traced(recorded, lines)

    c, sp, tm, ops = tr["counters"], tr["spans"], tr["timers"], tr["ops"]
    for name in COVERAGE[kind]:
        chk.require(c.get(name, 0) > 0, f"layer counter {name} is zero on {kind}")
    chk.require(sp.get("workloads.build", 0) > 0, "workloads layer never called")
    comp = tr["compose"]
    if kind == "serve":
        chk.require(comp["cold_sections"] > 0, "compositional analysis saw no sections")
        chk.require(
            comp["warm_hits"] == comp["warm_sections"],
            f"warm re-analysis hit {comp['warm_hits']} of {comp['warm_sections']} cached sections",
        )

    def ms(span):
        return ratio(sp.get(span, 0), ops) / 1e6

    golden_ns = tm.get("interp.golden_run", 0)
    m = {
        "workloads.build_ms": ms("workloads.build"),
        "interp.golden_run_ms": ratio(golden_ns, ops) / 1e6,
        "interp.golden_ns_per_inst": ratio(golden_ns, c["interp.golden.insts_retired"]),
        "interp.injected_ns_per_inst": ratio(sp.get("llfi.campaign_run", 0), tr["campaign_insts"]),
        "interp.runs": ratio(c["interp.runs"], ops),
        "interp.resumed_frac": ratio(c["llfi.campaign.resumed_runs"], c["llfi.campaign.runs_total"]),
        "interp.early_benign_frac": ratio(c["llfi.campaign.early_benign"], c["llfi.campaign.runs_total"]),
        "memsim.fault_checks_per_inst": ratio(c["memsim.fault_checks"], c["interp.insts_retired"]),
        "memsim.cow_page_copies_per_run": ratio(c["memsim.cow_page_copies"], c["interp.runs"]),
        "ddg.build_ms": ms("ddg.build"),
        "ddg.nodes": ratio(c["ddg.nodes_created"], ops),
        "ddg.edges": ratio(c["ddg.edges_created"], ops),
        "ace.compute_ms": ms("ace.compute"),
        "ace.nodes_visited": ratio(c["ace.nodes_visited"], ops),
        "core.propagate_ms": ms("core.propagate"),
        "core.constraints_tightened": ratio(c["core.propagation.constraints_tightened"], ops),
        "core.tightenings_per_slice": ratio(
            c["core.propagation.constraints_tightened"], c["core.propagation.slices_walked"]
        ),
        "core.compose_cold_ms": ratio(comp["cold_ns"], comp["targets"]) / 1e6,
        "core.compose_warm_ms": ratio(comp["warm_ns"], comp["targets"]) / 1e6,
        "core.cache_hit_frac": ratio(comp["cold_hits"], comp["cold_sections"]),
        "llfi.campaign_setup_ms": ms("llfi.campaign_setup"),
        "llfi.campaign_run_ms": ms("llfi.campaign_run"),
        "llfi.precision_study_ms": ms("llfi.precision_study"),
        "llfi.recall_study_ms": ms("llfi.recall_study"),
        "llfi.runs_executed_per_requested": ratio(c["llfi.campaign.runs_total"], runs * ops),
        "llfi.wal_append_ms": ms("llfi.wal_append"),
        "llfi.wal_recover_ms": ms("llfi.wal_recover"),
        "llfi.merge_ms": ms("llfi.merge"),
        "unattributed_ms": ratio(tr["traced_ns"] - sum(sp.values()), ops) / 1e6,
        "tracing_overhead_frac": ratio(tr["traced_ns"], tr["untraced_ns"]) - 1.0,
        "serve.queue_wait_ms": 0.0,
        "serve.exec_ms.p50": 0.0,
        "serve.cache_hit_frac": 0.0,
        "supervisor.spawned": 0,
        "supervisor.restarts": 0,
    }
    if kind == "serve":
        # The serve layer as the daemon itself reports it.
        _, stamps, report = run_serve(exe, wl, seed + 1, budget, chk, smoke, reps=1, min_rounds=2)
        dc = report["counters"]
        for name in DAEMON_COVERAGE:
            chk.require(dc.get(name, 0) > 0, f"daemon counter {name} is zero")
        m["serve.queue_wait_ms"] = 1e3 * statistics.median(st["start"] - st["queued"] for st in stamps)
        m["serve.exec_ms.p50"] = 1e3 * statistics.median(st["done"] - st["start"] for st in stamps)
        m["serve.cache_hit_frac"] = ratio(dc["serve.cache.hits"], dc["serve.campaigns"])
        m["supervisor.spawned"] = dc["supervisor.spawned"]
        m["supervisor.restarts"] = dc["supervisor.restarts"]
    return m


# ---------------------------------------------------------------- recording


def record(exe):
    """Re-record the expected stdout of every op a workload can issue."""
    keys = set()
    for smoke in (False, True):
        for wl in WORKLOADS.values():
            kind = wl["kind"]
            seeds = [SMOKE["seed"]] if smoke else SEED_POOL
            runs = runs_of(wl, smoke)
            for t in targets_of(wl, smoke):
                if kind != "serve":
                    keys.add(f"run {t}")
                if kind == "analyze":
                    keys.add(f"analyze {t}")
                else:
                    for s in seeds:
                        keys.add(inject_key(t, runs, s, kind == "inject"))
    expected = {}
    for key in sorted(keys):
        r = run_epvf(exe, key.split(), timeout=600)
        if r.code != 0:
            log(f"recording `{key}` failed (exit {r.code})")
            return 1
        expected[key] = mask(r.stdout)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(expected)} outputs in {os.path.relpath(EXPECTED, ROOT)}")
    return 0


# ---------------------------------------------------------------- main


def result(bench, section, values, chk):
    metrics = {}
    for m in bench[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "correct": not chk.problems,
        "attempted": max(chk.attempted, 1),
        "failed": chk.failed,
        "metrics": metrics,
    }


def run_workload(exe, tracer, name, seed, seconds, trace, expected, smoke=False):
    wl = WORKLOADS[name]
    chk = Checker(expected)
    if trace:
        values = run_traced(exe, tracer, wl, seed, seconds, chk, smoke)
    elif wl["kind"] == "serve":
        values = run_serve(exe, wl, seed, seconds, chk, smoke)[0]
    else:
        values = run_one_shot(exe, wl, seed, seconds, chk, smoke)
    return chk, values


def smoke(exe, tracer, bench, expected):
    """Every workload at :tiny, traced and untraced; checks outputs and schema."""
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            chk, values = run_workload(exe, tracer, name, 1, 0, trace, expected, smoke=True)
            res = result(bench, "per_layer" if trace else "end_to_end", values, chk)
            ok = res["correct"] and all(
                isinstance(v["value"], (int, float)) for v in res["metrics"].values()
            )
            log(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'} ({chk.attempted} ops)")
            bad += not ok
    print(json.dumps({"smoke": "ok" if bad == 0 else "failed", "failed_cases": bad}))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="fast :tiny run of every workload")
    ap.add_argument("--record", action="store_true", help="re-record perfbench/expected.json")
    args = ap.parse_args()
    if not (args.smoke or args.record or args.workload):
        ap.error("one of --workload, --smoke or --record is required")

    exe, tracer = build()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    if args.record:
        return record(exe)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(EXPECTED) as f:
        expected = json.load(f)
    if args.smoke:
        return smoke(exe, tracer, bench, expected)

    print("# stamp " + json.dumps(stamp()), flush=True)
    chk, values = run_workload(exe, tracer, args.workload, args.seed, args.seconds, args.trace, expected)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result(bench, section, values, chk)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
