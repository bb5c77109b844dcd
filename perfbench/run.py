#!/usr/bin/env python3
"""Benchmark of the HER entity-linking system.

    python3 perfbench/run.py --workload apair-scale --seed 1 --seconds 24 --trace 0

Builds perfbench/ (which compiles the library from this checkout through
the repository's own CMakeLists) into .bench_build/, prepares per-build
inputs that are too slow to make in every run (the 1-worker reference Pi
of apair-scale, the trained snapshots of apair-learned and serve-mixed)
under .bench_build/cache/, runs one workload, checks its outputs, and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it carries provenance (nproc,
build type, git sha or source digest, host steal time during the run) and
the raw sample counts. perfbench/README.md describes the workloads.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORKLOADS = ("apair-scale", "apair-learned", "serve-mixed")

WORKERS = 4            # APair workers; never adjusted to the host
SETUPS = 5             # set-ups per apair run; setup_s is their median
SCALE_DATASET_SEED = 29    # bench_scale's 1M tier
LEARNED_DATASET_SEED = 29
SERVE_OPS = 5000       # ops per serve pass
SERVE_WARM = 200       # leading ops of a pass that are answered, not timed
# A serve run replays a fixed list of traffic seeds, 1..n, SERVE_ROUNDS
# times, with n = SERVE_SEEDS_PER_S * --seconds (a pass takes 1.5-2.5 s).
# Where each seed aborts is a pure function of the seed, so attempted and
# failed depend only on --seconds; --seed sets the order of the passes.
SERVE_SEEDS_PER_S = 0.4
SERVE_ROUNDS = 2
SERVE_MIN_SEEDS = 2
# A timed call or pass during which the hypervisor stole more than this
# share of host CPU times the neighbours as much as HER. APair runs keep
# sampling (up to 1.5x --seconds) until MIN_QUIET calls stayed under it,
# and take their latency medians from those.
STEAL_LIMIT = 0.03
MIN_QUIET = 3
MAX_OVERTIME = 1.5
STOP_RULE = ["--steal-limit", str(STEAL_LIMIT), "--min-quiet", str(MIN_QUIET),
             "--max-overtime", str(MAX_OVERTIME)]
RUN_DEADLINE_S = 170   # a run (after the build) must end within this
BUILD_TIMEOUT_S = 800

# Layout of a serve pass's progress file (see serve.cc).
HEADER_SLOTS = 32
(OPS, ANSWERED, SETUP_S, OPEN_S, SNAPSHOT_LOAD_S, ACCEPTED_WRITES,
 ACCEPTED_READS, REJECTED, DEGRADED, APPLIED, APPLY_BATCHES, CHECKPOINTS,
 PTABLE_S, LOOP_CPU_S, LOOP_SYS_S, LOOP_FAULTS, LOOP_SWITCHES, WAL_APPEND_S,
 WAL_APPENDS, WAL_BYTES, WAL_SYNC_S, WAL_SYNCS, OTHER_APPEND_S, OTHER_SYNC_S,
 OTHER_SYNCS) = range(25)
F_WRITE, F_QUEUED, F_CHECKPOINT, F_TIMED = 1, 2, 4, 8


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build, children, provenance

def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "her_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "her_perfbench")


class Child:
    """One child process, reaped with its resource usage."""

    def __init__(self, argv, workdir, name, deadline):
        self.out = os.path.join(workdir, name + ".out")
        self.err = os.path.join(workdir, name + ".err")
        with open(self.out, "w") as out, open(self.err, "w") as err:
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        self.deadline = deadline

    def wait(self):
        timed_out = False
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timed_out = timed_out
        self.code = self.proc.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        with open(self.out) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        self.result = json.loads(lines[-1]) if lines else None
        with open(self.err) as f:
            tail = [l for l in f.read().splitlines() if l.strip()]
        self.error = tail[-1] if tail else ""
        return self

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                os.wait4(self.proc.pid, 0)
            except ChildProcessError:  # already reaped by wait()
                pass
            self.proc.returncode = -9


def run_child(argv, workdir, name, deadline):
    child = Child(argv, workdir, name, deadline)
    try:
        return child.wait()
    except BaseException:  # interrupted or terminated: stop the child first
        child.kill()
        raise


def cpu_ticks():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_fraction(ticks0, ticks1):
    delta = [b - a for a, b in zip(ticks0, ticks1)]
    return delta[7] / max(1, sum(delta))


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build_type():
    cache = os.path.join(BUILD, "cmake", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def cached(cache_dir, name, make):
    """JSON record `name` of this build's cache, made once by `make`."""
    path = os.path.join(cache_dir, name + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    record = make()
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, path)
    return record


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank percentile; needs len(xs) >= 10 / (1 - p) samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(p * len(s)))]


# --------------------------------------------------------------------------
# Workloads. Each returns (metrics, attempted, failed, correct, detail),
# where metrics maps a metric name to its value.

def prepare(binary, argv, workdir, name, deadline):
    c = run_child([binary] + argv, workdir, name, deadline)
    if c.code != 0 or c.result is None:
        raise BenchError("%s failed (exit %s): %s" % (argv[0], c.code, c.error))
    return c.result


def apair_common(c, trace, detail):
    r = c.result
    for key in ("setup_s", "latency_s", "steal_frac"):
        detail[key] = r[key]
    quiet = [w for w, s in zip(r["latency_s"], r["steal_frac"]) if s <= STEAL_LIMIT]
    lat = quiet if len(quiet) >= MIN_QUIET else r["latency_s"]
    detail["calls_over_steal_limit"] = len(r["latency_s"]) - len(quiet)
    attempted, verified = int(r["attempted"]), int(r["verified"])
    if trace:
        metrics = {k: v for k, v in r.items() if "." in k}
        metrics["process.cpu_s"] = median(r["cpu_s"])
    else:
        metrics = {
            "setup_s": median(r["setup_s"]),
            "latency_ms": 1e3 * median(lat),
            "peak_rss_mb": c.maxrss_mb,
            "ok_frac": verified / attempted,
            "ops_per_s": len(lat) / sum(lat),
        }
    return metrics, attempted, attempted - verified, attempted == verified


def apair_scale(binary, cache, work, seed, seconds, trace, deadline):
    ref = cached(cache, "apair-scale-ref-%d" % SCALE_DATASET_SEED,
                 lambda: prepare(binary, [
                     "prepare-scale", "--dataset-seed", str(SCALE_DATASET_SEED)],
                     work, "prepare", deadline))
    c = run_child([binary, "run-scale",
                   "--dataset-seed", str(SCALE_DATASET_SEED),
                   "--order-seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--setups", str(SETUPS),
                   "--expect-pi", ref["pi_digest"]] + STOP_RULE, work, "run",
                  deadline)
    detail = {"reference": ref}
    if c.result is None:
        return {}, 1, 1, False, dict(detail, error=c.error, exit=c.code)
    metrics, attempted, failed, correct = apair_common(c, trace, detail)
    return metrics, attempted, failed, correct, detail


def apair_learned(binary, cache, work, seed, seconds, trace, deadline):
    snapshot = os.path.join(cache, "learned-%d.snap" % LEARNED_DATASET_SEED)
    ref = cached(cache, "apair-learned-ref-%d" % LEARNED_DATASET_SEED,
                 lambda: prepare(binary, [
                     "prepare-learned", "--dataset-seed",
                     str(LEARNED_DATASET_SEED), "--snapshot", snapshot],
                     work, "prepare", deadline))
    # The trained model is this workload's input; retraining per seed costs
    # ~23 s and moves |Pi| threefold, so the seed does not change it.
    c = run_child([binary, "run-learned",
                   "--dataset-seed", str(LEARNED_DATASET_SEED),
                   "--snapshot", snapshot, "--work", work,
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--setups", str(SETUPS), "--expect-pi", ref["pi_digest"],
                   "--expect-f1", repr(ref["test_f1"])] + STOP_RULE, work,
                  "run", deadline)
    detail = {"reference": ref}
    if c.result is None:
        return {}, 1, 1, False, dict(detail, error=c.error, exit=c.code)
    metrics, attempted, failed, correct = apair_common(c, trace, detail)
    detail["test_f1"] = c.result["test_f1"]
    return metrics, attempted, failed, correct, detail


def traffic_seeds(seed, seconds):
    """The run's traffic seeds in the order --seed gives them."""
    n = max(SERVE_MIN_SEEDS, round(SERVE_SEEDS_PER_S * seconds))
    seeds = list(range(1, n + 1))
    random.Random(seed).shuffle(seeds)
    return seeds


def serve_pass(binary, snapshot, work, tseed, traced, deadline, name):
    progress = os.path.join(work, name + ".bin")
    ticks0 = cpu_ticks()
    c = run_child([binary, "serve-pass", "--dir", os.path.join(work, name),
                   "--snapshot", snapshot, "--seed", str(tseed),
                   "--ops", str(SERVE_OPS), "--warm", str(SERVE_WARM),
                   "--trace", "1" if traced else "0", "--progress", progress],
                  work, name, deadline)
    with open(progress, "rb") as f:
        raw = f.read()
    shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    os.remove(progress)
    head = struct.unpack_from("<%dd" % HEADER_SLOTS, raw, 0)
    answered = int(head[ANSWERED])
    base = 8 * HEADER_SLOTS
    recs = [struct.unpack_from("<dI", raw, base + 16 * i) for i in range(answered)]
    return {"seed": tseed, "traced": traced, "code": c.code, "error": c.error,
            "steal_frac": steal_fraction(ticks0, cpu_ticks()),
            "timed_out": c.timed_out, "head": head, "answered": answered,
            "recs": recs, "result": c.result, "maxrss_mb": c.maxrss_mb}


def check_pass(p, cache):
    """Verifies one pass; returns (ops verified, reproducible)."""
    if p["timed_out"]:  # cut by the run's deadline: nothing to compare
        return 0, True
    h = p["head"]
    accounted = h[ACCEPTED_WRITES] + h[ACCEPTED_READS] + h[REJECTED] + h[DEGRADED]
    ok = accounted == p["answered"]
    if p["code"] == 0:
        r = p["result"] or {}
        ok = ok and p["answered"] == SERVE_OPS and r.get("drained") == 1
        outcome = {"answered": p["answered"], "verdicts": r.get("verdict_digest")}
    else:
        outcome = {"answered": p["answered"], "verdicts": None}
    # The same traffic seed must end the same way in every run of a build:
    # the same post-drain verdicts, or the same abort after the same op.
    seen = cached(cache, "serve-pass-%d" % p["seed"], lambda: outcome)
    same = seen == outcome
    return (p["answered"] if ok and same else 0), same


def serve_mixed(binary, cache, work, seed, seconds, trace, deadline):
    snapshot = os.path.join(cache, "serve-model.snap")
    prep = os.path.join(work, "prepare-serve")

    def make():
        r = prepare(binary, ["prepare-serve", "--dir", prep], work,
                    "prepare", deadline)
        shutil.copyfile(os.path.join(prep, "model.snap"), snapshot)
        return r
    ref = cached(cache, "serve-mixed-prep", make)

    # Every traffic seed is replayed in SERVE_ROUNDS rounds of the same
    # order, so its passes lie a round apart. An end-to-end run times all
    # of them and keeps, per seed, the pass with the smallest service
    # time: host speed drifts from second to second on a shared VM, and
    # the fastest of identical passes is the least disturbed one. A traced
    # run makes two rounds, untraced then traced, so the tracing overhead
    # is measured on identical ops.
    seeds = traffic_seeds(seed, seconds)
    rounds = []
    for r in range(2 if trace else SERVE_ROUNDS):
        rounds.append([serve_pass(binary, snapshot, work, tseed, trace and r == 1,
                                  deadline, "pass%d-%d" % (r, tseed))
                       for tseed in seeds])
    passes = [p for rnd in rounds for p in rnd]

    # Every pass must end as the seed's first pass in this build did;
    # the first round's passes are the attempted ops.
    attempted = verified = 0
    correct = True
    for i, p in enumerate(passes):
        ops_ok, same = check_pass(p, cache)
        correct = correct and same
        if i < len(seeds):
            attempted += SERVE_OPS
            verified += ops_ok

    def timed(ps, pred=lambda f: True):
        return [r[0] for p in ps for r in p["recs"] if r[1] & F_TIMED and pred(r[1])]
    plain = [min(same_seed, key=lambda p: sum(timed([p])))
             for same_seed in zip(*(rounds[:1] if trace else rounds))]
    traced = rounds[1] if trace else []
    lat = timed(plain)
    reads = timed(plain, lambda f: not f & F_WRITE)
    writes = timed(plain, lambda f: f & F_WRITE)
    aborts = [{"traffic_seed": p["seed"], "answered": p["answered"],
               "exit": p["code"], "error": p["error"]}
              for p in passes if p["code"] != 0]
    detail = {"prepare": ref, "passes": len(passes), "ops_per_pass": SERVE_OPS,
              "traffic_seeds": seeds,
              "timed_ops": len(lat), "timed_reads": len(reads),
              "timed_writes": len(writes),
              "read_p50_ms": 1e3 * median(reads),
              "read_p99_ms": 1e3 * percentile(reads, 0.99),
              "write_p99_ms": 1e3 * percentile(writes, 0.99),
              "steal_frac": [round(p["steal_frac"], 4) for p in passes],
              "pass_p50_ms": [round(1e3 * median(timed([p])), 4) for p in passes],
              "aborted_passes": aborts}

    if not trace:
        metrics = {
            "setup_s": median([p["head"][SETUP_S] for p in passes]),
            "latency_ms": 1e3 * median(lat),
            "peak_rss_mb": median([p["maxrss_mb"] for p in passes]),
            "ok_frac": verified / attempted,
            "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        }
        return metrics, attempted, attempted - verified, correct, detail

    def total(ps, slot):
        return sum(p["head"][slot] for p in ps)
    writes_all = total(traced, ACCEPTED_WRITES)
    checkpoint_ops = timed(plain, lambda f: f & F_CHECKPOINT)
    after_write = timed(plain, lambda f: not f & F_WRITE and f & F_QUEUED)
    clean = timed(plain, lambda f: not f & F_WRITE and not f & F_QUEUED)
    traced_lat = timed(traced)
    io_s = (total(traced, WAL_APPEND_S) + total(traced, WAL_SYNC_S) +
            total(traced, OTHER_APPEND_S) + total(traced, OTHER_SYNC_S) +
            total(traced, PTABLE_S))
    traced_service = sum(r[0] for p in traced for r in p["recs"])
    answered_traced = max(1, sum(p["answered"] for p in traced))
    n = len(passes)
    metrics = {
        "learn.warm_start_s": median([p["head"][OPEN_S] for p in passes]),
        "persist.snapshot_load_s": median([p["head"][SNAPSHOT_LOAD_S] for p in passes]),
        "sim.ptable_build_s": median([p["head"][PTABLE_S] for p in traced]),
        "serve.wal_append_ms": 1e3 * total(traced, WAL_APPEND_S) / max(1, total(traced, WAL_APPENDS)),
        "serve.fsync_ms": 1e3 * total(traced, WAL_SYNC_S) / max(1, total(traced, WAL_SYNCS)),
        "serve.fsyncs_per_write": (total(traced, WAL_SYNCS) + total(traced, OTHER_SYNCS)) / max(1, writes_all),
        "serve.wal_bytes_per_write": total(traced, WAL_BYTES) / max(1, writes_all),
        "serve.checkpoint_ms": 1e3 * (statistics.mean(checkpoint_ops) if checkpoint_ops else 0.0),
        "serve.checkpoints": total(passes, CHECKPOINTS) / n,
        "serve.apply_batches": total(passes, APPLY_BATCHES) / n,
        "serve.mutations_per_batch": total(passes, APPLIED) / max(1, total(passes, APPLY_BATCHES)),
        "serve.read_after_write_p50_ms": 1e3 * median(after_write),
        "serve.read_clean_p50_ms": 1e3 * median(clean),
        "serve.rejected": total(passes, REJECTED),
        "serve.degraded": total(passes, DEGRADED),
        "serve.read_p99_ms": detail["read_p99_ms"],
        "serve.write_p99_ms": detail["write_p99_ms"],
        "process.cpu_s": total(traced, LOOP_CPU_S) / answered_traced,
        "process.sys_frac": total(traced, LOOP_SYS_S) / max(1e-9, total(traced, LOOP_CPU_S)),
        "process.minor_faults": total(traced, LOOP_FAULTS) / answered_traced,
        "process.vol_switches": total(traced, LOOP_SWITCHES) / answered_traced,
        "trace.overhead_frac": median(traced_lat) / median(lat) - 1.0 if lat else 0.0,
        "trace.coverage": io_s / traced_service if traced_service else 0.0,
    }
    return metrics, attempted, attempted - verified, correct, detail


RUNNERS = {"apair-scale": apair_scale, "apair-learned": apair_learned,
           "serve-mixed": serve_mixed}


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops and reaps its child (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    cache = os.path.join(BUILD, "cache", file_digest(binary))
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(cache, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    ticks0 = cpu_ticks()
    try:
        metrics, attempted, failed, correct, detail = RUNNERS[args.workload](
            binary, cache, work, args.seed, args.seconds, args.trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ticks1 = cpu_ticks()
    steal_frac = steal_fraction(ticks0, ticks1)
    if args.trace:
        metrics["host.steal_frac"] = steal_frac

    nproc = os.cpu_count() or 0
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "workers": WORKERS,
        "host_below_workers": nproc < WORKERS, "build_type": build_type(),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "steal_s": (ticks1[7] - ticks0[7]) / os.sysconf("SC_CLK_TCK"),
        "steal_frac": steal_frac,
    }
    print(json.dumps({"provenance": provenance, "detail": detail}))
    out = {}
    for m in declared:
        value = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
