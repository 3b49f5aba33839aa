"""Shared plumbing: building the program, running and timing its
processes, and summarising samples."""

import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
JOBS = 1  # --jobs for rtsynd and rtsyn: one lane, never above nproc
TARGETS = ["bin/rtsyn.exe", "bin/rtsynd.exe", "perfbench/harness/layers.exe"]


class BenchError(Exception):
    """The benchmark cannot produce a result (build failure, missing
    program, a daemon that never answers)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("neither dune nor opam is on PATH")


def build():
    """Build the two binaries and the layer harness from source in the
    checkout; return their paths."""
    if not os.path.exists("dune-project"):
        raise BenchError("no dune-project here: run from the root of a checkout")
    env = dict(os.environ, DUNE_BUILD_DIR=BUILD_DIR, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--profile", "release"] + TARGETS
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        log(r.stdout.decode(errors="replace")[-4000:])
        raise BenchError("build failed")
    paths = [os.path.join(BUILD_DIR, "default", t) for t in TARGETS]
    for p in paths:
        if not os.path.exists(p):
            raise BenchError("build produced no " + p)
    return paths


def run_measured(args, cwd=None, timeout=170):
    """Run one process to completion; return (exit code, wall seconds,
    its own peak RSS in MB, stdout, stderr).  The child is reaped with
    wait4 so its resource usage is its own."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = t0 + timeout
    out_chunks, err_chunks = [], []
    sel = selectors.DefaultSelector()
    sel.register(p.stdout, selectors.EVENT_READ, out_chunks)
    sel.register(p.stderr, selectors.EVENT_READ, err_chunks)
    open_streams = 2
    while open_streams:
        left = deadline - time.perf_counter()
        if left <= 0:
            p.kill()
            os.wait4(p.pid, 0)
            raise BenchError("timed out: " + " ".join(args))
        for key, _ in sel.select(timeout=left):
            chunk = os.read(key.fd, 1 << 16)
            if chunk:
                key.data.append(chunk)
            else:
                sel.unregister(key.fileobj)
                open_streams -= 1
    _, status, ru = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return (
        p.returncode,
        dt,
        ru.ru_maxrss / 1024.0,
        b"".join(out_chunks).decode(errors="replace"),
        b"".join(err_chunks).decode(errors="replace"),
    )


def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    xs = sorted(values)
    k = max(1, -(-len(xs) * p // 100))
    return xs[int(k) - 1]


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
