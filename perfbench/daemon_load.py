"""The daemon workloads: a resident plant held steady by a seeded mix of
admits, what-ifs and retires, sent from this (separate) process to a real
`rtsynd --socket` over one connection, closed loop."""

import json
import os
import random
import shutil
import socket
import subprocess
import tempfile
import time

import checks
from common import BUILD_DIR, JOBS, BenchError, log, median
from layers import run_harness

SEPARATION = 1024
BASE_DEADLINE = 512
TIGHT_DEADLINE = 256
# Fault (a): tightening the last component before the ones ranked ahead
# of it makes Decompose.interleave fail; whole-model synthesis then
# cannot schedule the undeduplicated constraints and runs into the
# default 2 s budget.  The request does not depend on the seed.
FAULT_DECL = "constraint fault asynchronous separation 1024 deadline 256 { e%d; }"
FAULT = ()  # the answer paths right for the fault (a) request: none

SHAPES = {
    # components x constraints per component; daemon launches for set-up;
    # rounds every run completes (enough samples for the tail
    # percentile); rounds, fewer, whose journal the recovery restarts on (the
    # same number of records in every run); rounds the traced harness
    # replays; the tail percentile reported; what-ifs per round.
    "churn-1k": dict(components=10, per=100, launches=9, min_rounds=60, recover_rounds=50,
                     trace_rounds=20, tail=90, tighten=False, whatifs=3),
    "plant-10k": dict(components=100, per=100, launches=3, min_rounds=4, recover_rounds=2,
                      trace_rounds=1, tail=65, tighten=True, whatifs=2),
}


def base_spec(shape):
    lines = ['system "plant" {']
    for k in range(shape["components"]):
        lines.append("  element e%d weight 1 pipelinable;" % k)
    # Declared component by component: the daemon ranks interaction
    # components by first declaration, and tightening admits go in rank
    # order (the order E17 admits in).
    lines.extend(
        "  constraint c%d_%d asynchronous separation %d deadline %d { e%d; }"
        % (k, i, SEPARATION, BASE_DEADLINE, k)
        for k in range(shape["components"])
        for i in range(shape["per"]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def decl(name, deadline, k):
    return "constraint %s asynchronous separation %d deadline %d { e%d; }" % (
        name, SEPARATION, deadline, k)


class Mix:
    """Generates the rounds of operations and tracks the resident
    constraint set they leave behind (name -> (element index, deadline)).

    One round: a warm admit dominated by a resident constraint, a what-if,
    a retire of a seeded resident constraint, its alpha-renamed re-admit
    (memo path), [plant-10k: a tightening admit of the next component in
    rank order (synth path, re-solves one component)], the retire of the
    warm admit, a second what-if [, churn-1k: a third what-if] [, plant-10k:
    the fault (a) what-if].
    Every round leaves the plant as it found it, plus one tightened
    component on plant-10k.  Each operation carries the answer paths that
    are right for it: a state the memo has seen may be answered from it."""

    def __init__(self, shape, rng):
        self.shape = shape
        self.rng = rng
        self.resident = {
            "c%d_%d" % (k, i): (k, BASE_DEADLINE)
            for k in range(shape["components"])
            for i in range(shape["per"])
        }
        # Warm admits take the odd deadlines and what-ifs, which the memo
        # never stores, the even ones: a what-if then never meets a state
        # a warm admit stored, and warm admits repeat a state only after
        # the odd deadlines are used up.
        self.warm_deadlines = list(range(BASE_DEADLINE + 1, SEPARATION, 2))
        rng.shuffle(self.warm_deadlines)
        self.round = 0

    def exhausted(self):
        """plant-10k tightens one more component per round."""
        return self.shape["tighten"] and self.round >= self.shape["components"] - 1

    def next_round(self):
        r = self.round
        self.round += 1
        rng, n = self.rng, self.shape["components"]
        kw, kq, kq2, kq3 = (rng.randrange(n) for _ in range(4))
        dw = self.warm_deadlines[r % len(self.warm_deadlines)]
        dq, dq2, dq3 = (rng.randrange(BASE_DEADLINE + 2, SEPARATION, 2) for _ in range(3))
        victim = rng.choice(sorted(x for x, (_, d) in self.resident.items()
                                   if d == BASE_DEADLINE))
        kv, dv = self.resident[victim]
        renamed, w = "m%d" % r, "w%d" % r
        warm = ("warm", "memo")
        ops = [
            ("admit", decl(w, dw, kw), warm, (w, kw, dw)),
            ("what-if", decl("q%d" % r, dq, kq), warm, None),
            ("retire", victim, ("retire",), None),
            ("admit", decl(renamed, dv, kv), ("memo", "warm"), (renamed, kv, dv)),
        ]
        if self.shape["tighten"]:
            t = "t%d" % r
            ops.append(("admit", decl(t, TIGHT_DEADLINE, r), ("synth",), (t, r, TIGHT_DEADLINE)))
        ops.append(("retire", w, ("retire",), None))
        ops.append(("what-if", decl("p%d" % r, dq2, kq2), warm, None))
        if self.shape["whatifs"] == 3:
            # An odd number of operations, so the median falls inside the
            # what-if cluster rather than between the retires and the rest.
            ops.append(("what-if", decl("o%d" % r, dq3, kq3), warm, None))
        if self.shape["tighten"]:
            ops.append(("what-if", FAULT_DECL % (n - 1), FAULT, None))
        return ops

    def apply(self, op, response):
        """Track the resident set after a committed operation."""
        kind, arg, _, added = op
        if not response.get("ok") or kind == "what-if":
            return
        if kind == "retire":
            del self.resident[arg]
        else:
            name, k, d = added
            self.resident[name] = (k, d)


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(150)  # a wedged daemon fails the run, not hangs it
        self.sock.connect(path)
        self.buf = b""
        self.n = 0

    def request(self, op, **fields):
        self.n += 1
        req = {"v": 1, "id": str(self.n), "op": op}
        req.update(fields)
        t0 = time.perf_counter()
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("rtsynd closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        dt = time.perf_counter() - t0
        resp = json.loads(line)
        if resp.get("id") != str(self.n):
            raise BenchError("response out of order: " + line.decode()[:200])
        return resp, dt

    def send(self, kind, arg):
        """One workload request: retire takes a name, admit and what-if a
        declaration."""
        return self.request(kind, **({"name": arg} if kind == "retire" else {"decl": arg}))

    def close(self):
        self.sock.close()


class Daemon:
    """One rtsynd process serving a Unix socket in [workdir].  Every
    instance is added to [live] so a failed run can stop it."""

    live = []

    def __init__(self, rtsynd, workdir, spec_path, journal):
        sock = os.path.join(workdir, "rtsynd.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        t0 = time.perf_counter()
        # Relative paths keep the socket path short whatever the checkout.
        with open(os.path.join(workdir, "rtsynd.err"), "ab") as err:
            self.proc = subprocess.Popen(
                [os.path.abspath(rtsynd), "--spec", os.path.basename(spec_path),
                 "--journal", os.path.basename(journal), "--socket", "rtsynd.sock",
                 "--jobs", str(JOBS)],
                cwd=workdir, stdout=subprocess.DEVNULL, stderr=err)
        Daemon.live.append(self)
        self.client = None
        while self.client is None:
            if self.proc.poll() is not None:
                with open(os.path.join(workdir, "rtsynd.err")) as f:
                    raise BenchError("rtsynd exited at start: " + f.read()[-500:])
            if time.perf_counter() - t0 > 120:
                self.kill()
                raise BenchError("rtsynd did not answer within 120 s")
            try:
                c = Client(os.path.relpath(sock))
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.001)
                continue
            self.first, _ = c.request("stats")
            self.client = c
        self.startup_s = time.perf_counter() - t0

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for rtsynd")

    def shutdown(self):
        try:
            self.client.request("shutdown")
        finally:
            self.client.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
        if self.proc.returncode != 0:
            raise BenchError("rtsynd exited %d on shutdown" % self.proc.returncode)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    @classmethod
    def stop_all(cls):
        for d in cls.live:
            d.kill()
        cls.live = []


def probe_properties(d, mix):
    """Properties the method must have, asked once before the measured
    phase while the memo is small: a what-if leaves the digest and
    certificate alone, an admit dominated by a resident constraint is
    accepted on the warm path, and an alpha-renamed re-admit of a
    just-retired constraint is answered from the memo.  Returns the
    errors and the requests sent."""
    errors, ops = [], []
    before, _ = d.client.request("stats")
    ops.append(("what-if", decl("probe_q", SEPARATION, 0)))
    probe, _ = d.client.send(*ops[0])
    after, _ = d.client.request("stats")
    if not probe.get("ok"):
        errors.append("a dominated what-if was refused")
    if (after["digest"], after["cert"]) != (before["digest"], before["cert"]):
        errors.append("a what-if changed the resident digest or certificate")
    steps = [
        ("admit", decl("probe_w", SEPARATION, 0), ("warm",), ("probe_w", 0, SEPARATION)),
        ("retire", "probe_w", ("retire",), None),
        ("retire", "c0_0", ("retire",), None),
        ("admit", decl("probe_m", BASE_DEADLINE, 0), ("memo",), ("probe_m", 0, BASE_DEADLINE)),
    ]
    for op in steps:
        kind, arg, paths, _ = op
        resp, _ = d.client.send(kind, arg)
        if not resp.get("ok") or resp.get("path") not in paths:
            errors.append("property probe %s %s answered %s" % (kind, arg, json.dumps(resp)[:300]))
        mix.apply(op, resp)
        ops.append((kind, arg))
    return errors, ops


def last_schedule(journal):
    """The resident schedule the journal records at its end: the
    schedule of the last init or admit record (retires keep it)."""
    sched = None
    with open(journal) as f:
        for line in f:
            rec = json.loads(line)
            if rec["op"] in ("init", "admit"):
                sched = rec["schedule"]
    return sched


def run(workload, seed, seconds, rtsynd, trace, harness, root):
    shape = SHAPES[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    spec = base_spec(shape)
    mix = Mix(shape, rng)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, BUILD_DIR))
    errors = []
    try:
        spec_path = os.path.join(work, "base.spec")
        with open(spec_path, "w") as f:
            f.write(spec)
        # Set-up: launch on a fresh journal until the first answer, with
        # the base plant synthesized, certified and journaled.  Several
        # launches; the median is reported and the last one is measured.
        setups = []
        t_setup = time.perf_counter()
        for i in range(shape["launches"]):
            journal = os.path.join(work, "j%d.journal" % i)
            d = Daemon(rtsynd, work, spec_path, journal)
            setups.append(d.startup_s)
            if i + 1 < shape["launches"]:
                d.shutdown()
        log("# set-up %.1fs" % (time.perf_counter() - t_setup))
        probe_errors, probe_ops = probe_properties(d, mix)
        errors.extend(probe_errors)
        samples, by_kind, log_ops = [], {}, []
        attempted = failed = 0
        t_start = time.perf_counter()
        recover_journal = os.path.join(work, "recover.journal")
        while ((time.perf_counter() - t_start < seconds or mix.round < shape["min_rounds"])
               and not mix.exhausted()):
            if mix.round == shape["recover_rounds"]:
                shutil.copyfile(journal, recover_journal)
            for op in mix.next_round():
                kind, arg, paths, _ = op
                resp, dt = d.client.send(kind, arg)
                attempted += 1
                samples.append(dt)
                by_kind.setdefault(kind, []).append(dt)
                log_ops.append((op, resp.get("path")))
                if not resp.get("ok"):
                    failed += 1
                    if paths != FAULT:
                        errors.append("%s %s failed: %s" % (kind, arg, json.dumps(resp)[:300]))
                    elif resp["error"]["kind"] != "timeout":
                        errors.append("fault (a) answered %s, not timeout" % resp["error"]["kind"])
                elif paths != FAULT and resp.get("path") not in paths:
                    errors.append("%s %s took the %s path" % (kind, arg, resp.get("path")))
                mix.apply(op, resp)
        elapsed = time.perf_counter() - t_start
        rounds = mix.round
        result = dict(attempted=attempted, failed=failed, samples=samples)

        log("# measured %.1fs" % elapsed)
        t_post = time.perf_counter()
        # --- after the measured phase: properties, end state, recovery ---
        stats, _ = d.client.request("stats")
        wire = wire_probe(d.client) if trace else None
        if stats["constraints"] != len(mix.resident):
            errors.append("stats has %d constraints, the generator tracked %d"
                          % (stats["constraints"], len(mix.resident)))
        rv, _ = d.client.request("reverify")
        if not rv.get("ok") or rv.get("digest") != stats["digest"]:
            errors.append("reverify failed at the end: " + json.dumps(rv)[:300])
        rss = d.vm_hwm_mb()
        d.shutdown()

        sched = last_schedule(journal)
        slots = checks.parse_schedule(sched or "")
        weights = {"e%d" % i: 1 for i in range(shape["components"])}
        # Constraints equal up to name have equal windows: check each once.
        distinct = {kd: n for n, kd in sorted(mix.resident.items())}
        cons = [checks.Constraint(n, "asynchronous", SEPARATION, dl, ["e%d" % k], [])
                for (k, dl), n in sorted(distinct.items())]
        bad = checks.window_violations(slots, weights, cons)
        if bad:
            errors.append("journaled schedule misses windows of " + ", ".join(bad))
        errors.extend(checks.self_test((slots, weights, cons)))

        with open(recover_journal) as f:
            lines = f.read().splitlines()
        last = json.loads(lines[-1])
        r = Daemon(rtsynd, work, spec_path, recover_journal)
        recover_s = r.startup_s
        if (r.first.get("digest"), r.first.get("cert")) != (last["digest"], last["cert"]):
            errors.append("restart did not recover the journaled digest and certificate")
        r.shutdown()
        log("# checks and recovery %.1fs" % (time.perf_counter() - t_post))

        result.update(
            errors=errors, elapsed=elapsed, rounds=rounds, by_kind=by_kind,
            setup_s=median(setups), recover_s=recover_s, rss_mb=rss, tail=shape["tail"])
        if trace:
            spans_out = os.path.join(root, BUILD_DIR, "spans-%s-%d.jsonl" % (workload, seed))
            result["layers"] = trace_layers(shape, harness, work, spec_path, spans_out, probe_ops,
                                            log_ops, rounds, stats, wire)
            errors.extend(result["layers"].pop("errors"))
        return result
    finally:
        Daemon.stop_all()
        shutil.rmtree(work, ignore_errors=True)


def wire_probe(client, n=200):
    """Median round trip (ms) of requests the protocol layer answers
    itself (a version it does not speak): transport, framing and
    protocol without the engine."""
    times = []
    for _ in range(n):
        resp, dt = client.request("stats", v=0)
        if resp.get("error", {}).get("kind") != "version":
            raise BenchError("the wire probe was not refused by version: " + json.dumps(resp))
        times.append(dt * 1000.0)
    return median(times)


def trace_layers(shape, harness, work, spec_path, spans_out, probe_ops, log_ops, rounds, stats,
                 wire_ms):
    """Per-layer figures: the daemon's own service time and answer paths
    from this run, then the harness replaying the property probes and the
    first rounds' requests layer by layer in-process, and replaying the
    recovery journal."""
    first = log_ops[: len(log_ops) // rounds * min(rounds, shape["trace_rounds"])]
    ops_file = os.path.join(work, "ops.txt")
    with open(ops_file, "w") as f:
        for kind, arg in probe_ops + [(kind, arg) for (kind, arg, _, _), _ in first]:
            f.write("%s %s\n" % (kind, arg))
    replay_journal = os.path.join(work, "replay.journal")
    shutil.copyfile(os.path.join(work, "recover.journal"), replay_journal)
    out = run_harness(harness, ["daemon", spec_path, ops_file], os.path.join(work, "harness"),
                      spans_out, [replay_journal])
    faults = sum(1 for (_, _, paths, _), _ in first if paths == FAULT)
    harness_failed = out.pop("failed")
    out["errors"] = [] if harness_failed == faults else [
        "the harness replay failed %d requests, the daemon %d" % (harness_failed, faults)]
    service_ms = stats["request_us"]["p50"] / 1000.0
    out["service.ms"] = service_ms
    out["wire.ms"] = wire_ms
    # Answer paths per round over the same first rounds, so the counts
    # do not depend on how many rounds the run fitted in.
    n = len(first) // (len(log_ops) // rounds)
    for p in ("warm", "memo", "synth"):
        out["path." + p] = sum(1 for _, path in first if path == p) / n
    # The harness's layer time per request against the daemon's own.
    out["trace.coverage"] = out.pop("layer_sum_ms") / service_ms
    del out["covered_share"]
    return out
