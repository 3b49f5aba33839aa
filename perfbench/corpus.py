"""The spec-corpus workload: `rtsyn synth --cert` and `rtsyn exact --cert`
run once per specification over a seeded corpus of the paper's model
families, each output re-checked by the benchmark's own window check."""

import os
import random
import shutil
import tempfile
import time

import checks
from common import BUILD_DIR, JOBS, BenchError, median, run_measured
from layers import run_harness

TAIL = 95
SETUP_LAUNCHES = 15  # starts of rtsyn for process.ms when a run has none of its own


class Spec:
    def __init__(self, family, kind, text, solver=None, expect="feasible", partition=None):
        self.family = family
        self.kind = kind  # "synth" or "exact"
        self.text = text
        self.solver = solver
        self.expect = expect  # "feasible", "infeasible" or "fault"
        self.partition = partition  # (items, b) for Theorem-2 instances
        self.weights, self.constraints = checks.parse_spec(text)


def system(name, elements, edges, constraints):
    lines = ['system "%s" {' % name]
    lines += ["  element %s weight %d %s;" % e for e in elements]
    lines += ["  edge %s -> %s;" % e for e in edges]
    lines += ["  " + c for c in constraints]
    lines.append("}")
    return "\n".join(lines) + "\n"


def async_c(name, d, chain, sep=None):
    return "constraint %s asynchronous separation %d deadline %d { %s; }" % (
        name, sep or 2 * d, d, " -> ".join(chain))


def periodic_c(name, p, d, chains):
    return "constraint %s periodic period %d deadline %d { %s; }" % (
        name, p, d, "; ".join(" -> ".join(c) for c in chains))


class Names:
    """Seeded element names, so the program never sees the same text
    twice across seeds while the scheduling problem keeps its cost."""

    def __init__(self, rng):
        self.tag = "%04x" % rng.randrange(1 << 16)

    def __call__(self, base):
        return "%s_%s" % (base, self.tag)


def control_system(rng, nm, suffix=""):
    """The paper's example control system (Figures 1 and 2)."""
    x, y, z, s, k = (nm(n + suffix) for n in ("fx", "fy", "fz", "fs", "fk"))
    elements = [(x, 1, "pipelinable"), (y, 1, "pipelinable"), (z, 1, "pipelinable"),
                (s, 2, "pipelinable"), (k, 1, "pipelinable")]
    edges = [(x, s), (y, s), (z, s), (s, k), (k, s)]
    cons = [periodic_c("px" + suffix, 10, 10, [[x, s, k]]),
            periodic_c("py" + suffix, 20, 20, [[y, s, k]]),
            async_c("pz" + suffix, 15, [z, s], sep=50)]
    rng.shuffle(elements)
    rng.shuffle(edges)
    rng.shuffle(cons)
    return elements, edges, cons


def theorem3(rng, nm, k, deadlines):
    """k unit single-operation asynchronous constraints with sum w/d <=
    1/2: Theorem 3 says a feasible schedule exists.  Deadlines are powers
    of two, so the polling periods are harmonic."""
    while True:
        ws = [1] * k
        ds = [rng.choice(deadlines) for _ in range(k)]
        if sum(w / d for w, d in zip(ws, ds)) <= 0.5:
            break
    els = [(nm("t%d" % i), ws[i], "pipelinable") for i in range(k)]
    cons = [async_c("c%d" % i, ds[i], [els[i][0]]) for i in range(k)]
    return system("theorem3", els, [], cons)


def theorem3_nonharmonic(nm):
    """A Theorem-3 model whose polling periods are not harmonic: a
    48,048-slot hyperperiod for three constraints at utilization 0.23.
    Parameters fixed so a run's cost does not depend on the seed."""
    els = [(nm("a"), 1, "pipelinable"), (nm("b"), 2, "pipelinable"), (nm("c"), 3, "pipelinable")]
    cons = [async_c("ca", 121, [els[0][0]], sep=4000),
            async_c("cb", 21, [els[1][0]], sep=100),
            async_c("cc", 45, [els[2][0]], sep=200)]
    return system("theorem3_nonharmonic", els, [], cons)


# Periods of the periodic families.  They are fixed, and not harmonic,
# so every spec has a hyperperiod of thousands of slots (5,040 to 43,680,
# below the non-harmonic Theorem-3 model's 48,048, which synth.hyperperiod
# reports) and its run is mostly synthesis and checking rather than
# process start.  The seed only
# names the elements of these families: a different declaration order
# leads the heuristic to a different schedule of a different cost, and
# these specs set the medians.
CHAIN_PERIODS = ((143, 168), (195, 224))
DAG_PERIODS = (104, 231)
SHARED_PERIODS = (40, 63, 88)
MULTI_PERIODS = ((30, 32), (45, 16), (70, 64))


def periodic_chains(nm, periods):
    p1, p2 = periods
    a, b, c, d, e = (nm(n) for n in "abcde")
    els = [(a, 2, "pipelinable"), (b, 3, "pipelinable"), (c, 2, "pipelinable"),
           (d, 3, "pipelinable"), (e, 4, "pipelinable")]
    edges = [(a, b), (b, c), (d, e)]
    cons = [periodic_c("ch1", p1, p1, [[a, b, c]]), periodic_c("ch2", p2, p2, [[d, e]])]
    return system("chains", els, edges, cons)


def dag(nm, tenant):
    p, q = DAG_PERIODS
    a, b, c, d = (nm(n + tenant) for n in "abcd")
    els = [(a, 2, "pipelinable"), (b, 2, "pipelinable"), (c, 3, "pipelinable"),
           (d, 2, "pipelinable")]
    edges = [(a, c), (b, c), (c, d)]
    cons = [periodic_c("g", p, p, [[a, c, d], [b, c]]), async_c("h", q, [b], sep=2 * q)]
    return system("dag", els, edges, cons)


def shared_block(nm):
    """Periodic constraints sharing a block, the case shared-operation
    merging serves (as f_s -> f_k in the control system)."""
    x, y, w, s, k = (nm(n) for n in ("x", "y", "w", "s", "k"))
    els = [(x, 1, "pipelinable"), (y, 1, "pipelinable"), (w, 1, "pipelinable"),
           (s, 2, "pipelinable"), (k, 1, "pipelinable")]
    edges = [(x, s), (y, s), (w, s), (s, k)]
    cons = [periodic_c("m%s" % v, p, p, [[v, s, k]]) for p, v in zip(SHARED_PERIODS, (x, y, w))]
    return system("shared", els, edges, cons)


def multi_component(nm):
    """Three loosely coupled components: a sensor -> filter chain and a
    sporadic single operation each, on disjoint elements."""
    els, edges, cons = [], [], []
    for i, (p, q) in enumerate(MULTI_PERIODS):
        a, b, c = nm("sen%d" % i), nm("flt%d" % i), nm("irq%d" % i)
        els += [(a, 1, "pipelinable"), (b, 2, "pipelinable"), (c, 1, "pipelinable")]
        edges.append((a, b))
        cons += [periodic_c("loop%d" % i, p, p, [[a, b]]), async_c("irq%d" % i, q, [c])]
    return system("multi", els, edges, cons)


def duplicated(count):
    """Fault (b): E16's resident state written as a spec.  Feasible (one
    f_x every 6 slots serves all ten), refused by rtsyn synth."""
    els = [("f_x", 1, "pipelinable"), ("f_y", 1, "pipelinable")]
    cons = [periodic_c("px", 10, 10, [["f_y"]])]
    cons += [async_c("d%d" % i, 6, ["f_x"], sep=10) for i in range(count)]
    return system("duplicated", els, [], cons)


def single_ops(rng, nm, overload):
    """Single-operation instances for the exact game: feasible at
    utilization <= 1/2, or with element demand above 1."""
    while True:
        k = 3
        ws = [rng.choice([1, 2]) for _ in range(k)]
        ds = [rng.randrange(4, 13) for _ in range(k)]
        demand = sum(w / (d + 1 - w) for w, d in zip(ws, ds))
        util = sum(w / d for w, d in zip(ws, ds))
        if (overload and demand > 1.0) or (not overload and util <= 0.5):
            break
    els = [(nm("o%d" % i), ws[i], "atomic") for i in range(k)]
    cons = [async_c("s%d" % i, ds[i], [els[i][0]]) for i in range(k)]
    return system("single_ops", els, [], cons)


def unit_chain(rng, nm):
    a, b, c, d = (nm(n) for n in "abcd")
    els = [(x, 1, "pipelinable") for x in (a, b, c, d)]
    edges = [(a, b), (b, c), (c, d)]
    cons = [async_c("u1", rng.randrange(6, 9), [a, b]),
            async_c("u2", rng.randrange(7, 10), [b, c]),
            async_c("u3", rng.randrange(8, 11), [c, d])]
    return system("unit_chain", els, edges, cons)


# Theorem-2 instances, (items, b) with m = 2 triples: fixed, in a fixed
# order, so their cost (50-90 ms each) does not depend on the seed, which
# names them.  The answers are not written down: the
# benchmark's partition search decides each one.
PARTITIONS = (
    ([15, 15, 23, 14, 17, 20], 52),
    ([12, 15, 19, 14, 15, 13], 44),
    ([21, 12, 13, 13, 13, 16], 44),
    ([22, 14, 21, 14, 19, 14], 52),
)


def partition_model(items, b, nm):
    """Theorem 2's reduction: a separator of weight b and deadline 3b-1,
    one atomic operation per item, all with deadline 2mb + ceil(b/2)."""
    m = len(items) // 3
    d_sep, d_item = 3 * b - 1, 2 * m * b + (b + 1) // 2
    els = [(nm("sep"), b, "atomic")] + [(nm("it%d" % j), a, "atomic") for j, a in enumerate(items)]
    cons = [async_c("sep", d_sep, [els[0][0]], sep=d_sep)]
    cons += [async_c("i%d" % j, d_item, [els[j + 1][0]], sep=d_item) for j in range(len(items))]
    return system("three_partition", els, [], cons)


def corpus(seed):
    """One round of the workload: the specs in the order they run."""
    rng = random.Random("spec-corpus/%d" % seed)
    nm = Names(rng)
    e, g, c = control_system(rng, nm)
    specs = [Spec("control", "synth", system("control", e, g, c))]
    specs.append(Spec("theorem3", "synth", theorem3(rng, nm, rng.randrange(3, 6), [8, 16, 32, 64])))
    specs.append(Spec("theorem3-wide", "synth",
                      theorem3(rng, nm, rng.randrange(48, 65), [128, 256, 512, 1024])))
    # Two of them, so 2 of the 19 operations are this waste and the p95
    # sits inside their cluster rather than at its edge.
    specs += [Spec("theorem3-nonharmonic", "synth", theorem3_nonharmonic(nm)) for _ in range(2)]
    specs += [Spec("chains", "synth", periodic_chains(nm, p)) for p in CHAIN_PERIODS]
    # Two DAG tenants (renamed copies): with them the median operation,
    # the median synth and the median certificate re-check all fall on
    # a DAG spec rather than between two families of different cost.
    specs += [Spec("dag", "synth", dag(nm, t)) for t in ("p", "q")]
    specs.append(Spec("shared-block", "synth", shared_block(nm)))
    specs.append(Spec("multi-component", "synth", multi_component(nm)))
    specs.append(Spec("duplicated", "synth", duplicated(10), expect="fault"))
    specs.append(Spec("single-ops", "exact", single_ops(rng, nm, overload=False)))
    specs.append(Spec("overload", "exact", single_ops(rng, nm, overload=True), expect="infeasible"))
    specs.append(Spec("unit-chain", "exact", unit_chain(rng, nm), solver="unit"))
    for items, b in PARTITIONS:
        yes = checks.three_partition(items, b)
        specs.append(Spec("three-partition", "exact", partition_model(items, b, nm),
                          expect="feasible" if yes else "infeasible", partition=(items, b)))
    return specs


# ---------------------------------------------------------------------------
# Checking one invocation's output
# ---------------------------------------------------------------------------

def check_output(spec, rc, out, plan_path):
    """Errors in one invocation's answer ([] when right).  Fault (b) is
    not an error: it is counted as a failed operation by the caller."""
    if spec.expect == "fault":
        return []
    if spec.partition is not None:
        items, b = spec.partition
        want = checks.three_partition(items, b)
        if (rc == 0) != want:
            return ["%s: exact answered rc %d, the partition search says %s"
                    % (spec.family, rc, want)]
    if spec.expect == "infeasible":
        if spec.partition is None and checks.element_demand(spec.weights, spec.constraints) <= 1:
            return ["%s: generated an overload instance with demand <= 1" % spec.family]
        if rc != 1 or "INFEASIBLE" not in out:
            return ["%s: an infeasible model was answered rc %d" % (spec.family, rc)]
        return []
    if rc != 0:
        return ["%s: %s exited %d on a feasible model" % (spec.family, spec.kind, rc)]
    if spec.kind == "exact":
        line = next((x for x in out.splitlines() if x.startswith("FEASIBLE: ")), None)
        if line is None:
            return ["%s: no FEASIBLE schedule printed" % spec.family]
        slots = checks.parse_schedule(line[len("FEASIBLE: "):])
        weights, cons = spec.weights, [c for c in spec.constraints if c.kind == "asynchronous"]
    else:
        with open(plan_path) as f:
            plan = f.read()
        sched_line = next(x for x in plan.splitlines() if x.startswith("schedule: "))
        slots = checks.parse_schedule(sched_line[len("schedule: "):])
        weights, _ = checks.parse_spec(plan.split("--- model ---", 1)[1])
        cons, errs = staged(spec, weights)
        if errs:
            return errs
    bad = checks.window_violations(slots, weights, cons)
    return ["%s: schedule misses windows of %s" % (spec.family, ", ".join(bad))] if bad else []


def staged(spec, weights):
    """The spec's constraints over the plan's elements.  Synthesis may
    split a pipelinable element e into stages e#1 -> e#2 ... (one
    execution of e is one execution of each stage, in order) and may
    merge constraints; the spec's own constraints must still hold."""
    errs = []
    stages = {}
    for e, w in spec.weights.items():
        split = sorted((x for x in weights if x.split("#", 1)[0] == e and x != e),
                       key=lambda x: int(x.split("#", 1)[1]))
        stages[e] = split or [e]
        if sum(weights.get(x, 0) for x in stages[e]) != w:
            errs.append("%s: the plan changed the weight of %s" % (spec.family, e))
    cons = []
    for c in spec.constraints:
        nodes = [x for n in c.nodes for x in stages[n]]
        edges = [(stages[a][-1], stages[b][0]) for a, b in c.edges]
        edges += [(x, y) for n in c.nodes for x, y in zip(stages[n], stages[n][1:])]
        cons.append(checks.Constraint(c.name, c.kind, c.period, c.deadline, nodes, edges,
                                      c.offset))
    return cons, errs


def run(seed, seconds, rtsyn, trace, harness, root):
    specs = corpus(seed)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, BUILD_DIR))
    errors = []
    try:
        paths = []
        for i, s in enumerate(specs):
            p = os.path.join(work, "%02d-%s.spec" % (i, s.family))
            with open(p, "w") as f:
                f.write(s.text)
            paths.append(p)

        def args(i, s):
            base = [rtsyn, s.kind, paths[i], "--cert", paths[i] + ".cert", "-j", str(JOBS)]
            if s.kind == "synth":
                base += ["-o", paths[i] + ".plan"]
            if s.solver:
                base += ["--solver", s.solver]
            return base

        def recheck(i, s):
            rc, dt, _, _, err = run_measured(
                [rtsyn, "check", "--certificate", paths[i] + ".cert", paths[i]])
            if rc != 0:
                errors.append("%s: certificate re-check exited %d: %s" % (s.family, rc, err[:200]))
            return dt

        # Each round runs every spec, then re-checks the schedule
        # certificate of every feasible synth spec (recovery: a stored
        # certificate re-validated, nothing solved), then starts rtsyn
        # once doing no work (set-up: a CLI has none beyond starting the
        # process).  Both are timed apart from the operations, in every
        # round, so their medians cover the whole run as the operations do.
        synth_certs = [(i, s) for i, s in enumerate(specs)
                       if s.kind == "synth" and s.expect == "feasible"]
        samples, by_kind, first_out = [], {"synth": [], "exact": []}, {}
        rechecks, passes, setups = [], [], []
        attempted = failed = 0
        rss = 0.0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            for i, s in enumerate(specs):
                rc, dt, peak, out, _ = run_measured(args(i, s))
                attempted += 1
                samples.append(dt)
                by_kind[s.kind].append(dt)
                rss = max(rss, peak)
                if s.expect == "fault":
                    failed += rc != 0
                    continue
                if i not in first_out:
                    first_out[i] = (rc, out)
                elif first_out[i] != (rc, out):
                    errors.append("%s: the answer changed between rounds" % s.family)
            if all(os.path.exists(paths[i] + ".cert") for i, _ in synth_certs):
                times = [recheck(i, s) for i, s in synth_certs]
                rechecks += times
                passes.append(sum(times))
            setups.append(run_measured([rtsyn, "example"])[1])
        elapsed = time.perf_counter() - t_start - sum(passes) - sum(setups)

        # Every answer is the same in each round: check it once, after
        # the measured phase, and re-check the small witness certificates
        # of exact once, untimed.
        for i, s in enumerate(specs):
            if i in first_out:
                errors.extend(check_output(s, *first_out[i], paths[i] + ".plan"))
            if s.expect == "feasible" and not os.path.exists(paths[i] + ".cert"):
                errors.append("%s: a feasible answer wrote no certificate" % s.family)
            elif s.expect == "feasible" and s.kind == "exact":
                recheck(i, s)
        if not passes:
            raise BenchError("no round wrote every certificate")

        # Self-test on the control system's schedule.
        with open(paths[0] + ".plan") as f:
            plan = f.read()
        slots = checks.parse_schedule(
            next(x for x in plan.splitlines() if x.startswith("schedule: "))[10:])
        w, cons = checks.parse_spec(plan.split("--- model ---", 1)[1])
        errors.extend(checks.self_test((slots, w, cons)))
        recover_s = median(passes)

        result = dict(attempted=attempted, failed=failed, samples=samples, errors=errors,
                      elapsed=elapsed, rounds=attempted // len(specs), by_kind=by_kind,
                      setup_s=median(setups), recover_s=recover_s, rechecks=rechecks,
                      rss_mb=rss, tail=TAIL)
        if trace:
            manifest = os.path.join(work, "manifest.txt")
            with open(manifest, "w") as f:
                for i, s in enumerate(specs):
                    f.write("%s %s %s\n" % (s.kind, s.solver or "-", paths[i]))
            out = run_harness(harness, ["corpus", manifest], os.path.join(work, "harness"),
                              os.path.join(root, BUILD_DIR, "spans-spec-corpus-%d.jsonl" % seed))
            faults = sum(1 for s in specs if s.expect != "feasible")
            if out.pop("failed") != faults:
                errors.append("the harness replay failed other specs than rtsyn did")
            out["process.ms"] = median(setups) * 1000.0
            out["wire.ms"] = median(samples) * 1000.0 - out["service.ms"]
            for p in ("warm", "memo", "synth"):
                out["path." + p] = 0
            # No daemon here: the share of each in-process request the
            # layer spans cover.
            out["trace.coverage"] = out.pop("covered_share")
            del out["layer_sum_ms"]
            result["layers"] = out
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
