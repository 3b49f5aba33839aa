"""Correctness checks computed apart from the program under test.

Nothing here calls the program's own latency analysis, certificate
checker or exact solvers: schedules are re-checked window by window from
the definition (docs/SEMANTICS.md section 1), and Theorem-2 instances are
decided by a brute-force partition search.
"""

import bisect
import math
import re


class Constraint:
    """One timing constraint: kind, period (separation), deadline, offset
    and a task graph given as node list plus precedence edges."""

    def __init__(self, name, kind, period, deadline, nodes, edges, offset=0):
        self.name = name
        self.kind = kind
        self.period = period
        self.deadline = deadline
        self.offset = offset
        self.nodes = list(nodes)
        self.edges = list(edges)


# ---------------------------------------------------------------------------
# Spec text (the subset the benchmark generates and the program prints)
# ---------------------------------------------------------------------------

_ELEMENT = re.compile(r"^\s*element\s+(\S+)\s+weight\s+(\d+)\s+(pipelinable|atomic)\s*;")
_HEADER = re.compile(
    r"^\s*constraint\s+(\S+)\s+(periodic|asynchronous)\s+(?:period|separation)\s+(\d+)"
    r"\s+deadline\s+(\d+)(?:\s+offset\s+(\d+))?\s*\{(.*)$"
)


def _chains(body, nodes, edges):
    for chain in body.split(";"):
        names = [x.strip() for x in chain.split("->") if x.strip()]
        for n in names:
            if n not in nodes:
                nodes.append(n)
        for a, b in zip(names, names[1:]):
            if (a, b) not in edges:
                edges.append((a, b))


def parse_spec(text):
    """Return (weights, constraints) of a system in spec syntax."""
    weights = {}
    constraints = []
    cur = None
    for line in text.splitlines():
        m = _ELEMENT.match(line)
        if m:
            weights[m.group(1)] = int(m.group(2))
            continue
        m = _HEADER.match(line)
        if m:
            name, kind, p, d, off, rest = m.groups()
            cur = Constraint(name, kind, int(p), int(d), [], [], int(off or 0))
            body, closed = (rest.split("}", 1)[0], True) if "}" in rest else (rest, False)
            _chains(body, cur.nodes, cur.edges)
            if closed:
                constraints.append(cur)
                cur = None
            continue
        if cur is not None:
            if "}" in line:
                _chains(line.split("}", 1)[0], cur.nodes, cur.edges)
                constraints.append(cur)
                cur = None
            else:
                _chains(line, cur.nodes, cur.edges)
    return weights, constraints


def parse_schedule(text):
    """Slots of a schedule as printed by the program: element names
    separated by spaces, '.' for an idle slot."""
    return [None if tok == "." else tok for tok in text.split()]


# ---------------------------------------------------------------------------
# Window check
# ---------------------------------------------------------------------------

def _instances(slots, weights, element, cycles):
    """Canonical instances of [element] over [cycles] repetitions of the
    schedule: its slots in order, grouped [weight] at a time; each is
    (start, finish) with finish exclusive."""
    w = weights[element]
    pos = [i for i, s in enumerate(slots) if s == element]
    if not pos or len(pos) % w:
        return [], []
    length = len(slots)
    starts, finishes = [], []
    for c in range(cycles):
        base = c * length
        for j in range(0, len(pos), w):
            starts.append(base + pos[j])
            finishes.append(base + pos[j + w - 1] + 1)
    return starts, finishes


def _topo(c):
    preds = {n: [] for n in c.nodes}
    for a, b in c.edges:
        preds[b].append(a)
    order, seen = [], set()

    def visit(n, stack):
        if n in seen:
            return
        if n in stack:
            raise ValueError("cyclic task graph in " + c.name)
        for p in preds[n]:
            visit(p, stack | {n})
        seen.add(n)
        order.append(n)

    for n in c.nodes:
        visit(n, frozenset())
    return order, preds


def _completion(t, order, preds, inst):
    """Earliest finish of an execution of the task graph starting at or
    after slot t.  Nodes name distinct elements, and one element's
    instances start and finish in FIFO order, so taking for every node
    (in topological order) the first instance that starts after all its
    predecessors finished is optimal."""
    fin = {}
    for n in order:
        ready = max([t] + [fin[p] for p in preds[n]])
        starts, finishes = inst[n]
        i = bisect.bisect_left(starts, ready)
        if i == len(starts):
            return math.inf
        fin[n] = finishes[i]
    return max(fin.values())


def window_violations(slots, weights, constraints, limit=3):
    """Names of constraints some window of which holds no execution.

    Asynchronous (C, d): every window of length d of the schedule repeated
    forever from slot 0 must contain an execution of C.  Periodic
    (C, p, d, o): every window [kp+o, kp+o+d).  Only the windows that can
    be worst need checking: an asynchronous window's next completion only
    changes just after an instance of a source node starts."""
    length = len(slots)
    bad = []
    if length == 0:
        return [c.name for c in constraints]
    for c in constraints:
        if any(n not in weights for n in c.nodes):
            bad.append(c.name)
            continue
        order, preds = _topo(c)
        d = c.deadline
        if c.kind == "periodic":
            hyper = length * c.period // math.gcd(length, c.period)
            last = c.offset + hyper
        else:
            last = length
        cycles = (last + d) // length + 2
        inst = {n: _instances(slots, weights, n, cycles) for n in c.nodes}
        if c.kind == "periodic":
            starts_at = range(c.offset, c.offset + hyper, c.period)
        else:
            sources = [n for n in c.nodes if not preds[n]]
            cand = {0}
            for n in sources:
                cand.update(s + 1 for s in inst[n][0] if s < length)
            starts_at = sorted(cand)
        if any(_completion(t, order, preds, inst) > t + d for t in starts_at):
            bad.append(c.name)
        if len(bad) >= limit:
            break
    return bad


def remove_one_execution(slots, weights):
    """Every variant of [slots] with one execution of one element made
    idle (at most one variant per element), for the self-test."""
    out = []
    for e in sorted({s for s in slots if s is not None}):
        w = weights.get(e, 1)
        idx = [i for i, s in enumerate(slots) if s == e][:w]
        v = list(slots)
        for i in idx:
            v[i] = None
        out.append((e, v))
    return out


# ---------------------------------------------------------------------------
# Theorem 2: 3-PARTITION by brute force
# ---------------------------------------------------------------------------

def three_partition(items, b):
    """True iff [items] split into triples each summing to [b]."""
    items = sorted(items, reverse=True)
    if len(items) % 3 or sum(items) != b * (len(items) // 3):
        return False
    used = [False] * len(items)

    def go():
        try:
            i = used.index(False)
        except ValueError:
            return True
        used[i] = True
        for j in range(i + 1, len(items)):
            if used[j]:
                continue
            used[j] = True
            for k in range(j + 1, len(items)):
                if not used[k] and items[i] + items[j] + items[k] == b:
                    used[k] = True
                    if go():
                        return True
                    used[k] = False
            used[j] = False
        used[i] = False
        return False

    return go()


def element_demand(weights, constraints):
    """Necessary processor demand of single-operation asynchronous
    constraints: consecutive instances of an element with deadline d must
    start within d + 1 - w of each other (coverage lemma), so it needs at
    least w / (d + 1 - w) of the processor; elements add up."""
    tightest = {}
    for c in constraints:
        if c.kind == "asynchronous" and len(c.nodes) == 1:
            e = c.nodes[0]
            tightest[e] = min(tightest.get(e, c.deadline), c.deadline)
    total = 0.0
    for e, d in tightest.items():
        w = weights[e]
        total += math.inf if d + 1 - w <= 0 else w / (d + 1 - w)
    return total


# ---------------------------------------------------------------------------
# Self-test: the checks reject a broken schedule and a flipped verdict
# ---------------------------------------------------------------------------

def self_test(sample=None):
    """Return a list of failures (empty when the checks bite).

    A schedule 'a b . a b .' meets 'a within 3' and 'a -> b within 4';
    with one execution of a removed it must not.  A 3-PARTITION yes- and
    no-instance must get opposite answers.  If [sample] = (slots, weights,
    constraints) is given (a schedule the program returned), it must pass
    and at least one single-execution removal must be rejected."""
    errors = []
    weights = {"a": 1, "b": 1}
    cons = [
        Constraint("ca", "asynchronous", 3, 3, ["a"], []),
        Constraint("cab", "asynchronous", 4, 4, ["a", "b"], [("a", "b")]),
        Constraint("pa", "periodic", 3, 2, ["a"], [], 0),
    ]
    good = ["a", "b", None, "a", "b", None]
    if window_violations(good, weights, cons):
        errors.append("self-test: a valid schedule was rejected")
    for _, broken in remove_one_execution(good, weights):
        if not window_violations(broken, weights, cons):
            errors.append("self-test: a schedule with one execution removed passed")
    if not three_partition([6, 8, 6, 7, 7, 6], 20) or three_partition([9, 7, 6, 6, 6, 6], 20):
        errors.append("self-test: partition search gave a flipped verdict")
    if sample is not None:
        slots, w, cs = sample
        if window_violations(slots, w, cs):
            errors.append("self-test: the sample schedule was rejected")
        elif not any(window_violations(v, w, cs) for _, v in remove_one_execution(slots, w)):
            errors.append("self-test: no single-execution removal was rejected")
    return errors
