"""Seeded corpus generators, one per workload.

Every instance is built around a reference plan: a simple schedule the
generator knows to be valid.  Finite deadlines are the plan's arrival
times plus a seeded slack, so a designed-feasible instance is feasible by
construction and its optimum is at most the plan's completion time
(``ref_bound``).  A stated share of instances is made infeasible on
purpose, by a deadline that no schedule can meet.  Both facts are known
without running the program, and the checker uses them.

Sizes are stratified: each instance class takes its sizes from a fixed
grid, in a fixed order, fixed robots sit near evenly spaced anchors,
and the seed only draws the weights, deadlines and jitter.  Two seeds
therefore give the same mix of sizes, robot counts, fault budgets and
twins, which keeps end-to-end figures comparable between seeds.

The program under test sees only the instance files written from these
documents; nothing here imports it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import List, Optional

# every route an op can take; failures are reported per route
ROUTES = (
    "line_fixed_start", "line_subset", "line_fixed", "line_free", "line_fixed_faulty",
    "line_free_faulty", "ring_fixed", "ring_free", "ring_fixed_faulty", "ring_free_faulty",
    "star", "n3dm", "partition", "generate",
)

# brute_solve's default caps (roversweep.oracle.Caps)
BRUTE_MAX_N, BRUTE_MAX_K, BRUTE_MAX_F = 10, 4, 2


@dataclass
class Instance:
    """One generated instance document and what the generator knows about it."""

    key: str
    route: str                      # which solver branch the instance should reach
    doc: dict                       # instance document (numbers as strings)
    feasible: Optional[bool]        # by construction; None when unknown
    ref_bound: Optional[Fraction]   # completion time of the reference plan
    twin_of: Optional[str] = None   # key of the original this twin was divided from
    divisor: int = 1                # every number of the original divided by this
    oracle: Optional[tuple] = None  # ("n3dm", a, b, c, s) or ("partition", values)
    in_caps: bool = False           # inside brute_solve's default caps
    upper_bound_route: bool = False  # replication answers are upper bounds only
    max_n: Optional[int] = None     # raise the exact-search node cap for this one
    max_k: Optional[int] = None

    @property
    def has_fraction(self) -> bool:
        return any("/" in v for v in _numbers(self.doc))

    @property
    def finite_deadlines(self) -> bool:
        return any(d is not None for d in self.doc["deadlines"]) or (
            self.doc.get("center_deadline") is not None
        )

    def text(self) -> str:
        return json.dumps(self.doc, indent=1) + "\n"


@dataclass
class Op:
    """One user-visible command.  ``delta`` may be lazy: "opt" or "below"
    take the optimum the run's latest solve of the same instance reported."""

    kind: str                       # solve | decide | resilience | oracle | generate
    inst: Optional[str] = None      # instance key
    delta: object = None            # Fraction, "opt", "below", or None
    argv: List[str] = field(default_factory=list)  # generate arguments
    expect: Optional[tuple] = None  # generate: expected (topology, k, f)


@dataclass
class Corpus:
    instances: dict                 # key -> Instance
    ops: List[Op]                   # the timed workload
    infeasible_share: float
    probe: List[Op] = field(default_factory=list)  # known-defect ops, traced run only


def reaches_ring_fixed_decision(inst: Optional[Instance], kind: str) -> bool:
    """Whether the op's CLI route runs ``ring.optimize_ring_fixed_faulty``
    (solve, fixed ring, f > 0) or ``ring.decide_ring_fixed_faulty`` (every
    decide on a fixed ring, f = 0 included).  At the commit this benchmark
    was written against both give wrong answers on some instances of every
    seed: feasible without a schedule, optima that disagree with
    ``brute_solve``, YES below the optimum.  Such ops are kept out of the
    timed workloads, whose every op must be answered correctly, and run as
    a probe whose failures the traced run reports."""
    if inst is None or inst.doc["topology"] != "ring" or inst.doc["robots"]["mode"] != "fixed":
        return False
    return kind == "decide" or (kind == "solve" and inst.doc["faults"] > 0)


def _numbers(doc):
    for name in ("coordinates", "edge_weights", "leaf_weights", "deadlines"):
        for v in doc.get(name, ()):
            if v is not None:
                yield v
    for name in ("center_deadline", "delta"):
        if doc.get(name) is not None:
            yield doc[name]


def _s(x) -> str:
    return str(Fraction(x))


def _grid(count: int, lo: int, hi: int) -> List[int]:
    """``count`` (at least 2) sizes spread evenly over [lo, hi], ascending.
    The order is not seeded: the i-th instance of a class gets the same
    size, robot count, fault budget and twin status under every seed."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


# --------------------------------------------------------------------------
# reference plans: per-robot arrival times at every node
# --------------------------------------------------------------------------


def _line_sweep(x, p, a, b) -> dict:
    """First visits of a robot at node p covering [a, b] (a <= p <= b),
    nearer end first."""
    near = a if x[p] - x[a] <= x[b] - x[p] else b
    d_near = abs(x[p] - x[near])
    return {
        v: abs(x[p] - x[v]) if min(near, p) <= v <= max(near, p) else d_near + abs(x[v] - x[near])
        for v in range(a, b + 1)
    }


def _line_team(x, starts) -> List[dict]:
    """Robots at distinct sorted starts split the line between neighbours."""
    n = len(x)
    starts = sorted(starts)
    plans = []
    lo = 0
    for i, p in enumerate(starts):
        hi = n - 1 if i == len(starts) - 1 else (p + starts[i + 1]) // 2
        plans.append(_line_sweep(x, p, lo, hi))
        lo = hi + 1
    return plans


def _ring_team(pos, total, n, starts) -> List[dict]:
    """Robots at distinct sorted starts each sweep ccw up to the next robot."""
    starts = sorted(starts)
    plans = []
    for i, p in enumerate(starts):
        nxt = starts[(i + 1) % len(starts)]
        steps = (nxt - p) % n or n
        plan = {}
        for s in range(steps):
            v = (p + s) % n
            plan[v] = (pos[v] - pos[p]) % total
        plans.append(plan)
    return plans


def _need_times(n, plans, need) -> list:
    """Per node, the need-th smallest arrival over all robot plans."""
    out = []
    for v in range(n):
        ts = sorted(pl[v] for pl in plans if v in pl)
        out.append(ts[need - 1] if len(ts) >= need else None)
    return out


def _deadlines(rng, times, finite_share, slack):
    return [
        _s(t + rng.randint(0, slack)) if t is not None and rng.random() < finite_share else None
        for t in times
    ]


def _spread(rng, n, k) -> List[int]:
    """k distinct fixed starts near evenly spaced anchors, jittered by the seed;
    keeps the hardness of the exact searches comparable between seeds."""
    jitter = max(1, n // (4 * k))
    while True:
        starts = sorted(
            min(n - 1, max(0, (2 * j + 1) * n // (2 * k) + rng.randint(-jitter, jitter)))
            for j in range(k)
        )
        if len(set(starts)) == k:
            return starts


def _split_points(rng, n, k) -> List[int]:
    """One start per roughly equal block of nodes, for free placements."""
    out = []
    for r in range(k):
        a, b = r * n // k, (r + 1) * n // k - 1
        out.append(rng.randint(a, max(a, b)))
    return out


# --------------------------------------------------------------------------
# instance builders
# --------------------------------------------------------------------------


def _line_coords(rng, n, max_step=4):
    x = [0]
    for _ in range(n - 1):
        x.append(x[-1] + rng.randint(1, max_step))
    return x


def line_instance(rng, key, route, n, k, f, mode, infeasible, finite_share=0.5, slack_frac=0.15):
    x = _line_coords(rng, n)
    need = f + 1
    if mode == "free":
        group = _split_points(rng, n, k // need)
        starts = group  # replication-shaped plan: f+1 identical groups
        plans = _line_team(x, group) * need
    elif mode == "subset":
        starts = [rng.randrange(n)]
        plans = [_line_sweep(x, starts[0], 0, n - 1)]
    else:
        starts = _spread(rng, n, k)
        plans = []
        for g in range(need):
            plans += _line_team(x, starts[g::need])
    times = _need_times(n, plans, need)
    bound = max(times)
    deadlines = _deadlines(rng, times, finite_share, max(1, int(bound * slack_frac)))
    if infeasible:
        _break(rng, deadlines, n, starts, need, mode, k, lambda a, b: abs(x[a] - x[b]))
    if mode == "fixed":
        robots = {"mode": "fixed", "positions": starts}
    elif mode == "subset":
        allowed = sorted(set(rng.sample(range(n), max(1, n // 5))) | set(starts))
        robots = {"mode": "subset", "count": 1, "allowed": allowed}
    else:
        robots = {"mode": "free", "count": k}
    doc = {
        "topology": "line",
        "coordinates": [_s(v) for v in x],
        "deadlines": deadlines,
        "robots": robots,
        "faults": f,
        "delta": None,
    }
    return _make(key, route, doc, n, k, f, infeasible, bound, mode == "free" and f > 0)


def ring_instance(rng, key, route, n, k, f, mode, infeasible, finite_share=0.5, slack_frac=0.15):
    w = [rng.randint(1, 4) for _ in range(n)]
    pos = [0]
    for v in w[:-1]:
        pos.append(pos[-1] + v)
    total = sum(w)
    need = f + 1
    if mode == "free":
        group = _split_points(rng, n, k // need)
        starts = group
        plans = _ring_team(pos, total, n, group) * need
    else:
        starts = _spread(rng, n, k)
        plans = []
        for g in range(need):
            plans += _ring_team(pos, total, n, starts[g::need])
    times = _need_times(n, plans, need)
    bound = max(times)
    deadlines = _deadlines(rng, times, finite_share, max(1, int(bound * slack_frac)))

    def dist(a, b):
        d = abs(pos[a] - pos[b])
        return min(d, total - d)

    if infeasible:
        _break(rng, deadlines, n, starts, need, mode, k, dist)
    robots = (
        {"mode": "fixed", "positions": starts} if mode == "fixed" else {"mode": "free", "count": k}
    )
    doc = {
        "topology": "ring",
        "edge_weights": [_s(v) for v in w],
        "deadlines": deadlines,
        "robots": robots,
        "faults": f,
        "delta": None,
    }
    return _make(key, route, doc, n, k, f, infeasible, bound, mode == "free" and f > 0)


def _break(rng, deadlines, n, starts, need, mode, k, dist):
    """Give deadlines no schedule can meet.

    Fixed starts: some non-start node gets a deadline below its need-th
    nearest robot's distance.  Free or subset starts: more nodes get
    deadline 0 than groups of need robots can stand on at time 0.
    """
    if mode == "fixed":
        v = rng.choice([u for u in range(n) if u not in starts])
        d = sorted(dist(v, p) for p in starts)[need - 1]
        deadlines[v] = _s(d - 1)
        return
    groups = 1 if mode == "subset" else k // need
    for v in rng.sample(range(n), groups + 1):
        deadlines[v] = "0"


def star_instance(rng, key, route, q, k, f, mode, infeasible, finite_share=0.8, slack_frac=0.15):
    w = [rng.randint(1, 6) for _ in range(q)]
    center = q
    need = f + 1
    starts = [rng.randrange(q + 1) for _ in range(k)]
    if mode == "fixed":
        starts = sorted(set(starts)) if f == 0 else sorted(starts)
        while len(starts) < k:
            starts = sorted(set(starts) | {rng.randrange(q + 1)})
    leaves = list(range(q))
    rng.shuffle(leaves)
    if need == 2:
        shares = [leaves, list(leaves)]
    else:
        cut = rng.randint(0, q) if k == 2 else q
        shares = [leaves[:cut], leaves[cut:]][:k]
    plans = []
    for s, share in zip(starts, shares):
        off = 0 if s == center else w[s]
        plan = {center: off}
        if s != center:
            plan[s] = 0
        t = off
        for leaf in share:
            if leaf == s:
                continue
            plan[leaf] = t + w[leaf]
            t += 2 * w[leaf]
        plans.append(plan)
    times = _need_times(q + 1, plans, need)
    bound = max(t for t in times if t is not None)
    slack = max(1, int(bound * slack_frac))
    dl = []
    for v in range(q):
        dl.append(_s(times[v] + rng.randint(0, slack)) if rng.random() < finite_share else None)
    center_dl = _s(times[center] + rng.randint(0, slack)) if rng.random() < 0.5 else None
    if infeasible:
        if mode == "fixed":
            v = rng.choice([u for u in range(q) if u not in starts])
            d = sorted((w[v] if s == center else (0 if s == v else w[s] + w[v])) for s in starts)
            dl[v] = _s(d[need - 1] - 1)
        else:
            for v in rng.sample(range(q), k // need + 1):
                dl[v] = "0"
    robots = (
        {"mode": "fixed", "positions": starts} if mode == "fixed" else {"mode": "free", "count": k}
    )
    doc = {
        "topology": "star",
        "leaf_weights": [_s(v) for v in w],
        "deadlines": dl,
        "center_deadline": center_dl,
        "robots": robots,
        "faults": f,
        "delta": None,
    }
    return _make(key, route, doc, q + 1, k, f, infeasible, bound, False, star=True)


def _make(key, route, doc, n, k, f, infeasible, bound, upper_bound_route, star=False):
    return Instance(
        key=key,
        route=route,
        doc=doc,
        feasible=not infeasible,
        ref_bound=None if infeasible else Fraction(bound),
        in_caps=(not star) and n <= BRUTE_MAX_N and k <= BRUTE_MAX_K and f <= BRUTE_MAX_F,
        upper_bound_route=upper_bound_route and any(d is not None for d in doc["deadlines"]),
    )


def twin(inst: Instance, divisor: int = 3) -> Instance:
    """The same instance with every number divided by ``divisor``, as "p/q"."""

    def div(v):
        return None if v is None else _s(Fraction(v) / divisor)

    doc = dict(inst.doc)
    for name in ("coordinates", "edge_weights", "leaf_weights", "deadlines"):
        if name in doc:
            doc[name] = [div(v) for v in doc[name]]
    for name in ("center_deadline", "delta"):
        if name in doc:
            doc[name] = div(doc[name])
    return Instance(
        key=inst.key + "/" + str(divisor),
        route=inst.route,
        doc=doc,
        feasible=inst.feasible,
        ref_bound=None if inst.ref_bound is None else inst.ref_bound / divisor,
        twin_of=inst.key,
        divisor=divisor,
        in_caps=inst.in_caps,
        upper_bound_route=inst.upper_bound_route,
    )


# --------------------------------------------------------------------------
# reductions (generated here directly, so the program sees only files)
# --------------------------------------------------------------------------


def _n3dm_values(rng, q, yes):
    """Positive multisets A, B, C with sum == q * target; a YES instance
    is built from a planted matching, a NO one is perturbed and re-checked."""
    while True:
        target = rng.randint(6, 12)
        a, b, c = [], [], []
        for _ in range(q):
            ai = rng.randint(1, target - 2)
            bi = rng.randint(1, target - ai - 1)
            a.append(ai), b.append(bi), c.append(target - ai - bi)
        if not yes:
            i, j = rng.sample(range(q), 2) if q > 1 else (0, 0)
            if q == 1 or a[i] <= 1:
                continue
            a[i] -= 1
            a[j] += 1
        rng.shuffle(b), rng.shuffle(c)
        if n3dm_check(a, b, c, target) == yes:
            return a, b, c, target


def n3dm_check(a, b, c, s) -> bool:
    """Brute force: can the values be matched into triples summing to s?"""
    q = len(a)
    return any(
        all(a[i] + b[pb[i]] + c[pc[i]] == s for i in range(q))
        for pb in permutations(range(q))
        for pc in permutations(range(q))
    )


def _n3dm_doc(a, b, c, s) -> dict:
    """Same encoding as ``roversweep generate n3dm`` (unit-spaced line)."""
    q = len(a)
    big = 4 * s + 6 * max(a) + 6 * max(b) + 12 * max(c)
    length = 3 * big - 4 * s - 1
    robots = sorted(list(a) + [big + 2 * v for v in b] + [2 * big + 4 * v for v in c])
    return {
        "topology": "line",
        "coordinates": [str(v) for v in range(length + 1)],
        "deadlines": [None] * (length + 1),
        "robots": {"mode": "fixed", "positions": robots},
        "faults": q - 1,
        "delta": str(big - 1),
    }


def _partition_values(rng, m, yes):
    while True:
        vals = [rng.randint(1, 9) for _ in range(m)]
        if sum(vals) % 2:
            vals[0] += 1
        if partition_check(vals) == yes:
            return vals


def partition_check(values) -> bool:
    """Brute force: do the values split into two halves of equal sum?"""
    total = sum(values)
    reach = 1
    for v in values:
        reach |= reach << v
    return total % 2 == 0 and bool((reach >> (total // 2)) & 1)


def _partition_doc(values) -> dict:
    """Same encoding as ``roversweep generate partition``."""
    sigma = sum(values) // 2
    m = len(values)
    dl = str(10 * sigma)
    return {
        "topology": "star",
        "leaf_weights": [str(v) for v in values] + [str(4 * sigma)] * 4,
        "deadlines": [dl] * (m + 4),
        "center_deadline": dl,
        "robots": {"mode": "fixed", "positions": [m, m + 1]},
        "faults": 0,
        "delta": None,
    }


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class _Builder:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.instances: dict = {}
        self.classes: List[List[Op]] = []
        self.designed_infeasible = 0
        self._drawn = 0

    def add(self, inst: Instance) -> Instance:
        self.instances[inst.key] = inst
        if inst.feasible is False:
            self.designed_infeasible += 1
        return inst

    def infeasible(self, every: int) -> bool:
        """Every ``every``-th instance built is made infeasible (a fixed
        pattern, so every seed has the same infeasible share)."""
        self._drawn += 1
        return self._drawn % every == 0

    def interleave(self) -> List[Op]:
        """Round-robin over classes, so each class spreads over the whole pass."""
        out = []
        queues = [list(c) for c in self.classes if c]
        while queues:
            for q in queues:
                out.append(q.pop(0))
            queues = [q for q in queues if q]
        return out

    def done(self) -> Corpus:
        share = self.designed_infeasible / len(self.instances)
        ops, probe = [], []
        for op in self.interleave():
            defect = reaches_ring_fixed_decision(self.instances.get(op.inst), op.kind)
            (probe if defect else ops).append(op)
        return Corpus(self.instances, ops, share, probe)


def _solve_and_decide(inst: Instance) -> List[Op]:
    """Solve (and verify), then decide at the reported optimum and just below it."""
    return [Op("solve", inst.key), Op("decide", inst.key, "opt"), Op("decide", inst.key, "below")]


def poly_sweep(seed: int) -> Corpus:
    """Polynomial DP solvers at scale; half the instances are ÷3 twins."""
    b = _Builder("poly_sweep", seed)
    rng = b.rng
    spec = [
        # route, topology, count, n range, k choices, f choices, mode
        ("line_subset", "line", 2, (140, 180), (1,), (0,), "subset"),
        ("line_fixed", "line", 2, (200, 240), (3, 6), (0,), "fixed"),
        ("line_free", "line", 2, (100, 130), (2, 4), (0,), "free"),
        ("ring_fixed", "ring", 2, (60, 80), (2, 4), (0,), "fixed"),
        ("ring_free", "ring", 2, (60, 80), (2, 3), (0,), "free"),
        ("line_free_faulty", "line", 2, (100, 130), (4, 6), (1, 2), "free"),
        ("ring_free_faulty", "ring", 2, (30, 40), (2, 4), (1,), "free"),
    ]
    for route, topo, count, (lo, hi), ks, fs, mode in spec:
        ops = []
        for i, n in enumerate(_grid(count, lo, hi)):
            k, f = ks[i % len(ks)], fs[i % len(fs)]
            build = line_instance if topo == "line" else ring_instance
            orig = b.add(build(rng, f"{route}.{i}", route, n, k, f, mode, b.infeasible(4)))
            tw = b.add(twin(orig))
            # the twin's optimum is pinned to the original's, so only the
            # original is also decided
            ops += _solve_and_decide(orig) + [Op("solve", tw.key)]
        b.classes.append(ops)
    return b.done()


def exact_search(seed: int) -> Corpus:
    """Exponential exact searches: faulty lines and rings, reductions, stars."""
    b = _Builder("exact_search", seed)
    rng = b.rng

    ops = []
    for i, n in enumerate(_grid(26, 8, 16)):
        # n <= 10 stays inside brute_solve's caps for the oracle check
        inst = b.add(line_instance(rng, f"line_ff_dl.{i}", "line_fixed_faulty", n, 3, 1,
                                   "fixed", b.infeasible(6)))
        ops += _solve_and_decide(inst)
    b.classes.append(ops)

    ops = []
    for i, n in enumerate(_grid(6, 30, 40)):
        k, f = (6, 2) if i % 2 == 0 else (8, 3)
        # without deadlines every instance is feasible, so none is broken
        inst = b.add(line_instance(rng, f"line_ff_plain.{i}", "line_fixed_faulty", n, k, f,
                                   "fixed", False, finite_share=0.0))
        ops += _solve_and_decide(inst)
    b.classes.append(ops)

    ops = []
    for i in range(6):
        a, bb, c, s = _n3dm_values(rng, 2, i % 2 == 0)
        doc = _n3dm_doc(a, bb, c, s)
        inst = b.add(Instance(f"n3dm.{i}", "n3dm", doc, None, None, oracle=("n3dm", a, bb, c, s),
                              max_n=len(doc["coordinates"]), max_k=len(doc["robots"]["positions"])))
        ops.append(Op("decide", inst.key, Fraction(doc["delta"])))
    b.classes.append(ops)

    ops = []
    for i, n in enumerate(_grid(24, 6, 30)):
        inst = b.add(ring_instance(rng, f"ring_ff.{i}", "ring_fixed_faulty", n, 3, 1, "fixed",
                                   b.infeasible(6), finite_share=0.0 if i % 2 else 0.5))
        ops += _solve_and_decide(inst)
        if inst.in_caps:
            ops.append(Op("oracle", inst.key))
    b.classes.append(ops)

    ops = []
    for i, q in enumerate(_grid(8, 8, 10)):
        inst = b.add(star_instance(rng, f"star_free.{i}", "star", q, 2, 0, "free",
                                   b.infeasible(6)))
        ops += _solve_and_decide(inst)
    for i in range(2):
        inst = b.add(star_instance(rng, f"star_fixed.{i}", "star", 12, 2, 0, "fixed",
                                   b.infeasible(6)))
        ops += _solve_and_decide(inst)
    b.classes.append(ops)

    ops = []
    for i in range(6):
        vals = _partition_values(rng, 8 + i % 3, i % 2 == 0)
        inst = b.add(Instance(f"partition.{i}", "partition", _partition_doc(vals), None, None,
                              oracle=("partition", vals)))
        ops.append(Op("solve", inst.key))
    b.classes.append(ops)
    return b.done()


def cli_mix(seed: int) -> Corpus:
    """Many small instances over every CLI route, in both directions.  The
    replicated-ring and free-star classes stay small so that no handful of
    instances decides the tail."""
    b = _Builder("cli_mix", seed)
    rng = b.rng
    spec = [
        # route, builder, count, size range, k choices, f choices, mode
        ("line_fixed_start", line_instance, 27, (5, 40), (1,), (0,), "fixed"),
        ("line_subset", line_instance, 18, (5, 40), (1,), (0,), "subset"),
        ("line_fixed", line_instance, 27, (5, 40), (2, 3), (0,), "fixed"),
        ("line_free", line_instance, 27, (5, 40), (2, 3), (0,), "free"),
        ("line_fixed_faulty", line_instance, 27, (5, 10), (2, 3), (1,), "fixed"),
        ("line_free_faulty", line_instance, 18, (5, 40), (2, 4), (1,), "free"),
        ("ring_fixed", ring_instance, 27, (4, 30), (1, 2, 3), (0,), "fixed"),
        ("ring_free", ring_instance, 18, (4, 30), (1, 2), (0,), "free"),
        ("ring_fixed_faulty", ring_instance, 18, (4, 10), (2, 3), (1,), "fixed"),
        ("ring_free_faulty", ring_instance, 18, (4, 12), (2, 3), (1,), "free"),
        ("star", star_instance, 18, (3, 8), (1, 2), (0,), "fixed"),
        ("star", star_instance, 13, (3, 6), (2,), (0,), "free"),
    ]
    for route, build, count, (lo, hi), ks, fs, mode in spec:
        ops = []
        for i, n in enumerate(_grid(count, lo, hi)):
            k, f = ks[i % len(ks)], fs[i % len(fs)]
            inst = build(rng, f"{route}.{mode}.{i}", route, n, k, f, mode, b.infeasible(6))
            if i % 4 == 3:
                inst = twin(inst, 2)
            b.add(inst)
            ops += _solve_and_decide(inst)
            # brute force and resilience grow fast with n and f; kept to the
            # smaller instances and to lines, so that no handful of them
            # decides the tail
            if inst.in_caps and n <= 8 and i % 2 == 0:
                ops.append(Op("oracle", inst.key))
            if route in ("line_fixed_faulty", "line_free_faulty") and i % 3 == 0:
                ops.append(Op("resilience", inst.key, "opt"))
        b.classes.append(ops)

    ops = []
    for i in range(10):
        a, bb, c, s = _n3dm_values(rng, 1 + i % 2, True)
        ops.append(Op("generate", argv=["n3dm", "--a", *map(str, a), "--b", *map(str, bb),
                                        "--c", *map(str, c), "--s", str(s)],
                      expect=("line", 3 * len(a), len(a) - 1)))
        vals = _partition_values(rng, 4 + i % 3, i % 2 == 0)
        ops.append(Op("generate", argv=["partition", "--values", *map(str, vals)],
                      expect=("star", 2, 0)))
        topo = ("line", "ring", "star")[i % 3]
        n, k = rng.randint(4, 12), rng.randint(1, 3)
        f = 0 if topo == "star" or k == 1 else rng.randint(0, k - 1)
        ops.append(Op("generate", argv=["random", "--topology", topo, "--n", str(n),
                                        "--k", str(k), "--f", str(f),
                                        "--seed", str(rng.randrange(1000))],
                      expect=(topo, k, f)))
    b.classes.append(ops)
    return b.done()


WORKLOADS = {"poly_sweep": poly_sweep, "exact_search": exact_search, "cli_mix": cli_mix}
