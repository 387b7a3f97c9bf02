"""Exploration of lines and rings when up to f robots may crash, and the
one router over every topology and placement: ``solve``, ``decide``, and
``resilience``, which is ``decide`` searched over f.

With f possible crashes every node must collect f+1 distinct on-time
visitors.  Free placement on either topology goes through
``solve_free_faulty``, which replicates: on a line a reliable solve with
floor(k / (f+1)) robots is repeated across f+1 groups, and on a ring k
robots explore the ring made of f+1 concatenated copies, since visiting
every copy once is the same as covering the original ring f+1 times.
Subset placements are solved for one reliable robot on a line or a
ring (``solve_subset``).  Fixed placement goes through ``decide_fixed_faulty``
and ``solve_fixed_faulty``, two doors onto one body that checks the team
and the caps, searches, and builds the tracks: a decision searches the
one candidate time delta, a solve every candidate time.  With f = 0 the
reliable solvers answer: ``solve_free_faulty`` is ``multi_line.solve_free``,
and the fixed pair use the polynomial ``multi_line.solve_fixed`` when
the robots stand at distinct nodes.  Otherwise fixed placement is NP-hard
on lines and on rings (``ring`` says why the line reduction carries
over), and it is decided exactly by a branch-and-bound over per-robot
coverage plans driven by the first under-covered node of a fixed node
order.  A robot's plans are the antichain of the on-time coverage of its
walks, read off one table per start, which a decision grows up to delta
and a solve grows once, unbounded, reading its candidate times and every
probe's plans off it:

* without finite deadlines every visit counts, so the plans are the
  maximal arcs around the start whose cover cost fits the time bound,
  found by two pointers (``ArcTable``);
* with them the visited arc grows around its start one node at a time,
  and per arc state only the Pareto-minimal (time, coverage) pairs are
  kept (``PlanTable``); the pairs kept do not depend on the time bound,
  so a solve's table serves every probe.

Robots may legally pass nodes after their deadlines (visited or not,
nodes never block passage); such visits simply do not count as coverage.

Answers are verified at one exit: ``solve`` and ``decide`` hand every
feasible verdict to ``oracle.witnessed``, which checks its schedule at
the optimum it claims (at delta, for a decision) and attaches the
witness.  The route solvers they call return their schedules unverified.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import replace
from functools import partial, reduce
from operator import or_
from typing import Iterable, List, Optional, Sequence

from .exact import ExactNumber, INFINITY
from .instance import (
    FIXED,
    FREE,
    InstanceError,
    ProblemSpec,
    RingInstance,
    unrolled,
)
from .multi_line import least_feasible, solve_fixed, solve_free
from .oracle import Caps, CapExceeded, witnessed
from .reductions import star_exact
from .schedule import RobotTrack, Verdict, track_schedule
from .single_robot import solve_free_start

FIXED_SEARCH_CAPS = Caps(max_n=40, max_k=8)
# with finite deadlines a ring robot's plans are Pareto sets of partial
# walks, which can still grow exponentially in n, and the wrap-around arcs
# widen the branching; rings stop at 16 nodes by default
FIXED_RING_DEADLINE_CAPS = Caps(max_n=16, max_k=8)


def fixed_search_caps(topology) -> Caps:
    """Default caps of the exact fixed-position search on ``topology``."""
    if topology.lap is not None and any(d is not INFINITY for d in topology.deadlines):
        return FIXED_RING_DEADLINE_CAPS
    return FIXED_SEARCH_CAPS


def replicate_ring(ring: RingInstance, f: int) -> RingInstance:
    """f+1 copies of ``ring`` glued end to end, node i standing for node
    i mod n: covering the base ring f+1 times equals exploring it once."""
    if f < 0:
        raise ValueError("fault budget must be non-negative")
    return RingInstance(ring.edge_weights * (f + 1), ring.deadlines * (f + 1))


def solve_free_faulty(topology, k: int, f: int) -> Verdict:
    """Replication solve for k freely placed robots on a line or a ring,
    up to f of which may crash; with f = 0 the reliable ``solve_free``.

    Every node needs f+1 distinct on-time visitors.  On a line the value
    is the reliable optimum for floor(k/(f+1)) robots and the schedule
    replicates that group's trajectories across f+1 groups (surplus
    robots double up on the first group).  On a ring it is the optimum of
    k robots on ``replicate_ring(ring, f)``, whose tracks ``track_schedule``
    moves back by whole laps onto the base ring.  Without finite node
    deadlines this is exactly optimal: covers split into f+1 full covers.  Finite deadlines
    can punch holes in coverage profiles, and then a schedule of another
    shape may finish sooner.  The schedule is not verified here; the
    router verifies it, and on a ring a rejection would mean that a
    replication segment spanned more than one lap, so one robot would have
    to cover some node twice.
    """
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    if f == 0:
        return solve_free(topology, k)
    ring = topology.lap is not None
    group = k // (f + 1)
    if ring:
        base = solve_free(replicate_ring(topology, f), k)
    else:
        base = solve_free(topology, group)
    if not base.feasible:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = base.schedule.tracks
    if not ring:
        tracks = tracks * (f + 1) + tuple(tracks[i % group] for i in range(k - group * (f + 1)))
    return Verdict(feasible=True, optimum=base.optimum, schedule=track_schedule(topology, tracks))


# --------------------------------------------------------------------------
# fixed positions: exact search
# --------------------------------------------------------------------------


class Plan:
    """One robot's trajectory and the nodes it covers on time.  The track
    may be given as a function that builds it when it is first read, so a
    plan the search never assigns builds none."""

    __slots__ = ("mask", "_track")

    def __init__(self, mask: int, track):
        self.mask, self._track = mask, track  # mask: the nodes covered on time

    @property
    def track(self) -> RobotTrack:
        if callable(self._track):
            self._track = self._track()
        return self._track


def _arm_lengths(topology, p: int) -> tuple:
    """Distances from p to the node a steps clockwise (left, on a line) and
    to the node b steps counterclockwise (right), for every such node: up
    to a line's ends, or n - 1 steps around a ring."""
    x, n = unrolled(topology.positions, topology.lap, 2), topology.n
    q = p + len(x) - n  # p on a line; on a ring p's copy on the second lap
    cw = [x[q] - x[q - a] for a in range(min(q + 1, n))]
    ccw = [x[p + b] - x[p] for b in range(min(len(x) - p, n))]
    return cw, ccw


def _grow(n: int, cw: list, ccw: list, p: int, a: int, b: int, side: int) -> tuple:
    """The ways to grow a visited arc around p by one node.

    The arc reaches a steps clockwise and b counterclockwise of p, and the
    robot stands at its clockwise (side 0) or counterclockwise (side 1)
    end.  Each way is (new arc state, new node, its offset from p, the
    distance walked), as in the turning-point walks of ``enumerate_walks``.
    An arm stops at the end of a line; a ring stops once the arc is whole.
    """
    if a + b + 1 == n:
        return ()
    here = -cw[a] if side == 0 else ccw[b]
    ways = ()
    if a + 1 < len(cw):
        ways += (((a + 1, b, 0), (p - a - 1) % n, -cw[a + 1], here + cw[a + 1]),)
    if b + 1 < len(ccw):
        ways += (((a, b + 1, 1), (p + b + 1) % n, ccw[b + 1], ccw[b + 1] - here),)
    return ways


class PlanTable:
    """The plans of a robot at p under every time bound up to ``bound``.

    Walks are not listed one by one: the arc grows one node at a time,
    and per arc and robot end only the (time, coverage) pairs survive
    that no other pair matches with an earlier time and a superset of
    coverage, since from the same spot the earlier robot can copy every
    later move.  A dominator is never later than the pair it drops, so
    the pairs kept under any smaller bound are these, cut at it (Martins
    1984); the plans at delta are the pairs that no move extends within
    delta.  ``plan_tables`` makes one where some node has a finite
    deadline; without one the plans are the maximal arcs, which
    ``ArcTable`` lists without growing the O(n^2) arc states.
    """

    def __init__(self, topology, p: int, bound=INFINITY):
        n = topology.n
        d = topology.deadlines
        x = topology.positions[p]
        cw, ccw = _arm_lengths(topology, p)
        capped = bound is not INFINITY
        # kept pairs as [time, earliest extension or None, mask, waypoints,
        # arrived on time, Plan once built]; under a bound only its plans
        self.entries: list = []
        # per arc state: [(time, on-time mask, waypoints, last direction, on time)]
        layer = {(0, 0, 1): [(0, 1 << p, ((0, x),), 0, True)]} if bound >= 0 else {}
        while layer:
            grown: dict = {}
            for (a, b, side), bucket in layer.items():
                ways = _grow(n, cw, ccw, p, a, b, side)
                for t, mask, wps, last, fresh in bucket:
                    stuck = True
                    for state, u, offset, dist in ways:
                        t2 = t + dist
                        if capped and t2 > bound:
                            continue
                        stuck = False
                        way = 1 if state[2] else -1
                        wps2 = (wps[:-1] if last == way else wps) + ((t2, x + offset),)
                        fresh2 = d[u] is INFINITY or t2 <= d[u]
                        mask2 = mask | (1 << u) if fresh2 else mask
                        _pareto_add(grown.setdefault(state, []), (t2, mask2, wps2, way, fresh2))
                    if stuck or not capped:
                        first = t + min(ways[0][3], ways[-1][3]) if ways else None
                        self.entries.append([t, first, mask, wps, fresh, None])
            layer = grown

    def plans(self, delta) -> List[Plan]:
        """The antichain of on-time coverage of the walks within delta."""
        plans = []
        for entry in self.entries:
            if entry[0] <= delta and (entry[1] is None or delta < entry[1]):
                if entry[5] is None:
                    entry[5] = Plan(mask=entry[2], track=RobotTrack(entry[3]))
                plans.append(entry[5])
        return mask_antichain(plans)

    def times(self) -> set:
        """The on-time arrival times of the kept pairs."""
        return {e[0] for e in self.entries if e[4]}


class ArcTable:
    """The plans of a robot at p on a line or ring without finite deadlines.

    Every visit is on time, so a walk covers the arc it has visited, and
    the fastest walk over the arc a steps clockwise and b counterclockwise
    of p turns once, at the nearer end: its cover cost is
    cw[a] + ccw[b] + min(cw[a], ccw[b]).  The plans at delta are the
    maximal arcs that fit: for each clockwise arm a the longest
    counterclockwise arm b, which only shrinks as a grows, so two
    pointers find them; an arc drops when the next one keeps its b, and
    a whole ring replaces every other arc.  A track goes clockwise first
    whenever that fits delta.
    """

    def __init__(self, topology, p: int):
        self.n = topology.n
        self.p = p
        self.x = topology.positions[p]
        self.cw, self.ccw = _arm_lengths(topology, p)

    def times(self) -> set:
        """Every arc's cover cost: the times at which a plan can grow."""
        cw, ccw, n = self.cw, self.ccw, self.n
        return {left + right + min(left, right)
                for a, left in enumerate(cw) for right in ccw[:n - a]}

    def plans(self, delta) -> List[Plan]:
        """The maximal arcs whose cover cost fits delta."""
        cw, ccw, n = self.cw, self.ccw, self.n
        ends = []  # ends[a]: the longest counterclockwise arm that fits with a
        b = bisect_right(ccw, delta) - 1
        for a, left in enumerate(cw):
            if left > delta:
                break
            while left + ccw[b] + (left if left <= ccw[b] else ccw[b]) > delta:
                b -= 1
            if a + b == n - 1:  # the whole line or ring: every other arc lies in it
                return [self._plan(a, b, delta)]
            ends.append(b)
        ends.append(-1)
        return [self._plan(a, b, delta) for a, b in enumerate(ends[:-1]) if ends[a + 1] < b]

    def _plan(self, a: int, b: int, delta) -> Plan:
        n = self.n
        span = (1 << (a + b + 1)) - 1
        shift = (self.p - a) % n
        mask = (span << shift | span >> (n - shift)) & ((1 << n) - 1)
        left, right = self.cw[a], self.ccw[b]
        return Plan(mask, partial(self._track, left, right, 2 * left + right <= delta))

    def _track(self, left, right, cw_first: bool) -> RobotTrack:
        x = self.x
        # (length, end) of the arm walked first and of the other
        (d1, end1), (d2, end2) = ((left, x - left), (right, x + right))[::1 if cw_first else -1]
        wps = [(0, x)]
        if d1:
            wps.append((d1, end1))
        if d2:
            wps.append((2 * d1 + d2, end2))
        return RobotTrack(wps)


def _pareto_add(bucket: list, entry: tuple):
    """Insert (time, mask, ...) unless an earlier-or-equal superset is kept."""
    t, mask = entry[0], entry[1]
    for e in bucket:
        if e[0] <= t and e[1] | mask == e[1]:
            return
    bucket[:] = [e for e in bucket if not (t <= e[0] and mask | e[1] == mask)]
    bucket.append(entry)


def mask_antichain(plans: List[Plan]) -> List[Plan]:
    """Drop every plan whose mask is contained in another kept plan's."""
    plans = sorted(plans, key=lambda pl: (-pl.mask.bit_count(), pl.track.waypoints))
    kept: List[Plan] = []
    for pl in plans:
        if not any(kp.mask | pl.mask == kp.mask for kp in kept):
            kept.append(pl)
    return kept


class _FixedSearch:
    """Leftmost-deficit branch and bound over per-robot coverage plans.

    Each distinct start gets its complete plan list once, from its
    ``plan_tables`` table (every trajectory's on-time coverage is
    contained in some plan's mask).  The exchange argument only needs a
    fixed node order, in which every node before the branching one is
    already covered f+1 times.  A line is taken left to right.  A ring is
    taken counterclockwise from the node the fewest robots can reach:
    only arcs through that anchor wrap around the end of the order, and
    those arcs are what multiplies the plans that stay maximal on the
    later nodes.
    A branch is dropped once some node can no longer gather f+1 robots,
    or once the free robots' largest plans cannot add up to the coverage
    still missing.
    """

    def __init__(self, topology, positions: Sequence[int], f: int, delta, tables: dict):
        self.positions = tuple(sorted(positions))
        self.n = topology.n
        self.k = len(self.positions)
        self.need = f + 1
        self.assigned: List[Optional[Plan]] = [None] * self.k
        # covered[c]: mask of the nodes that c or more assigned robots cover
        self.covered = [(1 << self.n) - 1] + [0] * (self.k + 1)
        self.missing = self.need * self.n  # robots the nodes short of f+1 miss
        self._options: dict = {}
        made = {p: tables[p].plans(delta) for p in set(self.positions)}
        self.plans = [made[p] for p in self.positions]
        self.masks = [[pl.mask for pl in plan_list] for plan_list in self.plans]
        self.reach = [reduce(or_, masks, 0) for masks in self.masks]
        # slack[u]: coverage of u so far plus free robots that could still add to it
        self.slack = [0] * self.n
        for mask in self.reach:
            self._apply(self.slack, mask, +1)
        start = 0
        if topology.lap is not None:
            start = min(range(self.n), key=self.slack.__getitem__)
        self.order = [(start + i) % self.n for i in range(self.n)]
        # tails[i]: the nodes from order[i] on
        self.tails = [0] * (self.n + 1)
        for i in range(self.n - 1, -1, -1):
            self.tails[i] = self.tails[i + 1] | 1 << self.order[i]

    # ---- plan generation -------------------------------------------------

    def _canonical_options(self, r: int, i: int) -> List[Plan]:
        """Plans for robot r that cover node order[i], maximal on the tail from it."""
        key = (r, i)
        if key in self._options:
            return self._options[key]
        bit = 1 << self.order[i]
        tail = self.tails[i]
        options: list = []  # (mask on the tail, plan)
        for pl in self.plans[r]:
            if pl.mask & bit:
                rest = pl.mask & tail
                for o, _ in options:
                    if o | rest == o:
                        break
                else:
                    options = [(o, q) for o, q in options if rest | o != rest] + [(rest, pl)]
        self._options[key] = [pl for _, pl in options]
        return self._options[key]

    # ---- search ----------------------------------------------------------

    def run(self) -> Optional[List[Optional[Plan]]]:
        if self._rec():
            return list(self.assigned)
        return None

    def _leftmost_deficient(self) -> Optional[int]:
        """Rank in the node order of the first node still short of f+1."""
        short = self.covered[0] & ~self.covered[self.need]
        if not short:
            return None
        first = self.order[0]
        ranks = short >> first | short << (self.n - first)  # bit i: node order[i]
        return (ranks & -ranks).bit_length() - 1

    def _rec(self) -> bool:
        if min(self.slack) < self.need:
            return False
        i = self._leftmost_deficient()
        if i is None:
            return True
        if not self._enough_capacity():
            return False
        v = self.order[i]
        missing = sum(1 for c in self.covered[1:self.need + 1] if not c >> v & 1)
        cand = []
        for r in range(self.k):
            if self.assigned[r] is None:
                opts = self._canonical_options(r, i)
                if opts:
                    cand.append((r, opts))
        if len(cand) < missing:
            return False
        for subset in itertools.combinations(cand, missing):
            for combo in itertools.product(*(opts for _, opts in subset)):
                robots = [r for r, _ in subset]
                for r, pl in zip(robots, combo):
                    self._assign(r, pl, +1)
                if self._rec():
                    return True
                for r, pl in zip(robots, combo):
                    self._assign(r, pl, -1)
        return False

    def _enough_capacity(self) -> bool:
        """Can the free robots' best plans add up to the missing coverage?"""
        short = self.covered[0] & ~self.covered[self.need]
        missing = self.missing
        for r, pl in enumerate(self.assigned):
            if pl is None:
                missing -= max([(m & short).bit_count() for m in self.masks[r]], default=0)
                if missing <= 0:
                    return True
        return False

    def _assign(self, r: int, pl: Plan, sign: int):
        self.assigned[r] = pl if sign > 0 else None
        self._apply(self.slack, self.reach[r] & ~pl.mask, -sign)
        covered, mask = self.covered, pl.mask  # each node of mask moves one count up or down
        if sign > 0:
            self.missing -= (mask & ~covered[self.need]).bit_count()
            for c in range(self.k, 0, -1):
                covered[c] |= covered[c - 1] & mask
        else:
            for c in range(1, self.k + 1):
                covered[c] = covered[c] & ~mask | covered[c + 1] & mask
            self.missing += (mask & ~covered[self.need]).bit_count()

    @staticmethod
    def _apply(counts: list, mask: int, sign: int):
        """Add sign to the count of every node in mask, a run of bits at a time."""
        while mask:
            low = mask & -mask
            run = ((mask + low) & ~mask) - low
            for u in range(low.bit_length() - 1, run.bit_length()):
                counts[u] += sign
            mask ^= run


def search_plans(topology, positions: Sequence[int], f: int, delta, tables: dict) -> Optional[list]:
    """The exact search's plan per robot (None: the robot stays at its
    start) when the team can cover every node f+1 times by delta, reading
    each start's plans off ``tables``, else None."""
    return _FixedSearch(topology, positions, f, delta, tables).run()


def _fixed_faulty(topology, positions: Iterable[int], f: int, caps: Optional[Caps], delta=None) -> Verdict:
    """The one body of ``decide_fixed_faulty`` at delta and, for delta
    None, of ``solve_fixed_faulty``: a decision searches its one
    candidate, delta, with tables made up to it, and a solve searches
    every candidate time with tables made unbounded."""
    positions = tuple(sorted(positions))
    if not 0 <= f < len(positions):
        raise ValueError("need 0 <= f < k")
    if any(not 0 <= p < topology.n for p in positions):
        raise ValueError("robot position out of range")
    if delta is INFINITY:
        raise ValueError("the decision needs a finite time bound")
    no = Verdict(feasible=False, optimum=INFINITY if delta is None else None)
    if delta is not None and delta < 0:
        return no  # no walk finishes before time 0
    if f == 0 and len(set(positions)) == len(positions):
        if delta is None:
            return solve_fixed(topology, positions)
        reliable = solve_fixed(topology.capped(delta), positions)
        return replace(reliable, optimum=None) if reliable.feasible and reliable.optimum <= delta else no
    caps = caps or fixed_search_caps(topology)
    if topology.n > caps.max_n or len(positions) > caps.max_k:
        raise CapExceeded(
            f"exact search refused: n={topology.n}, k={len(positions)} exceeds caps "
            f"(max_n={caps.max_n}, max_k={caps.max_k}); raise the caps to force it"
        )
    tables = plan_tables(topology, positions, INFINITY if delta is None else delta)
    found = least_feasible(
        (delta,) if delta is not None else fixed_faulty_candidates(tables),
        lambda t: search_plans(topology, positions, f, t, tables),
    )
    if found is None:
        return no
    spots = topology.positions
    tracks = tuple(
        plan.track if plan is not None else RobotTrack(((0, spots[p]),))
        for p, plan in zip(positions, found[1])
    )
    optimum = found[0] if delta is None else None
    return Verdict(feasible=True, optimum=optimum, schedule=track_schedule(topology, tracks))


def decide_fixed_faulty(
    topology,
    positions: Iterable[int],
    f: int,
    delta: ExactNumber,
    caps: Optional[Caps] = None,
) -> Verdict:
    """Exact decision: can the fixed multiset of robots on a line or ring,
    up to f of which may crash, visit every node by min(deadline, delta)?

    A negative delta is NO at once.  Reliable robots at distinct nodes
    are decided by the polynomial ``solve_fixed`` on the topology with
    deadlines capped at delta, at any size.  Everything else runs the
    exact search, which never guesses: instances beyond ``caps``
    (default: ``fixed_search_caps``) raise CapExceeded.  The plans come
    from tables made up to delta.  A YES carries its schedule, which
    ``decide`` verifies.
    """
    return _fixed_faulty(topology, positions, f, caps, delta)


def plan_tables(topology, positions: Iterable[int], bound=INFINITY) -> dict:
    """One plan table per distinct start: an ``ArcTable`` when no node has
    a finite deadline, else a ``PlanTable`` grown up to ``bound``."""
    if all(d is INFINITY for d in topology.deadlines):
        return {p: ArcTable(topology, p) for p in set(positions)}
    return {p: PlanTable(topology, p, bound) for p in set(positions)}


def fixed_faulty_candidates(tables: dict) -> tuple:
    """All times at which the fixed-position decision can change, read off
    the ``plan_tables`` of the robots' starts.

    These are the moments some robot's plan gains a node, the ``times``
    of its table: arc cover costs without deadlines, with them the on-time
    arrival times of the pairs its ``PlanTable`` keeps.  A dropped pair
    adds none: its dominator, never later, matches its whole subtree.
    """
    return tuple(sorted({0}.union(*(table.times() for table in tables.values()))))


def solve_fixed_faulty(
    topology,
    positions: Iterable[int],
    f: int,
    caps: Optional[Caps] = None,
) -> Verdict:
    """Minimal delta admitting an f-reliable schedule from fixed positions.

    Feasibility is monotone in delta and can only change at a time from
    ``fixed_faulty_candidates``, so a binary search over them with the
    exact search yields the optimum.  Probes return the search's plans, and
    only the plans accepted at the optimum are built into tracks.  Each
    distinct start's table from
    ``plan_tables`` is made once, without a time bound, and the candidates
    and every probe read it.  Reliable robots at distinct nodes are
    solved directly by ``solve_fixed``.  Caps as for the decision.
    """
    return _fixed_faulty(topology, positions, f, caps)


def solve_subset(topology, allowed: Iterable[int], k: int, f: int) -> Verdict:
    """Robots that start at nodes of ``allowed``: solved for one reliable
    robot on a line or a ring, and refused with InstanceError otherwise."""
    if k != 1 or f != 0:
        raise InstanceError("robots", "subset placement is solved for a single reliable robot only")
    return solve_free_start(topology, allowed)


# --------------------------------------------------------------------------
# the router: solve, decide, resilience
# --------------------------------------------------------------------------


def solve(spec: ProblemSpec, caps: Optional[Caps] = None) -> Verdict:
    """Optimal exploration time of ``spec``, infeasible beyond ``spec.bound``.

    Stars go to ``star_exact``, fixed robots to ``solve_fixed_faulty``
    (searching under ``caps``), free robots to ``solve_free_faulty`` and
    subsets to ``solve_subset``.  A feasible verdict carries a schedule
    that ``verify_schedule`` has accepted at the optimum, and its witness;
    a missing or rejected schedule raises RuntimeError.
    """
    top, placement, f = spec.topology, spec.placement, spec.faults
    if top.kind == "star":
        verdict = star_exact(top, placement, spec.k, f, spec.bound)
    elif placement.mode == FIXED:
        verdict = solve_fixed_faulty(top, placement.positions, f, caps)
    elif placement.mode == FREE:
        verdict = solve_free_faulty(top, placement.count, f)
    else:
        verdict = solve_subset(top, placement.allowed, spec.k, f)
    if verdict.feasible and spec.bound is not None and verdict.optimum > spec.bound:
        # the optimum is the least bound a schedule meets
        verdict = Verdict(feasible=False, optimum=INFINITY)
    return witnessed(spec, verdict)


def decide(spec: ProblemSpec, delta: ExactNumber, caps: Optional[Caps] = None) -> Verdict:
    """Can ``spec`` be explored with every node visited by min(deadline, delta)?

    A negative delta is NO.  Fixed robots on a line or a ring go to
    ``decide_fixed_faulty``, whose YES is verified here at delta;
    everything else is ``solve`` on the spec with its deadlines capped at
    delta and bound delta, which has verified its answer.  So a YES
    carries a schedule that ``verify_schedule`` has accepted, and its
    witness; a missing or rejected schedule raises RuntimeError.
    """
    if delta is INFINITY:
        raise ValueError("the decision needs a finite time bound")
    if delta < 0:
        return Verdict(feasible=False, optimum=None)  # no walk finishes before time 0
    top, placement = spec.topology, spec.placement
    if placement.mode == FIXED and top.kind != "star":
        verdict = decide_fixed_faulty(top, placement.positions, spec.faults, delta, caps)
        return witnessed(replace(spec, bound=delta), verdict)
    return solve(replace(spec, topology=top.capped(delta), bound=delta), caps)


def resilience(spec: ProblemSpec, delta: ExactNumber, caps: Optional[Caps] = None) -> Optional[int]:
    """Largest f < k for which ``decide`` says YES on ``spec`` with f faults.

    Returns None when even f = 0 is impossible.  The ``faults`` value of
    the spec itself is ignored.  Feasibility is monotone in f, so
    ``least_feasible`` over f = k-1 .. 0 finds it, probing f = 0 first.
    """
    found = least_feasible(
        range(spec.k - 1, -1, -1),
        lambda f: decide(replace(spec, faults=f), delta, caps).feasible or None,
    )
    return None if found is None else found[0]
