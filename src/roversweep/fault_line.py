"""Exploration of lines and rings when up to f robots may crash.

With f possible crashes every node must collect f+1 distinct on-time
visitors.  Free placement on either topology goes through
``solve_free_faulty``, which replicates: on a line a reliable solve with
floor(k / (f+1)) robots is repeated across f+1 groups, and on a ring k
robots explore the ring made of f+1 concatenated copies, since visiting
every copy once is the same as covering the original ring f+1 times.
Subset placements are solved for one reliable robot on a line or a
ring (``solve_subset``).  Fixed placement goes through ``decide_fixed_faulty``
and ``solve_fixed_faulty``.  They own the reliable shortcut: with f = 0 and
robots at distinct nodes, the polynomial ``multi_line.solve_fixed``
answers.  Otherwise fixed placement is NP-hard on lines and on rings
(``ring`` says why the line reduction carries over), and it is decided
exactly by a branch-and-bound over per-robot coverage plans driven by
the first under-covered node of a fixed node order:

* on a line without finite deadlines every feasible assignment goes
  through a small set of canonical plans (cover the deficient node,
  reach as far right as possible), which is exhaustive by an exchange
  argument;
* otherwise a robot's plans are the antichain of the on-time coverage
  of its walks, found by growing the visited arc around its start one
  node at a time and keeping per arc state only the Pareto-minimal
  (time, coverage) pairs (``PlanTable``).  The pairs kept do not depend
  on the time bound, so a solve grows one table per start, unbounded,
  and reads its candidate times and every probe's plans off it.

Robots may legally pass nodes after their deadlines (visited or not,
nodes never block passage); such visits simply do not count as coverage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .exact import ExactNumber, INFINITY, is_finite
from .instance import (
    FIXED,
    FREE,
    InstanceError,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
)
from .multi_line import solve_fixed, solve_free
from .oracle import Caps, CapExceeded, witnessed
from .schedule import RobotTrack, Verdict, track_schedule
from .single_robot import solve_free_start

FIXED_SEARCH_CAPS = Caps(max_n=40, max_k=8, max_f=7)
# with finite deadlines a ring robot's plans are Pareto sets of partial
# walks, which can still grow exponentially in n, and the wrap-around arcs
# widen the branching; rings stop at 16 nodes by default
FIXED_RING_DEADLINE_CAPS = Caps(max_n=16, max_k=8, max_f=7)


def fixed_search_caps(topology) -> Caps:
    """Default caps of the exact fixed-position search on ``topology``."""
    if isinstance(topology, RingInstance) and any(d is not INFINITY for d in topology.deadlines):
        return FIXED_RING_DEADLINE_CAPS
    return FIXED_SEARCH_CAPS


@dataclass(frozen=True)
class ReplicatedRing:
    """f+1 copies of a ring glued end to end; node i maps back to i mod n."""

    base: RingInstance
    ring: RingInstance
    copies: int


def replicate_ring(ring: RingInstance, f: int) -> ReplicatedRing:
    """Covering the base ring f+1 times equals exploring this ring once."""
    if f < 0:
        raise ValueError("fault budget must be non-negative")
    copies = f + 1
    big = RingInstance(ring.edge_weights * copies, ring.deadlines * copies)
    return ReplicatedRing(base=ring, ring=big, copies=copies)


def solve_free_faulty(topology, k: int, f: int, collect_candidates: bool = False) -> Verdict:
    """Replication solve for k freely placed robots on a line or a ring,
    up to f of which may crash.

    Every node needs f+1 distinct on-time visitors.  On a line the value
    is the reliable optimum for floor(k/(f+1)) robots and the schedule
    replicates that group's trajectories across f+1 groups (surplus
    robots double up on the first group).  On a ring it is the optimum of
    k robots on ``replicate_ring(ring, f).ring``, each track moved back by
    whole laps onto the base ring.  Without finite node deadlines this is
    exactly optimal: covers split into f+1 full covers.  Finite deadlines
    can punch holes in coverage profiles, and then a schedule of another
    shape may finish sooner; the returned schedule is verified either way.
    """
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    ring = isinstance(topology, RingInstance)
    group = k // (f + 1)
    if ring:
        base = solve_free(replicate_ring(topology, f).ring, k, collect_candidates=collect_candidates)
    else:
        base = solve_free(topology, group, collect_candidates=collect_candidates)
    if not base.feasible:
        return Verdict(feasible=False, optimum=INFINITY, candidates=base.candidates)
    tracks = base.schedule.tracks
    if ring:
        lap = topology.total
        tracks = [RobotTrack(tuple((t, x - tr.start // lap * lap) for t, x in tr.waypoints))
                  for tr in tracks]
    else:
        tracks = tracks * (f + 1) + tuple(tracks[i % group] for i in range(k - group * (f + 1)))
    # on a ring, a failed verification means a replication segment spanned
    # more than one lap, so one robot would have to cover some node twice
    return witnessed(
        topology, RobotPlacement(FREE, count=k), f, None, track_schedule(topology, tracks),
        optimum=base.optimum, candidates=base.candidates,
    )


# --------------------------------------------------------------------------
# fixed positions: exact search
# --------------------------------------------------------------------------


def _cover_cost(xa, xb, p):
    """Time for a robot at p to first-visit all of [xa, xb] (xa <= p <= xb)."""
    near = p - xa if p - xa <= xb - p else xb - p
    return (xb - xa) + near


@dataclass(frozen=True)
class Plan:
    """One robot's trajectory and the nodes it covers on time."""

    mask: int              # bitmask of nodes covered on time
    track: RobotTrack


def _plain_line(topology) -> bool:
    """A line without deadlines, whose plans are intervals."""
    return isinstance(topology, LineInstance) and all(d is INFINITY for d in topology.deadlines)


def _interval_plan(line: LineInstance, p_idx: int, a: int, b: int, delta) -> Plan:
    x = line.coordinates
    p = x[p_idx]
    mask = ((1 << (b - a + 1)) - 1) << a
    left_first = (p - x[a]) + (x[b] - x[a])
    wps: List[tuple] = [(0, p)]
    if left_first <= delta:
        if x[a] < p:
            wps.append((p - x[a], x[a]))
        if x[b] > x[a]:
            wps.append((left_first if x[a] < p else x[b] - p, x[b]))
    else:
        if x[b] > p:
            wps.append((x[b] - p, x[b]))
        if x[a] < x[b]:
            wps.append(((x[b] - p) + (x[b] - x[a]), x[a]))
    return Plan(mask=mask, track=RobotTrack(tuple(wps)))


def _spots(topology) -> tuple:
    """Track coordinate of each node (arc length from node 0 on a ring)."""
    if isinstance(topology, RingInstance):
        return topology.arc_positions()
    return topology.coordinates


def _arm_lengths(topology, p: int) -> tuple:
    """Distances from p to the node a steps clockwise (left, on a line) and
    to the node b steps counterclockwise (right), for every such node."""
    n = topology.n
    if isinstance(topology, RingInstance):
        w = topology.edge_weights
        cw, ccw = [0], [0]
        for t in range(n - 1):
            ccw.append(ccw[-1] + w[(p + t) % n])
            cw.append(cw[-1] + w[(p - 1 - t) % n])
        return cw, ccw
    x = topology.coordinates
    return [x[p] - x[p - a] for a in range(p + 1)], [x[p + b] - x[p] for b in range(n - p)]


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
    delta.  Without deadlines one pair per arc state is left, and the
    plans are the maximal arcs.
    """

    def __init__(self, topology, p: int, bound=INFINITY):
        n = topology.n
        d = topology.deadlines
        x = _spots(topology)[p]
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

    On a line without finite deadlines the plans are intervals found by
    binary search as the branching asks for them.  Otherwise each
    distinct start gets its complete plan list once, from ``PlanTable``
    (every trajectory's on-time coverage is contained in some plan's
    mask).  The exchange argument only needs a fixed node order, in
    which every node before the branching one is already covered f+1
    times.  A line is taken left to right.  A ring is taken
    counterclockwise from the node the fewest robots can reach: only arcs
    through that anchor wrap around the end of the order, and those arcs
    are what multiplies the plans that stay maximal on the later nodes.
    A branch is dropped once some node can no longer gather f+1 robots,
    or, with plan lists, once the free robots' largest plans cannot add
    up to the coverage still missing.
    """

    def __init__(self, topology, positions: Sequence[int], f: int, delta, tables=None):
        self.topology = topology
        self.positions = tuple(sorted(positions))
        self.f = f
        self.delta = delta
        self.n = topology.n
        self.k = len(self.positions)
        self.need = f + 1
        self.plain = _plain_line(topology)
        self.assigned: List[Optional[Plan]] = [None] * self.k
        self.cover = [0] * self.n
        self._options: dict = {}
        if self.plain:
            x = topology.coordinates
            self.reach = [
                sum(1 << u for u in range(self.n) if abs(x[u] - x[p]) <= delta)
                for p in self.positions
            ]
        else:
            tables = tables or plan_tables(topology, self.positions, delta)
            made = {p: tables[p].plans(delta) for p in set(self.positions)}
            self.plans = [made[p] for p in self.positions]
            self.reach = [0] * self.k
            for r, plan_list in enumerate(self.plans):
                for pl in plan_list:
                    self.reach[r] |= pl.mask
        # slack[u]: coverage of u so far plus free robots that could still add to it
        self.slack = [0] * self.n
        for mask in self.reach:
            self._apply(self.slack, mask, +1)
        start = 0
        if isinstance(topology, RingInstance):
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
        if key not in self._options:
            self._options[key] = self._make_options(r, i)
        return self._options[key]

    def _make_options(self, r: int, i: int) -> List[Plan]:
        v = self.order[i]
        p_idx = self.positions[r]
        delta = self.delta
        if self.plain:
            x = self.topology.coordinates
            if v <= p_idx:
                if x[p_idx] - x[v] > delta:
                    return []
                lo, hi = p_idx, self.n - 1
                while lo < hi:
                    mid = (lo + hi + 1) >> 1
                    if _cover_cost(x[v], x[mid], x[p_idx]) <= delta:
                        lo = mid
                    else:
                        hi = mid - 1
                return [_interval_plan(self.topology, p_idx, v, lo, delta)]
            if x[v] - x[p_idx] > delta:
                return []
            lo, hi = v, self.n - 1
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if x[mid] - x[p_idx] <= delta:
                    lo = mid
                else:
                    hi = mid - 1
            return [_interval_plan(self.topology, p_idx, p_idx, lo, delta)]
        options: List[Plan] = []
        bit = 1 << v
        tail = self.tails[i]
        for pl in self.plans[r]:
            if not pl.mask & bit:
                continue
            rest = pl.mask & tail
            if not any((opt.mask & tail) | rest == (opt.mask & tail) for opt in options):
                options = [
                    opt for opt in options if (rest | (opt.mask & tail)) != rest
                ] + [pl]
        return options

    # ---- search ----------------------------------------------------------

    def run(self) -> Optional[List[Optional[Plan]]]:
        if self._rec():
            return list(self.assigned)
        return None

    def _leftmost_deficient(self) -> Optional[int]:
        """Rank in the node order of the first node still short of f+1."""
        need = self.need
        cover = self.cover
        for i, v in enumerate(self.order):
            if cover[v] < need:
                return i
        return None

    def _rec(self) -> bool:
        if min(self.slack) < self.need:
            return False
        i = self._leftmost_deficient()
        if i is None:
            return True
        if not self.plain and not self._enough_capacity():
            return False
        missing = self.need - self.cover[self.order[i]]
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
        need = self.need
        short = 0
        missing = 0
        for u, c in enumerate(self.cover):
            if c < need:
                short |= 1 << u
                missing += need - c
        for r, pl in enumerate(self.assigned):
            if pl is None:
                missing -= max(
                    ((p.mask & short).bit_count() for p in self.plans[r]), default=0
                )
                if missing <= 0:
                    return True
        return False

    def _assign(self, r: int, pl: Plan, sign: int):
        self.assigned[r] = pl if sign > 0 else None
        self._apply(self.cover, pl.mask, sign)
        self._apply(self.slack, self.reach[r] & ~pl.mask, -sign)

    @staticmethod
    def _apply(counts: list, mask: int, sign: int):
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += sign
            mask ^= low


def check_caps(topology, k: int, caps: Caps):
    if topology.n > caps.max_n or k > caps.max_k:
        raise CapExceeded(
            f"exact search refused: n={topology.n}, k={k} exceeds caps "
            f"(max_n={caps.max_n}, max_k={caps.max_k}); raise the caps to force it"
        )


def search_verdict(topology, positions: Sequence[int], f: int, delta, tables=None) -> Verdict:
    """Run the exact search (positions sorted); YES carries a verified schedule."""
    result = _FixedSearch(topology, positions, f, delta, tables).run()
    if result is None:
        return Verdict(feasible=False, optimum=None)
    spots = _spots(topology)
    tracks = tuple(
        plan.track if plan is not None else RobotTrack(((0, spots[p]),))
        for p, plan in zip(positions, result)
    )
    placement = RobotPlacement(FIXED, positions=positions)
    return witnessed(topology, placement, f, delta, track_schedule(topology, tracks))


def least_feasible(candidates: Sequence, decide) -> Verdict:
    """Optimum as the least candidate delta that ``decide`` accepts.

    Feasibility is monotone in delta, so a binary search finds it; the
    verdict carries the schedule of the accepting decision.
    """
    lo, hi = 0, len(candidates) - 1
    best = decide(candidates[hi])
    if not best.feasible:
        return Verdict(feasible=False, optimum=INFINITY)
    while lo < hi:
        mid = (lo + hi) >> 1
        verdict = decide(candidates[mid])
        if verdict.feasible:
            hi, best = mid, verdict
        else:
            lo = mid + 1
    return Verdict(
        feasible=True,
        optimum=candidates[lo],
        schedule=best.schedule,
        witness=best.witness,
        candidates=tuple(candidates),
    )


def fixed_team(topology, positions: Iterable[int], f: int) -> tuple:
    """``positions`` sorted, once checked: 0 <= f < k and every robot on a node."""
    positions = tuple(sorted(positions))
    if not 0 <= f < len(positions):
        raise ValueError("need 0 <= f < k")
    if any(not 0 <= p < topology.n for p in positions):
        raise ValueError("robot position out of range")
    return positions


def decide_fixed_faulty(
    topology,
    positions: Iterable[int],
    f: int,
    delta: ExactNumber,
    caps: Optional[Caps] = None,
    tables: Optional[dict] = None,
) -> Verdict:
    """Exact decision: can the fixed multiset of robots on a line or ring,
    up to f of which may crash, visit every node by min(deadline, delta)?

    Reliable robots at distinct nodes are decided by the polynomial
    ``solve_fixed`` on the topology with deadlines capped at delta, at
    any size.  Everything else runs the exact search, which never
    guesses: instances beyond ``caps`` (default: ``fixed_search_caps``)
    raise CapExceeded.  The plans come from ``tables`` (``plan_tables``
    grown by a solve) or from tables grown up to delta.  A YES always
    carries a schedule that ``verify_schedule`` accepts.
    """
    positions = fixed_team(topology, positions, f)
    if not is_finite(delta):
        raise ValueError("the decision needs a finite time bound")
    if f == 0 and len(set(positions)) == len(positions):
        reliable = solve_fixed(topology.capped(delta), positions)
        if not reliable.feasible or reliable.optimum > delta:
            return Verdict(feasible=False, optimum=None)
        placement = RobotPlacement(FIXED, positions=positions)
        return witnessed(topology, placement, f, delta, reliable.schedule)
    check_caps(topology, len(positions), caps or fixed_search_caps(topology))
    return search_verdict(topology, positions, f, delta, tables)


def plan_tables(topology, positions: Iterable[int], bound=INFINITY) -> dict:
    """One ``PlanTable`` per distinct start, grown up to ``bound``."""
    return {p: PlanTable(topology, p, bound) for p in set(positions)}


def fixed_faulty_candidates(topology, positions: Iterable[int], tables=None) -> tuple:
    """All times at which the fixed-position decision can change.

    These are the moments some robot's plan gains a node: arc cover costs
    without deadlines, with them the on-time arrival times of the pairs
    its ``PlanTable`` keeps (from ``tables`` when given).  A dropped pair
    adds none: its dominator, never later, matches its whole subtree.
    """
    if any(d is not INFINITY for d in topology.deadlines):
        tables = tables or plan_tables(topology, positions)
        return tuple(sorted({e[0] for p in set(positions) for e in tables[p].entries if e[4]}))
    n = topology.n
    values = {0}
    for p in set(positions):
        cw, ccw = _arm_lengths(topology, p)
        for a in range(len(cw)):
            for b in range(min(len(ccw), n - a)):
                values.add(cw[a] + ccw[b] + min(cw[a], ccw[b]))
    return tuple(sorted(values))


def solve_fixed_faulty(
    topology,
    positions: Iterable[int],
    f: int,
    caps: Optional[Caps] = None,
) -> Verdict:
    """Minimal delta admitting an f-reliable schedule from fixed positions.

    Feasibility is monotone in delta and can only change at a time from
    ``fixed_faulty_candidates``, so a binary search over them with the
    exact decision yields the optimum; the verdict carries the accepting
    decision's verified schedule.  Unless the plans are intervals (a line
    without deadlines), each distinct start's ``PlanTable`` is grown once,
    without a time bound, and the candidates and every probe read it.
    Reliable robots at distinct nodes are solved directly by
    ``solve_fixed``.  Caps as for the decision.
    """
    positions = fixed_team(topology, positions, f)
    if f == 0 and len(set(positions)) == len(positions):
        return solve_fixed(topology, positions, collect_candidates=True)
    caps = caps or fixed_search_caps(topology)
    check_caps(topology, len(positions), caps)
    tables = None if _plain_line(topology) else plan_tables(topology, positions)
    return least_feasible(
        fixed_faulty_candidates(topology, positions, tables),
        lambda delta: decide_fixed_faulty(topology, positions, f, delta, caps, tables),
    )


def solve_subset(topology, allowed: Iterable[int], k: int, f: int) -> Verdict:
    """Robots that start at nodes of ``allowed``: solved for one reliable
    robot on a line or a ring, and refused with InstanceError otherwise."""
    if k != 1 or f != 0:
        raise InstanceError("robots", "subset placement is solved for a single reliable robot only")
    return solve_free_start(topology, allowed)


# --------------------------------------------------------------------------
# resilience
# --------------------------------------------------------------------------


def resilience(spec: ProblemSpec, delta: ExactNumber, caps: Optional[Caps] = None) -> Optional[int]:
    """Largest f < k for which an f-reliable schedule within delta exists.

    Returns None when even f = 0 is impossible.  Any ``faults`` value on
    the spec itself is ignored; the placement and topology route the
    appropriate decision procedure, and subset placements answer as
    ``solve_subset`` does.  The exact fixed-position searches
    run under ``caps`` (default: ``fixed_search_caps`` of the topology).
    """
    if not is_finite(delta):
        raise ValueError("resilience needs a finite time bound")
    if delta < 0:
        return None  # no walk finishes before time 0
    k = spec.k
    top = spec.topology
    placement = spec.placement
    if caps is None:
        caps = fixed_search_caps(top)

    def decide(f: int) -> bool:
        if isinstance(top, StarInstance):
            from .reductions import star_exact

            return star_exact(top, placement, k, f, delta).feasible
        if placement.mode == FIXED:
            return decide_fixed_faulty(top, placement.positions, f, delta, caps).feasible
        if placement.mode == FREE:
            verdict = solve_free_faulty(top, k, f)
        else:
            verdict = solve_subset(top, placement.allowed, k, f)
        return verdict.feasible and verdict.optimum <= delta

    # feasibility is monotone in f: binary-search the largest feasible f
    if not decide(0):
        return None
    lo, hi = 0, k - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if decide(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo
