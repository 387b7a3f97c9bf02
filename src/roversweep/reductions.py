"""Hardness-reduction instance generators and the star solvers.

The generators emit ordinary instance documents: numerical 3-dimensional
matching maps to the fixed-position faulty line decision, and Partition
maps to two-robot star exploration.  Both directions are validated
empirically against brute-force decisions of the source problems in the
test suites.

Star solving is exact via subset dynamic programming: after a robot
returns to the center, the elapsed time depends only on the set of
leaves toured so far, so feasible prefixes and minimal completion times
are computed over bitmasks in O(2^q * q) per robot.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from .exact import ExactNumber, INFINITY
from .instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RobotPlacement,
    StarInstance,
)
from .oracle import CapExceeded, witnessed
from .schedule import RobotTrack, Schedule, Verdict


# --------------------------------------------------------------------------
# numerical 3-dimensional matching -> faulty line decision
# --------------------------------------------------------------------------


def line_from_n3dm(
    a_values: Sequence[int],
    b_values: Sequence[int],
    c_values: Sequence[int],
    target: int,
    sparse: bool = False,
) -> ProblemSpec:
    """Encode an N3DM instance as a fixed-position faulty line decision.

    The instance asks whether permutations pairing the three multisets
    make every triple sum to ``target``.  The output line has unit-spaced
    nodes 0..L, one robot per input value at scaled offsets, fault budget
    q-1 and time bound I-1; the decision answers match.

    With ``sparse`` only the robot nodes and the endpoints are kept.
    That shrinks the document but is NOT answer-preserving in general:
    coverage multiplicity may develop holes strictly between surviving
    nodes, so sparse output is for size experiments only.
    """
    q = len(a_values)
    if not (q >= 1 and len(b_values) == q and len(c_values) == q):
        raise ValueError("the three multisets must have equal positive length")
    for group in (a_values, b_values, c_values):
        if any(not isinstance(v, int) or v <= 0 for v in group):
            raise ValueError("all matching values must be positive integers")
    if not isinstance(target, int) or target <= 0:
        raise ValueError("the target sum must be a positive integer")
    if sum(a_values) + sum(b_values) + sum(c_values) != q * target:
        # the matching problem requires the totals to add up to q*target;
        # without it triples summing below target would still cover the line
        raise ValueError("values must satisfy sum(A)+sum(B)+sum(C) == q * target")

    a, b, c = max(a_values), max(b_values), max(c_values)
    big = 4 * target + 6 * a + 6 * b + 12 * c
    length = 3 * big - 4 * target - 1
    robots = sorted(
        [v for v in a_values]
        + [big + 2 * v for v in b_values]
        + [2 * big + 4 * v for v in c_values]
    )
    if sparse:
        keep = sorted({0, length, *robots})
        coords = tuple(keep)
        positions = tuple(keep.index(p) for p in robots)
    else:
        coords = tuple(range(length + 1))
        positions = tuple(robots)
    line = LineInstance(coords, (INFINITY,) * len(coords))
    return ProblemSpec(
        topology=line,
        placement=RobotPlacement(FIXED, positions=positions),
        faults=q - 1,
        bound=big - 1,
    )


# --------------------------------------------------------------------------
# Partition -> two-robot star exploration
# --------------------------------------------------------------------------


def star_from_partition(values: Sequence[int]) -> ProblemSpec:
    """Encode a Partition instance as two-robot star exploration.

    Four heavy leaves force the two robots to spend their slack on
    disjoint sets of value leaves; meeting the uniform deadline is
    possible exactly when the values split into two equal halves.
    """
    if not values:
        raise ValueError("need at least one value")
    if any(not isinstance(v, int) or v <= 0 for v in values):
        raise ValueError("all partition values must be positive integers")
    total = sum(values)
    if total % 2 != 0:
        raise ValueError("the value sum must be even")
    sigma = total // 2
    q = len(values)
    leaf_weights = tuple(values) + (4 * sigma,) * 4
    deadline = 10 * sigma
    star = StarInstance(
        leaf_weights=leaf_weights,
        leaf_deadlines=(deadline,) * (q + 4),
        center_deadline=deadline,
    )
    return ProblemSpec(
        topology=star,
        placement=RobotPlacement(FIXED, positions=(q, q + 1)),
        faults=0,
        bound=None,
    )


# --------------------------------------------------------------------------
# star solvers
# --------------------------------------------------------------------------


def star_single_robot(star: StarInstance) -> Verdict:
    """Feasibility check for one robot starting at the center.

    Visits leaves in nondecreasing deadline-plus-weight order (smaller
    index first on ties).  Either this order meets every leaf deadline or
    no order does; the claim is validated empirically against the
    permutation oracle in the test suites.
    """
    q = star.q
    order = sorted(range(q), key=lambda i: (star.leaf_deadlines[i] + star.leaf_weights[i], i))
    t = 0
    waypoints: List[tuple] = [(0, star.center)]
    for idx, leaf in enumerate(order):
        arrive = t + star.leaf_weights[leaf]
        if arrive > star.leaf_deadlines[leaf]:
            return Verdict(feasible=False, optimum=INFINITY)
        waypoints.append((arrive, leaf))
        if idx < q - 1:
            t = arrive + star.leaf_weights[leaf]
            waypoints.append((t, star.center))
        else:
            t = arrive
    schedule = Schedule(kind="star", tracks=(RobotTrack(tuple(waypoints)),))
    return Verdict(feasible=True, optimum=t, schedule=schedule)


class _StarRobot:
    """Subset DP for one robot: which leaf sets it can first-visit on time."""

    __slots__ = ("star", "start", "offset", "own_bit", "reach", "comp", "deadlines", "_total")

    def __init__(self, star: StarInstance, start: int, deadlines):
        self.star = star
        self.start = start
        self.deadlines = deadlines
        q = star.q
        if start == star.center:
            self.offset = 0
            self.own_bit = 0
        else:
            self.offset = star.leaf_weights[start]
            self.own_bit = 1 << start
        w = star.leaf_weights
        total = [0] * (1 << q)
        for mask in range(1, 1 << q):
            low = mask & -mask
            total[mask] = total[mask ^ low] + w[low.bit_length() - 1]
        # reach[U]: U tourable as a prefix; comp[U]: earliest last arrival
        reach = [False] * (1 << q)
        comp: list = [INFINITY] * (1 << q)
        reach[0] = True
        comp[0] = 0
        for mask in range(1, 1 << q):
            if mask & self.own_bit:
                continue  # own leaf never needs touring
            m = mask
            ok = False
            best = INFINITY
            while m:
                low = m & -m
                leaf = low.bit_length() - 1
                rest = mask ^ low
                if reach[rest]:
                    arrive = self.offset + 2 * total[rest] + w[leaf]
                    if arrive <= deadlines[leaf]:
                        ok = True
                        if arrive < best:
                            best = arrive
                m ^= low
            reach[mask] = ok
            comp[mask] = best
        self.reach = reach
        self.comp = comp
        self._total = total

    def tour_mask(self, cover: int) -> int:
        return cover & ~self.own_bit

    def completion(self, cover: int) -> ExactNumber:
        """Min time of the last needed first-visit (INFINITY if impossible)."""
        return self.comp[self.tour_mask(cover)]

    def tour_order(self, cover: int) -> list:
        """A deadline-respecting visiting order achieving completion(cover)."""
        tour = self.tour_mask(cover)
        order: List[int] = []
        w = self.star.leaf_weights
        while tour:
            target = self.comp[tour] if not order else None
            m = tour
            picked = None
            for_last = not order
            while m:
                low = m & -m
                leaf = low.bit_length() - 1
                rest = tour ^ low
                if self.reach[rest]:
                    arrive = self.offset + 2 * self._total[rest] + w[leaf]
                    if arrive <= self.deadlines[leaf]:
                        if for_last:
                            if arrive == target:
                                picked = leaf if picked is None else picked
                        else:
                            picked = leaf if picked is None or leaf < picked else picked
                m ^= low
            order.append(picked)
            tour ^= 1 << picked
        order.reverse()
        return order

    def track(self, cover: int, touch_center: bool) -> RobotTrack:
        order = self.tour_order(cover)
        star = self.star
        w = star.leaf_weights
        waypoints: List[tuple] = [(0, self.start)]
        t = 0
        if self.start != star.center and (order or touch_center):
            t = self.offset
            waypoints.append((t, star.center))
        for idx, leaf in enumerate(order):
            t += w[leaf]
            waypoints.append((t, leaf))
            if idx < len(order) - 1:
                t += w[leaf]
                waypoints.append((t, star.center))
        return RobotTrack(tuple(waypoints))


def _star_starts(star: StarInstance, placement: RobotPlacement, k: int):
    nodes = tuple(range(star.q + 1))
    if placement.mode == FIXED:
        yield placement.positions
        return
    pool = nodes if placement.mode == FREE else placement.allowed
    yield from itertools.combinations_with_replacement(pool, k)


def star_exact(
    star: StarInstance,
    placement: RobotPlacement,
    k: int,
    f: int = 0,
    delta: Optional[ExactNumber] = None,
    max_q: int = 14,
) -> Verdict:
    """Exact star feasibility and optimal completion time for k <= 2 robots.

    Exhaustive over leaf-set assignments, with each robot's touring
    handled by the subset DP (no reliance on the deadline-plus-weight
    ordering heuristic).  Refuses instances beyond the size caps.
    """
    q = star.q
    if q > max_q:
        raise CapExceeded(f"exact star search refused: q={q} exceeds cap {max_q}")
    if k > 2:
        raise CapExceeded("exact star search supports one or two robots")
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    need = f + 1
    capped = star if delta is None else star.capped(delta)
    leaf_dl = capped.leaf_deadlines
    center_dl = capped.center_deadline
    full = (1 << q) - 1

    best: List = [INFINITY, None]  # makespan, (starts, covers, touches)
    made: dict = {}  # start node -> its robot's subset DP, built once

    def robot_at(s: int) -> _StarRobot:
        if s not in made:
            made[s] = _StarRobot(capped, s, leaf_dl)
        return made[s]

    def center_cover_plan(robots, covers):
        """Distinct on-time center visits; returns (extra walk, touch flags)
        or None when fewer than `need` robots can reach the center in time."""
        hits = 0
        optional = []
        for idx, robot in enumerate(robots):
            if robot.start == star.center:
                hits += 1
            elif robot.tour_mask(covers[idx]):
                if robot.offset <= center_dl:
                    hits += 1
            elif robot.offset <= center_dl:
                optional.append((robot.offset, idx))
        touches = [False] * len(robots)
        optional.sort()
        extra_walk = 0
        for off, idx in optional:
            if hits >= need:
                break
            hits += 1
            touches[idx] = True
            if off > extra_walk:
                extra_walk = off
        if hits < need:
            return None
        return extra_walk, touches

    for starts in _star_starts(star, placement, k):
        robots = [robot_at(s) for s in starts]
        if need == 2 or k == 1:
            assignments = [[full] * k]
        else:
            assignments = ([m, full & ~m] for m in range(full + 1))
        for cover_list in assignments:
            ok = True
            makespan = 0
            for idx, robot in enumerate(robots):
                comp = robot.completion(cover_list[idx])
                if comp is INFINITY:
                    ok = False
                    break
                if comp > makespan:
                    makespan = comp
            if not ok or makespan >= best[0]:
                continue
            plan = center_cover_plan(robots, cover_list)
            if plan is None:
                continue
            extra, touches = plan
            total = makespan if makespan >= extra else extra
            if total < best[0]:
                best[0] = total
                best[1] = (starts, tuple(cover_list), tuple(touches))

    if best[1] is None:
        return Verdict(feasible=False, optimum=INFINITY)
    starts, covers, touches = best[1]
    robots = [robot_at(s) for s in starts]
    tracks = tuple(
        robot.track(covers[idx], touches[idx]) for idx, robot in enumerate(robots)
    )
    schedule = Schedule(kind="star", tracks=tracks)
    return witnessed(star, k, f, delta, schedule, optimum=best[0])
