"""Hardness-reduction instance generators and the star solvers.

The generators emit ordinary instance documents: numerical 3-dimensional
matching maps to the fixed-position faulty line decision, and Partition
maps to two-robot star exploration.  Both directions are validated
empirically against brute-force decisions of the source problems in the
test suites.

Star solving is exact via subset dynamic programming (Held and Karp
1962): after a robot returns to the center, the elapsed time depends
only on the set of leaves toured so far, so minimal completion times are
computed over bitmasks in O(q 2^q) per start.  The tables are built in
whole-list passes: leaf-set weights one leaf at a time, and a leaf
start's table on the sets without its own leaf, the rest copied by
slices.  Two fixed robots share one table of their pairwise worst; the
best tables over the starts of a free or subset pool, with and without
an on-time center visit, give the two-robot optimum in one more O(2^q)
pass over leaf sets (see ``star_exact``).
"""

from __future__ import annotations

from itertools import chain
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
from .oracle import CapExceeded
from .schedule import RobotTrack, Verdict, track_schedule


# --------------------------------------------------------------------------
# numerical 3-dimensional matching -> faulty line decision
# --------------------------------------------------------------------------


def line_from_n3dm(
    a_values: Sequence[int],
    b_values: Sequence[int],
    c_values: Sequence[int],
    target: int,
) -> ProblemSpec:
    """Encode an N3DM instance as a fixed-position faulty line decision.

    The instance asks whether permutations pairing the three multisets
    make every triple sum to ``target``.  The output line has unit-spaced
    nodes 0..L, one robot per input value at scaled offsets, fault budget
    q-1 and time bound I-1; the decision answers match.
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
    line = LineInstance(tuple(range(length + 1)), (INFINITY,) * (length + 1))
    return ProblemSpec(
        topology=line,
        placement=RobotPlacement(FIXED, positions=tuple(robots)),
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


STAR_MAX_Q = 14  # star_exact refuses larger stars: its tables hold 2^q cells


class _StarRobot:
    """Subset DP for one start: the earliest last first-visit of each leaf set.

    ``comp[U]`` is the time at which a robot from ``start`` that tours the
    leaves of U (its own leaf excluded), each on time, reaches the last
    one, or INFINITY.  The last leaf l of U is reached at
    offset + 2 * total[U] - w[l], so the best last leaf is the heaviest
    one that is on time with the rest of U tourable; ``leaves`` lists the
    candidates heaviest first.  The DP runs on the sets without the own
    leaf only, and the sets that hold it are slice copies of those that
    do not, as the own leaf never needs touring.
    """

    __slots__ = ("star", "start", "offset", "own_bit", "comp", "leaves", "twice")

    def __init__(self, star: StarInstance, start: int, twice, heavy_first):
        self.star = star
        self.start = start
        self.twice = twice
        w = star.leaf_weights
        if start == star.center:
            self.offset = offset = 0
            self.own_bit = own = 0
        else:
            self.offset = offset = w[start]
            self.own_bit = own = 1 << start
        # (bit, the largest 2 * total[U] that reaches the leaf on time, weight)
        self.leaves = leaves = [
            (1 << leaf, star.leaf_deadlines[leaf] + w[leaf] - offset, w[leaf])
            for leaf in heavy_first
            if leaf != start
        ]
        # the sets without the own leaf, as slices of the masks: blocks of
        # `own` consecutive masks or strides of 2 * own, whichever are fewer;
        # the subsets of a set lie in its own slice or an earlier one
        size = len(twice)
        step = 2 * own
        if not own:
            parts = [slice(0, size)]
        elif own * own >= size:
            parts = [slice(base, base + own) for base in range(0, size, step)]
        else:
            parts = [slice(j, size, step) for j in range(own)]
        comp: list = [INFINITY] * size
        comp[0] = 0
        masks = range(size)
        for mask in chain.from_iterable(masks[part] for part in parts):
            if comp[mask ^ (mask & -mask)] is INFINITY:
                continue  # a leaf set with an untourable part is untourable
            t2 = twice[mask]
            for bit, room, wl in leaves:
                if mask & bit and t2 <= room and comp[mask ^ bit] is not INFINITY:
                    comp[mask] = offset + t2 - wl
                    break
        if own:  # the own leaf never needs touring
            for part in parts:
                comp[part.start + own:part.stop + own:part.step] = comp[part]
        self.comp = comp

    def track(self, cover: int, touch_center: bool) -> RobotTrack:
        """Waypoints touring ``cover`` in the order behind ``comp[cover]``;
        with ``touch_center`` a leaf start walks to the center even when it
        has nothing to tour."""
        tour = cover & ~self.own_bit
        order: List[int] = []
        while tour:
            t2 = self.twice[tour]
            fits = [
                bit for bit, room, _ in self.leaves
                if tour & bit and t2 <= room and self.comp[tour ^ bit] is not INFINITY
            ]
            # the DP's last leaf, then the lowest-numbered leaf that fits
            bit = min(fits) if order else fits[0]
            order.append(bit.bit_length() - 1)
            tour ^= bit
        order.reverse()
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


def star_exact(
    star: StarInstance,
    placement: RobotPlacement,
    k: int,
    f: int = 0,
    delta: Optional[ExactNumber] = None,
) -> Verdict:
    """Exact star feasibility and optimal completion time for k <= 2 robots.

    One subset DP per start, O(q 2^q), with no reliance on the
    deadline-plus-weight ordering.  B[U] is the fastest tour of the leaf
    set U from a start, and C[U] = max(B[U], offset) the same with the
    center also visited on time, which a leaf start reaches at its
    offset (no C when that is past the center deadline).  Two reliable
    robots need one of them on the center, so the optimum is the least
    max(C[U], B[full - U]) over U.  Two fixed robots a and b share one
    table M[U] = max(B_a[U], B_b[full - U]): "a serves" is worth
    max(offset_a, min M) and "b serves" max(offset_b, min M), and a
    serves on ties, touring the first U with M[U] at most that value,
    while b tours full minus the last such U.  Free and subset robots
    take, per U, the best B and C over the starts of their pool, one
    more O(2^q) pass.  When every robot must visit every node (k = 1 or
    f = 1) the optimum is C[full].  The schedule takes the first U in
    ascending order, and per robot the first start in pool order, that
    attain the optimum.  Stars of more than ``STAR_MAX_Q``
    leaves and teams of more than two robots raise CapExceeded.
    """
    q = star.q
    if q > STAR_MAX_Q:
        raise CapExceeded(f"exact star search refused: q={q} exceeds cap {STAR_MAX_Q}")
    if k > 2:
        raise CapExceeded("exact star search supports one or two robots")
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    capped = star if delta is None else star.capped(delta)
    center_dl = capped.center_deadline
    w = star.leaf_weights
    full = (1 << q) - 1
    twice = [0]  # twice the weight of each leaf set, grown one leaf at a time
    for weight in w:
        two = 2 * weight
        twice += [t + two for t in twice]
    heavy_first = sorted(range(q), key=lambda leaf: -w[leaf])
    robots: dict = {}  # start -> its subset DP, built once

    def robot_at(s: int) -> _StarRobot:
        if s not in robots:
            robots[s] = _StarRobot(capped, s, twice, heavy_first)
        return robots[s]

    def at_center(robot: _StarRobot, t):
        """A tour of ``t`` that also visits the center on time, which a leaf
        start reaches at its offset: max(t, offset), or INFINITY when the
        offset is past the center deadline."""
        off = robot.offset
        if off > center_dl:
            return INFINITY
        return t if t > off else off

    def cell(s: int, cover: int, serves: bool):
        """B[cover] of one start, or C[cover] when the robot ``serves`` the center."""
        robot = robot_at(s)
        t = robot.comp[cover]
        return at_center(robot, t) if serves else t

    def table(pool, serves: bool) -> Optional[list]:
        """Cellwise best over ``pool`` of B, or of C when the robot ``serves``
        the center; None when no start of ``pool`` can."""
        found = []
        for robot in map(robot_at, pool):
            off = robot.offset
            if not serves:
                found.append(robot.comp)
            elif off <= center_dl:
                found.append([t if t > off else off for t in robot.comp])
        if len(found) < 2:
            return found[0] if found else None
        return list(map(min, *found))

    if placement.mode == FIXED:
        pools = [(s,) for s in placement.positions]
    else:
        pools = [tuple(range(q + 1)) if placement.mode == FREE else placement.allowed] * k

    optimum = INFINITY
    roles: list = []  # per robot: (pool, cover, serves the center)
    if f + 1 == k:
        # every robot tours every leaf and visits the center on time
        optimum = max(min(cell(s, full, True) for s in pool) for pool in pools)
        roles = [(pool, full, True) for pool in pools]
    elif placement.mode == FIXED:
        # two reliable fixed robots share M[U] = max(B_a[U], B_b[full - U]);
        # "a serves U" is worth max(offset_a, M[U]), "b serves U" max(offset_b, M[full - U])
        a, b = placement.positions
        robot_a, robot_b = robot_at(a), robot_at(b)
        m = list(map(max, robot_a.comp, reversed(robot_b.comp)))
        least = min(m)
        value_a, value_b = at_center(robot_a, least), at_center(robot_b, least)
        if value_a <= value_b:
            optimum = value_a
            cover = next(u for u in range(full + 1) if m[u] <= optimum)
            roles = [((a,), cover, True), ((b,), full ^ cover, False)]
        else:
            optimum = value_b
            cover = full ^ next(u for u in range(full, -1, -1) if m[u] <= optimum)
            roles = [((b,), cover, True), ((a,), full ^ cover, False)]
    else:
        # two reliable pooled robots: one tours U and visits the center, one the rest
        pool = pools[0]
        c = table(pool, True)
        if c is not None:
            values = list(map(max, c, reversed(table(pool, False))))  # reversed: B[full - U]
            optimum = min(values)
            cover = values.index(optimum)
            roles = [(pool, cover, True), (pool, full ^ cover, False)]
    if optimum is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = []
    for pool, cover, serves in roles:
        # the first start of the pool that attains the role's table cell
        s = min(pool, key=lambda p: cell(p, cover, serves))
        tracks.append((s, robot_at(s).track(cover, serves)))
    tracks.sort(key=lambda start_track: start_track[0])
    return Verdict(
        feasible=True, optimum=optimum, schedule=track_schedule(star, (track for _, track in tracks))
    )
