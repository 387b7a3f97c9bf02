"""Optimal exploration of lines and rings by a team of reliable robots.

Both placements read a part's time off label passes through one stretch
reader (``single_robot.stretch_reader``): the cheaper end of the stretch,
ties to L.

Fixed placements: one windowed label pass per robot (each robot kept to
the open window between its neighbours), then a prefix recurrence
(``idle_edge_split``) that picks the idle edge separating consecutive
robots' parts.  A line is cut at its own ends; a ring is cut at each
edge between its closest adjacent pair of robots in turn, and the same
recurrence runs on the line that remains.  One robot is the
single-robot pass (``single_robot.solve_from``), pruned on a line.

Free placements: the robots split the nodes into at most k consecutive
parts, and a part's time, read off one label pass from every start,
never falls as the part grows.  A bound therefore fits exactly when
greedy parts cover the nodes, each the longest from the first uncovered
node whose time fits, found by binary search (chains-on-chains
partitioning: Nicol 1994; Pinar and Aykanat 2004).  A line's optimum is
Nicol's recursion over the first part, O(k^2 log^2 n) reads; a ring's
is a binary search over the candidate values, each probe starting the
greedy parts at the few nodes where some part of a fitting split must
start.  Ring parts run on the doubled node order i .. i+n-2, so a part
may wrap past node n-1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import Iterable, List, Sequence, Union

from .exact import INFINITY
from .instance import LineInstance, RingInstance
from .schedule import RobotTrack, Verdict, track_schedule
from .single_robot import (
    TimeLabels,
    best_target,
    extract_trajectory,
    init_start,
    propagate,
    solve_fixed_start,
    solve_from,
    stretch_reader,
)
from .state_graph import StateGraph


# --------------------------------------------------------------------------
# fixed initial positions
# --------------------------------------------------------------------------


def idle_edge_split(starts: Sequence[int], n: int, part_time) -> tuple:
    """Best division of nodes 0..n-1 into consecutive parts, one per robot.

    Robot r starts at node starts[r] (sorted, distinct) and explores the
    part [m, j] holding its start in part_time(r, m, j); the edge before
    each later part stays idle.  A prefix recurrence over the right end
    of the last part gives (optimum, [(r, m, j), ...] from left to
    right), or (INFINITY, None) when no division meets the deadlines.
    """
    prefix: list = [INFINITY] * n
    choice: list = [None] * n
    for j in range(n):
        r = bisect_right(starts, j)
        if r == 0:
            continue
        best = INFINITY
        best_m = None
        for m in range(starts[r - 2] + 1 if r >= 2 else 0, starts[r - 1] + 1):
            left = 0 if m == 0 else prefix[m - 1]
            if left is INFINITY:
                continue
            right = part_time(r - 1, m, j)
            # identity tests keep INFINITY's Python-level comparisons out
            if right is INFINITY:
                continue
            cand = left if left >= right else right
            if best is INFINITY or cand < best:
                best = cand
                best_m = m
        prefix[j] = best
        choice[j] = best_m
    if prefix[n - 1] is INFINITY:
        return INFINITY, None
    parts = []
    j = n - 1
    while j >= 0:
        m = choice[j]
        parts.append((bisect_right(starts, j) - 1, m, j))
        j = m - 1
    parts.reverse()
    return prefix[n - 1], parts


def solve_fixed(topology: Union[LineInstance, RingInstance], positions: Iterable[int]) -> Verdict:
    """Optimal exploration of a line or ring by robots at given distinct nodes.

    Returns the optimum, the chosen idle edges, and one trajectory per
    robot; INFINITY/infeasible when no deadline-respecting split exists.
    """
    positions = tuple(sorted(positions))
    n = topology.n
    if len(set(positions)) != len(positions):
        raise ValueError("fixed positions must be distinct for reliable robots")
    if any(not 0 <= p < n for p in positions):
        raise ValueError("robot position out of range")
    k = len(positions)
    ring = isinstance(topology, RingInstance)
    if k == 1:
        if ring:
            return solve_from(topology, positions)
        verdict = solve_fixed_start(topology, positions[0])
        return replace(verdict, idle_edges=()) if verdict.feasible else verdict

    graph = StateGraph.of(topology)
    forests: List[TimeLabels] = []
    reads = []
    for m, p in enumerate(positions):
        lo = positions[m - 1] if ring or m > 0 else -1
        hi = positions[(m + 1) % k] if ring or m < k - 1 else n
        labels = propagate(graph, init_start(graph, [p]), topology.deadlines, window=(lo, hi))
        forests.append(labels)
        reads.append(stretch_reader(labels))

    if ring:
        # some edge between the closest adjacent pair (fewest edges) is idle,
        # so each is cut in turn; the line left runs ccw from head = cut + 1
        gap, pick = min(((positions[(m + 1) % k] - positions[m]) % n, m) for m in range(k))
        heads = [(positions[pick] + t + 1) % n for t in range(gap)]
    else:
        heads = [0]

    def part_time(r: int, i: int, j: int):
        # line nodes i..j of the current cut, explored by its r-th robot
        return reads[robots[r]]((head + i) % n, j - i)

    best = (INFINITY, None, None)  # optimum, head, [(robot, first node, last node)]
    for head in heads:
        line_pos = sorted(((p - head) % n, m) for m, p in enumerate(positions))
        starts = [q for q, _ in line_pos]
        robots = [m for _, m in line_pos]
        value, parts = idle_edge_split(starts, n, part_time)
        if value < best[0]:
            best = (value, head, [(robots[r], (head + i) % n, (head + j) % n) for r, i, j in parts])

    optimum, head, segments = best
    if segments is None:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = [None] * k
    idle = [((head - 1) % n, head)] if ring else []
    for robot, i, j in segments:
        labels = forests[robot]
        tracks[robot] = RobotTrack(extract_trajectory(labels, best_target(labels, i, j)))
        if i != head:
            idle.append(((i - 1) % n, i))
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=track_schedule(topology, tracks),
        idle_edges=tuple(sorted(idle)),
    )


# --------------------------------------------------------------------------
# free initial positions
# --------------------------------------------------------------------------


def solve_free(topology: Union[LineInstance, RingInstance], k: int) -> Verdict:
    """Optimal exploration time and placement for k freely placed robots.

    A line's optimum is Nicol's recursion over the first part.  A ring's
    is the least candidate value at which greedy parts from one of the
    nodes 1 .. e0 + 1 cover the ring, where [0, e0] is the longest part
    from node 0 that fits: the part after the one holding node 0 starts
    there.  The schedule is the greedy split at the optimum; robots left
    over idle at its first node.
    """
    if k < 1:
        raise ValueError("need at least one robot")
    n = topology.n
    if k == 1:
        return solve_from(topology, range(n))
    ring = isinstance(topology, RingInstance)
    graph = StateGraph.of(topology)
    labels = propagate(graph, init_start(graph, range(n)), topology.deadlines)
    read = stretch_reader(labels)
    widest = n - 2 if ring else n - 1  # one ring part never closes the ring
    inf = INFINITY

    def reach(i: int, end: int, delta) -> int:
        """Last node of the longest part from i, up to end, whose time fits delta."""
        lo, hi = i, min(end, i + widest)
        start = i % n
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            t = read(start, mid - i)
            if t is not inf and t <= delta:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def split(i: int, end: int, r: int, delta):
        """Last nodes of the greedy parts of i .. end within delta, or None
        if r parts do not cover them."""
        ends = []
        while i <= end:
            if len(ends) == r:
                return None
            i = reach(i, end, delta) + 1
            ends.append(i - 1)
        return ends

    if ring:
        values = sorted({0, *labels.finite_values()})

        def head(delta):
            for s in range(1, reach(0, n - 1, delta) + 2):
                if split(s, s + n - 1, k, delta) is not None:
                    return s
            return None

        lo, hi = 0, len(values) - 1
        first = head(values[hi])  # always head(values[hi]) below
        while first is not None and lo < hi:
            mid = (lo + hi) >> 1
            s = head(values[mid])
            if s is None:
                lo = mid + 1
            else:
                hi, first = mid, s
        optimum = inf if first is None else values[hi]
    else:

        def best(i: int, r: int):
            """Nicol: the least j whose part [i, j] leaves a rest that r - 1
            robots cover within its time; the optimum is that time, or the
            rest's own optimum from j when the first part ends before j."""
            if n - i <= r:
                return 0
            if r == 1:
                return read(i, n - 1 - i)
            lo, hi = i, n - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                t = read(i, mid - i)
                if t is inf or split(mid + 1, n - 1, r - 1, t) is not None:
                    hi = mid
                else:
                    lo = mid + 1
            t = read(i, lo - i)
            rest = best(lo, r - 1)
            return rest if t is inf or rest is not inf and rest < t else t

        optimum, first = best(0, k), 0
    if optimum is inf:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = []
    i = first
    for j in split(first, first + n - 1, k, optimum):
        tracks.append(RobotTrack(extract_trajectory(labels, best_target(labels, i % n, j % n))))
        i = j + 1
    idle = RobotTrack(extract_trajectory(labels, first % n))
    tracks += [idle] * (k - len(tracks))
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=track_schedule(topology, tracks),
    )
