"""Optimal exploration of lines and rings by a team of reliable robots.

Both placements read a part's time off label passes through one stretch
reader (``single_robot.stretch_reader``): the cheaper end of the stretch,
ties to L.

Fixed placements: one label pass per robot on a line of its own, the w
nodes strictly between its neighbours (on a ring, the counterclockwise
arc between them, unrolled into increasing arc positions), so a robot's
labels take O(w^2) room; then a prefix recurrence (``idle_edge_split``)
that picks the idle edge separating consecutive robots' parts.  For a
part ending at j, the best split point sits where the optimum of the
nodes before it, which never falls as the split point moves right,
crosses the part's time, which never rises as the part shrinks and never
falls as j grows; so a crossing pointer that only moves right finds it
in O(1) amortized reads, ties going to the smallest split point.  A
line is cut at its own ends; a ring is cut at each edge between its
closest adjacent pair of robots in turn, and the same recurrence runs on
the line that remains.

One robot, fixed or free, is ``single_robot.solve_free_start``: one
label pass from its start or from every node, on a line after the
nodes every walk passes on its way to a node due no later are dropped.

Free placements: the robots split the nodes into at most k consecutive
parts, and a part's time, read off one label pass from every start,
never falls as the part grows.  A bound therefore fits exactly when
greedy parts cover the nodes, each the longest from the first uncovered
node whose time fits, found by binary search (chains-on-chains
partitioning: Nicol 1994; Pinar and Aykanat 2004).  Every part time is
a label value or 0, so the optimum is the least of these candidates
that fits, found by binary search: an O(n^2) label pass, O(n^2 log n)
to sort the labels, and O(log n) probes of O(k log n) reads each.  A
ring's probe tries the few nodes where some part of a fitting split
must start.  Ring parts run on the doubled node order i .. i+n-2, so a
part may wrap past node n-1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Union

from .exact import INFINITY
from .instance import LineInstance, RingInstance, unrolled
from .schedule import RobotTrack, Verdict, track_schedule
from .single_robot import (
    TimeLabels,
    best_target,
    extract_trajectory,
    init_start,
    propagate,
    solve_fixed_start,
    solve_free_start,
    solve_from,
    stretch_reader,
)
from .state_graph import StateGraph


def least_feasible(candidates: Sequence, probe) -> Optional[tuple]:
    """(delta, answer): the least candidate delta that the decision
    ``probe`` accepts, and its answer there; None when it accepts none.

    ``probe`` answers None for NO and, once it accepts a candidate,
    accepts every later one, so a binary search finds the least: the last
    candidate first, then the lower middle of the range left.
    ``solve_free``, ``fault_line.solve_fixed_faulty`` and
    ``fault_line.resilience`` all search with it.
    """
    lo, hi = 0, len(candidates) - 1
    best = probe(candidates[hi])
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) >> 1
        answer = probe(candidates[mid])
        if answer is not None:
            hi, best = mid, answer
        else:
            lo = mid + 1
    return candidates[lo], best


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

    With robot r's part ending at j, a split point m costs
    max(prefix[m-1], part_time(r, m, j)).  The left side never falls as
    m grows; the right side never rises as m grows, since a smaller part
    never takes longer, and never falls as j grows.  So the least cost
    sits at the crossing c, the first m whose left side reaches its
    right side: it is left(c) or right(c-1), and c only moves right as j
    grows, O(1) amortized reads per j.  Ties go to the smallest m, so a
    winning right(c-1) also walks back over its run of equal right sides.
    """
    prefix: list = [INFINITY] * n
    choice: list = [None] * n
    inf = INFINITY
    # identity tests skip the comparisons with unreachable parts
    for r, s in enumerate(starts):
        first = starts[r - 1] + 1 if r else 0
        c = first
        for j in range(s, starts[r + 1] if r + 1 < len(starts) else n):
            below = None  # right(c - 1), once read at this j
            while c <= s:
                top = prefix[c - 1] if c else 0  # left(c)
                if top is inf:
                    break
                right = part_time(r, c, j)
                if right is not inf and top >= right:
                    break
                below = right
                c += 1
            else:
                top = inf
            if below is None and c > first:
                below = part_time(r, c - 1, j)
            if below is None or below is inf or top is not inf and top < below:
                if top is not inf:
                    prefix[j], choice[j] = top, c
                continue
            m = c - 1
            while m > first:
                right = part_time(r, m - 1, j)
                if right is inf or right != below:
                    break
                below = right
                m -= 1
            prefix[j], choice[j] = below, m
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
    ring = topology.lap is not None
    if k == 1:
        if ring:
            return solve_from(topology, positions)
        verdict = solve_fixed_start(topology, positions[0])
        return replace(verdict, idle_edges=()) if verdict.feasible else verdict

    # two laps of a ring's positions: an arc past node n - 1 stays increasing
    x = unrolled(topology.positions, topology.lap, 2)
    deadlines = topology.deadlines * (len(x) // n)
    firsts: List[int] = []
    forests: List[TimeLabels] = []
    reads = []
    for m, p in enumerate(positions):
        lo = positions[m - 1] if ring or m > 0 else -1
        hi = positions[(m + 1) % k] if ring or m < k - 1 else n
        # the robot's own line: the nodes strictly between its neighbours,
        # counterclockwise on a ring
        first, size = (lo + 1) % n, (hi - lo - 1) % n
        own = LineInstance(x[first:first + size], deadlines[first:first + size])
        graph = StateGraph.from_line(own)
        labels = propagate(graph, init_start(graph, [(p - first) % n]), own.deadlines)
        firsts.append(first)
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
        m = robots[r]
        return reads[m]((head + i - firsts[m]) % n, j - i)

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
        labels, first = forests[robot], firsts[robot]
        target = best_target(labels, (i - first) % n, (j - first) % n)
        # a ring track that starts on the second lap goes back one in track_schedule
        tracks[robot] = RobotTrack(extract_trajectory(labels, target))
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

    The optimum is the least candidate, 0 or a finite label, at which
    greedy parts cover the nodes: from node 0 on a line; on a ring from
    one of the nodes 1 .. e0 + 1, where [0, e0] is the longest part from
    node 0 that fits, since the next part starts there.  An O(n^2) label
    pass, O(n^2 log n) to sort the labels, and O(log n) probes of
    O(k log n) reads each on a line.  The schedule is the greedy split
    at the optimum; robots left over idle at its first node.
    """
    if k < 1:
        raise ValueError("need at least one robot")
    n = topology.n
    if k == 1:
        return solve_free_start(topology)
    ring = topology.lap is not None
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

    def split(i: int, delta):
        """Last nodes of the greedy parts of i .. i + n - 1 within delta, or
        None if k parts do not cover them."""
        ends = []
        end = i + n - 1
        while i <= end:
            if len(ends) == k:
                return None
            i = reach(i, end, delta) + 1
            ends.append(i - 1)
        return ends

    def head(delta):
        for s in range(1, reach(0, n - 1, delta) + 2) if ring else (0,):
            if split(s, delta) is not None:
                return s
        return None

    values = sorted({0, *labels.finite_values()})
    optimum, first = least_feasible(values, head) or (inf, None)
    if optimum is inf:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = []
    i = first
    for j in split(first, optimum):
        tracks.append(RobotTrack(extract_trajectory(labels, best_target(labels, i % n, j % n))))
        i = j + 1
    idle = RobotTrack(extract_trajectory(labels, first % n))
    tracks += [idle] * (k - len(tracks))
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=track_schedule(topology, tracks),
    )
