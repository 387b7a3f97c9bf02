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
a label value (a one-node part's is 0, the label of every start), so
the optimum is the least distinct finite label that fits, found by
binary search: an O(n^2) label pass, O(n^2 log n) to sort the labels,
and O(log n) probes of O(k log n) reads each.  A ring's probe tries the
few nodes where some part of a fitting split must start, node 1 first.
Greedy parts from any node number at most one more than the fewest that
fit, so k + 2 of them from node 1 answer NO without trying the others.
Ring parts run on unrolled positions, position i read at node i mod n,
so a part may wrap past node n-1; covering the ring f+1 times (crash
teams) unrolls f+1 laps, and a part may then be a whole lap.
"""

from __future__ import annotations

from bisect import bisect_right
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

    Returns the optimum and one trajectory per robot; INFINITY/infeasible
    when no deadline-respecting split exists.  The idle edges that
    separate the robots' parts are the edges no track walks.
    """
    positions = tuple(sorted(positions))
    n = topology.n
    if len(set(positions)) != len(positions):
        raise ValueError("fixed positions must be distinct for reliable robots")
    if any(not 0 <= p < n for p in positions):
        raise ValueError("robot position out of range")
    k = len(positions)
    if k == 1:
        return solve_fixed_start(topology, positions[0])
    ring = topology.lap is not None

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

    best = (INFINITY, None)  # optimum, [(robot, first node, last node)]
    for head in heads:
        line_pos = sorted(((p - head) % n, m) for m, p in enumerate(positions))
        starts = [q for q, _ in line_pos]
        robots = [m for _, m in line_pos]
        value, parts = idle_edge_split(starts, n, part_time)
        if value < best[0]:
            best = (value, [(robots[r], (head + i) % n, (head + j) % n) for r, i, j in parts])

    optimum, segments = best
    if segments is None:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = [None] * k
    for robot, i, j in segments:
        labels, first = forests[robot], firsts[robot]
        target = best_target(labels, (i - first) % n, (j - first) % n)
        # a ring track that starts on the second lap goes back one in track_schedule
        tracks[robot] = RobotTrack(extract_trajectory(labels, target))
    return Verdict(feasible=True, optimum=optimum, schedule=track_schedule(topology, tracks))


# --------------------------------------------------------------------------
# free initial positions
# --------------------------------------------------------------------------


def solve_free(topology: Union[LineInstance, RingInstance], k: int, laps: int = 1) -> Verdict:
    """Optimal exploration time and placement for k freely placed robots.

    The optimum is the least candidate, a distinct finite label (0 among
    them), at which greedy parts cover the nodes: from node 0 on a line;
    on a ring from one of the nodes 1 .. e0 + 1, where [0, e0] is the
    longest part from node 0 that fits, since the next part starts
    there.  A ring probe whose greedy parts from node 1 number k + 2 or
    more answers NO at once: from any node they number at most one more
    than the fewest that fit.  An O(n^2) label pass, O(n^2 log n) to sort
    the labels, and O(log n) probes of O(k log n) reads each on a line.
    The schedule is the greedy split at the optimum; robots left over
    idle at its first node.

    On a ring the parts cover ``laps`` * n unrolled positions, position i
    for node i mod n: the ring of ``laps`` copies glued end to end, read
    off one copy's labels.  A part spans at most one lap (one robot
    counts once for a node), less than a lap when ``laps`` is 1; starts
    s and s + n give the same parts, so e0 + 1 <= n.
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
    widest = n - 2 if ring and laps == 1 else n - 1
    span = laps * n
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

    def split(i: int, delta, parts: int = k):
        """Last positions of the greedy parts of i .. i + laps * n - 1 within
        delta, or None if ``parts`` parts do not cover them."""
        ends = []
        end = i + span - 1
        while i <= end:
            if len(ends) == parts:
                return None
            i = reach(i, end, delta) + 1
            ends.append(i - 1)
        return ends

    def head(delta):
        if not ring:
            return 0 if split(0, delta) is not None else None
        # greedy parts from any node number at most one more than the
        # fewest that fit, so k + 2 of them from node 1 mean none fit
        ends = split(1, delta, k + 1)
        if ends is None:
            return None
        if len(ends) <= k:
            return 1
        for s in range(2, reach(0, span - 1, delta) + 2):
            if split(s, delta) is not None:
                return s
        return None

    # every start is zeroed, so 0 is a label
    values = sorted(set(labels.time) - {inf})
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
