"""Single-robot exploration of lines and rings by label propagation.

One pass over the layers of the state graph computes, for every explored
stretch and robot end, the fastest deadline-respecting way to reach that
state from any permitted starting node.  It is a pull recurrence: the
label of stretch [i, j] with the robot at i is the better of [i+1, j]
with the robot at either end plus the walk to i, and likewise at j:
the O(n^2) line-with-deadlines dynamic program of Tsitsiklis (Networks,
1992) and Psaraftis et al. (1990).  A ring is the same pass with the
stretches read counterclockwise and one full-coverage state per final
robot position.  Labels that would arrive after the newly visited node's
deadline stay at INFINITY.  The recorded parent links form a forest from
which optimal trajectories are read back.

Ties go to the predecessor with the robot at the left end, the one
with the smaller id, which makes extracted trajectories deterministic.
One robot exploring a whole line or ring (``solve_from``) ends in the
cheapest full-coverage state, again the smaller id on ties.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Optional, Sequence

from .exact import ExactNumber, INFINITY, is_finite
from .instance import LineInstance, prune_dominated
from .schedule import RobotTrack, Verdict, track_schedule
from .state_graph import LEFT, RIGHT, StateGraph


class TimeLabels:
    """Per-state earliest feasible times plus parent links (a forest)."""

    __slots__ = ("graph", "time", "parent")

    def __init__(self, graph: StateGraph):
        self.graph = graph
        self.time = [INFINITY] * graph.node_count
        self.parent = array("q", [-1]) * graph.node_count

    def finite_values(self) -> list:
        return [t for t in self.time if t is not INFINITY]


def init_start(graph: StateGraph, starts: Iterable[int]) -> TimeLabels:
    """Zero the counters of the permitted starting states (layer 0)."""
    starts = sorted(set(starts))
    if not starts:
        raise ValueError("at least one starting node is required")
    labels = TimeLabels(graph)
    for s in starts:
        if not 0 <= s < graph.n:
            raise ValueError(f"start {s} outside node range 0..{graph.n - 1}")
        labels.time[s] = 0
    return labels


def propagate(
    graph: StateGraph,
    labels: TimeLabels,
    deadlines: Sequence[ExactNumber],
    window: Optional[tuple] = None,
) -> TimeLabels:
    """Set every state's label from its two predecessors, layer by layer.

    A state's label is the smaller of its predecessors' labels plus the
    arc weights, kept only if it is at or before the deadline of the node
    first visited on arrival (a visit exactly at the deadline is on
    time); a tie goes to the predecessor with the smaller id, the one at
    the left end.  This is the first-found parent of relaxing every arc
    once in id order, clockwise before counterclockwise.  ``deadlines``
    is indexed by instance node.  ``window`` optionally restricts the
    walks to states strictly inside the open node interval (lo, hi) --
    on rings the interval is read counterclockwise; the states one step
    outside it are labelled too.  ``labels`` comes from ``init_start``.

    Only live ranges are pulled: each layer visits just the states that a
    finite label of the layer before can reach, and the pass stops at the
    first layer with no finite label (``StateGraph.pulls``).  The states
    skipped keep INFINITY and no parent, as a full pass would leave them.
    """
    time = labels.time
    parent = labels.parent
    inf = INFINITY
    # compared only, never added: a float infinity is exact against ints and Fractions
    dls = [math.inf if d is inf else d for d in deadlines]
    for batch in graph.pulls(time, dls, window):
        for v, a, b, wa, wb, dl in zip(*batch):
            ta = time[a]
            tb = time[b]
            if ta is inf:
                if tb is inf:
                    continue
                t, a = tb + wb, b
            else:
                t = ta + wa
                if tb is not inf:
                    t2 = tb + wb
                    if t2 < t:
                        t, a = t2, b
            if t <= dl:
                time[v] = t
                parent[v] = a
    return labels


def stretch_reader(labels: TimeLabels):
    """``read(i, d)``: the fastest exploration of the d + 1 nodes i .. i + d
    (counterclockwise on a ring, where d <= n - 2), read off the label
    layers: the cheaper of the robot's two ends, L on ties, INFINITY when
    neither is reachable.  INFINITY is tested by identity, so no
    comparison falls back to its Python-level dunders."""
    time = labels.time
    first = labels.graph.layer_offsets
    inf = INFINITY

    def read(i: int, d: int) -> ExactNumber:
        if d == 0:
            return time[i]
        u = first[d] + 2 * i
        tl = time[u]
        tr = time[u + 1]
        return tl if tr is inf or tl is not inf and tl <= tr else tr

    return read


def best_target(labels: TimeLabels, i: int, j: int) -> Optional[int]:
    """Cheaper of the two writings of stretch [i, j]; None if unreachable."""
    graph = labels.graph
    uid_l = graph.id_of(i, j, LEFT)
    uid_r = graph.id_of(i, j, RIGHT)
    if uid_l == uid_r:
        return uid_l if is_finite(labels.time[uid_l]) else None
    tl, tr = labels.time[uid_l], labels.time[uid_r]
    if tl is INFINITY and tr is INFINITY:
        return None
    return uid_l if tl <= tr else uid_r


def interval_table(line: LineInstance, allowed_starts: Iterable[int]) -> TimeLabels:
    """Times to explore every sub-interval from the best start inside it.

    A single pass with all permitted starts zeroed yields, at each state
    [i, j], the optimum over starting nodes within [i, j] that are
    allowed.  Stretches containing no allowed start stay at INFINITY;
    read a stretch with ``stretch_reader``.
    """
    graph = StateGraph.from_line(line)
    return propagate(graph, init_start(graph, allowed_starts), line.deadlines)


def extract_trajectory(labels: TimeLabels, target: int) -> tuple:
    """Timed waypoints of the optimal trajectory reaching ``target``.

    Walks the parent links back to a source and emits (time, coordinate)
    at the start and at every turning point; the final waypoint time is
    the target's label.  Raises if the target was never reached.
    """
    graph = labels.graph
    if labels.time[target] is INFINITY:
        raise ValueError("target state is unreachable within the deadlines")
    chain = []
    uid = target
    while uid >= 0:
        chain.append(uid)
        uid = labels.parent[uid]
    chain.reverse()

    waypoints = [(labels.time[chain[0]], graph.position(chain[0]))]
    prev_dir = 0
    for prev, cur in zip(chain, chain[1:]):
        # recover the arc taken (two parallel arcs may join a ring pair)
        step = labels.time[cur] - labels.time[prev]
        direction = None
        for v, w, d in graph.arcs_from(prev):
            if v == cur and w == step:
                direction = d
                break
        if direction is None:  # fall back to any connecting arc
            for v, w, d in graph.arcs_from(prev):
                if v == cur:
                    direction = d
                    break
        new_pos = waypoints[-1][1] + direction * step
        if direction == prev_dir:
            waypoints[-1] = (labels.time[cur], new_pos)
        else:
            waypoints.append((labels.time[cur], new_pos))
        prev_dir = direction
    return tuple(waypoints)


def solve_from(topology, starts: Iterable[int]) -> Verdict:
    """One robot exploring a whole line or ring from the best of ``starts``.

    One label pass; the optimum is the cheapest full-coverage state, the
    one with the smaller id on ties.
    """
    graph = StateGraph.of(topology)
    labels = propagate(graph, init_start(graph, starts), topology.deadlines)
    uid = min(graph.terminal_ids(), key=labels.time.__getitem__)
    if labels.time[uid] is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY)
    return Verdict(
        feasible=True,
        optimum=labels.time[uid],
        schedule=track_schedule(topology, (RobotTrack(extract_trajectory(labels, uid)),)),
    )


def solve_fixed_start(line: LineInstance, start: int) -> Verdict:
    """Optimal full-line exploration for one robot at a given node.

    Dominated nodes are dropped up front (their deadlines are implied by
    farther ones), which never changes feasibility or the optimum.
    """
    pruned, remap = prune_dominated(line, start)
    return solve_from(pruned, [remap.index(start)])


def solve_free_start(topology, allowed: Optional[Iterable[int]] = None) -> Verdict:
    """Optimal exploration of a whole line or ring by one robot that starts
    at a node of ``allowed`` (any node by default): ``solve_from``."""
    return solve_from(topology, range(topology.n) if allowed is None else allowed)
