"""Single-robot exploration of lines and rings by label propagation.

One pass over the layers of the state graph computes, for every explored
stretch and robot end, the fastest deadline-respecting way to reach that
state from any permitted starting node.  It is a pull recurrence: the
label of stretch [i, j] with the robot at i is the better of [i+1, j]
with the robot at either end plus the walk to i, and likewise at j:
the O(n^2) line-with-deadlines dynamic program of Tsitsiklis (Networks,
1992) and Psaraftis et al. (1990).  A ring is the same pass with the
stretches read counterclockwise, up to the full-coverage layer.  Labels
that would arrive after the newly visited node's deadline stay at
INFINITY.  The recorded parent links form a forest from which optimal
trajectories are read back.

Ties go to the predecessor with the robot at the left end, the one
with the smaller id, which makes extracted trajectories deterministic.
One robot exploring a whole line or ring (``solve_from``) ends in the
cheapest full-coverage state; ties go to the smaller final node, then to
the state with the robot at the left end.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from .exact import ExactNumber, INFINITY
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
) -> TimeLabels:
    """Set every state's label from its two predecessors, layer by layer.

    A state's label is the smaller of its predecessors' labels plus the
    arc weights, kept only if it is at or before the deadline of the node
    first visited on arrival (a visit exactly at the deadline is on
    time); a tie goes to the predecessor with the smaller id, the one at
    the left end.  This is the first-found parent of relaxing every arc
    once in id order, clockwise before counterclockwise.  ``deadlines``
    is indexed by node of the graph.  ``labels`` comes from
    ``init_start``.  The same loop serves lines and rings; a walk kept
    to part of a line or ring runs on a graph of that part alone (as
    ``multi_line.solve_fixed`` does).

    Only live ranges are pulled: each layer visits just the states that a
    finite label of the layer before can reach, and the pass stops at the
    first layer with no finite label (``StateGraph.pulls``).  The states
    skipped keep INFINITY and no parent, as a full pass would leave them.
    """
    time = labels.time
    parent = labels.parent
    inf = INFINITY
    # identity tests skip the additions from unreached predecessors
    for batch in graph.pulls(time, deadlines):
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
    (counterclockwise on a ring, d = n - 1 included), read off the label
    layers: the cheaper of the robot's two ends, L on ties, INFINITY when
    neither is reachable."""
    time = labels.time
    first = labels.graph.layer_offsets

    def read(i: int, d: int) -> ExactNumber:
        if d == 0:
            return time[i]
        u = first[d] + 2 * i
        tl = time[u]
        tr = time[u + 1]
        return tl if tl <= tr else tr

    return read


def best_target(labels: TimeLabels, i: int, j: int) -> Optional[int]:
    """Cheaper of the two writings of stretch [i, j]; None if unreachable."""
    graph = labels.graph
    uid_l = graph.id_of(i, j, LEFT)
    uid_r = graph.id_of(i, j, RIGHT)
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
    the target's label.  Each step moves toward the end of the stretch
    the robot occupies in the state it reaches: down at L, up at R.
    Raises if the target was never reached.
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
        step = labels.time[cur] - labels.time[prev]
        direction = -1 if graph.state_of(cur).side == LEFT else 1
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
    one with the smaller final node on ties, then the one at L.
    """
    graph = StateGraph.of(topology)
    labels = propagate(graph, init_start(graph, starts), topology.deadlines)
    time = labels.time

    def rank(uid: int) -> tuple:
        i, j, side = graph.state_of(uid)
        return time[uid], j if side == RIGHT else i, side

    uid = min(graph.terminal_ids(), key=rank)
    if labels.time[uid] is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY)
    return Verdict(
        feasible=True,
        optimum=labels.time[uid],
        schedule=track_schedule(topology, (RobotTrack(extract_trajectory(labels, uid)),)),
    )


def solve_fixed_start(topology, start: int) -> Verdict:
    """Optimal exploration of a whole line or ring by one robot at a given node."""
    return solve_free_start(topology, [start])


def solve_free_start(topology, allowed: Optional[Iterable[int]] = None) -> Verdict:
    """Optimal exploration of a whole line or ring by one robot that starts
    at a node of ``allowed`` (any node by default): ``solve_from``.  A line
    first drops the nodes every such walk passes on its way to a node due
    no later (``prune_dominated``); a ring walk need not pass them."""
    starts = set(range(topology.n) if allowed is None else allowed)
    if topology.lap is not None:
        return solve_from(topology, starts)
    pruned, remap = prune_dominated(topology, starts)
    return solve_from(pruned, [i for i, old in enumerate(remap) if old in starts])
