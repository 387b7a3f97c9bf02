"""Exploration of rings: fixed and free placements, with and without crashes.

Rings reuse the line machinery of ``multi_line``.  Fixed reliable
placement: some edge between the closest pair of adjacent robots is idle
in an optimal solution, so the ring is cut at each candidate edge and
the line's idle-edge prefix recurrence runs on what remains; per-robot
segment times come from a single state-graph pass per robot, restricted
to the window between its neighbours, so the cut loop only repeats the
cheap recurrence.  Free reliable placement: the line's doubling tables,
with parts read on the doubled node order so that they may wrap.

Crash tolerance with free placement reduces to exploring the ring made
of f+1 concatenated copies: visiting every copy once is the same as
covering the original ring f+1 times.

Fixed positions with crashes go to ``fault_line``, whose branch and
bound runs on rings as on lines, over per-robot plans from the same
arc-growth DP: the maximal arcs a robot can cover within the bound when
no node has a deadline, the antichain of its on-time coverage when some
node does.  The search is exponential in the worst case and refuses
instances beyond its caps; every YES carries a verified schedule.  The
farthest-reach chain over the replicated ring, the polynomial procedure
of the source material, lets copies of one physical robot serve two
segments and over-accepts, so it is not used.  A polynomial exact
decision for this case is still open here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .exact import ExactNumber, INFINITY, is_finite
from .fault_line import decide_fixed_faulty, fixed_team, solve_fixed_faulty, witnessed
from .instance import FREE, ProblemSpec, RingInstance, RobotPlacement
from .multi_line import TeamTables, idle_edge_split
from .oracle import Caps, verify_schedule
from .schedule import RobotTrack, Schedule, Verdict
from .single_robot import best_target, extract_trajectory, init_start, propagate
from .state_graph import StateGraph


def _window_times(labels, lo: int, hi: int) -> list:
    """rows[a][d]: the fastest exploration of the ccw segment a .. a+d.

    Only segments strictly inside the open ccw interval (lo, hi) are
    read, each once, off the label layers; rows of nodes outside it are
    empty, and a segment past the end of its row leaves the interval.
    """
    graph = labels.graph
    time = labels.time
    n = graph.n
    room = (hi - lo - 1) % n
    layer_start = [0] + [graph.layer_ids(d).start for d in range(1, room)]
    rows = [[] for _ in range(n)]
    for offset in range(1, room + 1):
        a = (lo + offset) % n
        row = rows[a]
        row.append(time[a])
        for d in range(1, room - offset + 1):
            tl = time[layer_start[d] + 2 * a]
            tr = time[layer_start[d] + 2 * a + 1]
            row.append(tl if tl <= tr else tr)
    return rows


# --------------------------------------------------------------------------
# fixed placement, reliable robots
# --------------------------------------------------------------------------


def _one_robot_lap(ring: RingInstance, starts: Iterable[int], collect_candidates: bool) -> Verdict:
    """One robot exploring the whole ring from the best of ``starts``.

    One label pass; the optimum is the cheapest full-coverage state.
    """
    graph = StateGraph.from_ring(ring)
    labels = propagate(graph, init_start(graph, starts), ring.deadlines)
    candidates = tuple(sorted(set(labels.finite_values()))) if collect_candidates else None
    best_uid = None
    best_time = INFINITY
    for uid in graph.terminal_ids():
        t = labels.time[uid]
        if t < best_time:
            best_time, best_uid = t, uid
    if best_uid is None:
        return Verdict(feasible=False, optimum=INFINITY, candidates=candidates)
    return Verdict(
        feasible=True,
        optimum=best_time,
        schedule=Schedule(
            kind="ring",
            tracks=(RobotTrack(extract_trajectory(labels, best_uid)),),
            circumference=ring.total,
        ),
        candidates=candidates,
    )


def solve_ring_fixed(
    ring: RingInstance,
    positions: Iterable[int],
    collect_candidates: bool = False,
) -> Verdict:
    """Optimal ring exploration by reliable robots at given distinct nodes."""
    positions = tuple(sorted(positions))
    n = ring.n
    if len(set(positions)) != len(positions):
        raise ValueError("fixed positions must be distinct for reliable robots")
    if any(not 0 <= p < n for p in positions):
        raise ValueError("robot position out of range")
    k = len(positions)
    if k == 1:
        return _one_robot_lap(ring, positions, collect_candidates)

    graph = StateGraph.from_ring(ring)
    forests: List[tuple] = []
    for m, p in enumerate(positions):
        lo = positions[(m - 1) % k]
        hi = positions[(m + 1) % k]
        labels = init_start(graph, [p])
        propagate(graph, labels, ring.deadlines, window=(lo, hi))
        forests.append((labels, lo, hi))

    # candidate idle edges live between the closest adjacent pair (fewest edges)
    gaps = [((positions[(m + 1) % k] - positions[m]) % n, m) for m in range(k)]
    gap, pick = min(gaps)
    cut_edges = [(positions[pick] + t) % n for t in range(gap)]

    times = [_window_times(labels, lo, hi) for labels, lo, hi in forests]

    def part_time(r: int, i: int, j: int):
        # line nodes i..j of the current cut, explored by its r-th robot
        row = times[robots[r]][(head + i) % n]
        return row[j - i] if j - i < len(row) else INFINITY

    best = (INFINITY, None, None)  # optimum, cut edge, segment list
    for cut in cut_edges:
        # the line left by the cut runs ccw from node head = cut + 1
        head = (cut + 1) % n
        order = [(head + t) % n for t in range(n)]
        line_pos = sorted(((p - head) % n, m) for m, p in enumerate(positions))
        robots = [m for _, m in line_pos]
        value, parts = idle_edge_split([q for q, _ in line_pos], n, part_time)
        if value < best[0]:
            segments = [(robots[r], order[i], order[j]) for r, i, j in parts]
            best = (value, cut, segments)

    candidates = None
    if collect_candidates:
        vals = {0}
        for labels, _, _ in forests:
            vals.update(labels.finite_values())
        candidates = tuple(sorted(vals))

    if best[1] is None:
        return Verdict(feasible=False, optimum=INFINITY, candidates=candidates)
    optimum, cut, segments = best
    tracks = [None] * k
    idle = [(cut, (cut + 1) % n)]
    for robot, i, j in segments:
        labels = forests[robot][0]
        tracks[robot] = RobotTrack(extract_trajectory(labels, best_target(labels, i, j)))
        if i != (cut + 1) % n:
            idle.append(((i - 1) % n, i))
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=Schedule(kind="ring", tracks=tuple(tracks), circumference=ring.total),
        idle_edges=tuple(sorted(idle)),
        candidates=candidates,
    )


# --------------------------------------------------------------------------
# free placement, reliable robots
# --------------------------------------------------------------------------


def solve_ring_free(ring: RingInstance, k: int, collect_candidates: bool = False) -> Verdict:
    """Optimal ring exploration time for k freely placed robots."""
    n = ring.n
    if k == 1:
        return _one_robot_lap(ring, range(n), collect_candidates)
    solver = TeamTables(ring, k)
    candidates = tuple(sorted(solver.all_finite_values())) if collect_candidates else None
    best_i, best_val = None, INFINITY
    for i in range(n):
        val = solver.value(i, i + n - 1)
        if val < best_val:
            best_val, best_i = val, i
    if best_i is None:
        return Verdict(feasible=False, optimum=INFINITY, candidates=candidates)
    tracks: list = []
    solver.rebuild_tracks(best_i, best_i + n - 1, k, tracks)
    return Verdict(
        feasible=True,
        optimum=best_val,
        schedule=Schedule(kind="ring", tracks=tuple(tracks), circumference=ring.total),
        candidates=candidates,
    )


# --------------------------------------------------------------------------
# crash faults
# --------------------------------------------------------------------------


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


def _project_tracks(tracks: Sequence[RobotTrack], base_total) -> tuple:
    """Re-anchor replicated-ring tracks onto the base circumference."""
    projected = []
    for tr in tracks:
        start = tr.waypoints[0][1]
        shift = (start // base_total) * base_total
        projected.append(RobotTrack(tuple((t, x - shift) for t, x in tr.waypoints)))
    return tuple(projected)


def solve_ring_free_faulty(ring: RingInstance, k: int, f: int) -> Verdict:
    """f-reliable ring exploration with free starts, via ring replication.

    Solves the f+1-times-replicated ring and projects each robot's
    segment back.  Without finite node deadlines this is exactly optimal
    (validated against exhaustive search); finite deadlines can make
    irregularly overlapping covers beat any replication tiling, in which
    case this value is only the best replication-shaped answer.  The
    projected schedule is re-verified before being returned.
    """
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    rep = replicate_ring(ring, f)
    big = solve_ring_free(rep.ring, k)
    if not big.feasible:
        return Verdict(feasible=False, optimum=INFINITY)
    tracks = _project_tracks(big.schedule.tracks, ring.total)
    schedule = Schedule(kind="ring", tracks=tracks, circumference=ring.total)
    spec = ProblemSpec(
        topology=ring, placement=RobotPlacement(FREE, count=k), faults=f, bound=None
    )
    report = verify_schedule(spec, schedule)
    if not report.passed:
        # a replication segment spanned more than one lap, so one robot
        # would have to cover some node twice; the value is unrealizable
        raise RuntimeError(
            "replication produced a segment longer than one lap; "
            "its value is not achievable by distinct robots"
        )
    witness = {c.node: c.visits for c in report.nodes}
    return Verdict(feasible=True, optimum=big.optimum, schedule=schedule, witness=witness)


def _distinct_reliable(positions: Sequence[int], f: int) -> bool:
    return f == 0 and len(set(positions)) == len(positions)


def decide_ring_fixed_faulty(
    ring: RingInstance,
    positions: Iterable[int],
    f: int,
    delta: ExactNumber,
    caps: Optional[Caps] = None,
) -> Verdict:
    """Exact decision for fixed positions with up to f crashes.

    Every node needs f+1 distinct robots on time by min(deadline, delta).
    Reliable robots at distinct nodes go to the polynomial
    ``solve_ring_fixed`` on the ring with deadlines capped at delta;
    everything else to ``fault_line.decide_fixed_faulty``, which raises
    CapExceeded beyond ``caps``.  A YES always carries a schedule that
    ``verify_schedule`` accepts.
    """
    positions = fixed_team(ring, positions, f)
    if not _distinct_reliable(positions, f):
        return decide_fixed_faulty(ring, positions, f, delta, caps)
    if not is_finite(delta):
        raise ValueError("the decision needs a finite time bound")
    reliable = solve_ring_fixed(ring.capped(delta), positions)
    if not reliable.feasible or reliable.optimum > delta:
        return Verdict(feasible=False, optimum=None)
    return witnessed(ring, len(positions), f, delta, reliable.schedule)


def optimize_ring_fixed_faulty(
    ring: RingInstance,
    positions: Iterable[int],
    f: int,
    caps: Optional[Caps] = None,
) -> Verdict:
    """Least delta at which ``decide_ring_fixed_faulty`` says YES.

    Reliable robots at distinct nodes are solved directly by
    ``solve_ring_fixed``; everything else by
    ``fault_line.solve_fixed_faulty``.  Caps as for the decision.
    """
    positions = fixed_team(ring, positions, f)
    if _distinct_reliable(positions, f):
        return solve_ring_fixed(ring, positions, collect_candidates=True)
    return solve_fixed_faulty(ring, positions, f, caps)
