"""Brute-force reference solvers and the schedule verifier.

Everything here is deliberately independent of the state-graph dynamic
programs and of the plan search in ``fault_line``: walks on lines and
rings alike are enumerated by direct recursion over turning choices,
growing the visited arc around the start, and verdicts come from
exhaustive search over walk assignments (with exactness-preserving
pruning only).  These are the oracles the fast solvers are tested
against.  The verifier checks where each track starts as well as who
visits each node when.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from .exact import ExactNumber, INFINITY, format_number
from .instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
    StarInstance,
)
from .schedule import (
    NodeCheck,
    RobotTrack,
    Schedule,
    ScheduleError,
    Verdict,
    VerificationReport,
    track_schedule,
)


class CapExceeded(RuntimeError):
    """Exact search refused: the instance exceeds the configured size caps."""


@dataclass(frozen=True)
class Caps:
    max_n: int = 10
    max_k: int = 4
    max_f: int = 2


@dataclass(frozen=True)
class Walk:
    """A single-robot trajectory that grows its covered stretch at every turn."""

    start: int
    turns: tuple            # turning-point node indices, final position last
    first_visit: tuple      # per node: time of first visit, or None
    completion: ExactNumber  # time of the last first-visit
    waypoints: tuple        # ((time, unwrapped coordinate), ...) incl. the start


def enumerate_walks(
    topology: Union[LineInstance, RingInstance],
    start: int,
    budget: ExactNumber = INFINITY,
    deadlines: Optional[Sequence[ExactNumber]] = None,
) -> List[Walk]:
    """All maximal turning-point walks whose first visits meet the deadlines.

    Any physical trajectory's first-visit profile is matched or beaten by
    one of these walks, so they are a complete plan space for one robot.
    Pass all-INFINITY deadlines to enumerate unpruned walks (useful when
    late arrivals are allowed but simply do not count as coverage).

    A walk's visited arc reaches a nodes clockwise (left, on a line) and b
    counterclockwise (right) of the start, whose distances from it are
    cw[a] and ccw[b]; it grows clockwise first.  An arm stops at the end
    of a line, and a ring's arc stops once it is whole.
    """
    if deadlines is None:
        deadlines = topology.deadlines
    n = topology.n
    if isinstance(topology, LineInstance):
        x = topology.coordinates
        cw = [x[start] - x[start - a] for a in range(start + 1)]
        ccw = [x[start + b] - x[start] for b in range(n - start)]

        def spot(a, b, side):
            return x[start - a] if side == 0 else x[start + b]
    elif isinstance(topology, RingInstance):
        w = topology.edge_weights
        cw = list(itertools.accumulate((w[(start - 1 - t) % n] for t in range(n - 1)), initial=0))
        ccw = list(itertools.accumulate((w[(start + t) % n] for t in range(n - 1)), initial=0))
        origin = topology.positions[start]

        def spot(a, b, side):  # unwrapped: clockwise is negative
            return origin - cw[a] if side == 0 else origin + ccw[b]
    else:
        raise TypeError("walks are defined for lines and rings only")
    out: List[Walk] = []
    fv: list = [None] * n
    fv[start] = 0

    def rec(a, b, side, t, last_dir, turns, waypoints):
        # the robot stands at the clockwise (side 0) or counterclockwise end
        here = (start - a) % n if side == 0 else (start + b) % n
        at = -cw[a] if side == 0 else ccw[b]
        moves = []
        if a + b + 1 < n:
            if a + 1 < len(cw):
                moves.append((a + 1, b, 0, (start - a - 1) % n, t + (at + cw[a + 1])))
            if b + 1 < len(ccw):
                moves.append((a, b + 1, 1, (start + b + 1) % n, t + (ccw[b + 1] - at)))
        moves = [m for m in moves if m[4] <= budget and m[4] <= deadlines[m[3]]]
        if not moves:
            final = tuple(turns) + ((here,) if len(waypoints) > 1 else ())
            out.append(Walk(start, final, tuple(fv), t, tuple(waypoints)))
            return
        for a2, b2, side2, node, t2 in moves:
            way = -1 if side2 == 0 else 1
            fv[node] = t2
            rec(
                a2, b2, side2, t2, way,
                turns + [here] if last_dir == -way else turns,
                (waypoints[:-1] if last_dir == way else waypoints) + [(t2, spot(a2, b2, side2))],
            )
            fv[node] = None

    rec(0, 0, 0, 0, 0, [], [(0, spot(0, 0, 0))])
    return out


def walk_track(walk: Walk) -> RobotTrack:
    return RobotTrack(tuple(walk.waypoints))


# --------------------------------------------------------------------------
# exhaustive solving
# --------------------------------------------------------------------------

def _free_walks(topology, start) -> List[Walk]:
    """Unpruned maximal walks (deadlines ignored during expansion)."""
    n = topology.n
    return enumerate_walks(topology, start, INFINITY, (INFINITY,) * n)


def _profiles(topology, start, deadlines, bound) -> List[tuple]:
    """Dominance antichain of on-time first-visit profiles for one start.

    A profile lists, per node, the first visit time if it lands by
    min(deadline, bound), else None.  Profiles that are pointwise no
    better than another are dropped; this never changes exact optima.
    While the antichain is built a missed node reads INFINITY, so one
    profile dominates another when ``all(map(operator.le, ...))`` holds,
    compared in C; the profiles returned read None again.
    """
    cutoff = deadlines if bound is None else [min(d, bound) for d in deadlines]
    raw = [
        (tuple(INFINITY if t is None or t > c else t for t, c in zip(walk.first_visit, cutoff)), walk)
        for walk in _free_walks(topology, start)
    ]
    raw.sort(key=lambda pw: (pw[0].count(INFINITY), pw[1].completion, pw[1].turns))
    kept: List[tuple] = []
    for prof, walk in raw:
        if not any(all(map(operator.le, kept_prof, prof)) for kept_prof, _ in kept):
            kept.append((prof, walk))
    return [(tuple(None if t is INFINITY else t for t in prof), walk) for prof, walk in kept]


def _placements(spec: ProblemSpec):
    k = spec.k
    nodes = spec.topology.n
    if spec.placement.mode == FIXED:
        yield spec.placement.positions
        return
    pool = range(nodes) if spec.placement.mode == FREE else spec.placement.allowed
    # reliable free robots take distinct nodes while there are enough;
    # subset starts may have to share (two robots leaving one allowed node
    # in opposite directions)
    combine = (
        itertools.combinations
        if spec.placement.mode == FREE and spec.faults == 0 and k <= len(pool)
        else itertools.combinations_with_replacement
    )
    yield from combine(tuple(pool), k)


def _kth_smallest(values: list, need: int) -> ExactNumber:
    finite = sorted(v for v in values if v is not None)
    if len(finite) < need:
        return INFINITY
    return finite[need - 1]


def brute_solve(spec: ProblemSpec, caps: Caps = Caps()) -> Verdict:
    """Exact optimum by exhaustive search over placements and walk tuples.

    Minimizes the earliest moment by which every node has been visited by
    f+1 distinct robots on time.  Refuses instances beyond ``caps``.
    """
    top = spec.topology
    if isinstance(top, StarInstance):
        raise TypeError("brute_solve covers lines and rings; use the star solvers")
    n = top.n
    k = spec.k
    if n > caps.max_n or k > caps.max_k or spec.faults > caps.max_f:
        raise CapExceeded(
            f"exact search refused: n={n}, k={k}, f={spec.faults} exceeds caps "
            f"(max_n={caps.max_n}, max_k={caps.max_k}, max_f={caps.max_f})"
        )
    need = spec.faults + 1
    deadlines = top.deadlines
    bound = spec.bound

    best = [INFINITY, None, None]  # metric, placement, plan tuple
    profile_cache: dict = {}

    def profiles_for(start):
        if start not in profile_cache:
            profile_cache[start] = _profiles(top, start, deadlines, bound)
        return profile_cache[start]

    for placement in _placements(spec):
        plan_sets = [profiles_for(p) for p in placement]
        if any(not ps for ps in plan_sets):
            continue
        best_fv = [
            [
                min((prof[v] for prof, _ in ps if prof[v] is not None), default=None)
                for v in range(n)
            ]
            for ps in plan_sets
        ]
        chosen: List[tuple] = []

        def bound_partial() -> ExactNumber:
            worst = 0
            for v in range(n):
                pool = [prof[v] for prof, _ in chosen]
                pool += [best_fv[r][v] for r in range(len(chosen), k)]
                tv = _kth_smallest(pool, need)
                if tv is INFINITY:
                    return INFINITY
                if tv > worst:
                    worst = tv
            return worst

        def dfs(r: int):
            lb = bound_partial()
            if lb is INFINITY or lb >= best[0]:
                return
            if r == k:
                if lb < best[0]:
                    best[0] = lb
                    best[1] = placement
                    best[2] = tuple(chosen)
                return
            for prof_walk in plan_sets[r]:
                chosen.append(prof_walk)
                dfs(r + 1)
                chosen.pop()

        dfs(0)

    if best[1] is None:
        return Verdict(feasible=False, optimum=INFINITY)
    schedule = track_schedule(top, (walk_track(walk) for _, walk in best[2]))
    witness = {}
    for v in range(n):
        visits = sorted(
            ((ridx, prof[v]) for ridx, (prof, _) in enumerate(best[2]) if prof[v] is not None),
            key=lambda rt: (rt[1], rt[0]),
        )
        witness[v] = tuple(visits)
    return Verdict(feasible=True, optimum=best[0], schedule=schedule, witness=witness)


# --------------------------------------------------------------------------
# schedule verification
# --------------------------------------------------------------------------


def _check_track_shape(ridx: int, track: RobotTrack, coordinate_kind: bool):
    wps = track.waypoints
    t0 = wps[0][0]
    if t0 != 0:
        raise ScheduleError(ridx, "first waypoint must be at time 0")
    for widx in range(1, len(wps)):
        t_prev, x_prev = wps[widx - 1]
        t_cur, x_cur = wps[widx]
        if t_cur <= t_prev:
            raise ScheduleError(ridx, f"waypoint {widx}: times must strictly increase")
        if coordinate_kind:
            dist = x_cur - x_prev
            if dist < 0:
                dist = -dist
            if dist > t_cur - t_prev:
                raise ScheduleError(ridx, f"waypoint {widx}: exceeds unit speed")


def _coordinate_visits(nodes: Sequence, lap, track: RobotTrack) -> tuple:
    """(first visit time of each node the track passes, end of its last
    move) on a line or a ring.

    ``nodes`` are a topology's sorted ``positions``, in [0, lap) on a ring
    (``lap`` None on a line), whose waypoints are unwrapped coordinates.
    The start and each segment [lo, hi] are read lap by lap: the lap from
    base = floor(lo / lap) * lap holds the nodes at positions
    lo - base .. hi - base, found by bisection; on a ring only the one lap
    from the departure point onwards, which holds all first visits.  A
    line is one lap, from base 0.
    """
    wps = track.waypoints
    x0 = wps[0][1]
    first: dict = {}
    end = 0
    for t1, x1, x2 in itertools.chain(
        [(0, x0, x0)], ((t1, x1, x2) for (t1, x1), (_, x2) in zip(wps, wps[1:]))
    ):
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
        if lo != hi:
            end = t1 + (hi - lo)
        bases = (0,)
        if lap is not None:
            lo, hi = max(lo, x1 - lap), min(hi, x1 + lap)
            bases = [m * lap for m in range(lo // lap, hi // lap + 1)]
        for base in bases:
            for v in range(bisect_left(nodes, lo - base), bisect_right(nodes, hi - base)):
                y = nodes[v] + base
                t = t1 + (y - x1 if y >= x1 else x1 - y)
                if v not in first or t < first[v]:
                    first[v] = t
    return first, end


def _star_visits(star: StarInstance, ridx: int, track: RobotTrack) -> tuple:
    """(first visit time of each node the track passes, end of its last
    move) on a star, where a move between two leaves passes the center;
    unknown nodes and moves faster than unit speed raise ScheduleError."""
    first: dict = {}
    end = 0

    def note(v, t):
        if v not in first or t < first[v]:
            first[v] = t

    w = star.leaf_weights
    center = star.center
    wps = track.waypoints
    note(wps[0][1], 0)
    for (t1, a), (t2, b) in zip(wps, wps[1:]):
        if a == b:
            continue
        if a == center or b == center:
            leaf = b if a == center else a
            if not 0 <= leaf < star.q:
                raise ScheduleError(ridx, f"unknown node {leaf}")
            length = w[leaf]
            mid = None
        else:
            if not (0 <= a < star.q and 0 <= b < star.q):
                raise ScheduleError(ridx, f"unknown node {a} or {b}")
            length = w[a] + w[b]
            mid = (center, t1 + w[a])
        if t2 - t1 < length:
            raise ScheduleError(ridx, f"segment to waypoint at t={t2} exceeds unit speed")
        if mid is not None:
            note(mid[0], mid[1])
        end = t1 + length
        note(b, end)
    return first, end


def _check_starts(spec: ProblemSpec, schedule: Schedule):
    """Every track starts at a node (on a ring, modulo its lap), and the
    start nodes are the fixed positions or lie in the allowed set."""
    placement, lap = spec.placement, spec.topology.lap
    index = {c: v for v, c in enumerate(spec.topology.positions)}
    starts = []
    for ridx, track in enumerate(schedule.tracks):
        v = index.get(track.start if lap is None else track.start % lap)
        if v is None:
            raise ScheduleError(ridx, f"starts at {format_number(track.start)}, not at a node")
        if placement.mode == SUBSET and v not in placement.allowed:
            raise ScheduleError(ridx, f"starts at node {v}, outside the allowed nodes")
        starts.append(v)
    if placement.mode == FIXED and sorted(starts) != list(placement.positions):
        raise ScheduleError(
            None, f"tracks start at nodes {sorted(starts)}, not at the fixed positions "
            f"{list(placement.positions)}"
        )


def verify_schedule(spec: ProblemSpec, schedule: Schedule) -> VerificationReport:
    """Simulate the motion and check f+1 distinct on-time visitors per node.

    The schedule must be of the topology's ``kind``, and a ring schedule
    must declare the ring's ``lap`` as its circumference.  Lines and
    rings are read through one simulator over the topology's
    ``positions`` and ``lap``, stars through their own.  A visit counts
    if its time is at or before min(node deadline, global bound).  The
    makespan is the last moment any robot is in motion.  Malformed
    schedules raise ScheduleError rather than failing checks, and so do
    tracks that start where the placement puts no robot.
    """
    top = spec.topology
    need = spec.faults + 1
    bound = spec.bound
    star = top.kind == "star"
    if schedule.kind != top.kind:
        raise ScheduleError(None, f"schedule kind {schedule.kind!r} does not match the instance")
    if top.kind == "ring" and schedule.circumference != top.lap:
        raise ScheduleError(None, "declared circumference does not match the ring")
    if len(schedule.tracks) != spec.k:
        raise ScheduleError(None, f"expected {spec.k} robot tracks, got {len(schedule.tracks)}")

    makespan = 0
    per_robot_visits = []
    for ridx, track in enumerate(schedule.tracks):
        _check_track_shape(ridx, track, coordinate_kind=not star)
        if star:
            visits, end = _star_visits(top, ridx, track)
        else:
            visits, end = _coordinate_visits(top.positions, top.lap, track)
        per_robot_visits.append(visits)
        if end > makespan:
            makespan = end
    _check_starts(spec, schedule)

    checks = []
    for v, deadline in enumerate(top.deadlines):
        cutoff = deadline if bound is None else min(deadline, bound)
        on_time = []
        for ridx, visits in enumerate(per_robot_visits):
            t = visits.get(v)
            if t is not None and t <= cutoff:
                on_time.append((ridx, t))
        on_time.sort(key=lambda rt: (rt[1], rt[0]))
        check = NodeCheck(node=v, required=need, covered=len(on_time), visits=tuple(on_time))
        checks.append(check)
    return VerificationReport(
        passed=all(c.covered >= need for c in checks),
        makespan=makespan,
        nodes=tuple(checks),
    )


def witnessed(spec: ProblemSpec, verdict: Verdict) -> Verdict:
    """``verdict`` once ``verify_schedule`` accepts its schedule.

    An infeasible verdict passes unchanged.  A feasible one must carry a
    schedule whose tracks start as the placement says and give every node
    f+1 distinct visitors by min(deadline, t), where t is the optimum the
    verdict claims, else ``spec.bound``; the witness lists them.  A
    missing or rejected schedule is a solver bug, not bad input, and
    raises RuntimeError.
    """
    if not verdict.feasible:
        return verdict
    schedule = verdict.schedule
    if schedule is None:
        raise RuntimeError("internal error: a feasible verdict came without a schedule")
    bound = spec.bound if verdict.optimum is None else verdict.optimum
    try:
        report = verify_schedule(replace(spec, bound=bound), schedule)
    except ScheduleError as exc:
        raise RuntimeError(f"internal error: {schedule.kind} schedule is malformed: {exc}") from None
    if not report.passed:
        raise RuntimeError(f"internal error: {schedule.kind} schedule failed verification")
    return replace(verdict, witness={c.node: c.visits for c in report.nodes})
