"""Exploration when up to f robots may crash.

With f possible crashes every node must collect f+1 distinct on-time
visitors, so free placement on a line reduces to a reliable solve with
floor(k / (f+1)) robots replicated across f+1 groups.  Fixed placement
on a line or a ring goes through ``decide_fixed_faulty`` and
``solve_fixed_faulty``.  They own the reliable shortcut: with f = 0 and
robots at distinct nodes, the polynomial ``multi_line.solve_fixed``
answers.  Otherwise fixed placement is genuinely hard, and it is decided
exactly by a branch-and-bound over per-robot coverage plans driven by
the first under-covered node of a fixed node order:

* on a line without finite deadlines every feasible assignment goes
  through a small set of canonical plans (cover the deficient node,
  reach as far right as possible), which is exhaustive by an exchange
  argument;
* otherwise a robot's plans are the antichain of the on-time coverage
  of its walks, found by growing the visited arc around its start one
  node at a time and keeping per arc state only the Pareto-minimal
  (time, coverage) pairs.

Robots may legally pass nodes after their deadlines (visited or not,
nodes never block passage); such visits simply do not count as coverage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .exact import ExactNumber, INFINITY, is_finite
from .instance import FIXED, FREE, LineInstance, ProblemSpec, RingInstance, StarInstance
from .multi_line import solve_fixed, solve_free, track_schedule
from .oracle import Caps, CapExceeded, witnessed
from .schedule import RobotTrack, Verdict

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


def solve_free_faulty(
    line: LineInstance, k: int, f: int, collect_candidates: bool = False
) -> Verdict:
    """Group-replication solve for k freely placed robots, up to f crashes.

    Every node needs f+1 distinct on-time visitors; the returned value is
    the reliable optimum for floor(k/(f+1)) robots and the schedule
    replicates that group's trajectories across f+1 groups (surplus
    robots double up on the first group).  Without finite node deadlines
    this is exactly optimal: interval covers split into f+1 full covers,
    the smallest of which is no larger than the group.  Finite deadlines
    can punch holes in coverage profiles, and then a non-replicated
    schedule may finish sooner; the returned schedule remains valid
    either way.
    """
    if not 0 <= f < k:
        raise ValueError("need 0 <= f < k")
    group = k // (f + 1)
    base = solve_free(line, group, collect_candidates=collect_candidates)
    if not base.feasible:
        return Verdict(feasible=False, optimum=INFINITY, candidates=base.candidates)
    group_tracks = base.schedule.tracks
    tracks = list(group_tracks * (f + 1))
    for i in range(k - group * (f + 1)):
        tracks.append(group_tracks[i % group])
    return witnessed(
        line, k, f, None, track_schedule(line, tracks),
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


def _walk_plans(topology, p: int, delta) -> List[Plan]:
    """Plans of a robot at p: the antichain of its walks' on-time coverage.

    Walks are not listed one by one: the arc grows one node at a time,
    and per arc and robot end only the (time, coverage) pairs survive
    that no other pair matches with an earlier time and a superset of
    coverage, since from the same spot the earlier robot can copy every
    later move.  Without deadlines one pair per arc state is left, and
    the plans are the maximal arcs.
    """
    n = topology.n
    d = topology.deadlines
    x = _spots(topology)[p]
    cw, ccw = _arm_lengths(topology, p)
    # per arc state: [(time, on-time mask, waypoints, last direction)]
    layer = {(0, 0, 1): [(0, 1 << p if delta >= 0 else 0, ((0, x),), 0)]}
    plans = []
    while layer:
        grown: dict = {}
        for (a, b, side), entries in layer.items():
            ways = _grow(n, cw, ccw, p, a, b, side)
            for t, mask, wps, last in entries:
                stuck = True
                for state, u, offset, dist in ways:
                    t2 = t + dist
                    if t2 > delta:
                        continue
                    stuck = False
                    way = 1 if state[2] else -1
                    wps2 = (wps[:-1] if last == way else wps) + ((t2, x + offset),)
                    mask2 = mask | (1 << u) if t2 <= d[u] else mask
                    _pareto_add(grown.setdefault(state, []), (t2, mask2, wps2, way))
                if stuck:
                    plans.append(Plan(mask=mask, track=RobotTrack(wps)))
        layer = grown
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
    distinct start gets its complete plan list once, from ``_walk_plans``
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

    def __init__(self, topology, positions: Sequence[int], f: int, delta):
        self.topology = topology
        self.positions = tuple(sorted(positions))
        self.f = f
        self.delta = delta
        self.n = topology.n
        self.k = len(self.positions)
        self.need = f + 1
        self.plain = isinstance(topology, LineInstance) and all(
            d is INFINITY for d in topology.deadlines
        )
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
            made = {p: _walk_plans(topology, p, delta) for p in set(self.positions)}
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


def search_verdict(topology, positions: Sequence[int], f: int, delta) -> Verdict:
    """Run the exact search (positions sorted); YES carries a verified schedule."""
    result = _FixedSearch(topology, positions, f, delta).run()
    if result is None:
        return Verdict(feasible=False, optimum=None)
    spots = _spots(topology)
    tracks = tuple(
        plan.track if plan is not None else RobotTrack(((0, spots[p]),))
        for p, plan in zip(positions, result)
    )
    return witnessed(topology, len(positions), f, delta, track_schedule(topology, tracks))


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
) -> Verdict:
    """Exact decision: can the fixed multiset of robots on a line or ring,
    up to f of which may crash, visit every node by min(deadline, delta)?

    Reliable robots at distinct nodes are decided by the polynomial
    ``solve_fixed`` on the topology with deadlines capped at delta, at
    any size.  Everything else runs the exact search, which never
    guesses: instances beyond ``caps`` (default: ``fixed_search_caps``)
    raise CapExceeded.  A YES always carries a schedule that
    ``verify_schedule`` accepts.
    """
    positions = fixed_team(topology, positions, f)
    if not is_finite(delta):
        raise ValueError("the decision needs a finite time bound")
    if f == 0 and len(set(positions)) == len(positions):
        reliable = solve_fixed(topology.capped(delta), positions)
        if not reliable.feasible or reliable.optimum > delta:
            return Verdict(feasible=False, optimum=None)
        return witnessed(topology, len(positions), f, delta, reliable.schedule)
    check_caps(topology, len(positions), caps or fixed_search_caps(topology))
    return search_verdict(topology, positions, f, delta)


def fixed_faulty_candidates(topology, positions: Iterable[int]) -> tuple:
    """All times at which the fixed-position decision can change.

    These are the moments some robot's plan gains a node: arc cover costs
    without deadlines, with them the on-time first visits of its walks,
    collected per arc state as sets of arrival times.
    """
    n = topology.n
    deadlines = topology.deadlines
    plain = all(d is INFINITY for d in deadlines)
    values = {0}
    for p in set(positions):
        cw, ccw = _arm_lengths(topology, p)
        if plain:
            for a in range(len(cw)):
                for b in range(min(len(ccw), n - a)):
                    values.add(cw[a] + ccw[b] + min(cw[a], ccw[b]))
            continue
        layer = {(0, 0, 1): {0}}
        while layer:
            grown: dict = {}
            for (a, b, side), times in layer.items():
                for state, u, _, dist in _grow(n, cw, ccw, p, a, b, side):
                    reached = {t + dist for t in times}
                    grown.setdefault(state, set()).update(reached)
                    values.update(t for t in reached if t <= deadlines[u])
            layer = grown
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
    decision's verified schedule.  Reliable robots at distinct nodes are
    solved directly by ``solve_fixed``.  Caps as for the decision.
    """
    positions = fixed_team(topology, positions, f)
    if f == 0 and len(set(positions)) == len(positions):
        return solve_fixed(topology, positions, collect_candidates=True)
    caps = caps or fixed_search_caps(topology)
    check_caps(topology, len(positions), caps)
    return least_feasible(
        fixed_faulty_candidates(topology, positions),
        lambda delta: decide_fixed_faulty(topology, positions, f, delta, caps),
    )


# --------------------------------------------------------------------------
# resilience
# --------------------------------------------------------------------------


def resilience(spec: ProblemSpec, delta: ExactNumber, caps: Optional[Caps] = None) -> Optional[int]:
    """Largest f < k for which an f-reliable schedule within delta exists.

    Returns None when even f = 0 is impossible.  Any ``faults`` value on
    the spec itself is ignored; the placement and topology route the
    appropriate decision procedure.  The exact fixed-position searches
    run under ``caps`` (default: ``fixed_search_caps`` of the topology).
    """
    if not is_finite(delta):
        raise ValueError("resilience needs a finite time bound")
    if delta < 0:
        return None  # no walk finishes before time 0
    k = spec.k
    top = spec.topology
    mode = spec.placement.mode
    if caps is None:
        caps = fixed_search_caps(top)

    def decide(f: int) -> bool:
        if isinstance(top, StarInstance):
            from .reductions import star_exact

            return star_exact(top, spec.placement, k, f, delta).feasible
        if mode == FIXED:
            return decide_fixed_faulty(top, spec.placement.positions, f, delta, caps).feasible
        if mode == FREE:
            if isinstance(top, RingInstance):
                from .ring import solve_ring_free_faulty

                v = solve_ring_free_faulty(top, k, f)
                return v.feasible and v.optimum <= delta
            return solve_free(top, k // (f + 1)).optimum <= delta
        raise ValueError("resilience supports fixed and free placements")

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
