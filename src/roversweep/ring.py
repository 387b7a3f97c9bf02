"""Exploration of rings: the ring names of the shared solvers, and free
placement with crashes by ring replication.

Rings reuse the line machinery.  Reliable robots, fixed or free, are
solved by ``multi_line.solve_fixed`` and ``multi_line.solve_free``, which
take a line or a ring; fixed positions with crashes by
``fault_line.decide_fixed_faulty`` and ``fault_line.solve_fixed_faulty``,
whose branch and bound runs on rings as on lines and which send
reliable robots at distinct nodes to ``solve_fixed``.  The ring names
below delegate to them.

Crash tolerance with free placement reduces to exploring the ring made
of f+1 concatenated copies: visiting every copy once is the same as
covering the original ring f+1 times.

The farthest-reach chain over the replicated ring, the polynomial
procedure of the source material for fixed positions with crashes, lets
copies of one physical robot serve two segments and over-accepts, so it
is not used.  A polynomial exact decision for that case is still open
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exact import ExactNumber, INFINITY
from .fault_line import decide_fixed_faulty, solve_fixed_faulty
from .instance import RingInstance
from .multi_line import solve_fixed, solve_free, track_schedule
from .oracle import Caps, witnessed
from .schedule import RobotTrack, Verdict

# no ring code runs a label pass any more, but ``ring.propagate`` stays
# bound: perfbench/test_bench.py checks that the span tracer wraps it here
from .single_robot import propagate  # noqa: F401


def solve_ring_fixed(
    ring: RingInstance,
    positions: Iterable[int],
    collect_candidates: bool = False,
) -> Verdict:
    """``multi_line.solve_fixed`` on a ring: reliable robots at given
    distinct nodes."""
    return solve_fixed(ring, positions, collect_candidates)


def solve_ring_free(ring: RingInstance, k: int, collect_candidates: bool = False) -> Verdict:
    """``multi_line.solve_free`` on a ring: k freely placed robots."""
    return solve_free(ring, k, collect_candidates)


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
    big = solve_free(rep.ring, k)
    if not big.feasible:
        return Verdict(feasible=False, optimum=INFINITY)
    schedule = track_schedule(ring, _project_tracks(big.schedule.tracks, ring.total))
    # a failed verification means a replication segment spanned more than
    # one lap, so one robot would have to cover some node twice: the value
    # is not achievable by distinct robots
    return witnessed(ring, k, f, None, schedule, optimum=big.optimum)


def decide_ring_fixed_faulty(
    ring: RingInstance,
    positions: Iterable[int],
    f: int,
    delta: ExactNumber,
    caps: Optional[Caps] = None,
) -> Verdict:
    """``fault_line.decide_fixed_faulty`` on a ring."""
    return decide_fixed_faulty(ring, positions, f, delta, caps)


def optimize_ring_fixed_faulty(
    ring: RingInstance,
    positions: Iterable[int],
    f: int,
    caps: Optional[Caps] = None,
) -> Verdict:
    """``fault_line.solve_fixed_faulty`` on a ring: the least delta at
    which ``decide_ring_fixed_faulty`` says YES."""
    return solve_fixed_faulty(ring, positions, f, caps)
