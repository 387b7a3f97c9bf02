"""Exploration of rings: the ring names of the shared solvers.

Rings reuse the line machinery.  Reliable robots, fixed or free, are
solved by ``multi_line.solve_fixed`` and ``multi_line.solve_free``, which
take a line or a ring; fixed positions with crashes by
``fault_line.decide_fixed_faulty`` and ``fault_line.solve_fixed_faulty``,
whose branch and bound runs on rings as on lines and which send
reliable robots at distinct nodes to ``solve_fixed``; free positions
with crashes by ``fault_line.solve_free_faulty``, which explores the ring
made of f+1 concatenated copies through ``solve_free`` with f + 1 laps,
off the base ring's labels.  The ring names below delegate to them.

The farthest-reach chain over the replicated ring, the polynomial
procedure of the source material for fixed positions with crashes, lets
copies of one physical robot serve two segments and over-accepts, so it
is not used.  That case is NP-hard on weighted rings: no on-time plan
crosses an edge longer than the time bound, so closing the line of the
N3DM reduction (``reductions.line_from_n3dm``) with an edge of weight
bound + 1 leaves every plan, and the answer, as on the line.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .exact import ExactNumber
from .fault_line import decide_fixed_faulty, solve_fixed_faulty, solve_free_faulty
from .instance import RingInstance
from .multi_line import solve_fixed, solve_free
from .oracle import Caps
from .schedule import Verdict

# no ring code runs a label pass any more, but ``ring.propagate`` stays
# bound: perfbench/test_bench.py checks that the span tracer wraps it here
from .single_robot import propagate  # noqa: F401


def solve_ring_fixed(ring: RingInstance, positions: Iterable[int]) -> Verdict:
    """``multi_line.solve_fixed`` on a ring: reliable robots at given
    distinct nodes."""
    return solve_fixed(ring, positions)


def solve_ring_free(ring: RingInstance, k: int) -> Verdict:
    """``multi_line.solve_free`` on a ring: k freely placed robots."""
    return solve_free(ring, k)


def solve_ring_free_faulty(ring: RingInstance, k: int, f: int) -> Verdict:
    """``fault_line.solve_free_faulty`` on a ring: k free robots, up to f
    of which may crash, explore f+1 laps of it."""
    return solve_free_faulty(ring, k, f)


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
