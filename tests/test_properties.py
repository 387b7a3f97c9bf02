"""Property tests: the answers scale with the instance and ignore mirroring
and rotation, and a ring with an edge too long to use answers as the line
cut there."""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from support import scaled_verdict
from roversweep.exact import INFINITY
from roversweep.fault_line import solve, solve_fixed_faulty
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
)
from roversweep.multi_line import solve_fixed, solve_free
from roversweep.oracle import enumerate_walks
from roversweep.reductions import star_exact
from roversweep.ring import optimize_ring_fixed_faulty, solve_ring_fixed, solve_ring_free
from roversweep.single_robot import solve_fixed_start, solve_free_start, solve_from

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

amounts = st.one_of(
    st.integers(1, 6),
    st.builds(Fraction, st.integers(1, 12), st.sampled_from((2, 3, 5))),
)
factors = st.one_of(
    st.integers(1, 7),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


def deadline_lists(n, top):
    deadline = st.one_of(st.just(INFINITY), st.builds(Fraction, st.integers(0, 4 * top), st.sampled_from((1, 2))))
    return st.lists(deadline, min_size=n, max_size=n)


@st.composite
def lines(draw, max_n=6):
    steps = draw(st.lists(amounts, min_size=0, max_size=max_n - 1))
    coords = [0]
    for step in steps:
        coords.append(coords[-1] + step)
    deadlines = draw(deadline_lists(len(coords), int(coords[-1]) + 1))
    return LineInstance(tuple(coords), tuple(deadlines))


@st.composite
def rings(draw, max_n=6):
    weights = draw(st.lists(amounts, min_size=2, max_size=max_n))
    deadlines = draw(deadline_lists(len(weights), int(sum(weights)) + 1))
    return RingInstance(tuple(weights), tuple(deadlines))


@st.composite
def stars(draw, max_q=6):
    weights = draw(st.lists(amounts, min_size=1, max_size=max_q))
    deadlines = draw(deadline_lists(len(weights) + 1, 2 * int(sum(weights)) + 1))
    return StarInstance(tuple(weights), tuple(deadlines[:-1]), deadlines[-1])


def _line_solvers(line, data):
    n = line.n
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, 3))
    crews = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3))))
    return (
        lambda inst: solve_fixed_faulty(inst, crews, 1),
        # the router's verdicts carry witnesses
        lambda inst: solve(ProblemSpec(inst, RobotPlacement(FIXED, positions=crews), 1, None)),
        lambda inst: solve_fixed_start(inst, positions[0]),
        lambda inst: solve_free_start(inst, positions),
        lambda inst: solve_fixed(inst, positions),
        lambda inst: solve_free(inst, k),
    )


def _ring_solvers(ring, data):
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, ring.n - 1), min_size=1, max_size=3))))
    k = data.draw(st.integers(1, 3))
    crews = tuple(sorted(data.draw(st.lists(st.integers(0, ring.n - 1), min_size=2, max_size=3))))
    return (
        lambda inst: optimize_ring_fixed_faulty(inst, crews, 1),
        lambda inst: solve_ring_fixed(inst, positions),
        lambda inst: solve_ring_free(inst, k),
    )


@SETTINGS
@given(lines(), factors, st.data())
def test_scaling_a_line_scales_every_answer(line, c, data):
    for solve in _line_solvers(line, data):
        assert solve(line.scaled(c)) == scaled_verdict(solve(line), c)


@SETTINGS
@given(rings(), factors, st.data())
def test_scaling_a_ring_scales_every_answer(ring, c, data):
    for solve in _ring_solvers(ring, data):
        assert solve(ring.scaled(c)) == scaled_verdict(solve(ring), c)


@SETTINGS
@given(stars(), factors, st.data())
def test_scaling_a_star_scales_every_answer(star, c, data):
    # times scale by c, star waypoints keep their node numbers
    nodes = range(star.q + 1)
    k = data.draw(st.integers(1, 2))
    f = data.draw(st.integers(0, k - 1))
    starts = data.draw(st.lists(st.sampled_from(nodes), min_size=k, max_size=k, unique=f == 0))
    allowed = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
    delta = data.draw(
        st.one_of(st.none(), st.builds(Fraction, st.integers(0, 40), st.sampled_from((1, 2))))
    )
    for placement in (
        RobotPlacement(FIXED, positions=tuple(starts)),
        RobotPlacement(FREE, count=k),
        RobotPlacement(SUBSET, count=k, allowed=tuple(allowed)),
    ):
        verdict = star_exact(star, placement, k, f, delta)
        twin = star_exact(star.scaled(c), placement, k, f, None if delta is None else delta * c)
        assert twin == scaled_verdict(verdict, c)


def _mirror(line):
    far = line.coordinates[-1]
    return LineInstance(
        tuple(far - x for x in reversed(line.coordinates)),
        tuple(reversed(line.deadlines)),
    )


@SETTINGS
@given(lines(), st.data())
def test_mirroring_a_line_keeps_the_optimum(line, data):
    n = line.n
    mirrored = _mirror(line)
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
    flipped = tuple(sorted(n - 1 - p for p in positions))
    k = data.draw(st.integers(1, 3))
    pairs = (
        (solve_fixed_start(line, positions[0]), solve_fixed_start(mirrored, n - 1 - positions[0])),
        (solve_free_start(line, positions), solve_free_start(mirrored, flipped)),
        (solve_fixed(line, positions), solve_fixed(mirrored, flipped)),
        (solve_free(line, k), solve_free(mirrored, k)),
    )
    if len(positions) >= 2:
        pairs += (
            (solve_fixed_faulty(line, positions, 1), solve_fixed_faulty(mirrored, flipped, 1)),
        )
    for verdict, twin in pairs:
        assert verdict.feasible == twin.feasible
        assert verdict.optimum == twin.optimum


def _rotate(ring, s):
    """The ring with node v renamed (v + s) mod n, edges and deadlines alike."""
    n = ring.n
    return RingInstance(
        tuple(ring.edge_weights[(v - s) % n] for v in range(n)),
        tuple(ring.deadlines[(v - s) % n] for v in range(n)),
    )


@SETTINGS
@given(rings(), st.data())
def test_rotating_a_ring_keeps_the_optimum(ring, data):
    n = ring.n
    s = data.draw(st.integers(1, n - 1))
    rotated = _rotate(ring, s)
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
    crews = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3))))
    k = data.draw(st.integers(1, 4))

    def moved(nodes):
        return tuple(sorted((p + s) % n for p in nodes))

    pairs = (
        (solve_ring_fixed(ring, positions), solve_ring_fixed(rotated, moved(positions))),
        (solve_ring_free(ring, k), solve_ring_free(rotated, k)),
        (optimize_ring_fixed_faulty(ring, crews, 1), optimize_ring_fixed_faulty(rotated, moved(crews), 1)),
    )
    for verdict, twin in pairs:
        assert verdict.feasible == twin.feasible
        assert verdict.optimum == twin.optimum


@st.composite
def cut_rings(draw, max_n=6):
    """(ring, line): the ring's edge (n-1, 0) weighs more than twice all
    the others together, and the line is the ring cut at that edge."""
    steps = draw(st.lists(amounts, min_size=1, max_size=max_n - 1))
    heavy = 2 * sum(steps) + draw(amounts)
    deadlines = tuple(draw(deadline_lists(len(steps) + 1, 2 * int(sum(steps)) + 1)))
    line = LineInstance(tuple(accumulate(steps, initial=0)), deadlines)
    return RingInstance(tuple(steps) + (heavy,), deadlines), line


@SETTINGS
@given(cut_rings(), st.data())
def test_a_ring_explores_as_the_line_cut_at_an_edge_too_long_to_use(pair, data):
    # crossing the heavy edge takes longer than going back along all the
    # others, so no optimal walk and no walk within the budget uses it
    ring, line = pair
    n = ring.n
    budget = ring.edge_weights[-1] * Fraction(data.draw(st.integers(0, 99)), 100)
    start = data.draw(st.integers(0, n - 1))
    profiles = [
        [walk.first_visit for walk in enumerate_walks(top, start, budget)] for top in (ring, line)
    ]
    assert profiles[0] == profiles[1]
    starts = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    for solve in (lambda top: solve_from(top, starts), lambda top: solve_free(top, 1)):
        verdict, twin = solve(ring), solve(line)
        assert verdict.feasible == twin.feasible
        assert verdict.optimum == twin.optimum
