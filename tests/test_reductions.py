import itertools
import random

import pytest

from support import (
    n3dm_brute_force,
    partition_brute_force,
    random_star,
    star_brute,
    star_single_robot,
)
from roversweep.exact import INFINITY
from roversweep.fault_line import decide_fixed_faulty
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    ProblemSpec,
    RobotPlacement,
    StarInstance,
)
from roversweep.oracle import Caps, CapExceeded, verify_schedule
from roversweep.reductions import (
    line_from_n3dm,
    star_exact,
    star_from_partition,
)

WIDE_CAPS = Caps(max_n=500, max_k=8, max_f=7)


def elcf_answer(spec):
    return decide_fixed_faulty(
        spec.topology, spec.placement.positions, spec.faults, spec.bound, WIDE_CAPS
    ).feasible


def test_matching_generator_unit_example():
    spec = line_from_n3dm([1], [1], [1], 3)
    assert spec.bound == 35
    assert spec.topology.n == 96
    assert spec.placement.positions == (1, 38, 76)
    assert spec.faults == 0
    assert all(d is INFINITY for d in spec.topology.deadlines)
    assert elcf_answer(spec)


def test_matching_generator_validates_input():
    with pytest.raises(ValueError):
        line_from_n3dm([1], [1], [1, 2], 3)
    with pytest.raises(ValueError):
        line_from_n3dm([0], [1], [1], 2)
    # totals must add up to q * target
    with pytest.raises(ValueError, match="sum"):
        line_from_n3dm([1], [1], [1], 4)


def test_matching_no_instance():
    # conforming totals but no pairing: both triples include one value too big
    spec = line_from_n3dm([1, 1], [1, 1], [1, 3], 4)
    assert not n3dm_brute_force([1, 1], [1, 1], [1, 3], 4)
    assert not elcf_answer(spec)


def test_matching_two_by_two_instance():
    a, b, c, s = [1, 2], [1, 2], [2, 2], 5
    want = n3dm_brute_force(a, b, c, s)
    got = elcf_answer(line_from_n3dm(a, b, c, s))
    assert want and got


def test_generated_instances_have_exclusive_anchor_reach():
    # only the first group reaches the left end, only the second the
    # scaled midpoint, only the third the right end, within the bound
    rng = random.Random(55)
    for _ in range(25):
        q = rng.randint(1, 3)
        a = [rng.randint(1, 4) for _ in range(q)]
        b = [rng.randint(1, 4) for _ in range(q)]
        c = [rng.randint(1, 4) for _ in range(q)]
        total = sum(a) + sum(b) + sum(c)
        if total % q:
            continue
        s = total // q
        spec = line_from_n3dm(a, b, c, s)
        delta = spec.bound
        big = delta + 1  # the block size the offsets are scaled by
        assert 3 * big - 4 * s - 1 == spec.topology.n - 1
        left, mid, right = 0, big, spec.topology.n - 1
        for idx, p in enumerate(spec.placement.positions):
            which = 0 if p < big else (1 if p < 2 * big else 2)
            assert (abs(p - left) <= delta) == (which == 0)
            assert (abs(p - right) <= delta) == (which == 2)
            if which == 1:
                assert abs(p - mid) <= delta


def test_partition_generator_examples():
    yes = star_from_partition([1, 1])
    star = yes.topology
    assert star.leaf_weights == (1, 1, 4, 4, 4, 4)
    assert star.leaf_deadlines == (10,) * 6
    assert star.center_deadline == 10
    assert yes.placement.positions == (2, 3)
    assert star_exact(star, yes.placement, 2, 0, yes.bound).feasible

    no = star_from_partition([1, 3])
    assert not star_exact(no.topology, no.placement, 2, 0, no.bound).feasible

    again = star_from_partition([2, 2, 2, 2])
    assert star_exact(again.topology, again.placement, 2, 0, again.bound).feasible


def test_partition_generator_rejects_odd_sums():
    with pytest.raises(ValueError):
        star_from_partition([1, 2])


def test_partition_equivalence_random():
    rng = random.Random(56)
    for _ in range(120):
        q = rng.randint(1, 6)
        values = [rng.randint(1, 5) for _ in range(q)]
        if sum(values) % 2:
            values[0] += 1
        spec = star_from_partition(values)
        got = star_exact(spec.topology, spec.placement, 2, 0, spec.bound).feasible
        assert got == partition_brute_force(values), values


def test_star_single_robot_examples():
    verdict = star_single_robot(StarInstance((1, 2), (1, 5), INFINITY))
    assert verdict.feasible and verdict.optimum == 4
    assert not star_single_robot(StarInstance((3,), (2,), INFINITY)).feasible
    lone = star_single_robot(StarInstance((2,), (2,), INFINITY))
    assert lone.feasible and lone.optimum == 2


def test_star_single_robot_tie_break_is_by_index():
    star = StarInstance((2, 1), (4, 5), INFINITY)  # both leaves have deadline+weight 6
    verdict = star_single_robot(star)
    assert verdict.feasible
    first_leaf = verdict.schedule.tracks[0].waypoints[1][1]
    assert first_leaf == 0


def perm_feasible(star):
    q = star.q
    for perm in itertools.permutations(range(q)):
        t = 0
        ok = True
        for idx, leaf in enumerate(perm):
            arrive = t + star.leaf_weights[leaf]
            if arrive > star.leaf_deadlines[leaf]:
                ok = False
                break
            t = arrive + (star.leaf_weights[leaf] if idx < q - 1 else 0)
        if ok:
            return True
    return False


def test_star_heuristic_matches_permutation_oracle():
    rng = random.Random(57)
    for _ in range(300):
        star = random_star(rng)
        assert star_single_robot(star).feasible == perm_feasible(star), star


def test_star_exact_single_robot_matches_permutations():
    rng = random.Random(58)
    for _ in range(150):
        star = random_star(rng, max_q=6)
        placement = RobotPlacement(FIXED, positions=(star.center,))
        got = star_exact(star, placement, 1, 0).feasible
        assert got == perm_feasible(star), star


def test_star_exact_obvious_no():
    star = StarInstance((5, 1), (INFINITY, INFINITY), INFINITY)
    placement = RobotPlacement(FIXED, positions=(1,))
    # delta below the far leaf's weight plus the start's distance to the center
    assert not star_exact(star, placement, 1, 0, delta=5).feasible
    assert star_exact(star, placement, 1, 0, delta=7).feasible


def test_star_exact_caps():
    big = StarInstance((1,) * 20, (INFINITY,) * 20, INFINITY)
    with pytest.raises(CapExceeded):
        star_exact(big, RobotPlacement(FIXED, positions=(big.center,)), 1, 0)
    with pytest.raises(CapExceeded):
        star_exact(
            StarInstance((1,), (INFINITY,), INFINITY),
            RobotPlacement(FREE, count=3),
            3,
            0,
        )


def test_star_exact_two_robot_schedules_verify():
    rng = random.Random(59)
    seen = 0
    for _ in range(80):
        star = random_star(rng, min_q=2, max_q=6)
        mode = rng.random()
        if mode < 0.5:
            placement = RobotPlacement(
                FIXED,
                positions=tuple(sorted(rng.sample(range(star.q + 1), 2))),
            )
        else:
            placement = RobotPlacement(FREE, count=2)
        f = rng.choice((0, 1))
        verdict = star_exact(star, placement, 2, f)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(star, RobotPlacement(FREE, count=2), f, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert all(c.covered >= f + 1 for c in report.nodes)
        seen += 1
    assert seen > 25


def _star_cases(rng, count):
    """Seeded stars (q <= 6) with every team shape star_exact takes: k in
    {1, 2}, f < k, fixed (repeats only with f = 1), free and subset
    starts, int and Fraction weights, with and without a time bound."""
    for idx in range(count):
        star = random_star(rng, max_q=6, fractional=idx % 3 == 2)
        nodes = star.q + 1
        k = rng.choice((1, 2))
        f = rng.randrange(k)
        mode = (FIXED, FREE, SUBSET)[idx % 3]
        if mode == FIXED:
            if f:
                positions = tuple(rng.choices(range(nodes), k=k))
            else:
                positions = tuple(rng.sample(range(nodes), k))
            placement = RobotPlacement(FIXED, positions=positions)
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            allowed = rng.sample(range(nodes), rng.randint(1, nodes))
            placement = RobotPlacement(SUBSET, count=k, allowed=tuple(allowed))
        delta = None if rng.random() < 0.5 else rng.randint(0, int(3 * sum(star.leaf_weights)))
        yield star, placement, k, f, delta


def test_star_exact_matches_the_enumerator():
    rng = random.Random(61)
    feasible = {1: 0, 2: 0}
    for star, placement, k, f, delta in _star_cases(rng, 240):
        want = star_brute(star, placement, k, f, delta)
        got = star_exact(star, placement, k, f, delta)
        case = (star, placement, k, f, delta)
        assert got.feasible == want.feasible, case
        assert got.optimum == want.optimum, case
        if got.feasible:
            feasible[k] += 1
            spec = ProblemSpec(star, placement, f, delta)
            report = verify_schedule(spec, got.schedule)
            assert report.passed, case
            assert report.makespan == got.optimum, case
    assert min(feasible.values()) > 40
