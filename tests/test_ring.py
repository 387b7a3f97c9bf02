import itertools
import random
from fractions import Fraction

import pytest

from support import (
    copy_of,
    fixed_positions,
    line_span,
    n3dm_brute_force,
    naive_team_tables,
    profile_plans,
    random_line,
    random_ring,
    reach_chain_decide,
    replicated_starts,
    ring_from_line,
    walk_plans,
)
from roversweep.exact import INFINITY
from roversweep.instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    SUBSET,
)
from roversweep.multi_line import solve_fixed as line_solve_fixed
from roversweep.multi_line import solve_free as line_solve_free
from roversweep.fault_line import decide_fixed_faulty, fixed_faulty_candidates, plan_tables, solve_subset
from roversweep.oracle import Caps, CapExceeded, brute_solve, enumerate_walks, verify_schedule
from roversweep.reductions import line_from_n3dm
from roversweep.ring import (
    decide_ring_fixed_faulty,
    optimize_ring_fixed_faulty,
    replicate_ring,
    solve_ring_fixed,
    solve_ring_free,
    solve_ring_free_faulty,
)

UNIT3 = RingInstance((1, 1, 1), (INFINITY,) * 3)
UNIT4 = RingInstance((1, 1, 1, 1), (INFINITY,) * 4)
UNIT6 = RingInstance((1,) * 6, (INFINITY,) * 6)


def cut_to_line(ring, cut):
    """Remove edge (cut, cut+1); the line starts at cut+1 and runs ccw."""
    n = ring.n
    order = [(cut + 1 + t) % n for t in range(n)]
    coords = [0]
    for idx in range(1, n):
        coords.append(coords[-1] + ring.edge_weights[order[idx - 1]])
    deadlines = tuple(ring.deadlines[v] for v in order)
    return LineInstance(tuple(coords), deadlines), order


def test_ring_fixed_examples():
    assert solve_ring_fixed(UNIT4, (0, 2)).optimum == 1
    assert solve_ring_fixed(UNIT3, (0,)).optimum == 2


def test_ring_fixed_rejects_duplicates():
    with pytest.raises(ValueError):
        solve_ring_fixed(UNIT4, (1, 1))


def brute_ring_fixed(ring, positions):
    best = INFINITY
    for cut in range(ring.n):
        line, order = cut_to_line(ring, cut)
        mapped = tuple(sorted(order.index(p) for p in positions))
        got = line_solve_fixed(line, mapped).optimum
        best = min(best, got)
    return best


def test_ring_fixed_matches_cut_enumeration():
    rng = random.Random(60)
    for _ in range(150):
        ring = random_ring(rng, max_n=8)
        k = rng.randint(1, min(3, ring.n))
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=False)
        assert solve_ring_fixed(ring, positions).optimum == brute_ring_fixed(ring, positions)


def test_ring_fixed_schedules_verify():
    rng = random.Random(61)
    seen = 0
    for _ in range(80):
        ring = random_ring(rng, max_n=7)
        k = rng.randint(1, min(3, ring.n))
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=False)
        verdict = solve_ring_fixed(ring, positions)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(ring, RobotPlacement(FIXED, positions=positions), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        seen += 1
    assert seen > 30


def test_ring_free_examples():
    assert solve_ring_free(UNIT6, 3).optimum == 1
    assert solve_ring_free(UNIT6, 6).optimum == 0
    assert solve_ring_free(UNIT6, 8).optimum == 0


def test_ring_free_matches_all_cut_minimum():
    rng = random.Random(62)
    for _ in range(100):
        ring = random_ring(rng, max_n=8)
        k = rng.randint(1, 4)
        got = solve_ring_free(ring, k).optimum
        want = INFINITY
        for cut in range(ring.n):
            line, _ = cut_to_line(ring, cut)
            want = min(want, line_solve_free(line, k).optimum)
        assert got == want, (ring, k)


def test_ring_free_equals_the_naive_per_cut_minimum():
    """Some edge between two parts stays idle, so the ring optimum is the
    least over cuts of the line optimum, here from the naive reference
    tables rather than from the solver itself."""
    rng = random.Random(64)
    for trial in range(40):
        ring = random_ring(rng, min_n=2, max_n=9, deadline_prob=0.6)
        if trial % 2:
            ring = ring.scaled(Fraction(2, 3))
        n = ring.n
        per_cut = [naive_team_tables(cut_to_line(ring, cut)[0], 7) for cut in range(n)]
        for k in range(2, 8):
            want = min(tables[k][0][n - 1] for tables in per_cut)
            assert solve_ring_free(ring, k).optimum == want, (ring, k)


def test_ring_free_schedules_verify():
    rng = random.Random(63)
    seen = 0
    for _ in range(60):
        ring = random_ring(rng, max_n=7)
        k = rng.randint(1, 4)
        verdict = solve_ring_free(ring, k)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(ring, RobotPlacement(FREE, count=k), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        seen += 1
    assert seen > 25


def test_ring_free_schedules_verify_at_the_optimum():
    # larger teams than nodes or parts, so some robots idle; parts may wrap
    rng = random.Random(65)
    seen = idle = 0
    for trial in range(60):
        ring = random_ring(rng, min_n=2, max_n=10, deadline_prob=0.4)
        if trial % 2:
            ring = ring.scaled(Fraction(3, 2))
        k = rng.randint(2, 7)
        verdict = solve_ring_free(ring, k)
        if not verdict.feasible:
            continue
        tracks = verdict.schedule.tracks
        assert len(tracks) == k
        spec = ProblemSpec(ring, RobotPlacement(FREE, count=k), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        seen += 1
        idle += any(len(track.waypoints) == 1 for track in tracks)
    assert seen > 40 and idle > 10


def test_replicate_ring():
    assert replicate_ring(UNIT3, 0) == UNIT3
    rep2 = replicate_ring(UNIT3, 1)
    assert rep2.n == 6
    assert rep2.edge_weights == (1,) * 6
    assert [copy_of(UNIT3.n, i) for i in range(6)] == [0, 1, 2, 0, 1, 2]
    patterned = replicate_ring(RingInstance((1, 1, 1), (2, 5, 9)), 1)
    assert patterned.deadlines == (2, 5, 9, 2, 5, 9)
    assert replicated_starts(UNIT3, 1, (0, 2)) == (0, 2, 3, 5)


def test_ring_free_faulty_examples():
    assert solve_ring_free_faulty(UNIT3, 2, 1).optimum == 2
    rng = random.Random(64)
    for _ in range(40):
        ring = random_ring(rng, max_n=6)
        k = rng.randint(1, 4)
        assert solve_ring_free_faulty(ring, k, 0).optimum == solve_ring_free(ring, k).optimum


def test_ring_free_faulty_matches_brute_without_deadlines():
    rng = random.Random(65)
    for _ in range(120):
        n = rng.randint(2, 5)
        ring = RingInstance(tuple(rng.randint(1, 4) for _ in range(n)), (INFINITY,) * n)
        k = rng.randint(2, 4)
        f = rng.randint(1, min(2, k - 1))
        got = solve_ring_free_faulty(ring, k, f).optimum
        spec = ProblemSpec(ring, RobotPlacement(FREE, count=k), f, None)
        assert got == brute_solve(spec).optimum, (ring, k, f)


def test_ring_free_faulty_projection_verifies():
    rng = random.Random(66)
    seen = 0
    for _ in range(60):
        ring = random_ring(rng, max_n=5)
        k = rng.randint(2, 4)
        f = rng.randint(1, min(2, k - 1))
        verdict = solve_ring_free_faulty(ring, k, f)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(ring, RobotPlacement(FREE, count=k), f, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert all(c.covered >= f + 1 for c in report.nodes)
        seen += 1
    assert seen > 20


def test_replicated_schedule_projects_both_ways():
    # exploring the replication once covers the base f+1 times, and the
    # replicated instance accepts the unprojected schedule as-is
    rng = random.Random(67)
    for _ in range(40):
        ring = random_ring(rng, max_n=5)
        k = rng.randint(2, 4)
        f = rng.randint(1, min(2, k - 1))
        rep = replicate_ring(ring, f)
        big_verdict = solve_ring_free(rep, k)
        if not big_verdict.feasible:
            continue
        big_spec = ProblemSpec(rep, RobotPlacement(FREE, count=k), 0, None)
        assert verify_schedule(big_spec, big_verdict.schedule).passed
        small = solve_ring_free_faulty(ring, k, f)
        assert small.feasible
        assert small.optimum == big_verdict.optimum


def test_decide_ring_fixed_faulty_examples():
    assert decide_ring_fixed_faulty(UNIT3, (0, 1), 1, 2).feasible
    assert not decide_ring_fixed_faulty(UNIT3, (0, 1), 1, Fraction(3, 2)).feasible


def brute_ring_cover(ring, positions, f, delta):
    n = ring.n
    need = f + 1
    plans = []
    blank = (INFINITY,) * n
    for p in positions:
        profiles = set()
        for walk in enumerate_walks(ring, p, delta, blank):
            profiles.add(
                tuple(
                    t if t is not None and t <= min(ring.deadlines[v], delta) else None
                    for v, t in enumerate(walk.first_visit)
                )
            )
        plans.append(sorted(profiles, key=lambda pr: tuple(str(x) for x in pr)))
    for combo in itertools.product(*plans):
        if all(
            sum(1 for prof in combo if prof[v] is not None) >= need for v in range(n)
        ):
            return True
    return False


def test_decide_agrees_with_fixed_solver_when_reliable():
    rng = random.Random(68)
    for _ in range(200):
        ring = random_ring(rng, max_n=6)
        k = rng.randint(1, min(3, ring.n))
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=False)
        opt = solve_ring_fixed(ring, positions).optimum
        total = ring.lap
        for delta in (0, total // 2, total, 2 * total):
            assert decide_ring_fixed_faulty(ring, positions, 0, delta).feasible == (opt <= delta)


def test_decide_witness_schedules_verify():
    rng = random.Random(69)
    seen = 0
    for _ in range(80):
        ring = random_ring(rng, max_n=5, deadline_prob=0.3)
        k = rng.randint(2, 3)
        f = rng.randint(1, k - 1)
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=True)
        delta = rng.choice((ring.lap, 2 * ring.lap))
        verdict = decide_ring_fixed_faulty(ring, positions, f, delta)
        if not verdict.feasible or verdict.schedule is None:
            continue
        spec = ProblemSpec(ring, RobotPlacement(FREE, count=k), f, delta)
        assert verify_schedule(spec, verdict.schedule).passed
        seen += 1
    assert seen > 20


def test_optimize_ring_fixed_faulty_is_tight():
    rng = random.Random(70)
    checked = 0
    for _ in range(50):
        ring = random_ring(rng, max_n=4, deadline_prob=0.3)
        k = rng.randint(2, 3)
        f = rng.randint(1, k - 1)
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=True)
        verdict = optimize_ring_fixed_faulty(ring, positions, f)
        if not verdict.feasible:
            continue
        opt = verdict.optimum
        assert decide_ring_fixed_faulty(ring, positions, f, opt).feasible
        below = [c for c in fixed_faulty_candidates(plan_tables(ring, positions)) if c < opt]
        if below:
            assert not decide_ring_fixed_faulty(ring, positions, f, max(below)).feasible
        checked += 1
    assert checked > 15


@pytest.mark.parametrize("deadline_prob", [0.0, 0.5])
def test_optimize_ring_fixed_faulty_matches_brute(deadline_prob):
    rng = random.Random(71)
    feasible = 0
    for _ in range(60):
        ring = random_ring(rng, max_n=5, deadline_prob=deadline_prob)
        k = rng.randint(2, 3)
        f = rng.randint(1, k - 1)
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=True)
        verdict = optimize_ring_fixed_faulty(ring, positions, f)
        spec = ProblemSpec(ring, RobotPlacement(FIXED, positions=positions), f, None)
        assert verdict.optimum == brute_solve(spec).optimum, (ring, positions, f)
        if verdict.feasible:
            bounded = ProblemSpec(ring, RobotPlacement(FIXED, positions=positions), f,
                                  verdict.optimum)
            assert verify_schedule(bounded, verdict.schedule).passed
            feasible += 1
    assert feasible > 20


def test_walk_plans_and_candidates_match_walks():
    # the arc-growth search keeps exactly the coverage antichain of all
    # walks, on rings and lines; its candidates are on-time first visits
    # of walks, and no other first visit changes that antichain
    for make in (random_ring, random_line):
        rng = random.Random(72)
        for _ in range(40):
            topology = make(rng, min_n=5, max_n=8, deadline_prob=0.6)
            p = rng.randrange(topology.n)
            times = {0}
            for walk in enumerate_walks(topology, p, INFINITY, (INFINITY,) * topology.n):
                times.update(
                    t for t, d in zip(walk.first_visit, topology.deadlines)
                    if t is not None and t <= d
                )
            if any(d is not INFINITY for d in topology.deadlines):
                candidates = fixed_faulty_candidates(plan_tables(topology, (p,)))
                assert set(candidates) <= times
                for t in times:
                    below = max(c for c in candidates if c <= t)
                    assert masks(topology, p, t) == masks(topology, p, below)
            # every time is a whole number on rings and a multiple of 1/2 on lines
            if isinstance(topology, RingInstance):
                span, step = topology.lap, 1
            else:
                span, step = line_span(topology), Fraction(1, 2)
            for delta in (i * step for i in range(int(2 * span / step) + 1)):
                want = sorted(pl.mask for pl in profile_plans(topology, p, delta))
                assert masks(topology, p, delta) == want


def masks(topology, p, delta):
    return sorted(pl.mask for pl in walk_plans(topology, p, delta))


def test_one_robot_from_a_subset_of_a_ring_matches_the_brute_force():
    rng = random.Random(77)
    feasible = 0
    for _ in range(80):
        ring = random_ring(rng, max_n=6)
        allowed = tuple(sorted(rng.sample(range(ring.n), rng.randint(1, ring.n))))
        placement = RobotPlacement(SUBSET, count=1, allowed=allowed)
        verdict = solve_subset(ring, allowed, 1, 0)
        assert verdict.optimum == brute_solve(ProblemSpec(ring, placement, 0, None)).optimum
        if verdict.feasible:
            bounded = ProblemSpec(ring, placement, 0, verdict.optimum)
            assert verify_schedule(bounded, verdict.schedule).passed
            feasible += 1
    assert feasible > 20


def test_fixed_faulty_ring_search_is_capped():
    n = 17
    plain = RingInstance((1,) * n, (INFINITY,) * n)
    assert decide_ring_fixed_faulty(plain, (0, 6, 12), 1, 12).feasible
    timed = RingInstance((1,) * n, (INFINITY,) * (n - 1) + (30,))
    with pytest.raises(CapExceeded):
        decide_ring_fixed_faulty(timed, (0, 6, 12), 1, 12)
    with pytest.raises(CapExceeded):
        optimize_ring_fixed_faulty(timed, (0, 6, 12), 1)
    # reliable robots at distinct nodes take the polynomial route, uncapped
    assert decide_ring_fixed_faulty(timed, (0, 6, 12), 0, 6).feasible


@pytest.mark.known_finding
def test_greedy_reach_chain_is_unsound_for_distinct_robots():
    """Minimal standing counterexample to the published reach-chain decision.

    Both copies of node 1 in the doubled ring sit next to copies of the
    robot at node 0, so the chain covers the replication, yet node 1 can
    only ever be visited once on time by distinct physical robots.  The
    chain lives in the test support module; the routed decision is the
    exact search, which answers NO here.
    """
    ring = RingInstance((1, 3, 1), (INFINITY,) * 3)
    positions = (0, 2)
    assert not brute_ring_cover(ring, positions, 1, 2)
    assert reach_chain_decide(ring, positions, 1, 2)  # over-accepts
    assert not decide_ring_fixed_faulty(ring, positions, 1, 2).feasible


def test_the_n3dm_reduction_closed_into_a_ring_keeps_every_answer():
    # the fixed-position crash ring is NP-hard: an edge of weight bound + 1
    # closing the reduction's line changes no plan, hence no answer; the
    # line gives the same answers on these instances (acceptance criterion 6)
    caps = Caps(max_n=500, max_k=8, max_f=7)
    checked = yes = 0
    for q in (1, 2):
        group = list(itertools.combinations_with_replacement((1, 2, 3), q))
        for a, b, c in itertools.product(group, repeat=3):
            total = sum(a) + sum(b) + sum(c)
            if total % q:
                continue
            ring = ring_from_line(line_from_n3dm(list(a), list(b), list(c), total // q))
            got = decide_ring_fixed_faulty(ring.topology, ring.placement.positions,
                                           ring.faults, ring.bound, caps).feasible
            want = n3dm_brute_force(a, b, c, total // q)
            assert got == want, (a, b, c)
            checked += 1
            yes += want
    assert (checked, yes) == (139, 111)


def test_a_line_closed_by_an_edge_longer_than_the_bound_decides_as_the_line():
    rng = random.Random(53)
    yes = 0
    for _ in range(400):
        line = random_line(rng, min_n=2, max_n=8, deadline_prob=rng.choice((0, 0.5)),
                           integral=True)
        k = rng.randint(2, 4)
        f = rng.randint(1, k - 1)
        positions = fixed_positions(rng, line.n, k, allow_duplicates=True)
        delta = rng.randint(0, 2 * line_span(line))
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), f, delta)
        ring = ring_from_line(spec)
        want = decide_fixed_faulty(line, positions, f, delta).feasible
        assert decide_fixed_faulty(ring.topology, positions, f, delta).feasible == want
        yes += want
    assert 40 <= yes <= 360
