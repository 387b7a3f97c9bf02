import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from support import fixed_positions, line_span, random_line, random_ring, random_star, walk_plans
from roversweep.exact import INFINITY
from roversweep import fault_line
from roversweep.fault_line import (
    decide,
    decide_fixed_faulty,
    fixed_faulty_candidates,
    least_feasible,
    plan_tables,
    resilience,
    search_verdict,
    solve,
    solve_fixed_faulty,
    solve_free_faulty,
)
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
)
from roversweep.multi_line import solve_fixed, solve_free
from roversweep.oracle import Caps, CapExceeded, brute_solve, verify_schedule
from roversweep.reductions import line_from_n3dm
from roversweep.ring import decide_ring_fixed_faulty, optimize_ring_fixed_faulty
from roversweep.schedule import track_schedule

UNIT5 = LineInstance(tuple(range(5)), (INFINITY,) * 5)
PAIR = LineInstance((0, 1), (INFINITY, INFINITY))
WIDE_CAPS = Caps(max_n=300, max_k=8, max_f=7)
UNIT3 = LineInstance((0, 1, 2), (INFINITY,) * 3)
RING3 = RingInstance((1, 1, 1), (INFINITY,) * 3)


def test_free_faulty_equals_group_solve():
    assert solve_free_faulty(UNIT5, 6, 2).optimum == solve_free(UNIT5, 2).optimum == 2
    assert solve_free_faulty(UNIT5, 3, 2).optimum == solve_free(UNIT5, 1).optimum
    rng = random.Random(90)
    for _ in range(60):
        line = random_line(rng)
        k = rng.randint(1, 6)
        f = rng.randint(0, k - 1)
        assert solve_free_faulty(line, k, f).optimum == solve_free(line, k // (f + 1)).optimum


def test_free_faulty_zero_faults_matches_free_solve():
    rng = random.Random(91)
    for _ in range(40):
        line = random_line(rng)
        k = rng.randint(1, 4)
        assert solve_free_faulty(line, k, 0).optimum == solve_free(line, k).optimum


def test_free_faulty_schedule_has_full_multiplicity():
    rng = random.Random(92)
    seen = 0
    for _ in range(60):
        line = random_line(rng)
        k = rng.randint(2, 6)
        f = rng.randint(1, k - 1)
        verdict = solve_free_faulty(line, k, f)
        if not verdict.feasible:
            continue
        assert len(verdict.schedule.tracks) == k
        spec = ProblemSpec(line, RobotPlacement(FREE, count=k), f, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert all(c.covered >= f + 1 for c in report.nodes)
        seen += 1
    assert seen > 25


def test_decide_two_robots_one_fault():
    assert decide_fixed_faulty(PAIR, (0, 0), 1, 1).feasible
    assert not decide_fixed_faulty(PAIR, (0, 0), 1, Fraction(1, 2)).feasible


def test_decide_rejects_infinite_bound_and_bad_faults():
    with pytest.raises(ValueError):
        decide_fixed_faulty(PAIR, (0, 0), 1, INFINITY)
    with pytest.raises(ValueError):
        decide_fixed_faulty(PAIR, (0, 1), 2, 1)


@pytest.mark.parametrize(
    "run",
    [
        lambda p: decide_fixed_faulty(UNIT3, p, 1, 5),
        lambda p: solve_fixed_faulty(UNIT3, p, 1),
        lambda p: decide_ring_fixed_faulty(RING3, p, 1, 5),
        lambda p: optimize_ring_fixed_faulty(RING3, p, 1),
    ],
    ids=["decide_line", "solve_line", "decide_ring", "optimize_ring"],
)
@pytest.mark.parametrize("positions", [(0, 7), (-1, 1), (1, 3)])
def test_positions_out_of_range_are_refused(run, positions):
    with pytest.raises(ValueError, match="robot position out of range"):
        run(positions)


@pytest.mark.parametrize(
    "topology",
    [LineInstance((0, 1, 3), (INFINITY,) * 3), RingInstance((1, 2, 3), (INFINITY, 4, INFINITY))],
    ids=["line", "ring"],
)
@pytest.mark.parametrize("f", [0, 1])
def test_a_negative_bound_is_decided_no(topology, f):
    # no walk finishes before time 0; with f = 0 the reliable shortcut
    # would cap the deadlines at the bound, and a negative deadline is invalid
    assert not decide_fixed_faulty(topology, (0, 2), f, Fraction(-1, 2)).feasible
    assert not decide_fixed_faulty(topology, (0, 2), f, -1).feasible


def test_decide_refuses_beyond_caps():
    big = LineInstance(tuple(range(60)), (INFINITY,) * 60)
    with pytest.raises(CapExceeded, match="refused"):
        decide_fixed_faulty(big, (0, 30), 1, 10)
    # explicit caps override runs it
    assert not decide_fixed_faulty(big, (0, 30), 1, 10, Caps(max_n=60, max_k=8)).feasible


def test_decide_matching_reduction_instance():
    spec = line_from_n3dm([1], [1], [1], 3)
    line = spec.topology
    verdict = decide_fixed_faulty(
        line, spec.placement.positions, spec.faults, spec.bound, WIDE_CAPS
    )
    assert verdict.feasible
    # the witness covers [0,34], [35,67], [68,95]
    covers = []
    for track in verdict.schedule.tracks:
        xs = [x for _, x in track.waypoints]
        covers.append((min(xs), max(xs)))
    assert covers == [(0, 34), (35, 67), (68, 95)]
    assert not decide_fixed_faulty(
        line, spec.placement.positions, spec.faults, 34, WIDE_CAPS
    ).feasible


def test_decide_matches_brute_force_with_deadlines():
    rng = random.Random(93)
    trials = 0
    for _ in range(150):
        line = random_line(rng, min_n=2, max_n=6)
        k = rng.randint(1, 3)
        f = rng.randint(0, k - 1)
        positions = fixed_positions(rng, line.n, k, allow_duplicates=f > 0)
        k = len(positions)
        if f >= k:
            continue
        span = int(line_span(line)) + 1
        for delta in (0, Fraction(span, 2), span, 2 * span):
            spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), f, delta)
            want = brute_solve(spec).feasible and brute_solve(spec).optimum <= delta
            got = decide_fixed_faulty(line, positions, f, delta).feasible
            assert got == want, (line, positions, f, delta)
        trials += 1
    assert trials > 100


def test_optimizer_examples_and_brute_agreement():
    assert solve_fixed_faulty(PAIR, (0, 0), 1).optimum == 1
    rng = random.Random(94)
    for _ in range(120):
        line = random_line(rng, min_n=1, max_n=6)
        k = rng.randint(1, 3)
        f = rng.randint(0, min(1, k - 1))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=f > 0)
        k = len(positions)
        if f >= k:
            continue
        got = solve_fixed_faulty(line, positions, f).optimum
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), f, None)
        assert got == brute_solve(spec).optimum


def test_one_free_robot_on_a_line_routes_to_the_brute_force_optimum():
    rng = random.Random(95)
    feasible = 0
    for _ in range(80):
        line = random_line(rng, min_n=1, max_n=7)
        spec = ProblemSpec(line, RobotPlacement(FREE, count=1), 0, None)
        got = fault_line.solve(spec)
        assert got.optimum == brute_solve(spec).optimum
        if got.feasible:
            feasible += 1
            assert verify_schedule(spec, got.schedule).passed
    assert feasible > 20


def test_plan_tables_give_every_probe_its_bounded_plans():
    # one growth per start without a time bound lists, at every candidate
    # time, the plans a growth bounded by that time lists: masks, tracks
    # and order.  Without deadlines the arc table lists the same masks,
    # each walked on time by its track, and its candidates are the cover
    # costs of the arcs.  Either way a solve that reads its probes off the
    # tables equals the binary search over decisions that make their own
    rng = random.Random(99)
    checked = 0
    for i in range(40):
        make = random_ring if i % 2 else random_line
        topology = make(rng, min_n=2, max_n=12, deadline_prob=0.5)
        if all(d is INFINITY for d in topology.deadlines):
            continue
        k = rng.randint(2, 3)
        positions = fixed_positions(rng, topology.n, k, allow_duplicates=True)
        tables = plan_tables(topology, positions)
        candidates = fixed_faulty_candidates(topology, positions, tables)
        for delta in candidates:
            for p in set(positions):
                assert tables[p].plans(delta) == walk_plans(topology, p, delta)
        assert_solve_reads_its_decisions(topology, positions, 1, candidates)
        checked += 1
    assert checked > 30
    rng = random.Random(100)
    shared = fractional = 0
    for i in range(48):
        if i % 2:
            topology = random_ring(rng, min_n=2, max_n=9, deadline_prob=0)
            if i % 4 == 3:
                topology = RingInstance(tuple(Fraction(w, 3) for w in topology.edge_weights),
                                        topology.deadlines)
        else:
            topology = random_line(rng, min_n=2, max_n=10, deadline_prob=0, integral=i % 4 == 0)
        k = rng.randint(2, 4)
        positions = fixed_positions(rng, topology.n, k, allow_duplicates=True)
        tables = plan_tables(topology, positions)
        candidates = fixed_faulty_candidates(topology, positions, tables)
        assert candidates == cover_costs(topology, positions)
        for delta in candidates:
            for p in set(positions):
                plans = tables[p].plans(delta)
                assert sorted(pl.mask for pl in plans) == sorted(
                    pl.mask for pl in walk_plans(topology, p, delta))
                for pl in plans:
                    spec = ProblemSpec(topology, RobotPlacement(FIXED, positions=(p,)), 0, delta)
                    report = verify_schedule(spec, track_schedule(topology, (pl.track,)))
                    assert sum(1 << c.node for c in report.nodes if c.covered) == pl.mask
                    assert report.makespan <= delta
        assert_solve_reads_its_decisions(topology, positions, rng.randint(1, k - 1), candidates)
        shared += len(set(positions)) < k
        fractional += any(isinstance(c, Fraction) and c.denominator > 1 for c in candidates)
    assert shared > 15 and fractional > 10


def cover_costs(topology, positions):
    """{0} and the time to visit each arc around each start: its length
    plus the shorter of its two arms."""
    n = topology.n
    costs = {0}
    for p in set(positions):
        for a, b in itertools.product(range(n), repeat=2):
            if isinstance(topology, RingInstance):
                if a + b >= n:
                    continue
                w = topology.edge_weights
                left = sum(w[(p - 1 - t) % n] for t in range(a))
                right = sum(w[(p + t) % n] for t in range(b))
            elif a <= p < n - b:
                x = topology.coordinates
                left, right = x[p] - x[p - a], x[p + b] - x[p]
            else:
                continue
            costs.add(left + right + min(left, right))
    return tuple(sorted(costs))


def assert_solve_reads_its_decisions(topology, positions, f, candidates):
    got = solve_fixed_faulty(topology, positions, f)
    found = least_feasible(
        candidates, lambda delta: search_verdict(topology, positions, f, delta) or None
    )
    want = (INFINITY, None) if found is None else (found[0], found[1].schedule)
    assert (got.optimum, got.schedule) == want


def test_single_robot_zero_faults_matches_single_solver():
    from roversweep.single_robot import solve_fixed_start

    # the exact search itself, which solve_fixed_faulty skips for f = 0
    rng = random.Random(95)
    for _ in range(60):
        line = random_line(rng, max_n=7)
        start = rng.randrange(line.n)
        found = least_feasible(
            fixed_faulty_candidates(line, (start,)),
            lambda delta: search_verdict(line, (start,), 0, delta) or None,
        )
        searched = INFINITY if found is None else found[0]
        assert searched == solve_fixed_start(line, start).optimum


def test_a_fixed_crash_solve_verifies_one_schedule(monkeypatch):
    # the binary search's probes return plans; only the optimum's are
    # built into tracks and verified
    from roversweep import oracle

    verified, accepted = [], []
    real_verify, real_search = oracle.verify_schedule, fault_line.search_plans

    def counting_verify(spec, schedule):
        verified.append(spec.bound)
        return real_verify(spec, schedule)

    def counting_search(*args):
        plans = real_search(*args)
        accepted.append(plans is not None)
        return plans

    monkeypatch.setattr(oracle, "verify_schedule", counting_verify)
    monkeypatch.setattr(fault_line, "search_plans", counting_search)
    rng = random.Random(41)
    solves = 0
    for _ in range(40):
        topology = random_line(rng, min_n=3, max_n=7) if rng.random() < 0.5 else random_ring(rng, max_n=6)
        k = rng.randint(2, 3)
        positions = fixed_positions(rng, topology.n, k, allow_duplicates=True)
        verified.clear()
        verdict = solve_fixed_faulty(topology, positions, rng.randint(1, k - 1))
        assert verified == ([verdict.optimum] if verdict.feasible else [])
        solves += verdict.feasible
    assert solves > 20
    assert sum(accepted) > 2 * solves  # most solves accept more than one probe


def test_reliable_fixed_decision_is_not_capped():
    # robots at distinct nodes with f = 0 are the polynomial solve, at any size
    line = LineInstance(tuple(range(60)), (INFINITY,) * 59 + (70,))
    positions = (12, 40)
    opt = solve_fixed(line, positions).optimum
    verdict = decide_fixed_faulty(line, positions, 0, opt)
    assert verdict.feasible
    spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), 0, opt)
    assert verify_schedule(spec, verdict.schedule).passed
    assert not decide_fixed_faulty(line, positions, 0, opt - Fraction(1, 2)).feasible
    assert solve_fixed_faulty(line, positions, 0).optimum == opt


def test_decision_is_tight_at_the_optimum():
    rng = random.Random(96)
    checked = 0
    for _ in range(60):
        line = random_line(rng, min_n=2, max_n=5)
        k = rng.randint(1, 3)
        f = rng.randint(0, min(1, k - 1))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=f > 0)
        k = len(positions)
        if f >= k:
            continue
        verdict = solve_fixed_faulty(line, positions, f)
        if not verdict.feasible:
            continue
        opt = verdict.optimum
        assert decide_fixed_faulty(line, positions, f, opt).feasible
        candidates = fixed_faulty_candidates(line, positions)
        below = [c for c in candidates if c < opt]
        if below:
            assert not decide_fixed_faulty(line, positions, f, max(below)).feasible
        checked += 1
    assert checked > 20


def test_witness_survives_any_crash_subset():
    rng = random.Random(97)
    seen = 0
    for _ in range(60):
        line = random_line(rng, min_n=2, max_n=5)
        k = rng.randint(2, 3)
        f = rng.randint(1, k - 1)
        positions = fixed_positions(rng, line.n, k, allow_duplicates=True)
        span = int(line_span(line)) + 1
        verdict = decide_fixed_faulty(line, positions, f, 2 * span)
        if not verdict.feasible:
            continue
        # deleting any f robots leaves every node covered on time
        for gone in itertools.combinations(range(k), f):
            for node, visits in verdict.witness.items():
                assert sum(1 for robot, _ in visits if robot not in gone) >= 1
        seen += 1
    assert seen > 15


def test_resilience_free_mode_example():
    spec = ProblemSpec(UNIT5, RobotPlacement(FREE, count=6), 0, None)
    assert resilience(spec, 2) == 2  # f=3 would leave one robot needing time 4
    assert resilience(spec, 4) == 5  # one robot alone still makes 4
    assert resilience(spec, Fraction(1, 2)) == 0  # six robots, five nodes, nobody may crash
    # below even the every-robot-deployed optimum
    tight = ProblemSpec(UNIT5, RobotPlacement(FREE, count=2), 0, None)
    assert resilience(tight, Fraction(1, 2)) is None


def test_resilience_monotone_and_fixed_mode():
    rng = random.Random(98)
    for _ in range(40):
        line = random_line(rng, min_n=2, max_n=5)
        k = rng.randint(2, 3)
        mode = rng.choice((FIXED, FREE))
        if mode == FIXED:
            placement = RobotPlacement(
                FIXED, positions=fixed_positions(rng, line.n, k, allow_duplicates=True)
            )
        else:
            placement = RobotPlacement(FREE, count=k)
        spec = ProblemSpec(line, placement, placement.robots - 1, None)
        span = int(line_span(line)) + 1
        delta = rng.choice((Fraction(span, 2), span, 2 * span))
        best = resilience(spec, delta)
        k = placement.robots

        def decide(f):
            if mode == FREE:
                capped = line.capped(delta)
                return solve_free(capped, k // (f + 1)).optimum <= delta
            return decide_fixed_faulty(line, placement.positions, f, delta).feasible

        for f in range(k):
            expected = best is not None and f <= best
            assert decide(f) == expected, (line, placement, delta, f, best)


def _router_spec(rng, kind):
    if kind == "star":
        top = random_star(rng, max_q=5, fractional=rng.random() < 0.3)
        k = rng.randint(1, 2)
        nodes = top.q + 1
    else:
        top = random_line(rng, max_n=6) if rng.random() < 0.5 else random_ring(rng, max_n=5)
        k = 1 if kind == "subset" else rng.randint(1, 4)
        nodes = top.n
    if kind == "subset":
        placement = RobotPlacement(SUBSET, count=1, allowed=rng.sample(range(nodes), rng.randint(1, nodes)))
    elif kind == "free" or kind == "star" and rng.random() < 0.5:
        placement = RobotPlacement(FREE, count=k)
    else:
        placement = RobotPlacement(FIXED, positions=[rng.randrange(nodes) for _ in range(k)])
    return ProblemSpec(top, placement, 0, None)


def test_resilience_is_the_largest_fault_budget_decide_accepts():
    rng = random.Random(1414)
    answers = Counter()
    for trial in range(120):
        kind = ("fixed", "free", "subset", "star")[trial % 4]
        spec = _router_spec(rng, kind)
        # a bound at the optimum of some fault budget, so answers vary
        optimum = solve(replace(spec, faults=rng.randrange(spec.k))).optimum
        delta = optimum if optimum is not INFINITY else Fraction(rng.randint(0, 40), 2)
        best = resilience(spec, delta)
        answers[kind, best is not None and best > 0] += 1
        for f in range(spec.k):
            verdict = decide(replace(spec, faults=f), delta)
            assert verdict.feasible == (best is not None and f <= best), (spec, delta, f, best)
            if verdict.feasible:
                bounded = replace(spec, faults=f, bound=delta)
                assert verify_schedule(bounded, verdict.schedule).passed, (spec, delta, f)
    assert all(answers[kind, False] for kind in ("fixed", "free", "subset", "star"))
    assert all(answers[kind, True] for kind in ("fixed", "free", "star"))


def test_resilience_binary_searches_the_fault_budget(monkeypatch):
    calls = []

    def counted(line, k, **kwargs):
        calls.append(k)
        return solve_free(line, k, **kwargs)

    monkeypatch.setattr(fault_line, "solve_free", counted)
    k = 8
    spec = ProblemSpec(UNIT5, RobotPlacement(FREE, count=k), 0, None)
    # a robot covers two adjacent unit nodes within 1, so 5 nodes need 3
    # robots per group: f = 1 (groups of 4) is the most that fits
    assert resilience(spec, 1) == 1
    assert len(calls) <= math.ceil(math.log2(k)) + 1
