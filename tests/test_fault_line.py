import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from support import fixed_positions, line_span, random_line, random_ring, random_star, walk_plans
from roversweep.exact import INFINITY, format_number
from roversweep import fault_line
from roversweep.fault_line import (
    decide,
    decide_fixed_faulty,
    fixed_faulty_candidates,
    least_feasible,
    plan_tables,
    resilience,
    search_plans,
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
from roversweep.schedule import Verdict, track_schedule

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
    with pytest.raises(ValueError, match="the decision needs a finite time bound"):
        decide_fixed_faulty(PAIR, (0, 0), 1, INFINITY)
    with pytest.raises(ValueError, match=r"need 0 <= f < k"):
        decide_fixed_faulty(PAIR, (0, 1), 2, 1)
    # a bad team is reported before a bad bound
    with pytest.raises(ValueError, match=r"need 0 <= f < k"):
        decide_fixed_faulty(PAIR, (0, 1), 2, INFINITY)
    with pytest.raises(ValueError, match="robot position out of range"):
        decide_fixed_faulty(PAIR, (0, 2), 1, INFINITY)


# robots at positions p on a line and on a ring, up to one of which may crash
FIXED_DOORS = pytest.mark.parametrize(
    "run",
    [
        lambda p: decide_fixed_faulty(UNIT3, p, 1, 5),
        lambda p: solve_fixed_faulty(UNIT3, p, 1),
        lambda p: decide_ring_fixed_faulty(RING3, p, 1, 5),
        lambda p: optimize_ring_fixed_faulty(RING3, p, 1),
    ],
    ids=["decide_line", "solve_line", "decide_ring", "optimize_ring"],
)


@FIXED_DOORS
@pytest.mark.parametrize("positions", [(0, 7), (-1, 1), (1, 3)])
def test_positions_out_of_range_are_refused(run, positions):
    with pytest.raises(ValueError, match="robot position out of range"):
        run(positions)


@FIXED_DOORS
@pytest.mark.parametrize("positions", [(0,), (2,), ()])
def test_a_fault_budget_of_k_or_more_is_refused(run, positions):
    with pytest.raises(ValueError, match=r"need 0 <= f < k"):
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
    for delta in (Fraction(-1, 2), -1):
        verdict = decide_fixed_faulty(topology, (0, 2), f, delta)
        assert (verdict.feasible, verdict.optimum, verdict.schedule) == (False, None, None)


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


def _pairs(plans):
    return [(pl.mask, pl.track) for pl in plans]


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
        candidates = fixed_faulty_candidates(tables)
        for delta in candidates:
            for p in set(positions):
                assert _pairs(tables[p].plans(delta)) == _pairs(walk_plans(topology, p, delta))
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
        candidates = fixed_faulty_candidates(tables)
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
    def probe(delta):
        verdict = decide_fixed_faulty(topology, positions, f, delta)
        return verdict if verdict.feasible else None

    got = solve_fixed_faulty(topology, positions, f)
    found = least_feasible(candidates, probe)
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
            fixed_faulty_candidates(plan_tables(line, (start,))),
            lambda delta: search_plans(line, (start,), 0, delta, plan_tables(line, (start,), delta)),
        )
        searched = INFINITY if found is None else found[0]
        assert searched == solve_fixed_start(line, start).optimum


def test_a_fixed_crash_solve_verifies_one_schedule(monkeypatch):
    # the binary search's probes return plans; only the optimum's are
    # built into tracks, and the router verifies them once, at the optimum
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
        f = rng.randint(1, k - 1)
        verdict = solve(ProblemSpec(topology, RobotPlacement(FIXED, positions=positions), f, None))
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
        candidates = fixed_faulty_candidates(plan_tables(line, positions))
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
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), f, None)
        verdict = decide(spec, 2 * span)
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

# sha256 of each pinned ring's optimum and schedule JSON for f = 1 and 2,
# as solve_free_faulty wrote them when it moved its tracks back by whole
# laps itself
PINNED_REPLICATION_DIGESTS = (
    "0d26f7bb7b00c553649751cf8da5d5c7b11ca7357b46a15e67b2ed752575f476",
    "aa16eacd21ee2f89ba7fd7ed0869139d0bac0c6c37c22ad7965cea3a8bdaf62e",
    "c53ea4b22c7690fae4d4da43a7c0aa196066659eadcf6e8005024cb69bd6955c",
    "c88176424202839f987e62ee6a9bb53dfc736f421c7af6ca64ca259d89e7d9ae",
    "79439da2563563a5c2481a2b59dad9ad4dd1cca5ea5c2eac0d895b0e8cccac28",
    "6060b49c329f06e202282c46dc8d8b86e10bd4257b3e124d90d313133c8f4b8d",
    "7a15cd994ee9f98f58d419928b067743b2afdda1b6b48bc5e883971ed8b8fd95",
    "0a9bf9a17769bfe514420bbec3d6da729943c3a7c4ba24a9fabf1265b775d6c8",
    "17bcf7f56aaab35b66f290b06bdf562dab1b458869b147a690f66f397cb85cef",
    "f7c15c5c7ace28e599432f04b59964753c2b18df2837902c34ad96ba40971a9d",
    "0f413a914afb522e97bda3463ee22c8ae57cb74f32dd108a6936c7f6d2dfbcb4",
    "c52ed50fbeb8e663cc361eae8a7d30da524c98c02d4108858ee57973ca1cdb63",
    "ce6ceccdce7d5ce35611797a4185da1b39892c8b430660ad5a7a992ab48d66a0",
    "0014e0eaa4ff2cbcebfa6731107b710d4bd0c0463521ce49771fe8e6c4697bbf",
    "f8a0cc35d0c8a7c7389061dd3d7329a5653fd558dd9f4e7cbf5d3765ff8cf9e9",
    "ecc80495e08690a7d83130537a0c9dfd95b5ea7325b9889407b942d35798e736",
    "e82fc753c2340c8833b0411e6639ff97b627178f62e88f7aa950e28aaa66ba70",
    "88e78ee6b9a9bdb7d90ba7c2f117bc507a97e5924ddf7655e02546dfc8b7dd8d",
    "7736925f2e9aa0f9e0804e9d31bc6b5e383fe5037fb7c5ecafc698b974e05a9c",
    "ad8f65bbe3e09d5f8dc0f1425c75b1afe6d4d060c9bdcdb7fd8dd81ba30d3bc2",
    "d9bc5389fe3a85c2c0ad7c0ef1a08a62a516de6a5d87158523c2389ee48a6ba7",
    "5b651e50c02cf1cdce9329f7c9aac1678e5fca371d5316cca2086e5d0c2701c8",
    "38b9566128719f90a299b8bee00818a3d268b491aa09bc3e34d5667689be2788",
    "7b888689e37cf7d25d65da0d0db1b12db40198641f46721b8ee134c718ddc7a7",
    "359260e7a11fa38c61681165b43ffa31a0167cfde82f8bf3b7978bc659d44e3b",
    "43b2e8169afea822595ecd1e0c5439799521763d64a8147cab20fe62b1d727c8",
    "6a82bc7d657accee0025465bfa18e1ca4595aeef5248032b5f39da7b63220ca2",
    "705753908869592073979e0c15f86ec24f95fcbf2295f27ee2c378797096ca58",
    "f69011ad223ee075062b4d6cef34c0ad87816483a1c7afbf3fbfc120898d2611",
    "6a979ce39cd5f2ccd2a328e4815fb6237caca434176344bda0ee56477080e34b",
    "fff7b64f86de69706a09a7458c0b0a79618b15114537faa406692fb4d1e7edc6",
    "10843d81172f33aca5c55d3d3eae2c6d43a4cdc3207dbc54218f4e86b708d2a9",
    "df3a56c0daa4adf2e8194ee65d0b0b7632ed892d4b1cf9dc04e63a1148081b15",
    "5b382f043e3c5f66167e3974a6a0c421b8ba0021fc175fe3db4b3220330ad47d",
    "4b5de47f8446ae51cc4da2def7e0637b45c8af2a8b42e485e2a1143500535387",
    "4b5de47f8446ae51cc4da2def7e0637b45c8af2a8b42e485e2a1143500535387",
    "4db371e34b23198960250b4d4c4c47f5bab9e5c5e09535079e0ebae064eb1609",
    "557e88e3ebd7d0a09c4c964c94235b154fcf897bd9628087a7ee69d5cb40b547",
    "0430dd9bc00911bfe74003638943c5d4197dfc9d5e9bb44c6bf8b6360d5855a2",
    "ab5cc31e814fb02826fb5624b15a58d08f9c9d32ae8c2e6fa6195bacce5b07fd",
)


def pinned_replication_ring_texts():
    """Optimum and schedule JSON of ``solve_free_faulty`` on seeded rings of
    2 to 9 nodes, with f = 1 and with f = 2; one text per ring, each ring
    followed by its ÷3 twin.  Most of the replicated solves' tracks start
    past the first lap, so track_schedule moves them back."""
    rng = random.Random(2020)
    for trial in range(20):
        share = (0, 0.3, 0.7)[trial % 3]
        n = rng.randint(2, 9)
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        total = sum(weights)
        deadlines = tuple(rng.randint(1, 2 * total) if rng.random() < share else INFINITY
                          for _ in range(n))
        ring = RingInstance(weights, deadlines)
        teams = [(f, rng.randint(f + 1, f + 3)) for f in (1, 2)]
        for topology in (ring, ring.scaled(Fraction(1, 3))):
            text = ""
            for f, k in teams:
                v = solve_free_faulty(topology, k, f)
                text += format_number(v.optimum) + "\n" + (v.schedule.to_json() if v.feasible else "") + "\n"
            yield text


def test_replication_ring_schedule_bytes_are_pinned():
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in pinned_replication_ring_texts()]
    assert digests == list(PINNED_REPLICATION_DIGESTS)


def test_resilience_probes_the_fault_budgets_of_its_own_binary_search(monkeypatch):
    def reference(k, holds):
        # resilience's search before it ran on least_feasible
        if not holds(0):
            return None
        lo, hi = 0, k - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if holds(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    for k in range(1, 9):
        spec = ProblemSpec(UNIT5, RobotPlacement(FREE, count=k), 0, None)
        for threshold in range(-1, k):  # decide says YES for f <= threshold
            probed, expected = [], []

            def recorded(s, delta, caps=None):
                probed.append(s.faults)
                return Verdict(feasible=s.faults <= threshold)

            monkeypatch.setattr(fault_line, "decide", recorded)
            got = resilience(spec, 1)
            want = reference(k, lambda f: expected.append(f) or f <= threshold)
            assert (got, probed) == (want, expected), (k, threshold)


def pinned_fixed_cases():
    """Seeded lines and rings of 2 to 8 nodes, without and with finite
    deadlines, with distinct and with repeated starts, k <= 4 and any
    f < k; each followed by its ÷3 twin."""
    rng = random.Random(2026)
    for trial in range(30):
        ring = trial % 2
        share = (0, 0.5)[trial // 2 % 2]
        n = rng.randint(2, 8)
        gaps = [rng.randint(1, 4) for _ in range(n if ring else n - 1)]
        deadlines = tuple(rng.randint(0, 2 * sum(gaps)) if rng.random() < share else INFINITY
                          for _ in range(n))
        if ring:
            topology = RingInstance(tuple(gaps), deadlines)
        else:
            topology = LineInstance(tuple(itertools.accumulate([0] + gaps)), deadlines)
        if trial // 4 % 2:
            starts = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
            positions = tuple(sorted(starts + [rng.choice(starts)]))
        else:
            positions = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
        f = rng.randrange(len(positions))
        yield topology, positions, f
        yield topology.scaled(Fraction(1, 3)), positions, f


def pinned_fixed_text(topology, positions, f):
    """The optimum and schedule JSON of ``solve_fixed_faulty``, then the
    answer and schedule JSON of ``decide_fixed_faulty`` at the optimum,
    just below it and one above it (at 100 when there is no optimum)."""
    v = solve_fixed_faulty(topology, positions, f)
    text = format_number(v.optimum) + "\n" + (v.schedule.to_json() if v.feasible else "") + "\n"
    deltas = (v.optimum, v.optimum - Fraction(1, 1000), v.optimum + 1) if v.feasible else (100,)
    for delta in deltas:
        d = decide_fixed_faulty(topology, positions, f, delta)
        text += f"{d.feasible} {d.optimum}\n" + (d.schedule.to_json() if d.feasible else "") + "\n"
    return text


# sha256 of ``pinned_fixed_text`` for each of ``pinned_fixed_cases``, as
# written when the solve and the decision had separate bodies
PINNED_FIXED_DIGESTS = (
    "e494c4ffb8f24150d048f53ec77a3afa6264b23f9ad5a9d6de870b0bc869f912",
    "88dc087f4516bd77cb3996fee9ee1a2c682b7a233f530b79da21473572694c7d",
    "dd8855a4d48fc05980a59463a5934685089f74dd0fa4130615377be2bd4959dc",
    "8e5cdf7dafa2652862454d03eba4a33c8b80ffcbe31da06b5f53641d0bee0c12",
    "efa4ad7ea528944d06053c1416b786e7979f2b317ed884307290e849c64b563d",
    "2a21290e8282546f69a80b386d9c34db959aec1049f318237470443dbf6f986c",
    "e580c14c2893ab97bb7a6d9ded914538349911c5a94250b6f50b99d0a7698833",
    "2d6304b45de79954addcd1b6b820349140692b722705956a22926dec21c50bbb",
    "aaf6dcddfea5d923bf1395c6f0818200c905556a6c13d615e8525b4ea67aff69",
    "a874d0eafc6375d7fd6701b5b7e85b6bb782ee79646ddfa9f4ddc008eea14fae",
    "afd2c926d098479be92979e4c68f49c970d052eca987bad3003411666e72ed0f",
    "c0677a335c77fe00036c7d2d0d39d9d6340d9b17a8eabd60d1633bfb63b67f15",
    "ba539522d257d9a903a426f5c0b2ab3d5d2c51a25cde1f1cd0e6cb48d0383ca1",
    "3cb5bc90934768f86c9f9f25bff3c7190e592888a3f90d04cd96451e1b6a7a42",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "0acc94548d9ad4fb1e53953ac407a0d53468248117f1e33f06f3b1abb77e471f",
    "b826facb785b9a745ef3a07afb6d28b6ec533ea825f7d9a8a1f1f44eb566cfd7",
    "d57a3314e1819f67ba254b692fe4c488b944c464ba7ced2a710a03817bd59799",
    "3c44354326a54531a3db46597f629dd3e48a0b17c305861a2246e3e90efbf596",
    "66f048e9cd939a93cbdda7fafd02fa014cc8af366d6a6e75cd635730236afc86",
    "75ecdc88dd7012a64db2ac2a1652ab2aeeb27249971796a4e441081b5e1da10d",
    "00cd7c725ab915e648df2c27907b1b3cdb7ee65b08ae345c3bbe413d5c014ef0",
    "6da65ca478c0f5e0098b11a38b5c7d35ffc8a4ae71f1ce67a0e1c5c4c33a511f",
    "160cf701fe503bd63d3c068ca7325f06bb7f8a259946999b388f2e1f3890fe08",
    "b27c3acccdf02c71b4030a44cd2456dc828d8018966a87650b9caf739efcb2cb",
    "00912e806e3f7fe16f69f8322f0acd90e26184494538bbe4091f6731a9333584",
    "51d72889da231bd29675a4fe8af7596eca9bcb8efb91487324cf8b288d14cb55",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "cabd998ac10b76c10058176817cb9ceb76c41c298bc8439eab206dd54e688792",
    "7562b5fcf5e70a3b275c31c18d2f062c109fbb3707b3431c95d20def21d7f142",
    "d79994d66f8a072525574c737199e1c8da1cbabfa86f067e12cf2610099ad0f8",
    "cdca638e848d2810a0fe3a9aa891ddfa8200999e955d7b9eb71bda2118491ba5",
    "5cd77e221eff1e8bcc7d6c886aa078155ae1fd7f9b6cd3a4879ff68780d335a1",
    "498625856ad4e8e1dbfa5d952f3963b6383aadd2907c15d5cd6bdd07a846d551",
    "e2a74f0ef484a6e22b1ee5e15d1f596813b1bc1c032dd581d035b221504cabf0",
    "d74c8168f23965fc5d610a132dc247096dd676a4b64a67301d6d66f710d0995a",
    "034be005ee26526ba9c01418daf4a56896a334464c18965e58628499ed8b8a79",
    "35f4a40f4d7a30356df64d77c950fe0015a0f5c72e4ff9a874d02bd667c5d7ba",
    "dc0c21fedac895b1b03370fcbce6c47a540cd605315f2d00fbc4041798b26f3b",
    "33e6533e31a35d7cdde80664759fdd277f6da98da8bdaba9312d57743030fff4",
    "770d9cbb598b7770c5b6fe832a9b93b77156df7d01970a658c550fe278c74726",
    "7c1b6f87dd6c48338ea9c59180a598c9857497134fd8a4d1e282e699cd96428c",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "5cd77e221eff1e8bcc7d6c886aa078155ae1fd7f9b6cd3a4879ff68780d335a1",
    "498625856ad4e8e1dbfa5d952f3963b6383aadd2907c15d5cd6bdd07a846d551",
    "ec92319c66e944677809596909c463ac579ebc02cb56f3bf55b43a752436fd18",
    "d3de89bd21633625b8d706aa5f8ea0e92690c498c36cc43a35379c7d5b7cd0f5",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "1eaa4ba22887d08fe43ba8ed6e946f518840cae3212b6f1773c3d1e7e3a1ab34",
    "ae24b66f02b900703fb3b1b57335e44a44812015707c4f5085809937cca2fe90",
    "8971eb475812747aacfef3754c3a30e9fda8a0de6b59223647ea569140516b02",
    "5ef5be6cc1b1a01fb54bebd016306ed5898b0faae7d545bfd14052b3364b4698",
    "21b9af5f7bba610ecc5447317d35e4d40ba42b8e6180c36e843a09bb15325e97",
)


def test_fixed_search_schedule_bytes_are_pinned():
    digests = [hashlib.sha256(pinned_fixed_text(*case).encode()).hexdigest()
               for case in pinned_fixed_cases()]
    assert digests == list(PINNED_FIXED_DIGESTS)
    line = LineInstance(tuple(range(41)), (INFINITY,) * 41)
    for run in (lambda: solve_fixed_faulty(line, (0, 0), 1),
                lambda: decide_fixed_faulty(line, (0, 0), 1, 10)):
        with pytest.raises(CapExceeded) as refused:
            run()
        assert str(refused.value) == ("exact search refused: n=41, k=2 exceeds caps "
                                      "(max_n=40, max_k=8); raise the caps to force it")
