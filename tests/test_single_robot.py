import random
import time
from fractions import Fraction

import pytest

from support import finite_count, optimal_time, random_line, state_time
from roversweep.exact import INFINITY
from roversweep.instance import LineInstance, ProblemSpec, RobotPlacement, FIXED
from roversweep.oracle import enumerate_walks, verify_schedule
from roversweep.single_robot import (
    best_target,
    extract_trajectory,
    init_start,
    interval_table,
    propagate,
    solve_fixed_start,
    solve_free_start,
)
from roversweep.state_graph import LEFT, RIGHT, StateGraph

UNIT3 = LineInstance((0, 1, 2), (INFINITY,) * 3)
SKEW3 = LineInstance((0, 1, 3), (INFINITY,) * 3)


def test_init_start_single_and_all():
    g = StateGraph.from_line(UNIT3)
    labels = init_start(g, [1])
    assert finite_count(labels) == 1
    labels = init_start(g, range(3))
    assert finite_count(labels) == 3


def test_init_start_rejects_empty():
    g = StateGraph.from_line(UNIT3)
    with pytest.raises(ValueError):
        init_start(g, [])


def test_propagate_symmetric_line():
    g = StateGraph.from_line(UNIT3)
    labels = propagate(g, init_start(g, [1]), UNIT3.deadlines)
    assert state_time(labels, 0, 2, LEFT) == 3
    assert state_time(labels, 0, 2, RIGHT) == 3
    assert optimal_time(labels, 0, 2) == 3


def test_propagate_skewed_line():
    g = StateGraph.from_line(SKEW3)
    labels = propagate(g, init_start(g, [1]), SKEW3.deadlines)
    # left-first then sweep right beats going right first
    assert state_time(labels, 0, 2, RIGHT) == 4
    assert state_time(labels, 0, 2, LEFT) == 5
    assert optimal_time(labels, 0, 2) == 4


def test_deadline_kills_late_branch():
    line = LineInstance((0, 1, 3), (1, INFINITY, INFINITY))
    g = StateGraph.from_line(line)
    labels = propagate(g, init_start(g, [1]), line.deadlines)
    assert state_time(labels, 0, 2, LEFT) is INFINITY  # arrives at node 0 at time 5
    assert optimal_time(labels, 0, 2) == 4


def test_optimal_time_degenerate_and_infeasible():
    g = StateGraph.from_line(SKEW3)
    labels = propagate(g, init_start(g, [1]), SKEW3.deadlines)
    assert optimal_time(labels, 1, 1) == 0
    tight = LineInstance((0, 1, 3), (Fraction(1, 2), INFINITY, INFINITY))
    g2 = StateGraph.from_line(tight)
    labels2 = propagate(g2, init_start(g2, [1]), tight.deadlines)
    assert optimal_time(labels2, 0, 2) is INFINITY


def test_interval_table_examples():
    table = interval_table(SKEW3, range(3))
    assert optimal_time(table, 0, 1) == 1
    assert optimal_time(table, 1, 2) == 2
    assert optimal_time(table, 0, 2) == 3
    assert optimal_time(interval_table(SKEW3, [1]), 0, 2) == 4
    assert optimal_time(interval_table(SKEW3, [0]), 1, 2) is INFINITY


def test_extract_trajectory_examples():
    g = StateGraph.from_line(SKEW3)
    labels = propagate(g, init_start(g, [1]), SKEW3.deadlines)
    assert extract_trajectory(labels, g.id_of(1, 1)) == ((0, 1),)
    target = best_target(labels, 0, 2)
    assert extract_trajectory(labels, target) == ((0, 1), (1, 0), (4, 3))
    tight = LineInstance((0, 1, 3), (Fraction(1, 2), INFINITY, INFINITY))
    g2 = StateGraph.from_line(tight)
    labels2 = propagate(g2, init_start(g2, [1]), tight.deadlines)
    with pytest.raises(ValueError):
        extract_trajectory(labels2, g2.id_of(0, 2, LEFT))


def _walk_optimum(line, start):
    best = INFINITY
    for walk in enumerate_walks(line, start):
        if all(t is not None for t in walk.first_visit):
            best = min(best, walk.completion)
    return best


def test_matches_walk_oracle_on_random_lines():
    rng = random.Random(42)
    for _ in range(200):
        line = random_line(rng)
        start = rng.randrange(line.n)
        assert solve_fixed_start(line, start).optimum == _walk_optimum(line, start)


def test_extracted_schedules_verify_and_hit_the_optimum():
    rng = random.Random(43)
    checked = 0
    for _ in range(120):
        line = random_line(rng)
        start = rng.randrange(line.n)
        verdict = solve_fixed_start(line, start)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=(start,)), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        checked += 1
    assert checked > 30


def test_free_start_solver_picks_best_allowed_start():
    rng = random.Random(44)
    for _ in range(60):
        line = random_line(rng, max_n=7)
        allowed = sorted(rng.sample(range(line.n), rng.randint(1, line.n)))
        verdict = solve_free_start(line, allowed)
        want = min((_walk_optimum(line, s) for s in allowed), default=INFINITY)
        assert verdict.optimum == want


def test_containment_monotonicity_of_interval_tables():
    rng = random.Random(45)
    for _ in range(40):
        line = random_line(rng, max_n=7)
        table = interval_table(line, range(line.n))
        n = line.n
        for i in range(n):
            for j in range(i, n):
                here = optimal_time(table, i, j)
                if i > 0:
                    assert here <= optimal_time(table, i - 1, j)
                if j < n - 1:
                    assert here <= optimal_time(table, i, j + 1)


def test_window_restriction_matches_subline():
    rng = random.Random(46)
    for _ in range(40):
        line = random_line(rng, min_n=3, max_n=8)
        n = line.n
        lo = rng.randint(-1, n - 3)
        hi = rng.randint(lo + 2, n)
        inside = list(range(lo + 1, hi))
        start = rng.choice(inside)
        g = StateGraph.from_line(line)
        labels = propagate(g, init_start(g, [start]), line.deadlines, window=(lo, hi))
        sub = LineInstance(
            tuple(line.coordinates[i] for i in inside),
            tuple(line.deadlines[i] for i in inside),
        )
        g2 = StateGraph.from_line(sub)
        labels2 = propagate(g2, init_start(g2, [start - (lo + 1)]), sub.deadlines)
        for i in inside:
            for j in range(i, hi):
                a = optimal_time(labels, i, j)
                b = optimal_time(labels2, i - (lo + 1), j - (lo + 1))
                assert a == b, (line, lo, hi, start, i, j)


def test_label_smoke_two_thousand_nodes():
    n = 2000
    line = LineInstance(tuple(range(n)), (INFINITY,) * n)
    started = time.monotonic()
    table = interval_table(line, range(n))
    elapsed = time.monotonic() - started
    assert finite_count(table) == n * n
    assert elapsed < 60
