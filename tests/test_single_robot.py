import random
import time
from fractions import Fraction

import pytest

from support import (
    assert_own_lines_equal_push,
    finite_count,
    optimal_time,
    random_line,
    state_time,
)
from roversweep.exact import INFINITY
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RobotPlacement,
    prune_dominated,
)
from roversweep.oracle import enumerate_walks, verify_schedule
from roversweep.single_robot import (
    best_target,
    extract_trajectory,
    init_start,
    interval_table,
    propagate,
    solve_fixed_start,
    solve_free_start,
    solve_from,
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
    # a fixed robot's pass runs on the line of the nodes between its
    # neighbours; the whole line's pass kept to that window agrees
    rng = random.Random(46)
    for _ in range(40):
        line = random_line(rng, min_n=2, max_n=8)
        n = line.n
        assert_own_lines_equal_push(line, rng.sample(range(n), rng.randint(2, min(n, 4))))


def test_label_smoke_two_thousand_nodes():
    n = 2000
    line = LineInstance(tuple(range(n)), (INFINITY,) * n)
    started = time.monotonic()
    table = interval_table(line, range(n))
    elapsed = time.monotonic() - started
    assert finite_count(table) == n * n
    assert elapsed < 60


def _deadline_line(rng, n, share, integral):
    """A line with about ``share`` of its deadlines finite, most of them
    late enough that one robot can still make it."""
    unit = 1 if integral else Fraction(1, 3)
    coords = [0]
    for _ in range(n - 1):
        coords.append(coords[-1] + unit * rng.randint(1, 6 if integral else 12))
    units = int(coords[-1] / unit)  # the span
    deadlines = tuple(
        unit * rng.randint(units // 2, 3 * units) if rng.random() < share else INFINITY
        for _ in range(n)
    )
    return LineInstance(tuple(coords), deadlines)


def test_pruned_free_start_equals_the_unpruned_pass():
    """One start, a subset or every node: dropping dominated nodes keeps the
    optimum and the schedule bytes of the pass over every node."""
    rng = random.Random(15)
    feasible = 0
    for trial in range(240):
        share = (0, 0.3, 0.7, 1)[trial % 4]
        n = rng.randint(1, 7) if trial % 3 == 0 else rng.randint(1, 40)
        line = _deadline_line(rng, n, share, integral=trial % 2 == 0)
        for allowed in ([rng.randrange(n)], sorted(rng.sample(range(n), rng.randint(1, n))), None):
            starts = range(n) if allowed is None else allowed
            got = solve_free_start(line, allowed)
            want = solve_from(line, starts)
            assert got.optimum == want.optimum, (line, allowed)
            if n <= 7:
                assert got.optimum == min(_walk_optimum(line, s) for s in starts)
            if not got.feasible:
                continue
            feasible += 1
            assert got.schedule.to_json() == want.schedule.to_json(), (line, allowed)
            placement = (RobotPlacement(FREE, count=1) if allowed is None
                         else RobotPlacement(SUBSET, count=1, allowed=tuple(allowed)))
            assert verify_schedule(ProblemSpec(line, placement, 0, None), got.schedule).passed
    assert feasible > 300


def test_subset_lines_of_poly_sweep_size_shrink():
    rng = random.Random(140)
    line = random_line(rng, min_n=140, max_n=140, deadline_prob=0.5, integral=True)
    allowed = sorted(rng.sample(range(line.n), 28))
    pruned, remap = prune_dominated(line, allowed)
    assert set(allowed) <= set(remap)
    assert pruned.n <= 60
