import itertools
import random
from fractions import Fraction

import pytest

from support import (
    fixed_positions,
    naive_team_tables,
    random_line,
    random_ring,
)
from roversweep.exact import INFINITY
from roversweep.instance import FIXED, LineInstance, ProblemSpec, RobotPlacement
from roversweep.multi_line import solve_fixed, solve_free
from roversweep.oracle import enumerate_walks, verify_schedule
from roversweep.single_robot import init_start, propagate, solve_fixed_start
from roversweep.state_graph import StateGraph

UNIT4 = LineInstance((0, 1, 2, 3), (INFINITY,) * 4)
UNIT5 = LineInstance((0, 1, 2, 3, 4), (INFINITY,) * 5)


def brute_fixed(line, positions):
    """All idle-edge splits x per-robot walk enumeration."""
    n, k = line.n, len(positions)
    best = INFINITY
    for cuts in itertools.combinations(range(n - 1), k - 1):
        bounds = [-1, *cuts, n - 1]
        worst = 0
        ok = True
        for r in range(k):
            i, j = bounds[r] + 1, bounds[r + 1]
            if not i <= positions[r] <= j:
                ok = False
                break
            sub = LineInstance(line.coordinates[i : j + 1], line.deadlines[i : j + 1])
            t = INFINITY
            for walk in enumerate_walks(sub, positions[r] - i):
                if all(v is not None for v in walk.first_visit):
                    t = min(t, walk.completion)
            if t is INFINITY:
                ok = False
                break
            worst = max(worst, t)
        if ok:
            best = min(best, worst)
    return best


def test_fixed_examples():
    v = solve_fixed(UNIT4, (0, 3))
    assert v.optimum == 1
    assert v.idle_edges == ((1, 2),)
    assert solve_fixed(UNIT4, (0, 1)).optimum == 2


def test_fixed_rejects_duplicates():
    with pytest.raises(ValueError):
        solve_fixed(UNIT4, (1, 1))


def test_fixed_single_robot_degenerates():
    rng = random.Random(80)
    for _ in range(100):
        line = random_line(rng, max_n=7)
        start = rng.randrange(line.n)
        assert solve_fixed(line, (start,)).optimum == solve_fixed_start(line, start).optimum


def test_fixed_matches_brute_force():
    rng = random.Random(81)
    for _ in range(200):
        line = random_line(rng, min_n=2, max_n=8)
        k = rng.randint(1, min(3, line.n))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=False)
        assert solve_fixed(line, positions).optimum == brute_fixed(line, positions)


def test_fixed_schedules_verify_with_disjoint_intervals():
    rng = random.Random(82)
    seen = 0
    for _ in range(120):
        line = random_line(rng, min_n=2, max_n=8)
        k = rng.randint(1, min(3, line.n))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=False)
        verdict = solve_fixed(line, positions)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        spans = []
        for track in verdict.schedule.tracks:
            xs = [x for _, x in track.waypoints]
            spans.append((min(xs), max(xs)))
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 < lo2  # never cross, intervals stay in start order
        seen += 1
    assert seen > 40


def test_boundary_prefix_counts():
    # splits land exactly on robot positions: j equal to a position index
    line = LineInstance((0, 2, 3, 7, 9), (INFINITY,) * 5)
    for positions in [(0, 1), (1, 3), (0, 4), (2, 3)]:
        assert solve_fixed(line, positions).optimum == brute_fixed(line, positions)


def sub_line(line, i, j):
    return LineInstance(line.coordinates[i : j + 1], line.deadlines[i : j + 1])


def exhaustive_split(optima, r1, r2, i, j):
    """Best split of [i, j] between r1 robots on the left and r2 on the right,
    scanning every split point; optima[(i, j, r)] holds sub-line optima."""
    if j - i + 1 <= r1 + r2:
        return 0
    best = INFINITY
    for m in range(i, j + 1):
        left = optima[(i, m, r1)]
        right = optima[(m + 1, j, r2)] if m + 1 <= j else 0
        cand = max(left, right)
        if cand < best:
            best = cand
    return best


def test_opt_time_examples():
    assert solve_free(UNIT4, 2).optimum == 1
    line = LineInstance((0, 1, 3, 4), (INFINITY,) * 4)
    optima = {(i, j, r): solve_free(sub_line(line, i, j), r).optimum
              for i in range(4) for j in range(i, 4) for r in (1, 2)}
    assert solve_free(line, 2).optimum == exhaustive_split(optima, 1, 1, 0, 3) == 1
    assert solve_free(line, 4).optimum == 0  # interval no longer than the team


def test_opt_time_agrees_with_exhaustive_scan():
    # a team of r1 + r2 robots does as well as the best split of the line
    # between a team of r1 and a team of r2
    rng = random.Random(83)
    sizes = (1, 2, 4)
    pairs = [(r1, r2) for r1 in sizes for r2 in sizes if r1 + r2 in (2, 3, 4, 5, 6)]
    assert len(pairs) == 8
    for _ in range(40):
        line = random_line(rng, max_n=9)
        n = line.n
        optima = {(i, j, r): solve_free(sub_line(line, i, j), r).optimum
                  for i in range(n) for j in range(i, n) for r in range(1, 7)}
        for i in range(n):
            for j in range(i, n):
                for r1, r2 in pairs:
                    assert optima[(i, j, r1 + r2)] == exhaustive_split(optima, r1, r2, i, j), \
                        (line, i, j, r1, r2)


def test_free_on_every_sub_line_equals_the_naive_tables():
    # int and Fraction lines with finite deadlines, every team size up to 7
    rng = random.Random(88)
    for trial in range(24):
        line = random_line(rng, min_n=2, max_n=9, deadline_prob=0.6, integral=trial % 2 == 0)
        n = line.n
        tables = naive_team_tables(line, 7)
        for i in range(n):
            for j in range(i, n):
                part = sub_line(line, i, j)
                for k in range(1, 8):
                    assert solve_free(part, k).optimum == tables[k][i][j], (line, i, j, k)


def test_free_optimum_never_rises_with_the_team_size():
    rng = random.Random(87)
    for trial in range(40):
        if trial % 2:
            topology = random_ring(rng, min_n=2, max_n=9, deadline_prob=0.6)
        else:
            topology = random_line(rng, max_n=10, deadline_prob=0.6, integral=trial % 4 == 0)
        optima = [solve_free(topology, k).optimum for k in range(1, 9)]
        for small, big in zip(optima, optima[1:]):
            assert big <= small, (topology, optima)
        assert optima[-1] == 0 or topology.n > 8


def test_free_optimum_is_zero_or_a_label_value():
    # the optimum of a free solve is 0 or a finite label of the pass from
    # every start
    rng = random.Random(89)
    for trial in range(40):
        if trial % 2:
            topology = random_ring(rng, min_n=2, max_n=9)
            if trial % 4 == 1:
                topology = topology.scaled(Fraction(2, 3))
        else:
            topology = random_line(rng, max_n=10, integral=trial % 4 == 0)
        graph = StateGraph.of(topology)
        labels = propagate(graph, init_start(graph, range(topology.n)), topology.deadlines)
        want = tuple(sorted({0, *labels.finite_values()}))
        for k in (2, 3, 5, 6):
            verdict = solve_free(topology, k)
            assert not verdict.feasible or verdict.optimum in want


def test_free_examples():
    assert solve_free(UNIT5, 2).optimum == 2
    assert solve_free(UNIT5, 5).optimum == 0
    assert solve_free(UNIT5, 9).optimum == 0


def test_free_matches_naive_recurrence():
    rng = random.Random(84)
    for _ in range(120):
        line = random_line(rng, max_n=10)
        k = rng.randint(1, 7)
        got = solve_free(line, k).optimum
        if k >= line.n:
            assert got == 0
            continue
        tables = naive_team_tables(line, k)
        assert got == tables[k][0][line.n - 1]


def test_free_digit_combination_path():
    # odd and even team sizes: Nicol's recursion runs k - 1 levels deep
    rng = random.Random(85)
    for _ in range(60):
        line = random_line(rng, min_n=4, max_n=10)
        for k in (3, 5, 6, 7):
            if k >= line.n:
                continue
            assert solve_free(line, k).optimum == naive_team_tables(line, k)[k][0][line.n - 1]


def test_free_schedules_verify():
    rng = random.Random(86)
    seen = 0
    for _ in range(80):
        line = random_line(rng, max_n=9)
        k = rng.randint(1, min(4, line.n))
        verdict = solve_free(line, k)
        if not verdict.feasible:
            continue
        from roversweep.instance import FREE

        spec = ProblemSpec(line, RobotPlacement(FREE, count=k), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        seen += 1
    assert seen > 30
