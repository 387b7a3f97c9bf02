import itertools
import random
from fractions import Fraction

import pytest

from support import (
    exhaustive_opt_time,
    fixed_positions,
    free_tables,
    naive_team_tables,
    random_line,
    random_ring,
)
from roversweep.exact import INFINITY
from roversweep.instance import FIXED, LineInstance, ProblemSpec, RingInstance, RobotPlacement
from roversweep.multi_line import TeamTables, opt_time, solve_fixed, solve_free
from roversweep.oracle import enumerate_walks, verify_schedule
from roversweep.single_robot import interval_table, optimal_time, solve_fixed_start

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


def test_opt_time_examples():
    t1 = free_tables(UNIT4, 1)[1]
    assert opt_time(t1, 1, t1, 1, 0, 3) == 1
    line = LineInstance((0, 1, 3, 4), (INFINITY,) * 4)
    s1 = free_tables(line, 1)[1]
    assert opt_time(s1, 1, s1, 1, 0, 3) == exhaustive_opt_time(s1, 1, s1, 1, 0, 3) == 1
    assert opt_time(s1, 2, s1, 2, 0, 3) == 0  # interval no longer than the team


def test_opt_time_agrees_with_exhaustive_scan():
    rng = random.Random(83)
    for _ in range(40):
        line = random_line(rng, max_n=9)
        tables = free_tables(line, 4)
        n = line.n
        pairs = [(r1, r2) for r1 in tables for r2 in tables if r1 + r2 in (2, 3, 4, 5, 6)]
        assert len(pairs) == 8
        for i in range(n):
            for j in range(i, n):
                for r1, r2 in pairs:
                    assert opt_time(tables[r1], r1, tables[r2], r2, i, j) == \
                        exhaustive_opt_time(tables[r1], r1, tables[r2], r2, i, j)


def test_every_table_cell_is_the_best_split():
    # int and Fraction lines, finite and infinite deadlines, every table up to k = 7
    rng = random.Random(88)
    for trial in range(60):
        line = random_line(rng, max_n=10, integral=trial % 2 == 0)
        n = line.n
        labels = interval_table(line, range(n))
        for k in (5, 6, 7):
            solver = TeamTables(line, k)
            tables = solver.tables
            assert tables[1] == [
                [optimal_time(labels, i, j) if j >= i else 0 for j in range(n)] for i in range(n)
            ]
            assert k in solver.parts and k not in tables
            for r, (r1, r2) in solver.parts.items():
                for i in range(n):
                    for j in range(i, n):
                        want = exhaustive_opt_time(tables[r1], r1, tables[r2], r2, i, j)
                        got = solver.value(i, j) if r == k else tables[r][i][j]
                        assert got == want, (line, r, i, j)


@pytest.mark.parametrize("k, kept", [(1, {1}), (2, {1}), (3, {1, 2}), (4, {1, 2}),
                                     (6, {1, 2, 4}), (7, {1, 2, 4, 6})])
def test_tables_stop_below_the_team_size(k, kept):
    # the k table is read on demand through value(), never tabulated
    line = LineInstance(tuple(range(9)), (INFINITY,) * 9)
    ring = RingInstance((1,) * 9, (INFINITY,) * 9)
    for topology in (line, ring):
        solver = TeamTables(topology, k)
        assert set(solver.tables) == kept
        assert set(solver.parts) == {r for r in kept | {k} if r > 1}


def test_cells_and_values_lie_in_the_finite_values():
    rng = random.Random(89)
    for trial in range(40):
        if trial % 2:
            topology = random_ring(rng, min_n=2, max_n=9)
            if trial % 4 == 1:
                topology = topology.scaled(Fraction(2, 3))
        else:
            topology = random_line(rng, max_n=10, integral=trial % 4 == 0)
        n = topology.n
        for k in (2, 3, 5, 6):
            solver = TeamTables(topology, k)
            vals = solver.all_finite_values()
            for table in solver.tables.values():
                for row in table:
                    assert all(v in vals for v in row if v is not INFINITY)
            for i in range(n):
                for j in range(i, i + n if solver.ring else n):
                    v = solver.value(i, j)
                    assert v is INFINITY or v in vals, (topology, k, i, j)


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
    # k = 3 exercises the table combination over the binary digits
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


def test_table_anti_monotone_in_robot_count():
    rng = random.Random(87)
    for _ in range(30):
        line = random_line(rng, max_n=8)
        tables = free_tables(line, 4)
        n = line.n
        counts = sorted(tables)
        for r_small, r_big in zip(counts, counts[1:]):
            for i in range(n):
                for j in range(i, n):
                    small = 0 if j - i + 1 <= r_small else tables[r_small][i][j]
                    big = 0 if j - i + 1 <= r_big else tables[r_big][i][j]
                    assert big <= small
