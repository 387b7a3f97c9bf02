import importlib
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import roversweep
from roversweep import oracle

from support import (
    brute_solve_alt,
    fixed_positions,
    line_span,
    line_visits_scan,
    naive_team_tables,
    random_line,
    random_ring,
    random_star,
    ring_visits_scan,
)
from roversweep.exact import INFINITY, simplify
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
)
from roversweep.oracle import (
    Caps,
    CapExceeded,
    _coordinate_visits,
    brute_solve,
    enumerate_walks,
    verify_schedule,
    witnessed,
)
from roversweep.schedule import RobotTrack, Schedule, ScheduleError, Verdict

UNIT3 = LineInstance((0, 1, 2), (INFINITY,) * 3)


def test_two_maximal_walks_from_the_middle():
    walks = enumerate_walks(UNIT3, 1)
    assert len(walks) == 2
    assert all(all(t is not None for t in w.first_visit) for w in walks)
    completions = sorted(w.completion for w in walks)
    assert completions == [3, 3]


def test_tiny_budget_leaves_only_the_empty_walk():
    walks = enumerate_walks(UNIT3, 1, budget=Fraction(1, 2))
    assert len(walks) == 1
    assert walks[0].first_visit == (None, 0, None)
    assert walks[0].turns == ()


def _count_walks_by_hand(n, start):
    # a maximal unbudgeted walk is an interleaving of left and right steps
    left, right = start, n - 1 - start
    import math

    return math.comb(left + right, left)


def test_walk_counts_match_independent_enumeration():
    for n in range(1, 7):
        line = LineInstance(tuple(range(n)), (INFINITY,) * n)
        for start in range(n):
            walks = enumerate_walks(line, start)
            assert len(walks) == _count_walks_by_hand(n, start)
            assert len({w.turns for w in walks}) == len(walks)


def test_walk_first_visits_are_consistent():
    rng = random.Random(17)
    for _ in range(40):
        line = random_line(rng, max_n=7, deadline_prob=0)
        start = rng.randrange(line.n)
        for walk in enumerate_walks(line, start):
            assert walk.first_visit[start] == 0
            # times grow with distance from the start on each side
            for v in range(line.n):
                t = walk.first_visit[v]
                if t is None:
                    continue
                assert t >= abs(line.coordinates[v] - line.coordinates[start])
            assert walk.completion == max(t for t in walk.first_visit if t is not None)


def test_brute_reproduces_module_examples():
    # single robot on the skewed three-node line
    spec = ProblemSpec(
        LineInstance((0, 1, 3), (INFINITY,) * 3),
        RobotPlacement(FIXED, positions=(1,)),
        0,
        None,
    )
    assert brute_solve(spec).optimum == 4
    # one node means zero time
    single = ProblemSpec(
        LineInstance((0,), (INFINITY,)), RobotPlacement(FIXED, positions=(0,)), 0, None
    )
    assert brute_solve(single).optimum == 0
    # two free robots on the unit five-line
    free = ProblemSpec(
        LineInstance(tuple(range(5)), (INFINITY,) * 5),
        RobotPlacement(FREE, count=2),
        0,
        None,
    )
    assert brute_solve(free).optimum == 2


def test_brute_refuses_oversized_instances():
    big = ProblemSpec(
        LineInstance(tuple(range(12)), (INFINITY,) * 12),
        RobotPlacement(FREE, count=2),
        0,
        None,
    )
    with pytest.raises(CapExceeded):
        brute_solve(big)
    assert brute_solve(big, Caps(max_n=12)).feasible


def test_brute_lets_extra_reliable_robots_share_a_start():
    # more reliable robots than (allowed) nodes: the extra ones share or idle
    two = LineInstance((0, 3), (INFINITY, INFINITY))
    free = ProblemSpec(two, RobotPlacement(FREE, count=3), 0, None)
    verdict = brute_solve(free)
    assert verdict.feasible and verdict.optimum == 0
    assert verify_schedule(free, verdict.schedule).passed
    one_start = ProblemSpec(two, RobotPlacement(SUBSET, count=2, allowed=(0,)), 0, None)
    assert brute_solve(one_start).optimum == 3


def test_brute_lets_reliable_subset_robots_share_a_start():
    # nodes 1 and 3 are due at time 1: only two robots leaving node 2 in
    # opposite directions make it, although node 0 is allowed too
    line = LineInstance((0, 2, 3, 4, 6), (INFINITY, 1, INFINITY, 1, INFINITY))
    spec = ProblemSpec(line, RobotPlacement(SUBSET, count=2, allowed=(0, 2)), 0, None)
    verdict = brute_solve(spec)
    assert verdict.feasible and verdict.optimum == 3
    assert verify_schedule(spec, verdict.schedule).passed


def test_double_entry_oracles_agree():
    rng = random.Random(71)
    trials = 0
    for _ in range(250):
        if rng.random() < 0.5:
            top = random_line(rng, max_n=5)
        else:
            top = random_ring(rng, max_n=5)
        k = rng.randint(1, 2)
        f = rng.randint(0, k - 1)
        if f > 0:
            placement = RobotPlacement(FREE, count=k)
        else:
            placement = RobotPlacement(
                FIXED, positions=fixed_positions(rng, top.n, k, allow_duplicates=False)
            )
        bound = None if rng.random() < 0.6 else rng.randint(0, 2 * int(sum(
            top.edge_weights) if isinstance(top, RingInstance) else line_span(top)) + 1)
        spec = ProblemSpec(top, placement, f, bound)
        assert brute_solve(spec).optimum == brute_solve_alt(spec).optimum
        trials += 1
    assert trials == 250


def test_verify_checks_where_each_track_starts():
    line = LineInstance((0, 1, 3), (Fraction(1, 2), INFINITY, INFINITY))
    sweep = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (3, 3))),))
    for placement in (
        RobotPlacement(FREE, count=1),
        RobotPlacement(FIXED, positions=(0,)),
        RobotPlacement(SUBSET, count=1, allowed=(0, 1)),
    ):
        assert verify_schedule(ProblemSpec(line, placement), sweep).passed
    for placement, why in (
        (RobotPlacement(FIXED, positions=(2,)), "fixed positions"),
        (RobotPlacement(SUBSET, count=1, allowed=(1, 2)), "allowed"),
    ):
        with pytest.raises(ScheduleError, match=why):
            verify_schedule(ProblemSpec(line, placement), sweep)
        # a solver whose schedule ignores its placement is at fault
        with pytest.raises(RuntimeError, match="internal error"):
            witnessed(ProblemSpec(line, placement), Verdict(feasible=True, schedule=sweep))
    between = Schedule(kind="line", tracks=(RobotTrack(((0, Fraction(1, 2)), (3, 3))),))
    with pytest.raises(ScheduleError, match="not at a node"):
        verify_schedule(ProblemSpec(line, RobotPlacement(FREE, count=1)), between)
    # on a ring a start counts modulo the circumference
    ring = RingInstance((1, 1, 2), (INFINITY,) * 3)
    spec = ProblemSpec(ring, RobotPlacement(FIXED, positions=(1,)), 0, None)
    lap = Schedule(kind="ring", tracks=(RobotTrack(((0, 5), (4, 9))),), circumference=4)
    assert verify_schedule(spec, lap).passed
    with pytest.raises(ScheduleError, match="fixed positions"):
        verify_schedule(spec, Schedule(kind="ring", tracks=(RobotTrack(((0, 4),)),), circumference=4))


def test_witnessed_checks_the_time_the_verdict_claims():
    line = LineInstance((0, 1, 3), (INFINITY,) * 3)
    spec = ProblemSpec(line, RobotPlacement(FREE, count=1))
    sweep = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (3, 3))),))
    no = Verdict(feasible=False, optimum=INFINITY)
    assert witnessed(spec, no) is no
    yes = witnessed(spec, Verdict(feasible=True, optimum=3, schedule=sweep, idle_edges=()))
    assert (yes.optimum, yes.schedule, yes.idle_edges) == (3, sweep, ())
    assert yes.witness == {0: ((0, 0),), 1: ((0, 1),), 2: ((0, 3),)}
    # a decision claims no optimum and is checked at the spec's bound
    assert witnessed(replace(spec, bound=3), Verdict(feasible=True, schedule=sweep)).witness == yes.witness
    for claimed, bound in ((2, None), (2, 3), (None, 2)):
        with pytest.raises(RuntimeError, match="internal error: line schedule failed verification"):
            witnessed(replace(spec, bound=bound), Verdict(feasible=True, optimum=claimed, schedule=sweep))
    with pytest.raises(RuntimeError, match="internal error: a feasible verdict came without a schedule"):
        witnessed(spec, Verdict(feasible=True, optimum=3))


def _last_move_end(track, length):
    """The time the track's last move ends: the latest arrival over its
    segments that move, 0 for a track that never moves."""
    wps = track.waypoints
    return max((t1 + length(a, b) for (t1, a), (_, b) in zip(wps, wps[1:]) if a != b), default=0)


def test_ring_visits_equal_the_lift_scan():
    # unwrapped starts below zero, segments over two laps or more, the
    # zero-length first segment and Fraction weights all take the lap loop;
    # a line (total None) is one lap, read against a plain scan.  The end of
    # the last move is returned too, also for tracks that wait at their
    # last spot
    rng = random.Random(1602)
    long_segments = waits = 0
    for trial in range(3000):
        if trial % 2:
            line = random_line(rng, max_n=7)
            nodes, total, span = line.coordinates, None, max(line.coordinates[-1], 1)
            t, x = 0, rng.choice(nodes) + Fraction(rng.randint(-2, 2), 2)
        else:
            ring = random_ring(rng, max_n=7)
            if rng.random() < 0.5:
                ring = ring.scaled(Fraction(1, rng.choice((2, 3))))
            nodes, total = ring.positions, ring.lap
            span = total
            t, x = 0, nodes[rng.randrange(ring.n)] + rng.randint(-3, 2) * total
        waypoints = [(t, x)]
        for _ in range(rng.randint(0, 4)):
            step = simplify(span * Fraction(rng.randint(-36, 36), 12))
            if step == 0:
                continue
            long_segments += total is not None and abs(step) >= 2 * total
            t, x = t + abs(step) + rng.randint(0, 2), x + step
            waypoints.append((t, x))
        if rng.random() < 0.3:
            waits += 1
            waypoints.append((t + rng.randint(1, 3), x))
        track = RobotTrack(tuple(waypoints))
        fast, end = _coordinate_visits(nodes, total, track)
        scan = line_visits_scan(nodes, track) if total is None else ring_visits_scan(nodes, total, track)
        assert {v: (type(t), t) for v, t in fast.items()} == {v: (type(t), t) for v, t in scan.items()}
        assert end == _last_move_end(track, lambda a, b: abs(b - a))
    assert long_segments > 100 and waits > 500

    for _ in range(300):
        star = random_star(rng, fractional=rng.random() < 0.5)
        w, center = star.leaf_weights, star.center

        def length(a, b):
            return sum(w[u] for u in (a, b) if u != center)

        t, here = 0, rng.randrange(star.q + 1)
        waypoints = [(t, here)]
        for _ in range(rng.randint(0, 5)):
            there = rng.randrange(star.q + 1)
            t += length(here, there) + rng.randint(0 if there != here else 1, 2)
            here = there
            waypoints.append((t, here))
        track = RobotTrack(tuple(waypoints))
        _, end = oracle._star_visits(star, 0, track)
        assert end == _last_move_end(track, length)


def test_a_ring_segment_is_read_for_one_lap_only():
    # first visits lie within one lap of a segment's departure point, so a
    # segment of 10**15 laps verifies as fast as the same track cut at one
    # lap, with the same visits and its full length as the makespan
    ring = RingInstance((1, 2, 2), (INFINITY, 4, 3))
    spec = ProblemSpec(ring, RobotPlacement(FREE, count=2), 0, None)
    far = 10**15

    def sweep(length):
        tracks = (RobotTrack(((0, 0), (length, length))), RobotTrack(((0, 1), (length, 1 - length))))
        return Schedule(kind="ring", tracks=tracks, circumference=ring.lap)

    long, cut = verify_schedule(spec, sweep(far)), verify_schedule(spec, sweep(ring.lap))
    assert long.passed and long.makespan == far
    assert long.nodes == cut.nodes
    assert [check.visits for check in long.nodes] == [((0, 0), (1, 1)), ((1, 0), (0, 1)), ((0, 3), (1, 3))]


def test_brute_witness_always_verifies():
    rng = random.Random(72)
    seen = 0
    for _ in range(120):
        line = random_line(rng, max_n=6)
        k = rng.randint(1, 3)
        f = rng.randint(0, min(1, k - 1))
        if f > 0:
            positions = fixed_positions(rng, line.n, k, allow_duplicates=True)
        else:
            positions = fixed_positions(rng, line.n, k, allow_duplicates=False)
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), f, None)
        verdict = brute_solve(spec)
        if not verdict.feasible:
            continue
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        seen += 1
    assert seen > 40


def test_walks_dominate_random_zigzag_schedules():
    # every schedule the verifier accepts is matched or beaten by a walk tuple
    rng = random.Random(73)
    for _ in range(80):
        line = random_line(rng, min_n=2, max_n=6, deadline_prob=0.3)
        start = rng.randrange(line.n)
        x = line.coordinates
        pos = x[start]
        t = 0
        waypoints = [(t, pos)]
        for _ in range(rng.randint(1, 4)):
            target = x[rng.randrange(line.n)]
            dist = abs(target - pos)
            if dist == 0:
                continue
            t += dist + (0 if rng.random() < 0.7 else Fraction(1, 2))
            waypoints.append((t, target))
            pos = target
        from roversweep.schedule import RobotTrack, Schedule

        schedule = Schedule(kind="line", tracks=(RobotTrack(tuple(waypoints)),))
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=(start,)), 0, None)
        report = verify_schedule(spec, schedule)
        visits = {c.node: c.visits[0][1] for c in report.nodes if c.visits}
        walks = enumerate_walks(line, start, deadlines=(INFINITY,) * line.n)
        dominated = False
        for walk in walks:
            if all(
                walk.first_visit[v] is not None and walk.first_visit[v] <= tv
                for v, tv in visits.items()
            ):
                dominated = True
                break
        assert dominated


def test_naive_team_tables_anti_monotone_in_robots():
    rng = random.Random(74)
    for _ in range(20):
        line = random_line(rng, max_n=7)
        tables = naive_team_tables(line, 3)
        n = line.n
        for r in (2, 3):
            for i in range(n):
                for j in range(i, n):
                    assert tables[r][i][j] <= tables[r - 1][i][j]


def test_solvers_do_not_bind_the_walk_enumeration():
    # the solvers build their plans themselves; walk enumeration stays
    # the independent oracle they are checked against
    binders = {"roversweep"} if roversweep.enumerate_walks is oracle.enumerate_walks else set()
    for info in pkgutil.iter_modules(roversweep.__path__):
        module = importlib.import_module(f"roversweep.{info.name}")
        if any(value is oracle.enumerate_walks for value in vars(module).values()):
            binders.add(module.__name__)
    assert binders == {"roversweep", "roversweep.oracle"}
