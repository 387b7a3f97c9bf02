import hashlib
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
from roversweep.exact import INFINITY, format_number, simplify
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


# sha256 of each pinned case's optimum, schedule JSON and witness from
# brute_solve, recorded before the profile antichain was compared in C
PINNED_BRUTE_DIGESTS = (
    "d4b0104f6d9672d1b50ab41e0db8dd12db5565cd09572b8ccce57970319e6d30",
    "854a9d62beddd9a4b7d3bbf23ebeb3385a2513412bb08cf98b1cd6d694d8f01e",
    "44254904384d9afb433b4bec02bc8e135728f25142123b5dc5c8334042950123",
    "0b326e62f26cb8d4df0f91f0a265a81e7b96a0a921691eab9bdfe50e7402b68f",
    "f1bfec2562b894f2094c5d632d3db8356f804bbf0f4b96b5d9216b68fb07c915",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "d63262ad3a203e0878503408c994551b388d1ffaba07e537e3a77cd222626df5",
    "f9c771371d694a0800b0999a91b1f5601bcae737a216c38ac5c3eca82ebd5ca3",
    "97fa4f20e331b16b90d284e594e371ac58f69f7286d921561a78866605c65143",
    "cb0ea4c1228bf61068550025cbd29c9f6fc0d58faecdd10a142cf09a3a85b2ce",
    "a0533e00d516225052731e81a4bb4a75e14bbb1c7ef49fb07c0bd102c8e33f1b",
    "982e5e0811ae59a5a4bbd46edd998abcd9f952243571eb873282e6d754318a96",
    "d612ba5914e74468d5266b07025aeb80b1e58e2d15c8ed082ff5e250a1770c78",
    "67c5ef85bc694694a155e8ae3f1304df94f9da1d63ca7194feeb7920cc3f586b",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "e8e77c31e7d1746c1068b2dc7d5c7681e52ec97bebe037bb9f1a7cbe3094bf06",
    "80c1d410b34ba2f53da058d294088961c487fa265d1a3ebe6c099bf6cd6ba21c",
    "f0cf5618038b67a5406bb519c7592bbd1f7fb4880f7567c921e4fb6150535ae6",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "e072c658682027183842fda0400f66f08bfcfe841fe5181e6d92dd0d03299cb5",
    "92f5e14b3f07044e32f69558e8630408416676b9f658fa0c8c72390c99f8ae72",
    "a1c816c3f371e4d92deb4484250fd3ee037affc0834cd66d099d27b1150aebfb",
    "bf6787d6e9e06b2a6a27a7c084ed8a1a625988ecdad34e6fe6d20400b7344836",
    "fc7591b3bffe80c0897b9993adae3efa6c5d2148e4240ccf973ad7f4d55c522f",
    "c806cf34c68c78cf396f894d93aee96f50991a10516aa20c8557c36dd458450a",
    "69c8cb2642efe767184e99cc62c335daaf69dd9590537841321595b3e90e79b4",
    "90958d8f5513ca2da141665c9da4cae289c0673e5164201232e7117ffb24c7d8",
    "7d483aea8da7d3c330a9739a277d263d275211da84839a7401130ececcd652a3",
    "6879d0989c75f0ab05e600b5d1c7782518ebf2c656b4135122c5127f32d09f46",
    "f07ae4a4112cd12c4627811be06b5acd8c1ae87129843bfd25507e3096c053d8",
    "0b0b6197004d59af6f1dd7ed595532f1eadc24feb135cb511f688f930252006a",
    "3210f8855cf41a405ff5045d4b4ff3119e00e9938f9c0341fb477e634caaebcf",
    "9e7add655e1ebedc733c769bb003fcfcfd72e59e20a3fbed7dd161291b5a3372",
    "d852d492e45cd6e82fa452cd494fefa76be7305e75eed4bf3d29f7ac30f5f5eb",
    "8b67c69f142c91d51de43115c68f96a828d203274b43cd52a8bf2a58a7785480",
    "3cb71cc487ddf2f2b14efa7956e05611f94058e5612e366bbe63c02a7e4aedd1",
    "e612a4d6d4aa6f1d8b6b22961d20be55764cdc5112ed13d83de28a9d519238b9",
    "fa64e2589fd7900a4a43a57cf4124e4c99387fbc3e320f0873670260ee5e4529",
    "f3825163958da13ef7d03b1c3a641715f8933bfbb26dada9fdc6ca429a825966",
    "6a13e042a4d68cf7f2bf003ee01fa9ae95cb855fe86bdc257725e96675bbafad",
    "4fd048d577e0bf465a8a1e81bc79e5ecd3cef98c6479f5e017853f6cc632889c",
    "384bb6ae45c5806c353d1fea1480ea798fb47e47788236f25abcf7add974299f",
    "3f80f113c39cef11da1f5215c8c1b30eda13b3d733d921ba827503c6ff1a6b50",
    "155d69e6cf47286db8f87690e3ebd0902336528720f5de6360b0a7dd88c2184a",
    "3e6a822fef72c9a575e1570abb30849ec660c003971943cbc1ab1ced29059d74",
    "a789ff91d837db71ff5ef21ce8ff475e13d25e0e8dd6b47829c2d4ee486e9080",
    "b0c95e4279272fa1f6aeec93d73ab7232796c34fd2199d5c180591f013754b94",
    "781f1a5c1a634f77ea6a293369481cecf6c475f6835f7a5b3d8e354721412b52",
)


def pinned_brute_cases():
    """ProblemSpecs of 48 seeded lines and rings (n <= 8, k <= 3, f <= 2)
    with fixed, free and subset starts, half of them with a bound."""
    rng = random.Random(2520)
    for idx in range(48):
        kind = ("line", "ring")[idx % 2]
        mode = (FIXED, FREE, SUBSET)[idx // 2 % 3]
        k = 1 + idx // 6 % 3
        f = rng.randint(0, min(2, k - 1))
        if kind == "line":
            top = random_line(rng, max_n=8, deadline_prob=0.3)
        else:
            top = random_ring(rng, max_n=8, deadline_prob=0.3)
        if mode == FIXED:
            placement = RobotPlacement(FIXED, positions=fixed_positions(rng, top.n, k, f > 0))
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            allowed = rng.sample(range(top.n), rng.randint(1, top.n))
            placement = RobotPlacement(SUBSET, count=k, allowed=tuple(allowed))
        extent = int(top.lap or top.positions[-1]) + 1
        bound = None if idx // 24 else Fraction(rng.randint(extent, 3 * extent), rng.choice((1, 2)))
        yield ProblemSpec(top, placement, f, bound)


def test_brute_solve_bytes_are_pinned():
    digests = []
    for spec in pinned_brute_cases():
        v = brute_solve(spec)
        text = format_number(v.optimum)
        if v.feasible:
            text += "\n" + v.schedule.to_json() + "\n" + ";".join(
                f"{node}:" + ",".join(f"{r}@{format_number(t)}" for r, t in visits)
                for node, visits in sorted(v.witness.items())
            )
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == list(PINNED_BRUTE_DIGESTS)
