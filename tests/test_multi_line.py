import hashlib
import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import pytest

from support import (
    fixed_positions,
    idle_edge_split_scan,
    naive_team_tables,
    own_line_passes,
    random_line,
    random_ring,
)
from roversweep.exact import INFINITY, format_number
from roversweep import multi_line
from roversweep.fault_line import solve_free_faulty
from roversweep.instance import FIXED, FREE, LineInstance, ProblemSpec, RingInstance, RobotPlacement
from roversweep.multi_line import idle_edge_split, solve_fixed, solve_free
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


PINNED_SHAPES = (  # kind, n, k, where the robots sit
    ("line", 2, 2, "any"), ("line", 3, 2, "any"), ("line", 3, 3, "any"), ("line", 9, 2, "any"),
    ("line", 17, 3, "any"), ("line", 30, 5, "any"), ("line", 30, 4, "adjacent"),
    ("ring", 2, 2, "any"), ("ring", 3, 2, "any"), ("ring", 3, 3, "any"), ("ring", 4, 2, "inner"),
    ("ring", 5, 2, "inner"), ("ring", 12, 3, "inner"), ("ring", 12, 3, "across"),
    ("ring", 25, 4, "inner"), ("ring", 25, 2, "adjacent"), ("ring", 25, 2, "across"),
)

# sha256 of each pinned case's optimum, idle edges and schedule JSON, as
# solve_fixed wrote them when every robot's pass ran on the whole graph
PINNED_FIXED_DIGESTS = (
    "919088dfe628615cbd103f04239f38d1a53afc1137cf0f8448cfd166baba0a5e",
    "c3279c9c4c83aa58e1d8ff0066ca5f5d399be2b01a7416a49fac130d6ca8cb10",
    "ed0b0d7b28c654883ec800c27800c3062abab812f5160bd0468e07735d962e89",
    "35a2deb093813eb0eaf8f7dd35089303de6c4ad5ef32cf50385f03bb21619ae3",
    "4519b1ff7cef280e1c36597e8d2245f94f4aaeca3d3d43970c0f59a1ef8e9e30",
    "03b21efeb702781116b638a3930a58f1368a6a64687630af3eb923b02c3d4dfd",
    "eac47013f3f4a14d80e87e27d9f58614e3ef9018da8b48fbe0b2a29188bf35f8",
    "84e08f3588dc2bf4dafa027dcee915e70132bafd7660a093b2d9d1b0cda71ded",
    "24c390a0399c4f9c6a80a835874d3e3810e1c1de730a5da05428b634ee02ea6d",
    "28916677bbe421b1e317b0f5d3b15445d3ab34bfd716d8d3996b9794f9493f56",
    "338cdcabd627ec4b524e8a1885fd46f9877fefa95222dec74a53026a741650d3",
    "1954826fab840dcbf7f79560a010b00b851097a6d76f9632a1a38c93b4294488",
    "4454982ea2431dfba5bc36381867d5472bc37243d8c6f6713cfe15fcebd35745",
    "97ccccd1d887d1cf0c6e12bcae314128242119828593fc69f10c1831fb081bd2",
    "75940f5c2bc2d6e63886a0d60a23e426c20590e84a1a5d1dc0c9dbece4fb9c39",
    "9cd12a0807099d2d2bd84f9768b9d96be4d3759ff02c5d42add8617b43d80f16",
    "b08f3a63a8e837f479712dd9e7a7055c8eb1f5c87ef11358fbf58e91bc44dbc8",
    "d6be7cb22997c280da2d14587cf2afed16992d5169658558aeabaa5b3b10d4a5",
    "26e55046b8ca24d22387556de605d140085d88bfaa8ad171ad7d196a2b0eba7d",
    "2040ede3ba8d7deb92d5a899c0b7051e32b10833ec21b659c5eb6b8279438785",
    "156d8c024737f2f0582bfca9d798ca89459393bb1ddced5986cff9b85742fe10",
    "7e50a4b586c00a209e3eb0800cac1e7a43fbad2cef8d5c5d9351552f09787061",
    "d4e4d9f4ef9c1bc0229fc9db6cb0cefa551b6364dee0485956d7d583c2ca8f8b",
    "06990eb3dce04b647d36738cc35bc60325167641e8b508febb60608f148e3f59",
    "12e7e5667b553fb43d2dfd09e68d3d0b30d41c83dffa2f0de9337828d2821fea",
    "2051f9cd8ec9497e2c830ba2925934bdb6b53c09c4fdc60ca6631a8b571c5ec5",
    "d2966df795a92b54f788a32438c070f19e868cce2b159a1d6e0fe87daf18ec8c",
    "7a2f9afca61522dcdb75aab2ddca990c31776077a5a35f4da7e6a76e1912788a",
    "ea3749dbe69d32a203fde3f9dbd107025a18c4ddde8451912d4a60c11367a5e1",
    "e9052936c405ea76c8041308f043bdf26e2430232b0e4212562031f24e50a1cf",
    "6bda34383b5ff36f43140e558aadb720536e40dd75fef29237fb26f44eddb4ed",
    "5900f2306692452ab10b8f3525e6156b5a3205fe7e747d1c1328433967b3d4d4",
    "4c86101873d1ed96c758983582fc400639114311841ed01f18eb83c9c81dce79",
    "7ac10632331292aeb5b764f1881d5380d77db73a90b056260b3da2b8cd4fc9bd",
)


def pinned_fixed_cases():
    """(topology, positions) of seeded lines and rings, each followed by
    its ÷3 twin.  "inner" keeps robots off nodes 0 and n - 1, so the first
    robot's window passes node 0 and its start lies on the window's second
    lap; "across" puts neighbours on nodes n - 1 and 0."""
    rng = random.Random(1817)
    for kind, n, k, where in PINNED_SHAPES:
        weights = [rng.randint(1, 5) for _ in range(n if kind == "ring" else n - 1)]
        span = sum(weights)
        deadlines = tuple(INFINITY if rng.random() < 0.5 else rng.randint(span // 2, 2 * span)
                          for _ in range(n))
        if kind == "line":
            topology = LineInstance(tuple([0] + [sum(weights[:i + 1]) for i in range(n - 1)]), deadlines)
        else:
            topology = RingInstance(tuple(weights), deadlines)
        if where == "inner":
            positions = sorted(rng.sample(range(1, n - 1), k))
        elif where == "across":
            positions = sorted({0, n - 1, *rng.sample(range(2, n - 2), k - 2)})
        elif where == "adjacent":
            first = rng.randrange(1, n - k)
            positions = list(range(first, first + k))
        else:
            positions = sorted(rng.sample(range(n), k))
        yield topology, positions
        yield topology.scaled(Fraction(1, 3)), positions


def test_fixed_schedule_bytes_are_pinned():
    digests = []
    for topology, positions in pinned_fixed_cases():
        v = solve_fixed(topology, positions)
        text = f"{format_number(v.optimum)} {v.idle_edges}\n" + v.schedule.to_json()
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == list(PINNED_FIXED_DIGESTS)


def test_each_fixed_pass_builds_only_its_window():
    # n = 240, k = 6: every graph built is one robot's own line, the w
    # nodes strictly between its neighbours, with w^2 states
    rng = random.Random(84)
    n = 240
    weights = [rng.randint(1, 9) for _ in range(n)]
    line = LineInstance(tuple([0] + [sum(weights[:i + 1]) for i in range(n - 1)]), (INFINITY,) * n)
    ring = RingInstance(tuple(weights), (INFINITY,) * n)
    positions = [20, 60, 100, 140, 180, 230]
    for topology, sizes in ((line, [60, 79, 79, 79, 89, 59]), (ring, [69, 79, 79, 79, 89, 79])):
        with patch.object(StateGraph, "from_ring", wraps=StateGraph.from_ring) as whole_rings:
            with patch.object(StateGraph, "from_line", wraps=StateGraph.from_line) as lines:
                verdict, passes = own_line_passes(topology, positions)
        assert verdict.feasible and not whole_rings.called
        assert [call.args[0].n for call in lines.call_args_list] == sizes
        assert [labels.graph.node_count for labels in passes] == [w * w for w in sizes]


def _split_case(rng, share):
    """A line or ring of 6 to 40 nodes, int or Fraction, with k = 2..6
    robots at distinct nodes; a share of the nodes gets a deadline
    between span / 2k and three times the span."""
    n = rng.randint(6, 40)
    k = rng.randint(2, 6)
    steps = [rng.randint(1, 6) for _ in range(n)]
    span = sum(steps)
    deadlines = tuple(
        rng.randint(span // (2 * k), 3 * span) if rng.random() < share else INFINITY
        for _ in range(n)
    )
    if rng.random() < 0.5:
        coords = tuple(itertools.accumulate(steps[:-1], initial=0))
        topology = LineInstance(coords, deadlines)
    else:
        topology = RingInstance(tuple(steps), deadlines)
    if rng.random() < 0.5:
        topology = topology.scaled(Fraction(1, 3))
    return topology, fixed_positions(rng, n, k, allow_duplicates=False)


@pytest.mark.parametrize("share", [0, 0.3, 0.7])
def test_split_pointer_equals_the_scan(share, monkeypatch):
    rng = random.Random(1600 + int(10 * share))
    cases = [_split_case(rng, share) for _ in range(60)]
    pointer = [solve_fixed(topology, positions) for topology, positions in cases]
    agree = []

    def scan(starts, n, part_time):
        reference = idle_edge_split_scan(starts, n, part_time)
        agree.append(idle_edge_split(starts, n, part_time) == reference)
        return reference

    monkeypatch.setattr(multi_line, "idle_edge_split", scan)
    feasible = 0
    for (topology, positions), verdict in zip(cases, pointer):
        reference = solve_fixed(topology, positions)
        assert (verdict.feasible, verdict.optimum) == (reference.feasible, reference.optimum)
        assert type(verdict.optimum) is type(reference.optimum)
        if verdict.feasible:
            assert verdict.schedule.to_json() == reference.schedule.to_json()
            assert verdict.idle_edges == reference.idle_edges
            feasible += 1
    assert all(agree) and len(agree) > len(cases)
    assert feasible >= 20


def test_split_pointer_equals_the_scan_on_plateaus():
    # part times from small tables, monotone as the pointer needs but with
    # many equal values and INFINITY, so ties and dead ends are common
    rng = random.Random(1601)
    for _ in range(400):
        n = rng.randint(1, 14)
        starts = sorted(rng.sample(range(n), rng.randint(1, min(4, n))))
        cap = rng.randint(2, 9)
        tables = []
        for s in starts:
            left = list(itertools.accumulate(rng.randint(0, 1) for _ in range(s + 1)))
            right = list(itertools.accumulate(rng.randint(0, 1) for _ in range(n - s)))
            tables.append((s, left, right))

        def part_time(r, m, j):
            s, left, right = tables[r]
            t = left[s - m] + right[j - s]
            return INFINITY if t > cap else t

        assert idle_edge_split(starts, n, part_time) == idle_edge_split_scan(starts, n, part_time)


def test_split_ties_go_to_the_smallest_split_point():
    # robot 1's parts ending at node 3 or 4 take 2 from every split point,
    # and robot 0's prefix reaches 2 only at node 2: split points 1, 2 and
    # 3 all cost 2, and the pointer must walk back from 2 to 1
    def part_time(r, m, j):
        return j if r == 0 else 2

    assert idle_edge_split([0, 3], 5, part_time) == (2, [(0, 0, 0), (1, 1, 4)])
    assert idle_edge_split_scan([0, 3], 5, part_time) == (2, [(0, 0, 0), (1, 1, 4)])


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
    # odd and even team sizes, each probe splitting the line into up to k parts
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
        spec = ProblemSpec(line, RobotPlacement(FREE, count=k), 0, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert report.makespan == verdict.optimum
        seen += 1
    assert seen > 30


FREE_SHAPES = (  # kind, n, k, f: k >= n on some, crash teams last
    ("line", 1, 2, 0), ("line", 3, 2, 0), ("line", 4, 4, 0), ("line", 5, 8, 0),
    ("line", 6, 3, 0), ("line", 8, 2, 0), ("line", 10, 5, 0), ("line", 12, 7, 0),
    ("line", 17, 3, 0), ("line", 20, 8, 0), ("line", 30, 4, 0), ("line", 40, 6, 0),
    ("ring", 2, 2, 0), ("ring", 3, 3, 0), ("ring", 3, 5, 0), ("ring", 4, 2, 0),
    ("ring", 6, 3, 0), ("ring", 9, 4, 0), ("ring", 12, 2, 0), ("ring", 15, 6, 0),
    ("ring", 20, 8, 0), ("ring", 25, 3, 0),
    ("line", 9, 4, 1), ("line", 14, 6, 1), ("line", 20, 7, 2), ("line", 25, 3, 2),
    ("ring", 5, 4, 1), ("ring", 8, 5, 1), ("ring", 10, 6, 2), ("ring", 12, 3, 2),
)

# sha256 of each pinned case's optimum and schedule JSON, as solve_free
# wrote them when a line's optimum came from Nicol's recursion
PINNED_FREE_DIGESTS = (
    "af1698e33731776e18595895ac3190fc6ce68c44bcbe24d17f518951ef1ff958",
    "af1698e33731776e18595895ac3190fc6ce68c44bcbe24d17f518951ef1ff958",
    "a7bf797e2cbe70a90cf3a2116a20dd6557ff35d997526468011260e85401003f",
    "d0fc313b616ca855ef00503cb08bab3bdcc9c8be3b28b7fa23f210594b757abc",
    "7f2c8810299dbe80b7dff9b2c9b9c6322fefe70f7f532204fdf11630e0b8f76b",
    "aceac68cdcf0d0e8a58d0f4a161120172a41a3393bd70a05edfa52dda9a85675",
    "4c177ceb974074593af35d38eb0aae9458c4365a580d2bd3f212a18f4b4c474e",
    "c06ca987b62d6e41df848b59ed088d9cf2f3a3cfd9b6427bc48d3e4ac16f8668",
    "1fe975a2f3bec37d6db29044e1b5bce9155d1f0e2e14024daf0e850ccf932e16",
    "f8cc032036a538f378bf8b0436b0859cccea701bfacf7f20d1e6514b72207efd",
    "48e188852d3158a0549e6edaec5fc6bf849e44f3c19bf14c20eb3aace058e17e",
    "0aa0be59b1f1487af784b7b326a0dc00159249d94c4d6f37c8c5632cfc611c2e",
    "84db0501edc9b1ce4c22c514e176d47d618f565e5b4c74e229b1f0d450085172",
    "b326a9fd70e9a165660db8d8a7473a7b6e01da7c1ad1ebed12e4e2cef0ab92b2",
    "e99d669edc53a75764cad2a3bebc3a98d75f053035c6b19f2c761c68f35fdc9d",
    "eb42882a8acee87162fc09fe5f7ecbf2ba78af5d58c184b264d3a178c1bdbac2",
    "8fbc0879319a41f0856c42e1ef8ca6872a4d9375bef8a265a367c6709ed20c5a",
    "501ba2d0450c21497b24bada7ab1f565a5131063fbe8efd3ef56bef976894429",
    "e7d79db744fc4dc903f1c017df102df16900f83a2fa9147a412e662726393860",
    "2893fc055ca11d410dbe3db2602ed40755ecd3514e19d70f1e76b9d0449cf0d1",
    "ddabfea6497f9c958ae10a49528463d664f1fd5dcd2bdc81624bdcc6c859e12c",
    "92317af259bb06a46942ea03aab66baff28b5f497ebce65d01803ffb8f450941",
    "db59c77bcf4d9f11007328e41a117c042ae7a4e91fab865f2d97275b7d9ba006",
    "4213763d87fdfa6ea6c7bb27ed400539ba70843fb58b68143d21321398bb4dc5",
    "6ed0aa227412771ee0f178352d33461c0826bfecf83b99a9ba05c149b7203782",
    "766ee50963278ca130170381e853383fd6edf9d7b0c79a65ed71493a10d3b056",
    "95bb004593c73df9460d1293dae092e03a372df67798a42665cfa96939a005ec",
    "6a35784b5eec5844650853928a8f39acecdc1fbe67078bb0be7f208b6ccc6f3b",
    "b948039b4d61540d14567a195d6b89e81b66ad3e97ba6c28358a7b223717fa1c",
    "40a772939c7a7162baacefebca55dcb0d43acf91ed9ca3e1f6af18a0dc489873",
    "57cccf4f3d4f8578928e865e2779643b0e686aedc9d3d17127d06bb820f3a9e7",
    "f1ad38d9b4d91a6533dfc112cf0e6a95e1bbc3063ae76a0cd89695f68ba7b8e4",
    "87167544222d3bd3b25f8d478a7a012773694007f09dd89130911f9f5119e1f0",
    "cc6e75dd2a54a18db680344d04bb4749db2eb292537e903aa2c503f929c6d2d6",
    "7906f3639a1b83fe8fddf2b6a988248cab7d4a2772f7690746eb6502e7d26bd4",
    "7f96b07e7887eeb173c3eb3283a17903d38d0777127286736e376becd1c6deee",
    "1b19ea7e165bb2d600659f4cd57a6c39e848c300718daa0bedee1359fed580ff",
    "1dfc925034c75cf199457b7845ebc7b7813d07288112680bef1fb573501f359f",
    "525674b18fe087d053bd8fe55ad1adab95db13b431b47a637e7584714f93c97c",
    "45bf2e647b651f352220269e0aa08ebe17caa14235da4bbefa91beaaf6fe871a",
    "17af014f57f03192c029e7a344c41847148a9e7db5169beb73b02070034dfe33",
    "fdab73be6e1d29ae8259b5182e0c9397aaa560a76f1c5f291a236b0ed68fd90c",
    "5b07b0ec44a685cd59720e5ba84282640b8ec311c5ba349802334df3962dcdb8",
    "e120466ee6ff8fe8816c944adc3dc9eb0d8d26f381bfb9561ce9ebd4d5e2b5e8",
    "3a13ab45884a9dff4260fd9b9323383b98fc962f5b03b27817341adf1f829427",
    "e606e778fa70bc9e89b598cf44a2f13a1ae05edba92b037014000d846a0dbd14",
    "4e3706dcf687cc3955bd3feadf6e4a4c762873298d2b608c74f73ace72ae8900",
    "5d2535171db17bce1758044514a12e5963efab95a569f4d3a3dda0b49e6c52bf",
    "2e2ad5f8039cdde89a01b9a556cd4b7f3867c97af7b011467dad4a507ae5e1be",
    "f73941f4913599bbce39091f2b6a7bbaaff9c3e2249c733f63d93b22dbe2dd7e",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "d557dabf78e90fa71d453a4af40924b37ab9a52e9572dd60550e385693a40f79",
    "d3b974ccc00229abfbb955b869838112a7031a930a898a85c940d281272697e0",
    "e88b1734cbbf8dc9eb5fa63a6586832f1ba6ab90e4c19c762d93f4779a0836ff",
    "8ff9d6e019f2285366c88c86dd4008376eb3a40eacd6d949c85fcb45abd1dc76",
    "be607a711a6c498581054d1869a430102b6004cf0e010e953fc451d2133189ce",
    "c0229ba89f1f313bc893a0dab2792598f4018d743430237bf40ecd5097af2fac",
    "0e913c1ea3cb28ff64cb6c6df4157ac209079d95f18379dba8325f59a8c72d17",
    "cd133aec949d213dc7d033a6b5b5fd08ee18b10e0af2bc9fd5c2fc7841642d50",
)


def pinned_free_cases():
    """(topology, k, f) of seeded lines and rings, each followed by its
    ÷3 twin; half the nodes get a deadline between span / k and twice
    the span."""
    rng = random.Random(2318)
    for kind, n, k, f in FREE_SHAPES:
        weights = [rng.randint(1, 5) for _ in range(n if kind == "ring" else n - 1)]
        span = max(sum(weights), 1)
        deadlines = tuple(INFINITY if rng.random() < 0.5 else rng.randint(span // k, 2 * span)
                          for _ in range(n))
        if kind == "line":
            topology = LineInstance(tuple(itertools.accumulate(weights, initial=0)), deadlines)
        else:
            topology = RingInstance(tuple(weights), deadlines)
        yield topology, k, f
        yield topology.scaled(Fraction(1, 3)), k, f


def test_free_schedule_bytes_are_pinned():
    digests = []
    for topology, k, f in pinned_free_cases():
        v = solve_free_faulty(topology, k, f) if f else solve_free(topology, k)
        text = format_number(v.optimum) + ("\n" + v.schedule.to_json() if v.feasible else "")
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == list(PINNED_FREE_DIGESTS)


def test_a_free_line_team_may_outnumber_the_recursion_limit():
    # the search over candidate times recurses on nothing, so a team of 260
    # solves under a recursion limit of 200
    line = LineInstance(tuple(range(300)), (INFINITY,) * 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        verdict = solve_free(line, 260)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.optimum == 1  # 150 robots sweep two nodes each, 110 idle
    assert len(verdict.schedule.tracks) == 260
    spec = ProblemSpec(line, RobotPlacement(FREE, count=260), 0, None)
    assert verify_schedule(replace(spec, bound=1), verdict.schedule).passed


def test_a_large_free_team_reads_few_labels(monkeypatch):
    # O(log n) probes of O(k log n) label reads each; a search whose every
    # probe walks the greedy parts of the rest of the line reads ~500,000
    reads = 0
    reader = multi_line.stretch_reader

    def counted(labels):
        read = reader(labels)

        def count(i, d):
            nonlocal reads
            reads += 1
            return read(i, d)

        return count

    monkeypatch.setattr(multi_line, "stretch_reader", counted)
    verdict = solve_free(LineInstance(tuple(range(300)), (INFINITY,) * 300), 260)
    assert verdict.optimum == 1
    assert 0 < reads <= 20_000
