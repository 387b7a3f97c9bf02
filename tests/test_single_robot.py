import hashlib
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
from roversweep.exact import INFINITY, format_number
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
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


PINNED_RING_DIGESTS = (  # recorded when the full-coverage layer held one state per final node
    "6259f4c9ddc5ef42695aa5e8ba819067aa3e18780ac73f9e70b4036d18ec2a6d",
    "195db24ae80b41c992171980b58ea3107d2a205172f82fd4164b18396ed82ea3",
    "1c47738b9dd359c6e9b5b73e5b5d854f5e851f7f1d6bddf3d47aa542e100e66f",
    "b7c3411bc72410ba55395cc42538ed5b1ae8219799144845722a6744e2db25f6",
    "32e7685de638e5eafc657461fbef47db0b93fd322008033b4aac3962df4c34b1",
    "4bea5ee0fbeaf5dd37d6ee2c760e897761cde0258e35b48047bcfdffdea8dece",
    "03ed44fabed274d5e44afe32c70c0a473c4adc3c320f1a8bacb96f46e959babc",
    "a39d7f0e5b29b37b9cafb5b959cd1879b7a51114e0dc1fa0fd4000867282556f",
    "ffacb0646f5753c3626326d3f7ba30d01058bd4545845fa02217085b36f11ba2",
    "00b1aea4b16d497c562655cd4c0fe15a0cd84a439236aa8f6425a03b048edf61",
    "8bbbee2eb6ee55813aea5b904341a3fd380a6de57dec517591f931b736f85013",
    "72026a67ac4afe13d9b6d21d454bf284c82826452b8270fa33a1b8872935a18e",
    "ae065ab7a6df9c64b71568fb8cff1d38024837624c32712c986bf51190a0aad7",
    "9f506a33fd5b69677c281d3114293c3feca5838ba85417caa88f1d90bafcfbb0",
    "97d8eccef72dc4988bc7889f0b6edae1d79ed31c8f66ce7070b42909d4dcc0c1",
    "c82abf74f9689865078cbb11daf08d92d18816de918e21ab80c8d99b47322d44",
    "9c9a28c04a0ecfd85b0e184ba5bd851622eb49fba3727e4b6eb520c1c0ac6df6",
    "228ee5662429bc96de56d4257cad4fae19420c0aa58f5b580080a520b924dbc2",
    "79ed436bfcc327da1efc42453dbc259ff2dbf2fa80a45661902c434eea02aa68",
    "568c970333b728927d7c55f9cf092d1bafce1a9d1862f3597191eb662080c097",
    "1e1bd237afb31ceadad019e87d108a53c95f1a7d9750b0e25e8cdfab176f02bf",
    "59808e4aa3fd6b14fa79cbd83036386434e99c81fc3b311688cf64bf33d89ed5",
    "548b56c7262feb7d2ddabb7485692adfeb755773cf9ef4adb6e7dd2f95085045",
    "59f694555160f2549f37eaed157f417cdba83824df32f9cc327a8a553feb9097",
    "a4c444907d16df76a56e060791993e17ed81750b9c0d153339cdb3c79ae8db1b",
    "e883b8da1c1f20203fc87763f240b6e0a9c3d3456c8a352e51808d9178508252",
    "e691a6a8a7e89682ea7175b7863fed6188d6ccdc5777c9b4e814cd592ff64bf3",
    "d57894e63151793fd1f406d0e1f198b956ee2132029ee4300d463df86f77d4e7",
    "356ad138cd098ae1c6a727288590d1e9ee6fa9046f38bd987428fe5a343ae63f",
    "d64e9ed1595120cb97e31db18414b87b470e3863f229a8ba6b15e55a023438e9",
    "80a6ad45e9a9063b93cc32470e932ce0994a81cafe5d92306ca63ca54188247e",
    "3d8715cdf8553c24a07076bcc3ecd164057b3dcbf9d42412f5d97a234d6d59a2",
    "f922afd0ae9190e6d20fa20f7fcd1cab1ad0d553eaeda041abc4b12c630e564d",
    "e0cf0263d145d20144c5116925db4011aee9c0c9913db3e3d1b8d2e060737164",
    "518151373bae8f701fa485aca0f4a0042a0d3fef7a73b75d736448bbba7df1b7",
    "61b69ef7710d73d8ca6360ee18e3c1fefa14da4612a390a275b0336f8523a2b4",
    "0a0b8c01d53b5279812496de773b56c451fcc82bc948cdc0700906f8e48c1dd3",
    "531711a2a8443c71549576518b2f1b66bcf04f880ce8919ec498fadeef166ef4",
    "98d66e3486234315718c060bd315631934127290f5356048acad877a4116d619",
    "91ed6e37b2b16fa69337eeaf174a08201fea7307427f1c621b3068c284210885",
    "e305036c29cf7455065a62c5977b77705762734cd009d2d2bc487770efa1f89d",
    "af2b5853154173660c7a18cef407275cda814f11e958c5f993c94f8423fd712b",
    "42e93ac57a7fe39004e80b9e656fbe105635bfa5f6730845a82055d4c6faf2b2",
    "31749a04fa1c08630890d81de71687822c8db3b034820d3a47b8a7c697f24782",
    "6489cba706f14323d36e85d293065b5e6a974a02638293a96960fe3d3eeb3bd4",
    "303b718345810066e2f2bb00164c3d82a7b4d39de0ec3ee492f163f53a3f96fb",
    "f34fee26ca023145a6b9726e3c2e24c596e99fe9cdf77000217ef0fb7c966cae",
    "6836d2449cd65d5bbbaea2d732fe435bdaf550dc1bc35052ce6c83f06b8e1d4a",
    "2dac511e6a81679a3dcf32e0a129c49bc0340fced54dfd9b99cb50957197bb1a",
    "e2c0466bed84456f7028b632966233598b33ebb149421585580050ce45dffc39",
    "961485970792226bf7d6c560399daaa40828ac3df998992d351a38118d4a3e09",
    "86b08c19af57b34b4cfa5830d54a52f9860d1f813798b6d8187c120b08bb667a",
    "4395e8ee37c24c0f42f961bfa3df0a8aea348e1275f41e5d33051ef6b2f1e563",
    "9be02f45847e778ed088d94786bdb8cf7ae3a90c3e1b4a50a467ad8c178c1a3e",
    "a4079bf8dd075a132889b797902bdfd3bcd80f1c86a9e1f1a0cd6b36ddf2de9e",
    "4f2cb1a5c0e16696d0ade396bd493594bdeab66bef77326bb39e9a568ffd36c7",
    "198f418820b0e8e020e734df6b017202c5f9622f64c9627ca5e5a142efc6ffba",
    "a2c039dd1ff6d945fd00d10568336f22f1382276fc7e13173f5cee9587e54a6f",
    "08c46c26fda3e2e55b3c2f6132c22b26e22c73f334f88f00b5fc30a0f06e4b1c",
    "484fe7ed587ab10e9e34479eb38145cf80289d9b47211e4d19e921a47c19db12",
)


def pinned_ring_texts():
    """Optimum and schedule JSON of ``solve_free_start`` on seeded rings of
    2 to 14 nodes with weights 1 and 2, so that ties are everywhere, for
    every start, one start and a random subset; one text per ring, each
    ring followed by its ÷3 twin."""
    rng = random.Random(1917)
    for trial in range(30):
        share = (0, 0.3, 0.7)[trial % 3]
        n = rng.randint(2, 14)
        weights = tuple(rng.randint(1, 2) for _ in range(n))
        total = sum(weights)
        deadlines = tuple(rng.randint(total // 2, 2 * total) if rng.random() < share else INFINITY
                          for _ in range(n))
        ring = RingInstance(weights, deadlines)
        start_sets = (None, [rng.randrange(n)], sorted(rng.sample(range(n), rng.randint(1, n))))
        for topology in (ring, ring.scaled(Fraction(1, 3))):
            text = ""
            for allowed in start_sets:
                v = solve_free_start(topology, allowed)
                text += format_number(v.optimum) + "\n" + (v.schedule.to_json() if v.feasible else "") + "\n"
            yield text


def test_one_robot_ring_schedule_bytes_are_pinned():
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in pinned_ring_texts()]
    assert digests == list(PINNED_RING_DIGESTS)
