import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from support import (
    n3dm_brute_force,
    partition_brute_force,
    random_star,
    star_brute,
    star_single_robot,
)
from roversweep.exact import INFINITY, format_number
from roversweep.fault_line import decide_fixed_faulty
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    ProblemSpec,
    RobotPlacement,
    StarInstance,
)
from roversweep.oracle import Caps, CapExceeded, verify_schedule
from roversweep.reductions import (
    line_from_n3dm,
    star_exact,
    star_from_partition,
)

WIDE_CAPS = Caps(max_n=500, max_k=8, max_f=7)


def elcf_answer(spec):
    return decide_fixed_faulty(
        spec.topology, spec.placement.positions, spec.faults, spec.bound, WIDE_CAPS
    ).feasible


def test_matching_generator_unit_example():
    spec = line_from_n3dm([1], [1], [1], 3)
    assert spec.bound == 35
    assert spec.topology.n == 96
    assert spec.placement.positions == (1, 38, 76)
    assert spec.faults == 0
    assert all(d is INFINITY for d in spec.topology.deadlines)
    assert elcf_answer(spec)


def test_matching_generator_validates_input():
    with pytest.raises(ValueError):
        line_from_n3dm([1], [1], [1, 2], 3)
    with pytest.raises(ValueError):
        line_from_n3dm([0], [1], [1], 2)
    # totals must add up to q * target
    with pytest.raises(ValueError, match="sum"):
        line_from_n3dm([1], [1], [1], 4)


def test_matching_no_instance():
    # conforming totals but no pairing: both triples include one value too big
    spec = line_from_n3dm([1, 1], [1, 1], [1, 3], 4)
    assert not n3dm_brute_force([1, 1], [1, 1], [1, 3], 4)
    assert not elcf_answer(spec)


def test_matching_two_by_two_instance():
    a, b, c, s = [1, 2], [1, 2], [2, 2], 5
    want = n3dm_brute_force(a, b, c, s)
    got = elcf_answer(line_from_n3dm(a, b, c, s))
    assert want and got


def test_generated_instances_have_exclusive_anchor_reach():
    # only the first group reaches the left end, only the second the
    # scaled midpoint, only the third the right end, within the bound
    rng = random.Random(55)
    for _ in range(25):
        q = rng.randint(1, 3)
        a = [rng.randint(1, 4) for _ in range(q)]
        b = [rng.randint(1, 4) for _ in range(q)]
        c = [rng.randint(1, 4) for _ in range(q)]
        total = sum(a) + sum(b) + sum(c)
        if total % q:
            continue
        s = total // q
        spec = line_from_n3dm(a, b, c, s)
        delta = spec.bound
        big = delta + 1  # the block size the offsets are scaled by
        assert 3 * big - 4 * s - 1 == spec.topology.n - 1
        left, mid, right = 0, big, spec.topology.n - 1
        for idx, p in enumerate(spec.placement.positions):
            which = 0 if p < big else (1 if p < 2 * big else 2)
            assert (abs(p - left) <= delta) == (which == 0)
            assert (abs(p - right) <= delta) == (which == 2)
            if which == 1:
                assert abs(p - mid) <= delta


def test_partition_generator_examples():
    yes = star_from_partition([1, 1])
    star = yes.topology
    assert star.leaf_weights == (1, 1, 4, 4, 4, 4)
    assert star.leaf_deadlines == (10,) * 6
    assert star.center_deadline == 10
    assert yes.placement.positions == (2, 3)
    assert star_exact(star, yes.placement, 2, 0, yes.bound).feasible

    no = star_from_partition([1, 3])
    assert not star_exact(no.topology, no.placement, 2, 0, no.bound).feasible

    again = star_from_partition([2, 2, 2, 2])
    assert star_exact(again.topology, again.placement, 2, 0, again.bound).feasible


def test_partition_generator_rejects_odd_sums():
    with pytest.raises(ValueError):
        star_from_partition([1, 2])


def test_partition_equivalence_random():
    rng = random.Random(56)
    for _ in range(120):
        q = rng.randint(1, 6)
        values = [rng.randint(1, 5) for _ in range(q)]
        if sum(values) % 2:
            values[0] += 1
        spec = star_from_partition(values)
        got = star_exact(spec.topology, spec.placement, 2, 0, spec.bound).feasible
        assert got == partition_brute_force(values), values


def test_star_single_robot_examples():
    verdict = star_single_robot(StarInstance((1, 2), (1, 5), INFINITY))
    assert verdict.feasible and verdict.optimum == 4
    assert not star_single_robot(StarInstance((3,), (2,), INFINITY)).feasible
    lone = star_single_robot(StarInstance((2,), (2,), INFINITY))
    assert lone.feasible and lone.optimum == 2


def test_star_single_robot_tie_break_is_by_index():
    star = StarInstance((2, 1), (4, 5), INFINITY)  # both leaves have deadline+weight 6
    verdict = star_single_robot(star)
    assert verdict.feasible
    first_leaf = verdict.schedule.tracks[0].waypoints[1][1]
    assert first_leaf == 0


def perm_feasible(star):
    q = star.q
    for perm in itertools.permutations(range(q)):
        t = 0
        ok = True
        for idx, leaf in enumerate(perm):
            arrive = t + star.leaf_weights[leaf]
            if arrive > star.leaf_deadlines[leaf]:
                ok = False
                break
            t = arrive + (star.leaf_weights[leaf] if idx < q - 1 else 0)
        if ok:
            return True
    return False


def test_star_heuristic_matches_permutation_oracle():
    rng = random.Random(57)
    for _ in range(300):
        star = random_star(rng)
        assert star_single_robot(star).feasible == perm_feasible(star), star


def test_star_exact_single_robot_matches_permutations():
    rng = random.Random(58)
    for _ in range(150):
        star = random_star(rng, max_q=6)
        placement = RobotPlacement(FIXED, positions=(star.center,))
        got = star_exact(star, placement, 1, 0).feasible
        assert got == perm_feasible(star), star


def test_star_exact_obvious_no():
    star = StarInstance((5, 1), (INFINITY, INFINITY), INFINITY)
    placement = RobotPlacement(FIXED, positions=(1,))
    # delta below the far leaf's weight plus the start's distance to the center
    assert not star_exact(star, placement, 1, 0, delta=5).feasible
    assert star_exact(star, placement, 1, 0, delta=7).feasible


def test_star_exact_caps():
    big = StarInstance((1,) * 20, (INFINITY,) * 20, INFINITY)
    with pytest.raises(CapExceeded):
        star_exact(big, RobotPlacement(FIXED, positions=(big.center,)), 1, 0)
    with pytest.raises(CapExceeded):
        star_exact(
            StarInstance((1,), (INFINITY,), INFINITY),
            RobotPlacement(FREE, count=3),
            3,
            0,
        )


def test_star_exact_two_robot_schedules_verify():
    rng = random.Random(59)
    seen = 0
    for _ in range(80):
        star = random_star(rng, min_q=2, max_q=6)
        mode = rng.random()
        if mode < 0.5:
            placement = RobotPlacement(
                FIXED,
                positions=tuple(sorted(rng.sample(range(star.q + 1), 2))),
            )
        else:
            placement = RobotPlacement(FREE, count=2)
        f = rng.choice((0, 1))
        verdict = star_exact(star, placement, 2, f)
        if not verdict.feasible:
            continue
        spec = ProblemSpec(star, RobotPlacement(FREE, count=2), f, None)
        report = verify_schedule(spec, verdict.schedule)
        assert report.passed
        assert all(c.covered >= f + 1 for c in report.nodes)
        seen += 1
    assert seen > 25


def _star_cases(rng, count):
    """Seeded stars (q <= 6) with every team shape star_exact takes: k in
    {1, 2}, f < k, fixed (repeats only with f = 1), free and subset
    starts, int and Fraction weights, with and without a time bound."""
    for idx in range(count):
        star = random_star(rng, max_q=6, fractional=idx % 3 == 2)
        nodes = star.q + 1
        k = rng.choice((1, 2))
        f = rng.randrange(k)
        mode = (FIXED, FREE, SUBSET)[idx % 3]
        if mode == FIXED:
            if f:
                positions = tuple(rng.choices(range(nodes), k=k))
            else:
                positions = tuple(rng.sample(range(nodes), k))
            placement = RobotPlacement(FIXED, positions=positions)
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            allowed = rng.sample(range(nodes), rng.randint(1, nodes))
            placement = RobotPlacement(SUBSET, count=k, allowed=tuple(allowed))
        delta = None if rng.random() < 0.5 else rng.randint(0, int(3 * sum(star.leaf_weights)))
        yield star, placement, k, f, delta


def test_star_exact_matches_the_enumerator():
    rng = random.Random(61)
    feasible = {1: 0, 2: 0}
    for star, placement, k, f, delta in _star_cases(rng, 240):
        want = star_brute(star, placement, k, f, delta)
        got = star_exact(star, placement, k, f, delta)
        case = (star, placement, k, f, delta)
        assert got.feasible == want.feasible, case
        assert got.optimum == want.optimum, case
        if got.feasible:
            feasible[k] += 1
            spec = ProblemSpec(star, placement, f, delta)
            report = verify_schedule(spec, got.schedule)
            assert report.passed, case
            assert report.makespan == got.optimum, case
    assert min(feasible.values()) > 40



def test_star_exact_fixed_pairs_match_the_enumerator():
    # two reliable fixed robots read one shared table; its three edges:
    # the serving robot's offset above every min-max tour time, both robots
    # on one leaf, and a leaf start past the center deadline
    hand = [
        (StarInstance((5, 5), (INFINITY, INFINITY), INFINITY), (0, 1), 5),
        (StarInstance((2, 3, 1), (INFINITY, 9, 7), INFINITY), (1, 1), 5),
        (StarInstance((4, 1, 2), (INFINITY, INFINITY, INFINITY), 2), (0, 1), 3),
    ]
    for star, positions, optimum in hand:
        placement = RobotPlacement(FIXED, positions=positions)
        got = star_exact(star, placement, 2, 0)
        assert got.optimum == star_brute(star, placement, 2, 0).optimum == optimum
    rng = random.Random(2522)
    seen = {"offset": 0, "one leaf": 0, "late start": 0}
    for idx in range(150):
        star = random_star(rng, max_q=6)
        bound = int(3 * sum(star.leaf_weights))
        if idx % 2:
            star = StarInstance(star.leaf_weights, star.leaf_deadlines, rng.randint(0, 6))
        nodes = star.q + 1
        if idx % 3 == 0:
            positions = (rng.randrange(star.q),) * 2
        else:
            positions = tuple(rng.sample(range(nodes), 2))
        placement = RobotPlacement(FIXED, positions=positions)
        delta = None if idx % 4 else rng.randint(1, bound)
        got = star_exact(star, placement, 2, 0, delta)
        want = star_brute(star, placement, 2, 0, delta)
        assert (got.feasible, got.optimum) == (want.feasible, want.optimum), (star, positions, delta)
        offsets = [star.leaf_weights[s] for s in positions if s != star.center]
        center_dl = star.center_deadline if delta is None else min(star.center_deadline, delta)
        seen["offset"] += got.feasible and got.optimum in offsets
        seen["one leaf"] += got.feasible and positions[0] == positions[1]
        seen["late start"] += got.feasible and any(off > center_dl for off in offsets)
    assert min(seen.values()) >= 5, seen

# sha256 of each pinned star's optimum and schedule JSON, recorded before
# the star tables were combined in one pass
PINNED_STAR_DIGESTS = (
    "e758afd25afafa40da1581eb3812241abeefed8b875d36b8e1e17179a2ee2024",
    "3f6abf373606aae2448bba1981733d02b53889b5db02a52990af1a073aaee003",
    "8608257b49c9595ed957887a9819fd9adf26d8d77ce3e7abcd865172d46ab2da",
    "930a3b1649db294d2a58db477875921138ca5e85e0af1486d23a8b5904e30977",
    "7f2afa36a7d51f0a305fdcaefb23170b60ff4cb6b3d8c4cb762b9d37142de38e",
    "ed42648e79a3bb38f6bb45878c16c70f2ee59a0ec5787e06ccb746be489eced1",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "dfd9eede3bd04d40f8e4149fe5f082eab96983e320dc072c3583b37794fac1bf",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "5a6f0764b98ce2c4db7893f079ad63d437c5bc488a8a1c1cc8815f1b9146f8a2",
    "208b6f285c2646239825ff679951e7979fe40afdaec7f9b0ccebd6e8c3668188",
    "84bb2906593d93bd81268ccbd66dbbfdede241c7ef228a0c82079869974fa58b",
    "f1c9607f4a69a1adb2e5d11c98cee09092bd6bf00f0d542ba2706881a5e3eba6",
    "7ca8acfdcb457edd6882c6add2db0e00cb8f056ff4e2bb3411d41dcaf51ef3b1",
    "8d58daa194cedf567c031ce7261ba65d399675689f0dc68d0e471a777530ab9d",
    "dd5e4e6ce11f4c4cbbc89079092078b2dd3e18ce38e6f01fc1794e614731741b",
    "f6b94fee3bccbd9412bcff9fe713c82e009e75de88541946052899a9c76f5bd5",
    "9510468d333858baf42182c3b4eadbfc1eb96075eefb29d9f3d3de1eff2be9df",
    "6ecd9a06fbcd78d98cb17b1f39b5a01860938cbfe7269a89bd88274595e6a498",
    "2966541dd6b669913650190f479c7cab4a72b90e3e87f7ba0ad0bf6509c7d8ac",
    "5dddd99799a988f16b117f89bff4dae9235c06738611451ad6154bbf90934524",
    "1c5cad86b51f4dccd90e75ffbb6797ff9be958d29d2bb5742b4f1ff38e7ab3d4",
    "f121daa57333fd69d2b8dcb0bc99ae4d6e345b725d5491dcd5fd3637ceb04c2f",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "e91c7d52b1e2e22900f1bf0fe56105a460b8c67db1dcaeaf587548f35f24f437",
    "61e54a636cbf61e543efbeb7ea8b0cd8c6fdefa87b3ea997f916cef707a4e65d",
    "2e6183a29cebe2a53b1996ccc30a9fca4d284842e261b753a5024e74c331c9b0",
    "865ca7eab759e0435cf7af90905507c30e258787eaebd86c03d0ceccb027bfb9",
    "55576c3cf8a28f3b9447e4a68846c00cbeebb45703e966867207f0fafae537f1",
    "9d676cef7e326a22a976733ed38840c3b29878211c9f126b0bb99def104b4186",
    "b000b89c8cc9622e2707ca49a278092810ee5e6e0335d9a12a84bb5526fec633",
    "e8ca083ab09160fbb076e5301e8a4fdd2679065d34997b6b9eaced993cff891a",
    "08a6b6f54e8d3a4f615a73a34a8e2c7f7187ecbdbb9a6f094d69d7f953d7ed25",
    "2589127654e54fbe1c3b979facdc3b17ce92eaaa93542ddb941b00a632126d8b",
    "e5b129a0bd29baa7b66691b4cc04a9e6526db5af962b7fc344356d87d317c093",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "3333d4f526284ed5066ab5e46c5b48f95cf1d0e6e20a630bbd2087e436ab2022",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "ba6689b8007d161f04327f9acc60bac690fcbc29f1663d6c107dac241009238f",
    "8b32f97e4809ef0ebeb725adfb7cd1951817dd18263d06e3b0d7f8e4f37177f2",
    "a12eeff77d9d5c4f7bf4a79240d1ffb8956a6d4d27a960556eae11184ad8628d",
    "0dbda36a76f09fa83847f907f7d37dcc242d7f3c5de36dde92d989f540167132",
    "70f658304e782161f69c6ce4526289f5253e27e2b8a7d56be4329c406e462df9",
    "6d5dce65f7672863db6e2445444e0e83880d469c97ef9a635ab11ca06444e25c",
    "d2e91be07b062870df93b3550ae284853a92e456a959dae81e4ab11f72fba492",
    "dd78efb5fca76bd8a2ef8010da7852e50101af9b0a0313280b03f83446285dc6",
    "2290b7a8188547678fb9bf2e7778b11ea5f415170b518d656b664b34e687c64b",
    "76651b9bf66df42cfcbfa011a57bb266302cbee453aff395145e8156d233c67c",
    "524937991a061f2a237b5dc904ba74a620eb4f9c0e98e2d344854528b7926eb8",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "7b9c7bb327eae23e3542f3094836d0682d59e07bfdf77ebb120058c8f87e4506",
    "17de1e1c8c3d16d476bcc364e4be42947b9514a750c9200ed24d8248e6f11f6e",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "d490472202af27bd5a9850133cddc8bfc07f479dbab39e144af82b41ce0d152a",
    "4c5b41d0ed58e92e81e507d0ea1e4b30b803035a358cd2d491ace0dfdf8ccf96",
    "4373ec84b3c0a5fae8360f63cc6d5a07fcb7427c69c756fca6492412d9954721",
    "8b9ddfc164a3c5bba337da110d417c777497731c0681859d2d5bf6f5942caecd",
    "e99270c4fa9f6ea70486c8a763d7519b57ce1a4a9a0c6e0ca3bec74a82e38c24",
    "bd8c17ecead499d7ee9f225e6b21b1008bc8643b9a19ad9fdb5ed259ee93e9b0",
)


def pinned_star_cases():
    """(star, placement, k, f, delta) of 60 seeded stars: q from 1 to 10,
    (k, f) of (1, 0), (2, 0) and (2, 1), and fixed starts (distinct, then
    repeated), free and subset starts; every fifth star has Fraction
    weights.  About a third of the center deadlines fall below some leaf
    weights, so those leaf starts cannot serve the center, and half the
    stars carry a bound δ."""
    rng = random.Random(2521)
    shapes = [(k, f, mode) for mode in ("distinct", "repeated", FREE, SUBSET)
              for k, f in ((1, 0), (2, 0), (2, 1))]
    for idx in range(60):
        k, f, mode = shapes[idx % 12]
        q = idx % 10 + 1
        weights = tuple(
            Fraction(rng.randint(1, 12), rng.choice((2, 3))) if idx % 5 == 4 else rng.randint(1, 6)
            for _ in range(q)
        )
        bound = int(3 * sum(weights))
        deadlines = tuple(
            rng.randint(bound // 2, bound) if rng.random() < 0.6 else INFINITY for _ in range(q)
        )
        center = (INFINITY, rng.randint(bound // 2, bound), rng.randint(0, int(max(weights))))[rng.randrange(3)]
        star = StarInstance(weights, deadlines, center)
        nodes = q + 1
        if mode == "distinct":
            placement = RobotPlacement(FIXED, positions=tuple(rng.sample(range(nodes), min(k, nodes))))
        elif mode == "repeated":
            placement = RobotPlacement(FIXED, positions=(rng.randrange(nodes),) * k)
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            allowed = rng.sample(range(nodes), rng.randint(1, nodes))
            placement = RobotPlacement(SUBSET, count=k, allowed=tuple(allowed))
        delta = None if idx % 2 else rng.randint(bound // 3, bound)
        yield star, placement, placement.robots, f, delta


def test_star_verdict_bytes_are_pinned():
    digests = []
    for star, placement, k, f, delta in pinned_star_cases():
        v = star_exact(star, placement, k, f, delta)
        text = format_number(v.optimum) + ("\n" + v.schedule.to_json() if v.feasible else "")
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == list(PINNED_STAR_DIGESTS)
