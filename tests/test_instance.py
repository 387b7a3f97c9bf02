import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from support import random_line
from roversweep.exact import INFINITY
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    InstanceError,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    parse_instance,
    prune_dominated,
    read_instance,
    serialize_instance,
)
from roversweep.oracle import enumerate_walks

MINIMAL_LINE = json.dumps(
    {
        "topology": "line",
        "coordinates": ["0"],
        "deadlines": [None],
        "robots": {"mode": "fixed", "positions": [0]},
        "faults": 0,
        "delta": None,
    }
)


def test_parse_minimal_line():
    spec = parse_instance(MINIMAL_LINE)
    assert spec.topology.n == 1
    assert spec.k == 1
    assert spec.faults == 0
    assert spec.topology.deadlines == (INFINITY,)


def test_parse_decimal_deadline():
    doc = json.loads(MINIMAL_LINE)
    doc["deadlines"] = ["0.5"]
    spec = parse_instance(json.dumps(doc))
    assert spec.topology.deadlines[0] == Fraction(1, 2)


def test_faults_must_be_below_robot_count():
    doc = json.loads(MINIMAL_LINE)
    doc["faults"] = 1
    with pytest.raises(InstanceError, match="f must be < k"):
        parse_instance(json.dumps(doc))


def test_duplicate_fixed_positions_are_read_with_any_fault_budget():
    # the fixed search solves shared starts exactly, with or without faults
    doc = {
        "topology": "line",
        "coordinates": ["0", "1"],
        "deadlines": [None, None],
        "robots": {"mode": "fixed", "positions": [0, 0]},
        "faults": 0,
        "delta": None,
    }
    for faults in (0, 1):
        doc["faults"] = faults
        spec = parse_instance(json.dumps(doc))
        assert (spec.placement.positions, spec.faults) == ((0, 0), faults)


def test_validation_errors_carry_field_paths():
    doc = json.loads(MINIMAL_LINE)
    doc["coordinates"] = ["1", "1"]
    doc["deadlines"] = [None, None]
    with pytest.raises(InstanceError, match="coordinates"):
        parse_instance(json.dumps(doc))
    doc2 = json.loads(MINIMAL_LINE)
    doc2["robots"] = {"mode": "subset", "count": 1, "allowed": []}
    with pytest.raises(InstanceError, match="allowed"):
        parse_instance(json.dumps(doc2))
    for kind in ("tree", ["line"], {"line": 1}, None):
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(dict(doc, topology=kind)))
        assert str(err.value) == f"topology: unknown topology {kind!r}"


@pytest.mark.parametrize("field, robots, faults", [
    ("robots.positions", {"mode": "fixed", "positions": [True, 3]}, 0),
    ("robots.positions", {"mode": "fixed", "positions": [0, 1.0]}, 0),
    ("robots.count", {"mode": "free", "count": True}, 0),
    ("robots.count", {"mode": "subset", "count": True, "allowed": [0, 1]}, 0),
    ("robots.allowed", {"mode": "subset", "count": 1, "allowed": [False, 2]}, 0),
    ("faults", {"mode": "free", "count": 2}, False),
    ("faults", {"mode": "fixed", "positions": [0, 3]}, True),
])
def test_a_json_boolean_is_not_an_integer(field, robots, faults):
    # JSON true and false are Python bools, which isinstance counts as ints
    doc = {"topology": "line", "coordinates": ["0", "1", "3", "4"], "deadlines": [None] * 4,
           "robots": robots, "faults": faults}
    with pytest.raises(InstanceError) as err:
        read_instance(json.dumps(doc))
    assert str(err.value).startswith(field + ": expected ")


def test_a_bad_list_element_is_named_by_its_index():
    doc = json.loads(MINIMAL_LINE)
    doc["coordinates"] = ["0", "2", "1/x"]
    doc["deadlines"] = [None, "4", None]
    with pytest.raises(InstanceError) as bad_number:
        parse_instance(json.dumps(doc))
    assert str(bad_number.value) == "coordinates[2]: cannot parse number '1/x'"
    doc["coordinates"] = ["0", "2", "3"]
    doc["deadlines"] = [None, "4", 5]
    with pytest.raises(InstanceError) as bad_deadline:
        parse_instance(json.dumps(doc))
    assert str(bad_deadline.value) == "deadlines[2]: numbers must be strings (decimal or p/q)"


def test_read_instance_lowers_every_number_by_the_least_common_denominator():
    doc = json.loads(MINIMAL_LINE)
    doc["coordinates"] = ["0", "1/2", "4/3", "2"]
    doc["deadlines"] = [None, "5/6", None, "6/4"]
    doc["robots"] = {"mode": "free", "count": 2}
    spec, c = read_instance(json.dumps(doc))
    assert c == 6
    assert spec.topology == LineInstance((0, 3, 8, 12), (INFINITY, 5, INFINITY, 9))
    assert parse_instance(json.dumps(doc)) == spec.scaled(Fraction(1, 6))
    # a delta whose denominator c lacks widens c, and the topology with it
    doc["delta"] = "7/4"
    spec, c = read_instance(json.dumps(doc))
    assert c == 12
    assert (spec.topology.coordinates, spec.bound) == ((0, 6, 16, 24), 21)
    assert parse_instance(json.dumps(doc)).bound == Fraction(7, 4)
    star = {"topology": "star", "leaf_weights": ["1/3", "2"], "deadlines": [None, "1/2"],
            "center_deadline": "5/4", "robots": {"mode": "fixed", "positions": [2]}}
    spec, c = read_instance(json.dumps(star))
    assert (c, spec.topology) == (12, StarInstance((4, 24), (INFINITY, 6), 15))


def _deep_document(kind: str) -> dict:
    """A 200-node document of plain digit strings and null deadlines."""
    lengths = {"line": "coordinates", "ring": "edge_weights", "star": "leaf_weights"}[kind]
    values = [str(2 * i if kind == "line" else i % 7 + 1) for i in range(200)]
    deadlines = [None if i % 3 else str(1000 + i) for i in range(200)]
    doc = {"topology": kind, lengths: values, "deadlines": deadlines,
           "robots": {"mode": "free", "count": 2}}
    if kind == "star":
        doc["center_deadline"] = None
    return doc


@pytest.mark.parametrize("kind, field, at, value, message", [
    ("line", "coordinates", 137, "x", "cannot parse number 'x'"),
    ("line", "coordinates", 150, 7, "numbers must be strings (decimal or p/q)"),
    ("line", "coordinates", 163, "-1", "must be a non-negative exact number"),
    ("line", "coordinates", 171, "3", "coordinates must be strictly increasing"),
    ("line", "coordinates", 188, "", "cannot parse number ''"),
    ("line", "deadlines", 120, True, "numbers must be strings (decimal or p/q)"),
    ("ring", "edge_weights", 181, "0", "must be a positive exact number"),
    ("ring", "deadlines", 144, "-5/2", "deadline must be a non-negative exact number or INFINITY"),
    ("ring", "deadlines", 145, "9" * 5000, None),
    ("star", "leaf_weights", 190, "-2", "must be a positive exact number"),
    ("star", "leaf_weights", 131, "0/3", "must be a positive exact number"),
    ("star", "deadlines", 199, " ", "cannot parse number ' '"),
])
def test_a_bad_element_deep_in_a_list_is_named_as_element_by_element(kind, field, at, value, message):
    # whole-list reading and checking name the first bad element, at its
    # path, with the message an element-by-element walk raises
    doc = _deep_document(kind)
    doc[field][at] = value
    with pytest.raises(InstanceError) as err:
        read_instance(json.dumps(doc))
    assert err.value.path == f"{field}[{at}]"
    if message is None:  # int() reads at most sys.get_int_max_str_digits() digits
        assert str(err.value).startswith(f"{field}[{at}]: cannot parse number '999")
    else:
        assert str(err.value) == f"{field}[{at}]: {message}"


def test_a_bad_value_deep_in_a_topology_is_named_as_element_by_element():
    xs, ds = list(range(0, 400, 2)), [INFINITY] * 200
    for field, at, bad, message in (
        ("coordinates", 99, Fraction(-1, 2), "must be a non-negative exact number"),
        ("coordinates", 120, 1.5, "must be a non-negative exact number"),
        ("coordinates", 121, 240, "coordinates must be strictly increasing"),
        ("deadlines", 150, 1.5, "deadline must be a non-negative exact number or INFINITY"),
        ("deadlines", 151, float("inf"), "deadline must be a non-negative exact number or INFINITY"),
        ("deadlines", 152, -3, "deadline must be a non-negative exact number or INFINITY"),
    ):
        values = {"coordinates": list(xs), "deadlines": list(ds)}
        values[field][at] = bad
        with pytest.raises(InstanceError) as err:
            LineInstance(values["coordinates"], values["deadlines"])
        assert str(err.value) == f"{field}[{at}]: {message}"
    weights = [1] * 200
    weights[177] = 0
    with pytest.raises(InstanceError) as err:
        RingInstance(weights, ds)
    assert str(err.value) == "edge_weights[177]: must be a positive exact number"
    with pytest.raises(InstanceError) as err:
        StarInstance([1] * 199 + ["1"], ds, INFINITY)
    assert str(err.value) == "leaf_weights[199]: must be a positive exact number"
    # a type the whole-list checks do not know takes the element walk, which
    # takes a bool as the int it is
    assert LineInstance((0, True, 2), (INFINITY, False, 3)).coordinates == (0, 1, 2)


def test_a_mixed_document_reads_as_its_numbers_do():
    doc = {"topology": "line", "coordinates": ["0", "0.5", "5/2", " 3", "7", "008", "10"],
           "deadlines": ["7", None, "5/2", "0.5", " 3", None, "12"],
           "robots": {"mode": "free", "count": 2}}
    spec, c = read_instance(json.dumps(doc))
    assert c == 2
    assert spec.topology == LineInstance((0, 1, 5, 6, 14, 16, 20), (14, INFINITY, 5, 1, 6, INFINITY, 24))
    assert all(type(x) is int for x in spec.topology.coordinates)
    # the plain digits alone read as ints, c = 1
    doc["coordinates"] = ["0", "7", "008", "10"]
    doc["deadlines"] = [None, "12", None, None]
    spec, c = read_instance(json.dumps(doc))
    assert (c, spec.topology) == (1, LineInstance((0, 7, 8, 10), (INFINITY, 12, INFINITY, INFINITY)))
    doc["deadlines"] = [None] * 4
    assert read_instance(json.dumps(doc))[0].topology.deadlines == (INFINITY,) * 4
    star = {"topology": "star", "leaf_weights": ["3", "1/2"], "deadlines": [None, " 4"],
            "center_deadline": "7", "robots": {"mode": "free", "count": 1}}
    spec, c = read_instance(json.dumps(star))
    assert (c, spec.topology) == (2, StarInstance((6, 1), (INFINITY, 8), 14))


def test_an_integer_document_reads_as_written():
    rng = random.Random(17)
    for _ in range(40):
        line = random_line(rng, max_n=6, integral=True)
        spec = ProblemSpec(line, RobotPlacement(FREE, count=1), 0, rng.choice((None, 9)))
        got, c = read_instance(serialize_instance(spec))
        assert (got, c) == (spec, 1)
        assert all(type(x) is int for x in line.coordinates + (got.bound or 0,))


def test_a_divided_document_fails_validation_as_written():
    # validation runs on the integers: the same error, at the same path
    doc = json.loads(MINIMAL_LINE)
    doc["coordinates"] = ["0", "2/3", "2/3"]
    doc["deadlines"] = [None, None, "1/2"]
    doc["delta"] = "x"
    with pytest.raises(InstanceError) as err:
        read_instance(json.dumps(doc))
    assert str(err.value) == "coordinates[2]: coordinates must be strictly increasing"
    doc["coordinates"] = ["0", "2/3", "5/7"]
    with pytest.raises(InstanceError) as err:
        read_instance(json.dumps(doc))
    assert str(err.value) == "delta: cannot parse number 'x'"
    doc["delta"] = "-1/5"
    with pytest.raises(InstanceError) as err:
        read_instance(json.dumps(doc))
    assert str(err.value) == "delta: time bound must be a non-negative exact number"


def test_ring_and_star_round_trip():
    ring_spec = ProblemSpec(
        topology=RingInstance((1, Fraction(3, 2), 2), (5, INFINITY, Fraction(7, 2))),
        placement=RobotPlacement(FREE, count=2),
        faults=1,
        bound=Fraction(9, 4),
    )
    assert parse_instance(serialize_instance(ring_spec)) == ring_spec
    star_spec = ProblemSpec(
        topology=StarInstance((1, 2), (3, INFINITY), 10),
        placement=RobotPlacement(SUBSET, count=1, allowed=(0, 2)),
        faults=0,
        bound=None,
    )
    assert parse_instance(serialize_instance(star_spec)) == star_spec



def test_every_topology_answers_the_same_geometry():
    line = LineInstance((0, 2, Fraction(7, 2)), (1, INFINITY, 4))
    ring = RingInstance((1, Fraction(3, 2), 2), (5, INFINITY, Fraction(7, 2)))
    star = StarInstance((1, 2), (3, INFINITY), 10)
    assert [(top.kind, top.n, top.positions, top.lap, top.deadlines) for top in (line, ring, star)] == [
        ("line", 3, (0, 2, Fraction(7, 2)), None, (1, INFINITY, 4)),
        ("ring", 3, (0, 1, Fraction(5, 2)), Fraction(9, 2), (5, INFINITY, Fraction(7, 2))),
        ("star", 3, (0, 1, 2), None, (3, INFINITY, 10)),  # the center is node q, due last
    ]
    doubled = ring.scaled(2)
    assert (doubled.positions, doubled.lap) == ((0, 2, 5), 9)
    # the star's center is a node: a robot may start there, and not beyond it
    ProblemSpec(star, RobotPlacement(FIXED, positions=(2,)))
    with pytest.raises(InstanceError, match="out of range 0..2"):
        ProblemSpec(star, RobotPlacement(FIXED, positions=(3,)))

def test_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        line = random_line(rng, max_n=6)
        k = rng.randint(1, max(1, line.n))
        mode = rng.choice((FIXED, FREE, SUBSET))
        if mode == FIXED:
            placement = RobotPlacement(
                FIXED, positions=tuple(sorted(rng.sample(range(line.n), min(k, line.n))))
            )
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            allowed = tuple(sorted(rng.sample(range(line.n), max(1, min(k, line.n)))))
            placement = RobotPlacement(SUBSET, count=k, allowed=allowed)
        spec = ProblemSpec(
            topology=line,
            placement=placement,
            faults=rng.randint(0, placement.robots - 1),
            bound=None if rng.random() < 0.5 else Fraction(rng.randint(0, 40), 2),
        )
        text = serialize_instance(spec)
        again = parse_instance(text)
        assert again == spec
        assert serialize_instance(again) == text


def test_prune_keeps_monotone_deadlines():
    line = LineInstance((0, 1, 2, 3), (INFINITY, INFINITY, 5, 5))
    pruned, remap = prune_dominated(line, [0])
    assert 2 not in remap  # implied by the node behind it
    right = [pruned.deadlines[i] for i in range(1, pruned.n)]
    assert all(right[i] < right[i + 1] for i in range(len(right) - 1))


def test_prune_identity_when_already_monotone():
    line = LineInstance((0, 1, 2, 3, 4), (9, 7, INFINITY, 3, 6))
    pruned, remap = prune_dominated(line, [2])
    assert remap == (0, 1, 2, 3, 4)
    assert pruned == line


def test_prune_left_side_keeps_smaller_deadline():
    line = LineInstance((0, 1, 2), (3, 7, INFINITY))
    pruned, remap = prune_dominated(line, [2])
    assert remap == (0, 2)
    assert pruned.deadlines == (3, INFINITY)


def _walk_optimum(line, start):
    best = INFINITY
    for walk in enumerate_walks(line, start):
        if all(t is not None for t in walk.first_visit):
            best = min(best, walk.completion)
    return best


def test_prune_never_changes_the_optimum():
    rng = random.Random(13)
    for _ in range(120):
        line = random_line(rng, max_n=7)
        start = rng.randrange(line.n)
        pruned, remap = prune_dominated(line, [start])
        assert remap[remap.index(start)] == start
        original = _walk_optimum(line, start)
        reduced = _walk_optimum(pruned, remap.index(start))
        assert original == reduced


REIMPORT = """
import gc, importlib, sys, weakref

def reimport():
    for name in [n for n in sys.modules if n == "roversweep" or n.startswith("roversweep.")]:
        del sys.modules[name]
    return importlib.import_module("roversweep")

first = reimport()
old = [weakref.ref(first.schedule.Verdict), weakref.ref(first.instance.LineInstance)]
del first
for _ in range(3):
    reimport()
gc.collect()
print([r() is None for r in old])
"""


def test_reimport_frees_the_previous_package():
    # a purge-and-reimport (as a benchmark set-up or importlib.reload does)
    # must leave nothing of the old package reachable; run apart so the
    # modules this suite imported stay as they are
    import roversweep

    src = os.path.dirname(os.path.dirname(roversweep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["[True,", "True]"]
