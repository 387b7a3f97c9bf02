import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from roversweep import cli, fault_line, multi_line, reductions, ring
from roversweep.cli import main
from roversweep.exact import INFINITY, decimal_str, format_number
from roversweep.instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    serialize_instance,
)
from roversweep.oracle import brute_solve, verify_schedule
from roversweep.schedule import Verdict

SKEW3 = {
    "topology": "line",
    "coordinates": ["0", "1", "3"],
    "deadlines": [None, None, None],
    "robots": {"mode": "fixed", "positions": [1]},
    "faults": 0,
    "delta": None,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_solve_single_robot(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("4 ")


def test_solve_emits_verifiable_schedule(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    sched = str(tmp_path / "sched.json")
    assert main(["solve", path, "--emit-schedule", sched]) == 0
    capsys.readouterr()
    assert main(["verify", path, sched]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_solve_reports_infeasible(tmp_path, capsys):
    doc = dict(SKEW3, deadlines=["0.25", None, None])
    path = write(tmp_path, "bad.json", doc)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().out.strip() == "infeasible"


def test_generate_then_decide_matching_instance(tmp_path, capsys):
    out_path = str(tmp_path / "n3dm.json")
    assert main(["generate", "n3dm", "--a", "1", "--b", "1", "--c", "1", "--s", "3",
                 "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["decide", out_path, "--delta", "35"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["decide", out_path, "--delta", "34"]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_verify_rejects_speed_violation(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    sched = write(
        tmp_path,
        "fast.json",
        {"robots": [{"start": "1", "waypoints": [{"t": "0", "x": "1"}, {"t": "1", "x": "3"}]}]},
    )
    assert main(["verify", path, sched]) == 2
    err = capsys.readouterr().err
    assert "unit speed" in err


def test_verify_rejects_a_track_that_starts_away_from_the_fixed_robot(tmp_path, capsys):
    # the robot at node 2 cannot reach node 0 by 1/2; a sweep from node 0 could
    doc = dict(SKEW3, deadlines=["1/2", None, None], robots={"mode": "fixed", "positions": [2]})
    path = write(tmp_path, "far.json", doc)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().out.strip() == "infeasible"
    sched = write(
        tmp_path,
        "sweep.json",
        {"robots": [{"start": "0", "waypoints": [{"t": "0", "x": "0"}, {"t": "3", "x": "3"}]}]},
    )
    assert main(["verify", path, sched]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fixed positions" in captured.err


def test_verify_reports_first_violated_node(tmp_path, capsys):
    doc = dict(SKEW3, deadlines=[None, None, "2.5"], robots={"mode": "fixed", "positions": [0]})
    path = write(tmp_path, "line.json", doc)
    sched = write(
        tmp_path,
        "sweep.json",
        {"robots": [{"start": "0", "waypoints": [{"t": "0", "x": "0"}, {"t": "4", "x": "4"}]}]},
    )
    assert main(["verify", path, sched]) == 1
    out = capsys.readouterr().out
    assert "FAIL node=2" in out


def test_cap_refusal_exits_two(tmp_path, capsys):
    doc = {
        "topology": "line",
        "coordinates": [str(i) for i in range(50)],
        "deadlines": [None] * 50,
        "robots": {"mode": "fixed", "positions": [0, 25]},
        "faults": 1,
        "delta": "10",
    }
    path = write(tmp_path, "big.json", doc)
    assert main(["decide", path]) == 2
    assert "refused" in capsys.readouterr().err
    assert main(["decide", path, "--max-n", "50"]) == 1


def test_resilience_free_line(tmp_path, capsys):
    doc = {
        "topology": "line",
        "coordinates": ["0", "1", "2", "3", "4"],
        "deadlines": [None] * 5,
        "robots": {"mode": "free", "count": 6},
        "faults": 0,
        "delta": None,
    }
    path = write(tmp_path, "free.json", doc)
    assert main(["resilience", path, "--delta", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    small = write(tmp_path, "free2.json", dict(doc, robots={"mode": "free", "count": 2}))
    assert main(["resilience", small, "--delta", "0.1"]) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_resilience_of_a_subset_placement_answers_as_decide(tmp_path, capsys):
    doc = dict(SKEW3, robots={"mode": "subset", "count": 1, "allowed": [0]})
    path = write(tmp_path, "subset.json", doc)
    # from node 0 one robot explores the line in 3
    for delta, answer, code in (("3", "0", 0), ("2", "none", 1)):
        assert main(["decide", path, "--delta", delta]) == code
        assert capsys.readouterr().out.strip() == ("YES" if code == 0 else "NO")
        assert main(["resilience", path, "--delta", delta]) == code
        assert capsys.readouterr().out.strip() == answer
    # on the ring 0 -1- 1 -1- 2 -2- 0 it walks 0, 1, 2 in 2
    ring = {"topology": "ring", "edge_weights": ["1", "1", "2"], "deadlines": [None] * 3}
    path = write(tmp_path, "ring.json", dict(doc, **ring))
    for delta, answer, code in (("2", "0", 0), ("1", "none", 1)):
        assert main(["decide", path, "--delta", delta]) == code
        assert capsys.readouterr().out.strip() == ("YES" if code == 0 else "NO")
        assert main(["resilience", path, "--delta", delta]) == code
        assert capsys.readouterr().out.strip() == answer
    path = write(tmp_path, "refused.json",
                 dict(doc, robots={"mode": "subset", "count": 2, "allowed": [0, 2]}))
    assert main(["decide", path, "--delta", "3"]) == 2
    refusal = capsys.readouterr().err
    assert main(["resilience", path, "--delta", "3"]) == 2
    assert capsys.readouterr().err == refusal


def test_resilience_of_a_reliable_fixed_line_beyond_the_search_caps(tmp_path, capsys):
    doc = dict(
        SKEW3,
        coordinates=[str(i) for i in range(50)],
        deadlines=[None] * 50,
        robots={"mode": "fixed", "positions": [10]},
    )
    path = write(tmp_path, "fifty.json", doc)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "59 (59)\n"
    assert main(["decide", path, "--delta", "100"]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert main(["resilience", path, "--delta", "100"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("0\n", "")


def test_oracle_subcommand(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("4 ")


def test_oracle_with_more_free_robots_than_nodes(tmp_path, capsys):
    doc = {
        "topology": "line",
        "coordinates": ["0", "3"],
        "deadlines": [None, None],
        "robots": {"mode": "free", "count": 3},
        "faults": 0,
        "delta": None,
    }
    path = write(tmp_path, "crowded.json", doc)
    assert main(["oracle", path]) == 0
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 (0)", "0 (0)"]


def test_solve_ring_and_star_routing(tmp_path, capsys):
    ring_doc = {
        "topology": "ring",
        "edge_weights": ["1", "1", "1", "1"],
        "deadlines": [None] * 4,
        "robots": {"mode": "fixed", "positions": [0, 2]},
        "faults": 0,
        "delta": None,
    }
    path = write(tmp_path, "ring.json", ring_doc)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("1 ")
    star_doc = {
        "topology": "star",
        "leaf_weights": ["1", "2"],
        "deadlines": ["1", "5"],
        "center_deadline": None,
        "robots": {"mode": "fixed", "positions": [2]},
        "faults": 0,
        "delta": None,
    }
    path = write(tmp_path, "star.json", star_doc)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("4 ")


def test_emit_schedule_round_trips_on_every_topology(tmp_path, capsys):
    ring_doc = {
        "topology": "ring",
        "edge_weights": ["1", "2", "1", "3"],
        "deadlines": [None, "4", None, None],
        "robots": {"mode": "fixed", "positions": [1, 3]},
        "faults": 0,
        "delta": None,
    }
    star_doc = {
        "topology": "star",
        "leaf_weights": ["1", "2", "3"],
        "deadlines": [None, "9", "7"],
        "center_deadline": None,
        "robots": {"mode": "free", "count": 2},
        "faults": 1,
        "delta": None,
    }
    for name, doc in (("ring", ring_doc), ("star", star_doc)):
        inst = write(tmp_path, f"{name}.json", doc)
        sched = str(tmp_path / f"{name}-sched.json")
        assert main(["solve", inst, "--emit-schedule", sched]) == 0
        capsys.readouterr()
        assert main(["verify", inst, sched]) == 0
        assert capsys.readouterr().out.startswith("PASS")


def test_solve_respects_instance_bound(tmp_path, capsys):
    doc = dict(SKEW3, delta="3")  # optimum is 4
    path = write(tmp_path, "bounded.json", doc)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().out.strip() == "infeasible"
    doc["delta"] = "4"
    path = write(tmp_path, "bounded2.json", doc)
    assert main(["solve", path]) == 0


def test_json_output_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    assert main(["solve", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first) == {"feasible": True, "optimum": "4", "decimal": "4"}
    assert main(["solve", path, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_generate_random_is_seeded_and_parseable(tmp_path, capsys):
    assert main(["generate", "random", "--topology", "ring", "--n", "5",
                 "--k", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "random", "--topology", "ring", "--n", "5",
                 "--k", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    from roversweep.instance import parse_instance

    spec = parse_instance(first)
    assert spec.topology.n == 5


def test_usage_error_on_bad_instance(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


MINIMAL_RING = {
    "topology": "ring",
    "edge_weights": ["1", "3", "1"],
    "deadlines": [None, None, None],
    "robots": {"mode": "fixed", "positions": [0, 2]},
    "faults": 1,
    "delta": None,
}


def test_faulty_fixed_ring_solve_and_decide(tmp_path, capsys):
    path = write(tmp_path, "ring.json", MINIMAL_RING)
    sched = str(tmp_path / "ring-sched.json")
    assert main(["solve", path, "--emit-schedule", sched]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3 (3)"
    assert main(["verify", path, sched]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    assert main(["decide", path, "--delta", "2"]) == 1
    assert capsys.readouterr().out.strip() == "NO"
    assert main(["decide", path, "--delta", "3"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_faulty_fixed_ring_with_deadlines_is_capped(tmp_path, capsys):
    n = 17
    doc = dict(
        MINIMAL_RING,
        edge_weights=["1"] * n,
        deadlines=[None] * (n - 1) + ["30"],
        robots={"mode": "fixed", "positions": [0, 6, 12]},
    )
    path = write(tmp_path, "ring17.json", doc)
    assert main(["solve", path]) == 2
    assert "refused" in capsys.readouterr().err
    assert main(["decide", path, "--delta", "12"]) == 2
    assert "refused" in capsys.readouterr().err
    assert main(["resilience", path, "--delta", "12"]) == 2
    capsys.readouterr()
    assert main(["decide", path, "--delta", "12", "--max-n", "17"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_feasible_verdict_without_schedule_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli.fault_line, "solve_fixed_faulty",
        lambda *args: Verdict(feasible=True, optimum=3, schedule=None),
    )
    path = write(tmp_path, "ring.json", MINIMAL_RING)
    sched = str(tmp_path / "never.json")
    assert main(["solve", path, "--emit-schedule", sched]) == cli.INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error") and captured.err.count("\n") == 1
    assert not os.path.exists(sched)


# --------------------------------------------------------------------------
# solve, decide and resilience run on the instance scaled to integers
# --------------------------------------------------------------------------

F = Fraction
NO_DEADLINE = INFINITY


def _solve_matches_library(tmp_path, capsys, name, spec, library_verdict):
    inst = str(tmp_path / f"{name}.json")
    with open(inst, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(spec))
    sched = str(tmp_path / f"{name}-sched.json")
    assert main(["solve", inst, "--emit-schedule", sched]) == 0
    optimum = library_verdict.optimum
    assert capsys.readouterr().out == f"{format_number(optimum)} ({decimal_str(optimum)})\n"
    with open(sched, encoding="utf-8") as fh:
        assert fh.read() == library_verdict.schedule.to_json()
    return optimum


def test_solve_on_fractions_prints_the_library_answer(tmp_path, capsys):
    line = LineInstance(
        (F(0), F(1, 2), F(4, 3), F(5, 2), F(17, 5), F(21, 5)),
        (NO_DEADLINE, F(7, 3), NO_DEADLINE, F(9, 2), NO_DEADLINE, F(40, 7)),
    )
    fixed = RobotPlacement(FIXED, positions=(1, 4))
    opt = _solve_matches_library(tmp_path, capsys, "line", ProblemSpec(line, fixed),
                                 multi_line.solve_fixed(line, (1, 4)))
    assert isinstance(opt, Fraction) and opt.denominator > 1
    _solve_matches_library(tmp_path, capsys, "line-free",
                           ProblemSpec(line, RobotPlacement(FREE, count=2)),
                           multi_line.solve_free(line, 2))
    ring_inst = RingInstance(
        (F(3, 2), F(2, 3), 1, F(5, 4), F(1, 3)),
        (NO_DEADLINE, F(9, 4), NO_DEADLINE, F(11, 3), NO_DEADLINE),
    )
    _solve_matches_library(tmp_path, capsys, "ring",
                           ProblemSpec(ring_inst, RobotPlacement(FIXED, positions=(0, 2))),
                           ring.solve_ring_fixed(ring_inst, (0, 2)))
    _solve_matches_library(tmp_path, capsys, "ring-faulty",
                           ProblemSpec(ring_inst, RobotPlacement(FIXED, positions=(1, 1, 3)), faults=1),
                           ring.optimize_ring_fixed_faulty(ring_inst, (1, 1, 3), 1))
    # star waypoints are node indices: they must come back unscaled
    star = StarInstance((F(1, 2), F(5, 3), F(3, 4)), (F(7, 2), NO_DEADLINE, F(11, 3)), NO_DEADLINE)
    placement = RobotPlacement(FREE, count=2)
    verdict = reductions.star_exact(star, placement, 2, 0, None)
    _solve_matches_library(tmp_path, capsys, "star", ProblemSpec(star, placement), verdict)
    nodes = {x for track in verdict.schedule.tracks for _, x in track.waypoints}
    assert nodes <= set(range(star.q + 1))


def test_decide_just_below_an_integer_optimum_is_no(tmp_path, capsys):
    path = write(tmp_path, "skew3.json", SKEW3)
    assert main(["decide", path, "--delta", "4"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["decide", path, "--delta", str(F(4) - F(1, 1000))]) == 1
    assert capsys.readouterr().out.strip() == "NO"
    assert main(["decide", path, "--delta", "3.999"]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_resilience_is_the_same_on_a_third_of_the_instance(tmp_path, capsys):
    line = LineInstance((0, 2, 3, 7, 8, 11), (NO_DEADLINE, 9, NO_DEADLINE, 14, NO_DEADLINE, 20))
    answers = []
    for d in (1, 3):
        for placement in (RobotPlacement(FREE, count=6), RobotPlacement(FIXED, positions=(1, 1, 4, 4))):
            spec = ProblemSpec(line, placement, faults=1).scaled(F(1, d))
            path = str(tmp_path / f"res-{d}-{placement.mode}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_instance(spec))
            for delta in (F(6), F(9), F(13)):
                code = main(["resilience", path, "--delta", format_number(delta / d)])
                answers.append((d, placement.mode, delta, code, capsys.readouterr().out))
    plain = [a[2:] for a in answers if a[0] == 1]
    third = [a[2:] for a in answers if a[0] == 3]
    assert plain == third
    assert {out for *_, out in plain} != {"none\n"}


NEGATIVE_DELTA_ROUTES = {
    "line free": dict(SKEW3, robots={"mode": "free", "count": 2}),
    "line fixed faulty": dict(SKEW3, robots={"mode": "fixed", "positions": [0, 2]}, faults=1),
    "ring fixed": {
        "topology": "ring",
        "edge_weights": ["1", "2", "1"],
        "deadlines": [None, None, None],
        "robots": {"mode": "fixed", "positions": [0, 1]},
        "faults": 0,
    },
    "ring free": {
        "topology": "ring",
        "edge_weights": ["1", "2", "1"],
        "deadlines": [None, None, None],
        "robots": {"mode": "free", "count": 2},
        "faults": 0,
    },
    "star": {
        "topology": "star",
        "leaf_weights": ["1", "2"],
        "deadlines": [None, None],
        "center_deadline": None,
        "robots": {"mode": "fixed", "positions": [0, 1]},
        "faults": 0,
    },
}


@pytest.mark.parametrize("route", sorted(NEGATIVE_DELTA_ROUTES))
def test_negative_delta_is_no_on_every_route(tmp_path, capsys, route):
    # no walk finishes before time 0, whatever the route
    path = write(tmp_path, "inst.json", NEGATIVE_DELTA_ROUTES[route])
    assert main(["decide", path, "--delta", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("NO\n", "")
    assert main(["resilience", path, "--delta=-1/2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("none\n", "")
    # the same value after a space, which argparse alone takes for a flag
    assert main(["decide", path, "--delta", "-1/2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("NO\n", "")
    assert main(["resilience", path, "--delta", "-1/2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("none\n", "")


MALFORMED_SCHEDULES = {
    "robot not an object": {"robots": [1]},
    "waypoint not an object": {"robots": [{"waypoints": [1]}]},
    "time as a JSON number": {"robots": [{"waypoints": [{"t": 0, "x": "1"}]}]},
    "time divided by zero": {"robots": [{"waypoints": [{"t": "1/0", "x": "1"}]}]},
    "circumference as a JSON number": {
        "robots": [{"waypoints": [{"t": "0", "x": "1"}]}], "circumference": 3},
}


def _one_error_line(captured, prefix="error: "):
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULES))
def test_verify_refuses_a_malformed_schedule_as_bad_input(tmp_path, capsys, case):
    # exit 2, not 1: a schedule that cannot be read has not failed the check
    path = write(tmp_path, "inst.json", SKEW3)
    sched = write(tmp_path, "sched.json", MALFORMED_SCHEDULES[case])
    assert main(["verify", path, sched]) == 2
    _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("command", ["decide", "resilience"])
@pytest.mark.parametrize("delta", ["1/0", "abc"])
def test_a_malformed_delta_is_bad_input(tmp_path, capsys, command, delta):
    # exit 2, not 1: a bound that cannot be read is not a NO
    path = write(tmp_path, "inst.json", SKEW3)
    assert main([command, path, "--delta", delta]) == 2
    _one_error_line(capsys.readouterr(), "error: delta: ")


# --------------------------------------------------------------------------
# every route agrees with the brute force
# --------------------------------------------------------------------------


def _sweep_topology(rng, kind, frac, share):
    n = rng.randint(1 if kind == "line" else 2, 7)
    gaps = [
        F(rng.randint(1, 8), rng.choice((2, 3))) if frac else rng.randint(1, 4)
        for _ in range(n if kind == "ring" else n - 1)
    ]
    total = sum(gaps) or 1
    deadlines = tuple(
        INFINITY if rng.random() >= share
        else rng.randint(0, int(2 * total)) + (F(1, 2) if frac and rng.random() < 0.5 else 0)
        for _ in range(n)
    )
    if kind == "ring":
        return RingInstance(tuple(gaps), deadlines)
    coords = [0]
    for gap in gaps:
        coords.append(coords[-1] + gap)
    return LineInstance(tuple(coords), deadlines)


def _sweep_specs(case, rng):
    """Seeded lines and rings, n <= 7, k <= 4, f <= 2, int and Fraction,
    taken in turn from each cell of topology, number type and deadline share."""
    mode = FIXED if case.startswith("fixed") else FREE
    faulty = "crashes" in case
    if case == "free crashes, no deadlines":
        shares = (0,)
    elif faulty and mode == FREE:
        shares = (0.3, 0.7)
    else:
        shares = (0, 0.3, 0.7)
    cells = itertools.cycle(itertools.product(("line", "ring"), (False, True), shares))
    for kind, frac, share in cells:
        top = _sweep_topology(rng, kind, frac, share)
        n = top.n
        if faulty:
            k = rng.randint(2, 4)
            f = rng.randint(1, min(2, k - 1))
        elif mode == FREE:
            k = rng.randint(1, 4)  # may exceed n: the extra robots share or idle
            f = 0
        else:
            k = rng.randint(1, min(4, n))
            f = 0
        if mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        elif faulty:
            placement = RobotPlacement(FIXED, positions=[rng.randrange(n) for _ in range(k)])
        else:
            placement = RobotPlacement(FIXED, positions=rng.sample(range(n), k))
        yield ProblemSpec(top, placement, f, None)


# the counterexample of ROADMAP item 1: the routes answer 21, brute force 15
ITEM_1_COUNTEREXAMPLE = ProblemSpec(
    LineInstance((0, 3, 5, 9, 13, 15), (INFINITY, 21, INFINITY, 4, INFINITY, INFINITY)),
    RobotPlacement(FREE, count=3), 1, None,
)
ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: free placement with crashes replicates a reliable team, "
    "which is not optimal when some deadline is finite",
)


@pytest.mark.parametrize("case", [
    "fixed, reliable",
    "fixed crashes",
    "free, reliable",
    "free crashes, no deadlines",
    pytest.param("free crashes, finite deadlines", marks=ITEM_1),
])
def test_every_route_agrees_with_the_brute_force(case):
    pinned = [ITEM_1_COUNTEREXAMPLE] if case == "free crashes, finite deadlines" else []
    specs = itertools.islice(_sweep_specs(case, random.Random(case)), 60)
    for spec in pinned + list(specs):
        caps = fault_line.fixed_search_caps(spec.topology)
        want = brute_solve(spec).optimum
        got = fault_line.solve(spec, caps)
        assert got.optimum == want, spec
        if got.feasible:
            bounded = ProblemSpec(spec.topology, spec.placement, spec.faults, want)
            assert verify_schedule(bounded, got.schedule).passed, spec
            assert fault_line.decide(spec, want, caps).feasible, spec
            assert not fault_line.decide(spec, want - F(1, 1000), caps).feasible, spec
