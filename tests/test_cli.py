import hashlib
import itertools
import json
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from roversweep import cli, fault_line, multi_line, oracle, reductions, ring
from roversweep.cli import main
from roversweep.exact import INFINITY, decimal_str, format_number
from roversweep.instance import (
    FIXED,
    FREE,
    SUBSET,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    parse_instance,
    serialize_instance,
)
from roversweep.oracle import brute_solve, verify_schedule
from roversweep.schedule import RobotTrack, ScheduleError, Verdict, schedule_from_json, track_schedule

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


RING3 = {key: value for key, value in SKEW3.items() if key != "coordinates"}
RING3.update(topology="ring", edge_weights=["1", "1", "1"])
STAYS_AT_1 = {"robots": [{"start": "1", "waypoints": [{"t": "0", "x": "1"}]}]}


@pytest.mark.parametrize("instance, schedule, message", [
    pytest.param(RING3, STAYS_AT_1, "schedule kind 'line' does not match the instance",
                 id="line schedule on a ring"),
    pytest.param(SKEW3, dict(STAYS_AT_1, circumference="3"), "schedule kind 'ring' does not match the instance",
                 id="ring schedule on a line"),
    pytest.param(SKEW3, {"robots": [{"start": 1, "waypoints": [{"t": "0", "node": 1}]}]},
                 "schedule kind 'star' does not match the instance", id="star schedule on a line"),
    pytest.param(RING3, dict(STAYS_AT_1, circumference="4"), "declared circumference does not match the ring",
                 id="wrong circumference"),
])
def test_verify_refuses_a_schedule_of_another_topology(tmp_path, capsys, instance, schedule, message):
    spec = parse_instance(json.dumps(instance))
    with pytest.raises(ScheduleError) as exc:
        verify_schedule(spec, schedule_from_json(json.dumps(schedule)))
    assert str(exc.value) == message
    assert main(["verify", write(tmp_path, "instance.json", instance), write(tmp_path, "schedule.json", schedule)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("command", ["solve", "decide", "resilience", "oracle"])
@pytest.mark.parametrize("flag", ["--max-n", "--max-k"])
def test_cap_flags_are_refused_on_stars(tmp_path, capsys, command, flag):
    # no capped search solves a star, so a cap flag there would do nothing
    doc = dict(STAR3, robots={"mode": "fixed", "positions": [0, 2]}, faults=0, delta="10")
    path = write(tmp_path, "star.json", doc)
    assert main([command, path]) in (0, 1)
    plain = capsys.readouterr()
    assert plain.out and plain.err == ""
    assert main([command, path, flag, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["solve", "decide"])
@pytest.mark.parametrize("robots, solver, starts", [
    ({"mode": "free", "count": 2}, "solve_free", (0, 0)),
    ({"mode": "subset", "count": 1, "allowed": [0, 2]}, "solve_free_start", (0,)),
    ({"mode": "fixed", "positions": [0, 2]}, "solve_fixed", (0, 2)),
], ids=["free", "subset", "fixed"])
def test_the_router_verifies_a_reliable_team_schedule(
    tmp_path, capsys, monkeypatch, command, robots, solver, starts
):
    # reliable teams answer through solvers that verify nothing
    # themselves: a schedule that leaves nodes unvisited must come out
    # neither as an optimum nor as YES
    def idle(topology, *args):
        tracks = [RobotTrack(((0, topology.coordinates[p]),)) for p in starts]
        return Verdict(feasible=True, optimum=0, schedule=track_schedule(topology, tracks))

    monkeypatch.setattr(fault_line, solver, idle)
    path = write(tmp_path, "team.json", dict(SKEW3, robots=robots))
    sched = tmp_path / "sched.json"
    argv = ["--emit-schedule", str(sched)] if command == "solve" else ["--delta", "9"]
    assert main([command, path, *argv]) == cli.INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: line schedule failed verification\n"
    assert not sched.exists()


def test_solve_verifies_the_optimum_it_claims(tmp_path, capsys, monkeypatch):
    # a schedule that meets every deadline but not the optimum printed is
    # a solver bug too
    real = fault_line.solve_fixed

    def one_less(topology, positions):
        verdict = real(topology, positions)
        return replace(verdict, optimum=verdict.optimum - 1)

    path = write(tmp_path, "skew3.json", SKEW3)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "4 (4)\n"
    monkeypatch.setattr(fault_line, "solve_fixed", one_less)
    assert main(["solve", path]) == cli.INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: line schedule failed verification\n"


LINE4 = {"topology": "line", "coordinates": ["0", "1", "3", "4"], "deadlines": [None, None, "6", None]}
RING4 = {"topology": "ring", "edge_weights": ["1", "2", "1", "3"], "deadlines": [None, "5", None, None]}
STAR3 = {"topology": "star", "leaf_weights": ["1", "2", "3"], "deadlines": [None, "9", "8"],
         "center_deadline": None}


@pytest.mark.parametrize("topology", [LINE4, RING4, STAR3], ids=["line", "ring", "star"])
@pytest.mark.parametrize("robots, faults", [
    ({"mode": "fixed", "positions": [0, 2]}, 0),
    ({"mode": "free", "count": 2}, 0),
    ({"mode": "subset", "count": 1, "allowed": [0, 2]}, 0),
    ({"mode": "fixed", "positions": [1, 1]}, 1),
    ({"mode": "free", "count": 2}, 1),
], ids=["fixed", "free", "subset", "fixed crash", "free crash"])
def test_every_answer_is_verified_once(tmp_path, capsys, monkeypatch, topology, robots, faults):
    # the router checks each feasible answer exactly once, at its exit,
    # and an infeasible one not at all
    calls = []
    real = oracle.verify_schedule

    def counting(spec, schedule):
        calls.append(spec.bound)
        return real(spec, schedule)

    monkeypatch.setattr(oracle, "verify_schedule", counting)
    doc = dict(topology, robots=robots, faults=faults, delta=None)
    assert main(["solve", write(tmp_path, "late.json", dict(doc, delta="0"))]) == 1
    assert capsys.readouterr().out == "infeasible\n" and calls == []
    path = write(tmp_path, "doc.json", doc)
    assert main(["solve", path]) == 0
    optimum = capsys.readouterr().out.split()[0]
    assert [format_number(bound) for bound in calls] == [optimum]  # checked at the optimum
    for delta, code in ((optimum, 0), ("0", 1), ("-1", 1)):
        calls.clear()
        assert main(["decide", path, "--delta", delta]) == code
        assert len(calls) == 1 - code


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
    # on STAR1 each of these would read as node 1 and pass
    "star node as a float": {"robots": [{"waypoints": [{"t": "0", "node": 1.9}, {"t": "1", "node": 0}]}]},
    "star node as a boolean": {"robots": [{"waypoints": [{"t": "0", "node": True}, {"t": "1", "node": 0}]}]},
    "star node as a string": {"robots": [{"waypoints": [{"t": "0", "node": "1"}, {"t": "1", "node": 0}]}]},
}
STAR1 = {
    "topology": "star",
    "leaf_weights": ["1"],
    "deadlines": [None],
    "center_deadline": None,
    "robots": {"mode": "fixed", "positions": [1]},
    "faults": 0,
    "delta": None,
}


def _one_error_line(captured, prefix="error: "):
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["solve", "decide", "oracle"])
@pytest.mark.parametrize("field, value", [
    ("positions", [True, 2]), ("count", True), ("faults", False),
])
def test_a_json_boolean_robot_field_is_bad_input(tmp_path, capsys, command, field, value):
    doc = dict(SKEW3)
    if field == "faults":
        doc["faults"] = value
    elif field == "count":
        doc["robots"] = {"mode": "free", "count": value}
    else:
        doc["robots"] = {"mode": "fixed", "positions": value}
    path = write(tmp_path, "inst.json", doc)
    assert main([command, path, "--delta", "3"] if command == "decide" else [command, path]) == 2
    _one_error_line(capsys.readouterr(), f"error: {'faults' if field == 'faults' else 'robots.' + field}: ")


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULES))
def test_verify_refuses_a_malformed_schedule_as_bad_input(tmp_path, capsys, case):
    # exit 2, not 1: a schedule that cannot be read has not failed the check
    path = write(tmp_path, "inst.json", STAR1 if case.startswith("star") else SKEW3)
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
# a ÷c twin prints its original's numbers divided by c
# --------------------------------------------------------------------------


def _said(x):
    return f"{format_number(x)} ({decimal_str(x)})"


def _twin_specs(rng):
    """Seeded integer lines, rings and stars (n <= 6) with fixed, free and
    subset robots, k <= 3 (stars: 2) and f <= 2."""
    for i in range(24):
        kind = ("line", "ring", "star")[i % 3]
        if kind == "star":
            q = rng.randint(1, 4)
            top = StarInstance(
                tuple(rng.randint(1, 5) for _ in range(q)),
                tuple(rng.randint(2, 24) if rng.random() < 0.6 else INFINITY for _ in range(q)),
                INFINITY,
            )
            nodes, k = q + 1, rng.randint(1, 2)
        else:
            top = _sweep_topology(rng, kind, False, rng.choice((0, 0.5)))
            nodes, k = top.n, rng.randint(1, 3)
        f = rng.randint(0, min(2, k - 1))
        mode = (FIXED, FREE, SUBSET)[i // 3 % 3]
        if mode == FIXED:
            if f:
                positions = [rng.randrange(nodes) for _ in range(k)]
            else:
                positions = rng.sample(range(nodes), min(k, nodes))
            placement = RobotPlacement(FIXED, positions=positions)
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            k, f = (1, 0) if rng.random() < 0.7 else (k, f)  # the rest are refused
            placement = RobotPlacement(SUBSET, count=k, allowed=rng.sample(range(nodes), rng.randint(1, nodes)))
        yield ProblemSpec(top, placement, f, None)


@pytest.mark.parametrize("c", [2, 3, 7])
def test_a_divided_twin_prints_its_originals_numbers_divided(tmp_path, capsys, c):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def put(name, spec):
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(spec))
        return path

    def read(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    solved = oracles = 0
    for i, spec in enumerate(_twin_specs(random.Random(c))):
        twin = spec.scaled(F(1, c))
        orig, div = put(f"orig{i}.json", spec), put(f"twin{i}.json", twin)
        orig_s, div_s = str(tmp_path / f"orig{i}-s.json"), str(tmp_path / f"twin{i}-s.json")
        o, t = run("solve", orig, "--emit-schedule", orig_s), run("solve", div, "--emit-schedule", div_s)
        if o[0] != 0:
            assert t == o, spec  # infeasible, or the same refusal
            continue
        opt = F(o[1].split()[0])
        assert t == (0, _said(opt / c) + "\n", ""), spec
        assert schedule_from_json(read(div_s)) == schedule_from_json(read(orig_s)).scaled(F(1, c))
        o, t = run("solve", orig, "--json"), run("solve", div, "--json")
        want = dict(json.loads(o[1]), optimum=format_number(opt / c), decimal=decimal_str(opt / c))
        assert json.loads(t[1]) == want
        # --delta denominators 1000 and 11 are unlike the instance's c
        for delta, answer in ((opt, "YES"), (opt - F(c, 1000), "NO"), (opt + F(c, 11), "YES")):
            t = run("decide", div, "--delta", format_number(delta / c))
            assert t == run("decide", orig, "--delta", format_number(delta)), spec
            assert t[1] == answer + "\n", spec
        t = run("resilience", div, "--delta", format_number(opt / c))
        assert t == run("resilience", orig, "--delta", format_number(opt))
        # verify: PASS with the makespan divided, FAIL at the same node
        o, t = run("verify", orig, orig_s), run("verify", div, div_s)
        makespan = F(o[1].split("=")[1].split()[0])
        assert t == (0, f"PASS makespan={_said(makespan / c)}\n", ""), spec
        o, t = run("verify", orig, orig_s, "--json"), run("verify", div, div_s, "--json")
        assert json.loads(t[1]) == dict(json.loads(o[1]), makespan=format_number(makespan / c))
        if opt >= 1:
            late_o = put(f"late-orig{i}.json", replace(spec, bound=opt - 1))
            late_t = put(f"late-twin{i}.json", replace(twin, bound=(opt - 1) / c))
            o, t = run("verify", late_o, orig_s), run("verify", late_t, div_s)
            assert t == o and t[1].startswith("FAIL node="), spec
        solved += 1
        # oracle: the brute force (stars: the exact star solver) on the rational spec
        if spec.topology.n <= 6 and spec.k <= 2:
            rational = parse_instance(read(div))
            top = rational.topology
            if isinstance(top, StarInstance):
                want = reductions.star_exact(top, rational.placement, rational.k, rational.faults, None)
            else:
                want = brute_solve(rational)
            t = run("oracle", div)
            assert t == (0, _said(want.optimum) + "\n", "") if want.feasible else (1, "infeasible\n", "")
            o = run("oracle", orig)
            assert o[0] == t[0] and (not want.feasible or F(o[1].split()[0]) == want.optimum * c)
            oracles += 1
    assert solved >= 12 and oracles >= 8


def test_verify_reads_a_schedule_finer_than_its_instance(tmp_path, capsys):
    # the schedule's thirds widen the instance's halves to sixths
    path = write(tmp_path, "skew3.json", dict(SKEW3, deadlines=[None, None, "9/2"]))
    for (back, end), out in (
        (("4/3", "13/3"), "PASS makespan=13/3 (4.33333)\n"),
        (("5/3", "14/3"), "FAIL node=2 covered=0 required=1\n"),
    ):
        waypoints = [{"t": "0", "x": "1"}, {"t": back, "x": "0"}, {"t": end, "x": "3"}]
        sched = write(tmp_path, "sched.json", {"robots": [{"start": "1", "waypoints": waypoints}]})
        main(["verify", path, sched])
        assert capsys.readouterr() == (out, "")


def test_a_divided_schedule_error_quotes_its_numbers_as_written(tmp_path, capsys):
    line = dict(SKEW3, coordinates=["0", "1/3", "4/3"])
    path = write(tmp_path, "line.json", line)
    waypoints = [{"t": "0", "x": "1/2"}, {"t": "5/6", "x": "4/3"}]
    sched = write(tmp_path, "off-node.json", {"robots": [{"start": "1/2", "waypoints": waypoints}]})
    assert main(["verify", path, sched]) == 2
    assert capsys.readouterr() == ("", "error: robot 0: starts at 1/2, not at a node\n")
    star = dict(STAR1, leaf_weights=["3/7"])
    path = write(tmp_path, "star.json", star)
    fast = [{"t": "0", "node": 1}, {"t": "1/7", "node": 0}]
    sched = write(tmp_path, "fast.json", {"robots": [{"start": 1, "waypoints": fast}]})
    assert main(["verify", path, sched]) == 2
    assert capsys.readouterr() == ("", "error: robot 0: segment to waypoint at t=1/7 exceeds unit speed\n")


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
    taken in turn from each cell of topology, number type and deadline share.
    Reliable robots that share starts are read back from their document,
    as the CLI reads them."""
    mode = FIXED if case.startswith("fixed") else FREE
    faulty = "crashes" in case
    shared = "shared" in case
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
        if faulty or shared:
            k = rng.randint(2, 4)
            f = 0 if shared else rng.randint(1, min(2, k - 1))
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
        elif shared:
            positions = [rng.randrange(n) for _ in range(k - 1)]
            placement = RobotPlacement(FIXED, positions=positions + [rng.choice(positions)])
        else:
            placement = RobotPlacement(FIXED, positions=rng.sample(range(n), k))
        spec = ProblemSpec(top, placement, f, None)
        yield parse_instance(serialize_instance(spec)) if shared else spec


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
    "fixed, reliable, shared starts",
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


# --------------------------------------------------------------------------
# the bytes of every answering command are pinned
# --------------------------------------------------------------------------


def pinned_cli_specs():
    """Seeded lines, rings and stars of at most 6 nodes with fixed, free
    and subset robots, with and without crashes; each followed by its ÷3
    twin."""
    rng = random.Random(2626)
    for i in range(10):
        kind = ("line", "ring", "star")[i % 3]
        mode = (FIXED, FREE, SUBSET)[i // 3 % 3]
        if kind == "star":
            q = rng.randint(1, 4)
            top = StarInstance(
                tuple(rng.randint(1, 5) for _ in range(q)),
                tuple(rng.randint(2, 24) if rng.random() < 0.6 else INFINITY for _ in range(q)),
                rng.randint(4, 30) if i % 2 else INFINITY,
            )
            nodes = q + 1
        else:
            top = _sweep_topology(rng, kind, False, (0, 0.5)[i // 2 % 2])
            nodes = top.n
        k = (1 if mode == SUBSET else 2) + i % 2
        f = rng.randint(1, k - 1) if i % 2 else 0
        if mode == FIXED:
            placement = RobotPlacement(FIXED, positions=[rng.randrange(nodes) for _ in range(k)])
        elif mode == FREE:
            placement = RobotPlacement(FREE, count=k)
        else:
            placement = RobotPlacement(SUBSET, count=k, allowed=rng.sample(range(nodes), rng.randint(1, nodes)))
        spec = ProblemSpec(top, placement, f, None)
        yield spec
        yield spec.scaled(F(1, 3))


def pinned_cli_runs(tmp_path, capsys, spec, name):
    """(exit code, stdout, stderr) of solve, plain and --json; decide at
    the optimum and 1/1000 below it (at 5 without one); resilience at the
    same bound; oracle, plain and --json; and verify of the schedule that
    solve wrote, whose bytes close the list."""
    path, sched = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}-s.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(spec))

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    runs = [run("solve", path, "--emit-schedule", sched), run("solve", path, "--json")]
    code, out, _ = runs[0]
    opt = F(out.split()[0]) if code == 0 else None
    delta = format_number(opt) if code == 0 else "5"
    runs.append(run("decide", path, "--delta", delta))
    if code == 0:
        runs.append(run("decide", path, "--delta", format_number(opt - F(1, 1000))))
    runs += [run("resilience", path, "--delta", delta), run("oracle", path), run("oracle", path, "--json")]
    if os.path.exists(sched):
        runs.append(run("verify", path, sched))
        with open(sched, encoding="utf-8") as fh:
            runs.append(fh.read())
    return runs


# sha256 of the repr of ``pinned_cli_runs`` for each of ``pinned_cli_specs``
PINNED_CLI_DIGESTS = (
    "3e376c8c923e8f0426eb5541655d4db4494af3bbcb721088849b3175f10e6c19",
    "1eac76191642bafce73d1723e1b79730e0dc7fa9ab7784c81a8967ae048561d3",
    "a55028409b15318fa18550e654af834953328eb6d9747b0e09e2fc7462203570",
    "6a5d0b3bfe58a9a78e98ffd81126b08818f8fdd1f97986fc2611ab8576d871da",
    "17cf2e727aa5e0bc7405a93e9bd89aae155c89f37fea1a497a24c7aea50edbf4",
    "17cf2e727aa5e0bc7405a93e9bd89aae155c89f37fea1a497a24c7aea50edbf4",
    "38268645d893642f5ba0fd5b49cd41e366bcfc7e33c72e0400774dd59da3ade4",
    "38268645d893642f5ba0fd5b49cd41e366bcfc7e33c72e0400774dd59da3ade4",
    "31678ebe6038262a506d148a3c8460147131d1ee446cc3ac77d6a7428471e62c",
    "d38ccdbd31a6608b4786f8f2f6994c134d0b7103a3398ab1ab823460f9ea9df1",
    "43ed7210e0bd51e5659cadf088096a3f568e63a9989b198acc624af6e5a0e122",
    "43ed7210e0bd51e5659cadf088096a3f568e63a9989b198acc624af6e5a0e122",
    "6651c6331ecbce9033a861b4a226e238cc10ce62c692c69b9c37bc568b9bfd39",
    "6651c6331ecbce9033a861b4a226e238cc10ce62c692c69b9c37bc568b9bfd39",
    "c57108db0da0c3042bdd117ee8419b49ea80a9f5f1f86c2adb43465b1fb694cc",
    "ad57cfc00739efd6f36dc08cd7c38f9e9ee88095c76e1e8df555f1d4b52f7ea1",
    "77ad4d7fc552cf874ea1e211f151a1e0868a427ca7d781c5cd12cfccd5fc4fdf",
    "a5e3546bf46f741bf150b8ed0558d3cbb9698c1c9d6a8d6e10afeffd284612e5",
    "4254e468a4c58ffecc7874c1960a98b1741a60de4cf5bf47a4119f826482f126",
    "377e73011a427f7204d43b9166cc21c3a852c59d2476e7d351712217c618e099",
)

# sha256 of ``--help`` for the top level and each subcommand, at 80 columns
PINNED_HELP_DIGESTS = {
    "": "c0b72a35a0bc94a7846662d9b8bb770340f361bc4b48d5ae960e199afb9c4bdb",
    "solve": "15c1739c2f75be5eddedc37d13f300f5851267529e18010f4c4bbc2ceaa41948",
    "decide": "8be074a9fcf48f047be79498eded169c7ea74a5530b564d3dbad02dbe1e5ec48",
    "resilience": "02b66d301c3a0822ff1d76107d00a37a3414edc924653023b897ef7bd5943fc2",
    "generate": "97bccd66cb719e3fb804f77d634eb0adaaa49fe918bce3f73e1a2e6331bc5c2c",
    "verify": "0ee4be539dec2bdf3500990239157c1e7e95ee55309c9649a7e4e5145693acb3",
    "oracle": "79cbc3afa8328cf7fec148eca77ebdcb0bda52bfefef0e2a59057faad274ec8c",
}


def test_cli_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    digests = [
        hashlib.sha256(repr(pinned_cli_runs(tmp_path, capsys, spec, f"i{i}")).encode()).hexdigest()
        for i, spec in enumerate(pinned_cli_specs())
    ]
    assert digests == list(PINNED_CLI_DIGESTS)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    helps = {}
    for command in ("", "solve", "decide", "resilience", "generate", "verify", "oracle"):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        helps[command] = (done.value.code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert helps == {command: (0, digest, "") for command, digest in PINNED_HELP_DIGESTS.items()}


# --------------------------------------------------------------------------
# the answers and refusals that the pins above never reach
# --------------------------------------------------------------------------


@pytest.mark.parametrize("argv, code, out", [
    (["decide", "--delta", "1", "--json"], 0, '{"answer": "YES"}\n'),
    (["decide", "--delta", "1/2", "--json"], 1, '{"answer": "NO"}\n'),
    (["resilience", "--delta", "3", "--json"], 0, '{"resilience": 1}\n'),
    (["resilience", "--delta", "1", "--json"], 0, '{"resilience": 0}\n'),
    (["resilience", "--delta", "1/2", "--json"], 1, '{"resilience": null}\n'),
])
def test_decide_and_resilience_json_bytes_are_pinned(tmp_path, capsys, argv, code, out):
    # two free robots on SKEW3: one covers it by 3, two by 1
    path = write(tmp_path, "inst.json", dict(SKEW3, robots={"mode": "free", "count": 2}))
    assert main([argv[0], path, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


@pytest.mark.parametrize("command", ["decide", "resilience"])
def test_a_missing_delta_is_a_usage_error(tmp_path, capsys, command):
    path = write(tmp_path, "inst.json", SKEW3)  # its delta is null
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{command} needs --delta or a delta field in the instance\n")


# sha256 of the stdout of ``generate`` with each argument list
PINNED_GENERATE_DIGESTS = {
    ("partition", "--values", "1", "1"): "b48cdc35b9dbb6a6d2124dc6b1df1bd0fde32077ffba767f8e3d2dcb013ebf70",
    ("random",): "b370d30796299eb871fe870c716e3ed4541966aadf54f495767a178c6727ea31",
    ("random", "--topology", "star"): "29dcb7a965012d79b5aac790a3fad231d0eee8952f37b5ee158178060e786552",
    ("random", "--f", "1", "--k", "3"): "326093b0f4337369f910b61a02747a64f226b861e86a664f1e26b0b99ed4baa5",
}


@pytest.mark.parametrize("argv", sorted(PINNED_GENERATE_DIGESTS))
def test_generate_bytes_are_pinned(capsys, argv):
    assert main(["generate", *argv]) == 0
    captured = capsys.readouterr()
    assert (hashlib.sha256(captured.out.encode()).hexdigest(), captured.err) == (PINNED_GENERATE_DIGESTS[argv], "")
    parse_instance(captured.out)


DEEP_JSON = "[" * 100_000 + "]" * 100_000
BAD_INSTANCES = {  # document, the one line on stderr
    "a negative coordinate": (
        dict(SKEW3, coordinates=["-1", "1", "3"]), "coordinates[0]: must be a non-negative exact number"),
    "a one-node ring": (
        dict(MINIMAL_RING, edge_weights=["1"], deadlines=[None], robots={"mode": "fixed", "positions": [0]}),
        "edge_weights: a ring needs at least two nodes"),
    "a star with no leaves": (
        dict(STAR1, leaf_weights=[], deadlines=[], robots={"mode": "free", "count": 1}),
        "leaf_weights: a star needs at least one leaf"),
    "a non-positive weight": (
        dict(MINIMAL_RING, edge_weights=["1", "0"]), "edge_weights[1]: must be a positive exact number"),
    "a deadline count that does not match": (
        dict(SKEW3, deadlines=[None, None]), "deadlines: one deadline per node required"),
    "a negative deadline": (
        dict(SKEW3, deadlines=[None, "-1", None]),
        "deadlines[1]: deadline must be a non-negative exact number or INFINITY"),
    "a document that is not an object": ([SKEW3], "instance document must be a JSON object"),
    "robots that is not an object": (dict(SKEW3, robots=[1]), "robots: expected an object"),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_solve_refuses_a_bad_instance_in_one_line(tmp_path, capsys, case):
    doc, error = BAD_INSTANCES[case]
    assert main(["solve", write(tmp_path, "inst.json", doc)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


BAD_SCHEDULES = {  # instance, schedule document, the one line on stderr
    "a first waypoint not at time 0": (
        SKEW3, {"robots": [{"waypoints": [{"t": "1", "x": "1"}]}]},
        "robot 0: first waypoint must be at time 0"),
    "an unknown star node": (
        STAR1, {"robots": [{"waypoints": [{"t": "0", "node": 1}, {"t": "2", "node": 5}]}]},
        "robot 0: unknown node 5"),
    "the wrong number of tracks": (
        SKEW3, {"robots": [{"waypoints": [{"t": "0", "x": "1"}]}] * 2}, "expected 1 robot tracks, got 2"),
    "invalid JSON": (
        SKEW3, "{not json",
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "a schedule that is not an object": (
        SKEW3, [{"robots": []}], "schedule document must be an object with a 'robots' list"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEDULES))
def test_verify_refuses_a_bad_schedule_in_one_line(tmp_path, capsys, case):
    instance, schedule, error = BAD_SCHEDULES[case]
    path = write(tmp_path, "inst.json", instance)
    sched = tmp_path / "sched.json"
    sched.write_text(schedule if isinstance(schedule, str) else json.dumps(schedule), encoding="utf-8")
    assert main(["verify", path, str(sched)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_deeply_nested_json_is_bad_input(tmp_path, capsys, command):
    # json.loads raises RecursionError, a RuntimeError, not JSONDecodeError;
    # it is still a document that cannot be read, so exit 2, not 3
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    if command == "solve":
        argv = ["solve", str(deep)]
    else:
        argv = ["verify", write(tmp_path, "inst.json", SKEW3), str(deep)]
    assert main(argv) == 2
    _one_error_line(capsys.readouterr(), "error: invalid JSON: maximum recursion depth exceeded")
