from fractions import Fraction

import pytest

from roversweep.exact import INFINITY
from roversweep.instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
)
from roversweep.oracle import verify_schedule
from roversweep.schedule import (
    RobotTrack,
    Schedule,
    ScheduleError,
    read_schedule,
    schedule_from_json,
)


def line_spec(coords, deadlines, positions, faults=0, bound=None):
    return ProblemSpec(
        LineInstance(coords, deadlines),
        RobotPlacement(FIXED, positions=positions),
        faults,
        bound,
    )


def test_schedule_json_round_trip():
    sched = Schedule(
        kind="line",
        tracks=(RobotTrack(((0, Fraction(1, 2)), (2, Fraction(5, 2)))),),
    )
    again = schedule_from_json(sched.to_json())
    assert again == sched
    ring = Schedule(
        kind="ring",
        tracks=(RobotTrack(((0, 0), (3, -3))),),
        circumference=6,
    )
    assert schedule_from_json(ring.to_json()) == ring
    star = Schedule(kind="star", tracks=(RobotTrack(((0, 2), (4, 3))),))
    assert schedule_from_json(star.to_json()) == star


def test_read_schedule_widens_c_by_its_own_denominators():
    line = Schedule(kind="line", tracks=(RobotTrack(((0, Fraction(1, 2)), (Fraction(7, 3), 2))),))
    assert read_schedule(line.to_json(), 3) == (line.scaled(6), 6)
    assert read_schedule(line.to_json(), 4) == (line.scaled(12), 12)
    ring = Schedule(kind="ring", tracks=(RobotTrack(((0, 0), (3, -3))),), circumference=Fraction(6, 5))
    assert read_schedule(ring.to_json()) == (ring.scaled(5), 5)
    # star nodes are indices, not lengths: only times are scaled
    star = Schedule(kind="star", tracks=(RobotTrack(((0, 2), (Fraction(9, 2), 1))),))
    got, c = read_schedule(star.to_json(), 3)
    assert (c, got.tracks[0].waypoints) == (6, ((0, 2), (27, 1)))
    integral = Schedule(kind="line", tracks=(RobotTrack(((0, 1), (2, 3))),))
    assert read_schedule(integral.to_json()) == (integral, 1)


def test_sweep_passes_and_reports_makespan():
    spec = line_spec((0, 1, 2), (INFINITY,) * 3, (0,))
    sched = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (2, 2))),))
    report = verify_schedule(spec, sched)
    assert report.passed
    assert report.makespan == 2
    assert [c.visits for c in report.nodes] == [((0, 0),), ((0, 1),), ((0, 2),)]


def test_missed_deadline_fails_at_the_node():
    spec = line_spec((0, 1, 2), (INFINITY, INFINITY, Fraction(3, 2)), (0,))
    sched = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (2, 2))),))
    report = verify_schedule(spec, sched)
    assert not report.passed
    assert report.first_violation.node == 2


def test_matching_reduction_witness_schedule_passes():
    # three robots covering [0,34],[35,67],[68,95] within the bound of 35
    n = 96
    spec = line_spec(
        tuple(range(n)), (INFINITY,) * n, (1, 38, 76), faults=0, bound=35
    )
    sched = Schedule(
        kind="line",
        tracks=(
            RobotTrack(((0, 1), (1, 0), (35, 34))),
            RobotTrack(((0, 38), (3, 35), (35, 67))),
            RobotTrack(((0, 76), (8, 68), (35, 95))),
        ),
    )
    report = verify_schedule(spec, sched)
    assert report.passed
    assert report.makespan == 35


def test_speed_violation_is_a_structured_error():
    spec = line_spec((0, 1, 2), (INFINITY,) * 3, (0,))
    fast = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (1, 2))),))
    with pytest.raises(ScheduleError, match="unit speed"):
        verify_schedule(spec, fast)
    backwards = Schedule(kind="line", tracks=(RobotTrack(((0, 0), (0, 0))),))
    with pytest.raises(ScheduleError, match="strictly increase"):
        verify_schedule(spec, backwards)


def test_waiting_is_allowed():
    spec = line_spec((0, 1), (INFINITY, INFINITY), (0,))
    lazy = Schedule(
        kind="line",
        tracks=(RobotTrack(((0, 0), (5, 0), (6, 1))),),
    )
    report = verify_schedule(spec, lazy)
    assert report.passed
    assert report.makespan == 6


def test_ring_wraparound_visits():
    ring = RingInstance((1, 1, 1), (INFINITY,) * 3)
    spec = ProblemSpec(ring, RobotPlacement(FIXED, positions=(0,)), 0, None)
    # walk clockwise: coordinates decrease through the wrap
    sched = Schedule(
        kind="ring",
        tracks=(RobotTrack(((0, 0), (2, -2))),),
        circumference=3,
    )
    report = verify_schedule(spec, sched)
    assert report.passed
    visits = {c.node: c.visits[0][1] for c in report.nodes}
    assert visits == {0: 0, 2: 1, 1: 2}


def test_multiplicity_requires_distinct_robots():
    line = LineInstance((0, 1), (INFINITY, INFINITY))
    spec = ProblemSpec(line, RobotPlacement(FIXED, positions=(0, 0)), 1, 1)
    both = Schedule(
        kind="line",
        tracks=(RobotTrack(((0, 0), (1, 1))), RobotTrack(((0, 0), (1, 1)))),
    )
    assert verify_schedule(spec, both).passed
    # one robot bouncing twice over the same nodes covers nothing extra
    spec_free = ProblemSpec(line, RobotPlacement(FREE, count=2), 1, 1)
    lonely = Schedule(
        kind="line",
        tracks=(RobotTrack(((0, 0), (1, 1))), RobotTrack(((0, 0),))),
    )
    report = verify_schedule(spec_free, lonely)
    assert not report.passed
    assert report.first_violation.node == 1


def test_star_schedule_simulation():
    star = StarInstance((1, 2), (1, 5), INFINITY)
    spec = ProblemSpec(star, RobotPlacement(FIXED, positions=(star.center,)), 0, None)
    sched = Schedule(
        kind="star",
        tracks=(RobotTrack(((0, 2), (1, 0), (2, 2), (4, 1))),),
    )
    report = verify_schedule(spec, sched)
    assert report.passed
    assert report.makespan == 4
    slow = Schedule(kind="star", tracks=(RobotTrack(((0, 0), (2, 1))),))
    with pytest.raises(ScheduleError):
        verify_schedule(spec, slow)
