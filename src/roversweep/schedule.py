"""Robot schedules, solver verdicts, and their JSON form.

A schedule holds one track per robot.  On lines and rings a track is a
sequence of timed positions; the robot moves between consecutive
waypoints in a straight run at unit speed starting immediately, then
waits in place until the next waypoint time (so a node lying on the run
is first visited at departure time plus the distance to it).  Ring
positions are unwrapped arc-length coordinates: increasing means
counterclockwise, and a node is visited whenever the position passes any
lift ``node_position + m * circumference``.

On stars a track is a sequence of timed node indices; motion between
consecutive nodes follows the unique path through the center.  A
schedule's ``kind`` and ``circumference`` are the ``kind`` and ``lap``
of the topology its tracks run on (``track_schedule``).

Schedule JSON:

    {"robots": [{"start": "1", "waypoints": [{"t": "0", "x": "1"}, ...]}],
     "circumference": "6"}          # rings only

Star tracks use {"t": ..., "node": <int>} waypoints instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import ExactNumber, format_number, scale
from .instance import InstanceError, read_amount


class ScheduleError(ValueError):
    """A malformed schedule: speed violation, time regression, bad JSON shape."""

    def __init__(self, robot: Optional[int], detail: str):
        self.robot = robot
        where = f"robot {robot}: " if robot is not None else ""
        super().__init__(where + detail)


@dataclass(frozen=True)
class RobotTrack:
    """Timed waypoints of one robot; waypoints[0] is (0, start)."""

    waypoints: tuple  # ((time, position), ...) -- position is a coordinate, or a node for stars

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple((t, x) for t, x in self.waypoints))
        if not self.waypoints:
            raise ScheduleError(None, "a track needs at least one waypoint")

    @property
    def start(self):
        return self.waypoints[0][1]


@dataclass(frozen=True)
class Schedule:
    kind: str  # 'line' | 'ring' | 'star'
    tracks: tuple
    circumference: Optional[ExactNumber] = None

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        if self.kind == "ring" and self.circumference is None:
            raise ScheduleError(None, "ring schedules must declare a circumference")

    def to_dict(self) -> dict:
        robots = []
        for tr in self.tracks:
            if self.kind == "star":
                wps = [{"t": format_number(t), "node": x} for t, x in tr.waypoints]
            else:
                wps = [{"t": format_number(t), "x": format_number(x)} for t, x in tr.waypoints]
            robots.append({"start": format_number(tr.start) if self.kind != "star" else tr.start,
                           "waypoints": wps})
        doc = {"robots": robots}
        if self.circumference is not None:
            doc["circumference"] = format_number(self.circumference)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def scaled(self, c) -> "Schedule":
        """Every time and coordinate multiplied by c > 0 (star nodes stay)."""
        if c == 1:
            return self
        tracks = tuple(
            RobotTrack(tuple(
                (scale(t, c), x if self.kind == "star" else scale(x, c)) for t, x in tr.waypoints
            ))
            for tr in self.tracks
        )
        circumference = None if self.circumference is None else scale(self.circumference, c)
        return Schedule(kind=self.kind, tracks=tracks, circumference=circumference)


def track_schedule(topology, tracks) -> Schedule:
    """The schedule of ``tracks`` on a line, a ring or a star.  A ring
    track that starts outside [0, circumference) is moved back by whole
    laps, so that it starts there; the others are kept as they are."""
    lap = topology.lap
    if lap is not None:
        tracks = [tr if 0 <= tr.start < lap else
                  RobotTrack(tuple((t, x - tr.start // lap * lap) for t, x in tr.waypoints)) for tr in tracks]
    return Schedule(kind=topology.kind, tracks=tracks, circumference=lap)


def read_schedule(text: str, c: int = 1) -> tuple:
    """(schedule, c'): the schedule document ``text`` with every time and
    coordinate multiplied by c', the least multiple of c that makes them
    all integers (star nodes stay as written).  Numbers are read as int
    pairs (``read_amount``); with c' = 1 no Fraction is built."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(None, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("robots"), list):
        raise ScheduleError(None, "schedule document must be an object with a 'robots' list")
    circumference = None
    if doc.get("circumference") is not None:
        try:
            circumference = read_amount(doc["circumference"], "circumference")
        except InstanceError as exc:
            raise ScheduleError(None, str(exc)) from None
    rows = []  # per robot: [(t numerator, t denominator, x numerator, x denominator), ...]
    kind = "ring" if circumference is not None else "line"
    for ridx, robot in enumerate(doc["robots"]):
        wps = robot.get("waypoints") if isinstance(robot, dict) else None
        if not isinstance(wps, list) or not wps:
            raise ScheduleError(ridx, "missing waypoints")
        parsed = []
        star = any(isinstance(wp, dict) and "node" in wp for wp in wps)
        if star:
            kind = "star"
        for wid, wp in enumerate(wps):
            try:
                t = read_amount(wp["t"], "t")
                x = (wp["node"], 1) if star else read_amount(wp["x"], "x")
                if star and type(x[0]) is not int:  # not 1.9, true or "1"
                    raise ValueError("a star node is a JSON integer")
            except (KeyError, ValueError, TypeError):
                raise ScheduleError(ridx, f"waypoint {wid} is malformed") from None
            parsed.append((*t, *x))
        rows.append(parsed)
    star = kind == "star"
    dens = {tq for row in rows for _, tq, _, _ in row}
    if not star:  # star nodes are not scaled
        dens.update(xq for row in rows for _, _, _, xq in row)
    if circumference is not None:
        dens.add(circumference[1])
    c = math.lcm(c, *dens)
    tracks = [
        RobotTrack(tuple([
            (tp * (c // tq), xp if star else xp * (c // xq))
            for tp, tq, xp, xq in row
        ]))
        for row in rows
    ]
    if circumference is not None:
        circumference = circumference[0] * (c // circumference[1])
    return Schedule(kind=kind, tracks=tuple(tracks), circumference=circumference), c


def schedule_from_json(text: str) -> Schedule:
    """The schedule document ``text``, numbers as written."""
    schedule, c = read_schedule(text)
    return schedule.scaled(Fraction(1, c))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solve or decide call.

    ``optimum`` is the optimal exploration time (INFINITY when
    infeasible); decision-only calls leave it at None.  ``witness`` maps
    each node index to the on-time first visits (robot, time) that cover
    it.  The router (``fault_line.solve`` and ``decide``) fills it in
    when it verifies the schedule, and so does ``brute_solve``; the route
    solvers leave it at None.
    """

    feasible: bool
    optimum: Optional[ExactNumber] = None
    schedule: Optional[Schedule] = None
    witness: Optional[dict] = None
    idle_edges: Optional[tuple] = None

    def __bool__(self):
        return self.feasible


@dataclass(frozen=True)
class NodeCheck:
    node: int
    required: int
    covered: int
    visits: tuple  # ((robot, time), ...) on-time first visits, sorted by time


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    makespan: ExactNumber
    nodes: tuple  # NodeCheck per node
    failures: tuple  # NodeCheck per under-covered node, leftmost first

    @property
    def first_violation(self) -> Optional[NodeCheck]:
        return self.failures[0] if self.failures else None
