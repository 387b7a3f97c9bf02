"""Problem instances: topologies, robot placements, parsing and normalization.

All instance types are immutable after construction and safe to share
across threads; every operation in this module is pure.

Every topology answers the same geometry: its ``kind`` ("line", "ring"
or "star"), its node count ``n`` (q + 1 on a star), the ``positions``
of its nodes on the track (a line's coordinates, a ring's arc lengths
counterclockwise from node 0, a star's node indices), the ``lap`` of a
ring (its circumference; None elsewhere: a line is a ring of one lap),
and one deadline per node in ``deadlines`` (a star's center last).
``unrolled`` lays a ring's positions out over laps, as a line.

The instance file format is JSON:

    {
      "topology": "line" | "ring" | "star",
      "coordinates"  : ["0", "1", "5/2"],      # line: strictly increasing
      "edge_weights" : ["1", "1", "2"],        # ring: weight i joins i and (i+1) mod n
      "leaf_weights" : ["1", "4"],             # star: center-to-leaf distances
      "deadlines": ["10", null, "7/2"],        # per node (star: per leaf); null = no deadline
      "center_deadline": "10" | null,          # star only
      "robots": {"mode": "fixed", "positions": [0, 3]}
              | {"mode": "free", "count": 2}
              | {"mode": "subset", "count": 2, "allowed": [0, 1, 4]},
      "faults": 0,
      "delta": "35" | null
    }

Numbers are decimal strings or "p/q" ratios, parsed exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional

from .exact import ExactNumber, INFINITY, format_number, parse_ratio, scale

FIXED = "fixed"
FREE = "free"
SUBSET = "subset"


class InstanceError(ValueError):
    """Raised for malformed instance documents or invariant violations."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _check_deadline(value, path):
    if value is INFINITY:
        return
    if not isinstance(value, (int, Fraction)) or value < 0:
        raise InstanceError(path, "deadline must be a non-negative exact number or INFINITY")


@dataclass(frozen=True)
class LineInstance:
    """Nodes on the real line at strictly increasing coordinates."""

    kind = "line"
    lap = None
    coordinates: tuple
    deadlines: tuple

    def __post_init__(self):
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        object.__setattr__(self, "deadlines", tuple(self.deadlines))
        if len(self.coordinates) < 1:
            raise InstanceError("coordinates", "need at least one node")
        for idx, x in enumerate(self.coordinates):
            if not isinstance(x, (int, Fraction)) or x < 0:
                raise InstanceError(f"coordinates[{idx}]", "must be a non-negative exact number")
            if idx > 0 and self.coordinates[idx - 1] >= x:
                raise InstanceError(f"coordinates[{idx}]", "coordinates must be strictly increasing")
        if len(self.deadlines) != len(self.coordinates):
            raise InstanceError("deadlines", "one deadline per node required")
        for idx, d in enumerate(self.deadlines):
            _check_deadline(d, f"deadlines[{idx}]")

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def positions(self) -> tuple:
        return self.coordinates

    def capped(self, delta: ExactNumber) -> "LineInstance":
        """Same line with every deadline capped at ``delta``."""
        return replace(self, deadlines=tuple(min(d, delta) for d in self.deadlines))

    def scaled(self, c) -> "LineInstance":
        """Same line with every coordinate and deadline multiplied by c > 0."""
        return _scaled(self, c)


@dataclass(frozen=True)
class RingInstance:
    """Cycle of n nodes; weight i joins node i to its counterclockwise neighbour (i+1) mod n."""

    kind = "ring"
    edge_weights: tuple
    deadlines: tuple

    def __post_init__(self):
        object.__setattr__(self, "edge_weights", tuple(self.edge_weights))
        object.__setattr__(self, "deadlines", tuple(self.deadlines))
        if len(self.edge_weights) < 2:
            raise InstanceError("edge_weights", "a ring needs at least two nodes")
        for idx, w in enumerate(self.edge_weights):
            if not isinstance(w, (int, Fraction)) or w <= 0:
                raise InstanceError(f"edge_weights[{idx}]", "must be a positive exact number")
        if len(self.deadlines) != len(self.edge_weights):
            raise InstanceError("deadlines", "one deadline per node required")
        for idx, d in enumerate(self.deadlines):
            _check_deadline(d, f"deadlines[{idx}]")

    @property
    def n(self) -> int:
        return len(self.edge_weights)

    @cached_property
    def positions(self) -> tuple:
        return tuple(accumulate(self.edge_weights[:-1], initial=0))

    @cached_property
    def lap(self) -> ExactNumber:
        return self.positions[-1] + self.edge_weights[-1]

    def capped(self, delta: ExactNumber) -> "RingInstance":
        return replace(self, deadlines=tuple(min(d, delta) for d in self.deadlines))

    def scaled(self, c) -> "RingInstance":
        return _scaled(self, c)


@dataclass(frozen=True)
class StarInstance:
    """Star with q leaves around a center.  Node indices: leaves 0..q-1, center q."""

    kind = "star"
    lap = None
    leaf_weights: tuple
    leaf_deadlines: tuple
    center_deadline: ExactNumber

    def __post_init__(self):
        object.__setattr__(self, "leaf_weights", tuple(self.leaf_weights))
        object.__setattr__(self, "leaf_deadlines", tuple(self.leaf_deadlines))
        if len(self.leaf_weights) < 1:
            raise InstanceError("leaf_weights", "a star needs at least one leaf")
        for idx, w in enumerate(self.leaf_weights):
            if not isinstance(w, (int, Fraction)) or w <= 0:
                raise InstanceError(f"leaf_weights[{idx}]", "must be a positive exact number")
        if len(self.leaf_deadlines) != len(self.leaf_weights):
            raise InstanceError("deadlines", "one deadline per leaf required")
        for idx, d in enumerate(self.leaf_deadlines):
            _check_deadline(d, f"deadlines[{idx}]")
        _check_deadline(self.center_deadline, "center_deadline")

    @property
    def q(self) -> int:
        return len(self.leaf_weights)

    @property
    def center(self) -> int:
        return self.q

    @property
    def n(self) -> int:
        return self.q + 1

    @property
    def positions(self) -> tuple:
        return tuple(range(self.n))

    @property
    def deadlines(self) -> tuple:
        return self.leaf_deadlines + (self.center_deadline,)

    def capped(self, delta: ExactNumber) -> "StarInstance":
        return StarInstance(
            self.leaf_weights,
            tuple(min(d, delta) for d in self.leaf_deadlines),
            min(self.center_deadline, delta),
        )

    def scaled(self, c) -> "StarInstance":
        return _scaled(self, c)


Topology = LineInstance | RingInstance | StarInstance


def _scaled(topology: Topology, c) -> Topology:
    if c == 1:
        return topology
    values = (getattr(topology, f.name) for f in fields(topology))
    return type(topology)(*(
        tuple(scale(v, c) for v in value) if isinstance(value, tuple) else scale(value, c)
        for value in values
    ))


def unrolled(positions: tuple, lap: Optional[ExactNumber], laps: int) -> tuple:
    """A line's ``positions`` (``lap`` None: one lap), or a ring's over ``laps``
    laps, lap m shifted by m * ``lap``: an arc past node n - 1 keeps increasing."""
    if lap is None:
        return positions
    return positions + tuple(x + m * lap for m in range(1, laps) for x in positions)


@dataclass(frozen=True)
class RobotPlacement:
    """Where the robots start: fixed multiset, free choice, or free within a subset."""

    mode: str
    positions: Optional[tuple] = None
    count: Optional[int] = None
    allowed: Optional[tuple] = None

    def __post_init__(self):
        if self.mode not in (FIXED, FREE, SUBSET):
            raise InstanceError("robots.mode", f"unknown mode {self.mode!r}")
        if self.mode == FIXED:
            if not self.positions:
                raise InstanceError("robots.positions", "fixed placement needs at least one position")
            object.__setattr__(self, "positions", tuple(sorted(self.positions)))
        else:
            if self.count is None or self.count < 1:
                raise InstanceError("robots.count", "robot count must be at least 1")
            if self.mode == SUBSET:
                if not self.allowed:
                    raise InstanceError("robots.allowed", "subset placement needs a non-empty allowed set")
                object.__setattr__(self, "allowed", tuple(sorted(set(self.allowed))))

    @property
    def robots(self) -> int:
        return len(self.positions) if self.mode == FIXED else self.count


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem: topology, placement, fault budget and optional time bound."""

    topology: Topology
    placement: RobotPlacement
    faults: int = 0
    bound: Optional[ExactNumber] = None

    def __post_init__(self):
        k = self.placement.robots
        if self.faults < 0:
            raise InstanceError("faults", "faults must be non-negative")
        if self.faults >= k:
            raise InstanceError("faults", "f must be < k")
        nodes = self.topology.n
        if self.placement.mode == FIXED:
            for idx, p in enumerate(self.placement.positions):
                if not 0 <= p < nodes:
                    raise InstanceError(f"robots.positions[{idx}]", f"node index out of range 0..{nodes - 1}")
        if self.placement.mode == SUBSET:
            for idx, p in enumerate(self.placement.allowed):
                if not 0 <= p < nodes:
                    raise InstanceError(f"robots.allowed[{idx}]", f"node index out of range 0..{nodes - 1}")
        if self.bound is not None:
            if self.bound is INFINITY:
                object.__setattr__(self, "bound", None)
            elif not isinstance(self.bound, (int, Fraction)) or self.bound < 0:
                raise InstanceError("delta", "time bound must be a non-negative exact number")

    @property
    def k(self) -> int:
        return self.placement.robots

    def scaled(self, c) -> "ProblemSpec":
        """The same problem with every number multiplied by c > 0: every
        time of every answer is multiplied by c, nothing else changes."""
        if c == 1:
            return self
        bound = None if self.bound is None else scale(self.bound, c)
        return replace(self, topology=self.topology.scaled(c), bound=bound)


# --------------------------------------------------------------------------
# parsing / serialization
# --------------------------------------------------------------------------


def read_amount(value, path: str) -> tuple:
    """The exact number p/q a document spells as a string, as the pair
    (p, q) in lowest terms (see ``parse_ratio``); else InstanceError at ``path``."""
    if not isinstance(value, str):
        raise InstanceError(path, "numbers must be strings (decimal or p/q)")
    try:
        return parse_ratio(value)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(path, f"cannot parse number {value!r}") from None


_NO_DEADLINE = (INFINITY, 1)


def _read_deadline(value, path: str) -> tuple:
    if value is None:
        return _NO_DEADLINE
    return read_amount(value, path)


def _read_list(values, path: str, read) -> tuple:
    """(numerators, denominators) of ``read`` applied to each element; an
    element's path, such as ``deadlines[3]``, is spelled out only for the
    error it fails with."""
    if not isinstance(values, list):
        raise InstanceError(path, "expected a list")
    try:
        pairs = [read(v, "") for v in values]
    except InstanceError:
        # some element is bad: read again with paths, to raise at the first one
        pairs = [read(v, f"{path}[{i}]") for i, v in enumerate(values)]
    return tuple(zip(*pairs)) or ((), ())


def _lowered(column: tuple, c: int) -> tuple:
    """The numbers p/q of a (numerators, denominators) column times c,
    which every q divides; INFINITY stays the same object."""
    nums, dens = column
    if c == 1:
        return nums
    return tuple([p if p is INFINITY else p * (c // q) for p, q in zip(nums, dens)])


_LENGTHS = {"line": (LineInstance, "coordinates"), "ring": (RingInstance, "edge_weights"),
            "star": (StarInstance, "leaf_weights")}


def _read_topology(doc: dict) -> tuple:
    """(topology, c): the document's topology with every number times c,
    the least positive int that makes them all integers."""
    kind = doc.get("topology")
    if not isinstance(kind, str) or kind not in _LENGTHS:
        raise InstanceError("topology", f"unknown topology {kind!r}")
    cls, lengths = _LENGTHS[kind]
    columns = [
        _read_list(doc.get(lengths), lengths, read_amount),
        _read_list(doc.get("deadlines"), "deadlines", _read_deadline),
    ]
    if cls is StarInstance:
        p, q = _read_deadline(doc.get("center_deadline"), "center_deadline")
        columns.append(((p,), (q,)))
    c = math.lcm(*{q for _, dens in columns for q in dens})
    values = [_lowered(column, c) for column in columns]
    if cls is StarInstance:
        values[2] = values[2][0]  # the center's deadline is one number
    return cls(*values), c


def widened(scalable, c: int, amount: tuple) -> tuple:
    """(scalable', c', value): ``scalable`` (a topology or a spec) read in
    units of 1/c, rescaled to units of 1/c', c' = lcm(c, q), in which the
    amount p/q (a ``read_amount`` pair) is the integer ``value``."""
    p, q = amount
    m = math.lcm(c, q) // c  # 1 unless q brings a new prime factor
    c *= m
    return scalable.scaled(m), c, p * (c // q)


def read_instance(text: str) -> tuple:
    """(spec, c): the instance document ``text`` with every number,
    ``delta`` included, multiplied by c, the least positive int that makes
    them all integers.  Numbers are read as int pairs and validated as
    integers, with the same errors as written; an integer document gives
    c = 1 and builds no Fraction.  Every time of every answer of the spec
    is c times that of the document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError("", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError("", "instance document must be a JSON object")
    topology, c = _read_topology(doc)

    robots = doc.get("robots")
    if not isinstance(robots, dict):
        raise InstanceError("robots", "expected an object")
    mode = robots.get("mode")
    if mode == FIXED:
        positions = robots.get("positions")
        if not isinstance(positions, list) or not all(type(p) is int for p in positions):
            raise InstanceError("robots.positions", "expected a list of node indices")
        placement = RobotPlacement(FIXED, positions=tuple(positions))
    elif mode in (FREE, SUBSET):
        count = robots.get("count")
        if type(count) is not int:  # not true, 1.0 or "1"
            raise InstanceError("robots.count", "expected an integer")
        if mode == SUBSET:
            allowed = robots.get("allowed")
            if not isinstance(allowed, list) or not all(type(p) is int for p in allowed):
                raise InstanceError("robots.allowed", "expected a list of node indices")
            placement = RobotPlacement(SUBSET, count=count, allowed=tuple(allowed))
        else:
            placement = RobotPlacement(FREE, count=count)
    else:
        raise InstanceError("robots.mode", f"unknown mode {mode!r}")

    faults = doc.get("faults", 0)
    if type(faults) is not int:
        raise InstanceError("faults", "expected an integer")
    delta = doc.get("delta")
    bound = None
    if delta is not None:
        topology, c, bound = widened(topology, c, read_amount(delta, "delta"))
    return ProblemSpec(topology=topology, placement=placement, faults=faults, bound=bound), c


def parse_instance(text: str) -> ProblemSpec:
    """Parse and validate a UTF-8 instance document, numbers as written."""
    spec, c = read_instance(text)
    return spec.scaled(Fraction(1, c))


def _deadline_json(d: ExactNumber):
    return None if d is INFINITY else format_number(d)


def instance_dict(spec: ProblemSpec) -> dict:
    top = spec.topology
    deadlines = [_deadline_json(d) for d in top.deadlines]
    lengths = _LENGTHS[top.kind][1]
    doc: dict = {"topology": top.kind, lengths: [format_number(w) for w in getattr(top, lengths)],
                 "deadlines": deadlines}
    if top.kind == "star":  # the center's deadline has a field of its own
        doc["deadlines"], doc["center_deadline"] = deadlines[:-1], deadlines[-1]
    pl = spec.placement
    if pl.mode == FIXED:
        doc["robots"] = {"mode": FIXED, "positions": list(pl.positions)}
    elif pl.mode == FREE:
        doc["robots"] = {"mode": FREE, "count": pl.count}
    else:
        doc["robots"] = {"mode": SUBSET, "count": pl.count, "allowed": list(pl.allowed)}
    doc["faults"] = spec.faults
    doc["delta"] = None if spec.bound is None else format_number(spec.bound)
    return doc


def serialize_instance(spec: ProblemSpec) -> str:
    return json.dumps(instance_dict(spec), indent=2) + "\n"


# --------------------------------------------------------------------------
# dominance pruning for a single robot on a line
# --------------------------------------------------------------------------


def prune_dominated(line: LineInstance, starts: Iterable[int]) -> tuple:
    """Drop the nodes every walk from ``starts`` passes on its way to a node
    due no later.

    A walk from a start left of node u reaches every node right of u
    through u, so u's deadline is implied when some node right of u is
    due no later; likewise for a start right of u.  u is dropped when
    that holds on each side of it that holds a start.  Starts are kept,
    unless every node is one: then a walk from a start dominated on both
    sides is matched by the same walk from the first kept node it
    reaches.  Feasibility and the optimal time of one robot starting at a
    node of ``starts`` do not change.  Returns ``(pruned_line, remap)``
    where ``remap[new] = old``.
    """
    starts = set(starts)
    n = line.n
    if not starts or not all(0 <= s < n for s in starts):
        raise InstanceError("start", "starts must be one or more node indices")
    d = line.deadlines
    first, last, every = min(starts), max(starts), len(starts) == n
    before = [None, *accumulate(d[:-1], min)]  # the least deadline left of u
    after = [*accumulate(d[:0:-1], min)][::-1] + [None]  # and right of u
    keep = []
    for u in range(n):
        right = after[u] is not None and after[u] <= d[u]  # a node right of u is due no later
        left = before[u] is not None and before[u] <= d[u]
        passed = (right or first >= u) and (left or last <= u)
        if not passed or u in starts and not (every and left and right):
            keep.append(u)
    remap = tuple(keep)
    pruned = LineInstance(
        tuple(line.coordinates[i] for i in remap),
        tuple(line.deadlines[i] for i in remap),
    )
    return pruned, remap
