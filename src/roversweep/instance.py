"""Problem instances: topologies, robot placements, parsing and normalization.

All instance types are immutable after construction and safe to share
across threads; every operation in this module is pure.

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
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional

from .exact import ExactNumber, INFINITY, format_number, parse_number, scale

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

    def capped(self, delta: ExactNumber) -> "LineInstance":
        """Same line with every deadline capped at ``delta``."""
        return replace(self, deadlines=tuple(min(d, delta) for d in self.deadlines))

    def scaled(self, c) -> "LineInstance":
        """Same line with every coordinate and deadline multiplied by c > 0."""
        return _scaled(self, c)


@dataclass(frozen=True)
class RingInstance:
    """Cycle of n nodes; weight i joins node i to its counterclockwise neighbour (i+1) mod n."""

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

    @property
    def total(self) -> ExactNumber:
        return sum(self.edge_weights)

    def arc_positions(self) -> tuple:
        """Arc-length coordinate of each node, measured counterclockwise from node 0."""
        pos = [0]
        for w in self.edge_weights[:-1]:
            pos.append(pos[-1] + w)
        return tuple(pos)

    def capped(self, delta: ExactNumber) -> "RingInstance":
        return replace(self, deadlines=tuple(min(d, delta) for d in self.deadlines))

    def scaled(self, c) -> "RingInstance":
        return _scaled(self, c)


@dataclass(frozen=True)
class StarInstance:
    """Star with q leaves around a center.  Node indices: leaves 0..q-1, center q."""

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

    def capped(self, delta: ExactNumber) -> "StarInstance":
        return StarInstance(
            self.leaf_weights,
            tuple(min(d, delta) for d in self.leaf_deadlines),
            min(self.center_deadline, delta),
        )

    def scaled(self, c) -> "StarInstance":
        return _scaled(self, c)


Topology = LineInstance | RingInstance | StarInstance


def _numbers(topology: Topology) -> tuple:
    """Every field of a topology holds a number or a tuple of numbers."""
    out = ()
    for f in fields(topology):
        value = getattr(topology, f.name)
        out += value if isinstance(value, tuple) else (value,)
    return out


def _scaled(topology: Topology, c) -> Topology:
    values = (getattr(topology, f.name) for f in fields(topology))
    return type(topology)(*(
        tuple(scale(v, c) for v in value) if isinstance(value, tuple) else scale(value, c)
        for value in values
    ))


def node_count(topology: Topology) -> int:
    if isinstance(topology, StarInstance):
        return topology.q + 1
    return topology.n


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
        nodes = node_count(self.topology)
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

    def numbers(self) -> tuple:
        """Every number of the problem (INFINITY included); node indices are not numbers."""
        return _numbers(self.topology) + (() if self.bound is None else (self.bound,))

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


def parse_amount(value, path: str):
    """The exact number a document spells as a string; else InstanceError at ``path``."""
    if not isinstance(value, str):
        raise InstanceError(path, "numbers must be strings (decimal or p/q)")
    try:
        return parse_number(value)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(path, f"cannot parse number {value!r}") from None


def _parse_deadline(value, path: str) -> ExactNumber:
    if value is None:
        return INFINITY
    return parse_amount(value, path)


def _parse_number_list(values, path: str) -> tuple:
    if not isinstance(values, list):
        raise InstanceError(path, "expected a list")
    return tuple(parse_amount(v, f"{path}[{i}]") for i, v in enumerate(values))


def _parse_deadline_list(values, path: str) -> tuple:
    if not isinstance(values, list):
        raise InstanceError(path, "expected a list")
    return tuple(_parse_deadline(v, f"{path}[{i}]") for i, v in enumerate(values))


def parse_instance_dict(doc: dict) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise InstanceError("", "instance document must be a JSON object")
    kind = doc.get("topology")
    if kind == "line":
        topology = LineInstance(
            _parse_number_list(doc.get("coordinates"), "coordinates"),
            _parse_deadline_list(doc.get("deadlines"), "deadlines"),
        )
    elif kind == "ring":
        topology = RingInstance(
            _parse_number_list(doc.get("edge_weights"), "edge_weights"),
            _parse_deadline_list(doc.get("deadlines"), "deadlines"),
        )
    elif kind == "star":
        topology = StarInstance(
            _parse_number_list(doc.get("leaf_weights"), "leaf_weights"),
            _parse_deadline_list(doc.get("deadlines"), "deadlines"),
            _parse_deadline(doc.get("center_deadline"), "center_deadline"),
        )
    else:
        raise InstanceError("topology", f"unknown topology {kind!r}")

    robots = doc.get("robots")
    if not isinstance(robots, dict):
        raise InstanceError("robots", "expected an object")
    mode = robots.get("mode")
    if mode == FIXED:
        positions = robots.get("positions")
        if not isinstance(positions, list) or not all(isinstance(p, int) for p in positions or []):
            raise InstanceError("robots.positions", "expected a list of node indices")
        placement = RobotPlacement(FIXED, positions=tuple(positions))
    elif mode in (FREE, SUBSET):
        count = robots.get("count")
        if not isinstance(count, int):
            raise InstanceError("robots.count", "expected an integer")
        if mode == SUBSET:
            allowed = robots.get("allowed")
            if not isinstance(allowed, list) or not all(isinstance(p, int) for p in allowed or []):
                raise InstanceError("robots.allowed", "expected a list of node indices")
            placement = RobotPlacement(SUBSET, count=count, allowed=tuple(allowed))
        else:
            placement = RobotPlacement(FREE, count=count)
    else:
        raise InstanceError("robots.mode", f"unknown mode {mode!r}")

    faults = doc.get("faults", 0)
    if not isinstance(faults, int):
        raise InstanceError("faults", "expected an integer")
    delta = doc.get("delta")
    bound = None if delta is None else parse_amount(delta, "delta")
    spec = ProblemSpec(topology=topology, placement=placement, faults=faults, bound=bound)
    if mode == FIXED and faults == 0 and len(set(placement.positions)) < spec.k:
        # the reliable fixed-placement solver takes distinct robots only
        raise InstanceError("robots.positions", "duplicate starting positions need a positive fault budget")
    return spec


def parse_instance(text: str) -> ProblemSpec:
    """Parse and validate a UTF-8 instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError("", f"invalid JSON: {exc}") from None
    return parse_instance_dict(doc)


def _deadline_json(d: ExactNumber):
    return None if d is INFINITY else format_number(d)


def instance_dict(spec: ProblemSpec) -> dict:
    top = spec.topology
    doc: dict = {}
    if isinstance(top, LineInstance):
        doc["topology"] = "line"
        doc["coordinates"] = [format_number(x) for x in top.coordinates]
        doc["deadlines"] = [_deadline_json(d) for d in top.deadlines]
    elif isinstance(top, RingInstance):
        doc["topology"] = "ring"
        doc["edge_weights"] = [format_number(w) for w in top.edge_weights]
        doc["deadlines"] = [_deadline_json(d) for d in top.deadlines]
    else:
        doc["topology"] = "star"
        doc["leaf_weights"] = [format_number(w) for w in top.leaf_weights]
        doc["deadlines"] = [_deadline_json(d) for d in top.leaf_deadlines]
        doc["center_deadline"] = _deadline_json(top.center_deadline)
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
# dominance pruning for a single fixed-start robot
# --------------------------------------------------------------------------


def prune_dominated(line: LineInstance, start: int) -> tuple:
    """Drop nodes whose deadline is implied by a node further from ``start``.

    Walking outward from the start, any node passed on the way to a
    farther node with an equal-or-smaller deadline is satisfied for free,
    so it can be removed without changing feasibility or the optimal
    time.  Returns ``(pruned_line, remap)`` where ``remap[new] = old``.
    Only valid for a single robot at a fixed start.
    """
    if not 0 <= start < line.n:
        raise InstanceError("start", "start index out of range")
    keep = [False] * line.n
    keep[start] = True
    # Right of the start the surviving deadlines must strictly increase.
    lowest = None
    for k in range(line.n - 1, start, -1):
        if lowest is None or line.deadlines[k] < lowest:
            keep[k] = True
            lowest = line.deadlines[k]
    # Left of the start they must strictly decrease.
    lowest = None
    for k in range(0, start):
        if lowest is None or line.deadlines[k] < lowest:
            keep[k] = True
            lowest = line.deadlines[k]
    remap = tuple(i for i in range(line.n) if keep[i])
    pruned = LineInstance(
        tuple(line.coordinates[i] for i in remap),
        tuple(line.deadlines[i] for i in remap),
    )
    return pruned, remap
