"""Layered state space of single-robot exploration on lines and rings.

A state records the contiguous stretch of nodes a single robot has
visited so far plus which end of the stretch the robot currently
occupies.  Each arc visits one new node, either adjacent to the robot's
end (weight: one edge) or on the far end of the stretch (weight: the
whole traverse plus one edge).  States with j - i = layer sit in layer
order, so every arc joins one layer to the next.

The graph reads only the topology's geometry: ``kind``, ``n``,
``positions`` and ``lap``.  States are packed into dense integer ids
laid out layer-major with the left index ascending and L before R, by
one formula on lines and rings (``from_ring`` is ``from_line``).  No arc is stored: each state of layer >= 1
has exactly two predecessors, the same stretch without its newly
visited node with the robot at either end (``pulls`` lists them layer
by layer, with arc weights read off the positions unrolled by
``instance.unrolled``, for the states a finite label can reach).  A
ring's full-coverage layer is no exception: the robot ends
at p with [p, p + n - 1] at L or [p + 1, p + n] at R, so no two arcs
join the same pair of states and the side of a state is the direction
of the step that reached it.  The graph is immutable and may be shared
by concurrently running label computations.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .exact import INFINITY, ExactNumber
from .instance import unrolled

LEFT = 0   # robot at the left / clockwise end of the explored stretch
RIGHT = 1  # robot at the right / counterclockwise end


class State(NamedTuple):
    left: int
    right: int
    side: int


class Pull(NamedTuple):
    """A batch of states and, aligned with them, what sets their labels.

    ``first`` and ``second`` are the two predecessors in id order and
    ``w_first``/``w_second`` the arc weights from them; ``deadlines``
    holds the deadline of the node each state visits on arrival.
    """

    to: Sequence[int]
    first: Sequence[int]
    second: Sequence[int]
    w_first: Sequence
    w_second: Sequence
    deadlines: Sequence


def _run(base: int, stride: int, first: int, count: int, n: int):
    """Ids base + stride * i for i = first, first + 1, ... read mod n."""
    first %= n
    head = min(count, n - first)
    ids = range(base + stride * first, base + stride * (first + head), stride)
    if head == count:
        return ids
    return chain(ids, range(base, base + stride * (count - head), stride))


def _live(time: list, base: int, stride: int, first: int, count: int, n: int):
    """(first, last) i of the finite labels among the ids base + stride * i
    for i = first .. first + count - 1 read mod n, or None if all are INFINITY."""
    end = first + count
    while first < end and time[base + stride * (first % n)] is INFINITY:
        first += 1
    if first >= end:
        return None
    last = end - 1
    while time[base + stride * (last % n)] is INFINITY:
        last -= 1
    return first, last


class StateGraph:
    """Immutable layered graph; build via ``from_line`` or ``from_ring``."""

    __slots__ = ("kind", "n", "node_count", "_layer_offsets", "_positions", "_lap")

    def __init__(self):
        raise TypeError("use StateGraph.from_line or StateGraph.from_ring")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, topology) -> "StateGraph":
        """The graph of a line or a ring."""
        return cls.from_line(topology) if topology.lap is None else cls.from_ring(topology)

    @classmethod
    def from_line(cls, topology) -> "StateGraph":
        """The graph of a line, or as ``from_ring`` of a ring: one layout."""
        self = object.__new__(cls)
        n = self.n = topology.n
        self.kind, self._positions, self._lap = topology.kind, topology.positions, topology.lap
        # layer 0 holds n single-node states, and layer j >= 1 holds two per
        # stretch: n - j of them on a line, n on a ring
        sizes = (2 * (n - j if topology.lap is None else n) for j in range(1, n))
        self._layer_offsets = [0, *accumulate(sizes, initial=n)]
        self.node_count = self._layer_offsets[-1]
        return self

    from_ring = from_line

    # ------------------------------------------------------------------
    # id <-> state mapping
    # ------------------------------------------------------------------

    def id_of(self, left: int, right: int, side: int = RIGHT) -> int:
        layer = (right - left) % self.n
        if layer == 0:
            return left
        return self._layer_offsets[layer] + 2 * left + side

    def state_of(self, uid: int) -> State:
        if uid < self.n:
            return State(uid, uid, RIGHT)
        layer = bisect_right(self._layer_offsets, uid) - 1
        i, side = divmod(uid - self._layer_offsets[layer], 2)
        return State(i, (i + layer) % self.n, side)

    @property
    def layer_offsets(self) -> list:
        """Id of the first state of each layer, then the state count."""
        return self._layer_offsets

    def layer_ids(self, layer: int) -> range:
        return range(self._layer_offsets[layer], self._layer_offsets[layer + 1])

    def terminal_ids(self) -> range:
        """States in which every node of the instance has been visited."""
        return self.layer_ids(self.n - 1)

    def position(self, uid: int) -> ExactNumber:
        st = self.state_of(uid)
        return self._positions[st.left if st.side == LEFT else st.right]

    # ------------------------------------------------------------------
    # the pull recurrence
    # ------------------------------------------------------------------

    def pulls(self, time: list, deadlines: Sequence) -> Iterator[Pull]:
        """The live states of layers 1.. in layer order, with their predecessors.

        ``time`` is the label list: layer 0 is set, and the caller sets
        the labels of each batch before it takes the next.  A layer pulls
        only the states that a finite label of the layer before can
        reach: if that layer is finite on stretches i in [a, z], the new
        left node i only for i in [a - 1, z - 1] and the new right node
        i + layer only for i in [a, z].  The ends of the next range are
        the first and last finite labels of the batches just set, found
        by scanning in from both ends, so only the dead margins are read
        twice.  The ranges are cyclic runs of ids, which on a line never
        wrap.  The batches stop at the first layer with no finite label.
        ``deadlines`` is indexed by node.
        """
        n = self.n
        offsets = self._layer_offsets
        line = self._lap is None
        # a ring's stretch indices i drift below 0 and are read mod n;
        # slices start at i mod n and end under 3n, so three laps keep them
        # contiguous (a line's stay in its one lap); prefix[k] is the
        # position of unrolled node k, and one deadline is kept per node
        prefix = unrolled(self._positions, self._lap, 3)
        edge = list(map(sub, prefix[1:], prefix))
        dls = tuple(deadlines) * (len(prefix) // n)
        new = tuple.__new__

        live = _live(time, 0, 1, 0, n, n)
        for layer in range(1, n):
            if live is None:
                return
            a, z = live
            base, below = offsets[layer], offsets[layer - 1]
            # the layer below holds state (i, i + layer - 1, side) at id
            # below + step * i + side * at_r: layer 0 holds one per node
            step, at_r = (2, 1) if layer > 1 else (1, 0)
            # a new left node i needs stretch i + 1 live, a new right node
            # stretch i; a line's stretches also end by node n - 1, and a
            # ring has n stretches per side (the live range [a, z] may hold
            # one more index, the same stretch a lap apart)
            if line:
                s, r = max(a - 1, 0), a
                c, d = min(z, n - layer) - s, min(z + 1, n - layer) - r
            else:
                s, r = a - 1, a
                c = d = min(z - a + 1, n)
            s0, r0 = s % n, r % n  # where the slices start
            if c > 0:  # robot at L: the stretch grew at its left end i
                yield new(Pull, (
                    _run(base, 2, s, c, n),
                    _run(below, step, s + 1, c, n),
                    _run(below + at_r, step, s + 1, c, n),
                    edge[s0:s0 + c],
                    list(map(sub, prefix[s0 + layer:s0 + layer + c], prefix[s0:s0 + c])),
                    dls[s0:s0 + c],
                ))
            if d > 0:  # robot at R: the stretch grew at its right end j
                yield new(Pull, (
                    _run(base + 1, 2, r, d, n),
                    _run(below, step, r, d, n),
                    _run(below + at_r, step, r, d, n),
                    list(map(sub, prefix[r0 + layer:r0 + layer + d], prefix[r0:r0 + d])),
                    edge[r0 + layer - 1:r0 + layer - 1 + d],
                    dls[r0 + layer:r0 + layer + d],
                ))
            left = _live(time, base + LEFT, 2, s, c, n)
            right = _live(time, base + RIGHT, 2, r, d, n)
            if left is None or right is None:
                live = left or right
            else:
                live = min(left[0], right[0]), max(left[1], right[1])

    @property
    def arc_count(self) -> int:
        """Number of arcs: one per end at which a stretch can still grow."""
        n = self.n
        if self.kind == "line":
            return 2 * (n - 1) ** 2
        return 2 * n * (2 * n - 3)
