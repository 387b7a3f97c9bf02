"""Optimal exploration of lines and rings by a team of reliable robots.

Fixed placements: one windowed label pass per robot (each robot kept to
the open window between its neighbours), read once into a table of the
stretches that hold its start, then a prefix recurrence
(``idle_edge_split``) that picks the idle edge separating consecutive
robots' parts.  A line is cut at its own ends; a ring is cut at each
edge between its closest adjacent pair of robots in turn, and the same
recurrence runs on the line that remains.  One robot is the
single-robot pass (``single_robot.solve_from``), pruned on a line.

Free placements: tables T[r][i][j] of optimal times for r freely placed
robots, combined by robot-count doubling along the binary digits of k.
A cell is the min over splits of max(left, right), where the left part
never gets faster and the right part never gets slower as the split moves
right, so the best split sits where the two cross.  That crossing moves
right as j grows (Knuth 1971, Yao 1980), so one pointer per row finds it
for every cell, and a full table costs O(n^2) instead of O(n^3).  The
top team size is never tabulated: a cell of it is one binary search
(``best_split``) over the two tables below, read only where asked.
Rings use the same tables with j read on the doubled node order
i .. i+n-1, so a part may wrap past node n-1 (``TeamTables``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import Iterable, List, Sequence, Union

from .exact import ExactNumber, INFINITY
from .instance import LineInstance, RingInstance
from .schedule import RobotTrack, Verdict, track_schedule
from .single_robot import (
    TimeLabels,
    best_target,
    extract_trajectory,
    init_start,
    propagate,
    solve_fixed_start,
    solve_from,
)
from .state_graph import StateGraph


def best_split(row_a, rows_b, lo: int, hi: int, j: int) -> tuple:
    """(value, split) minimizing max(row_a[s], rows_b[s + 1][j]) over lo <= s <= hi.

    row_a[s] is the left team's time on [i, s] and rows_b[s + 1][j] the
    right team's time on [s + 1, j].  The first never decreases in s and
    the second never increases, so the minimum sits where they cross,
    found by binary search.  Ties go to the smaller split.
    """
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if row_a[mid] < rows_b[mid + 1][j]:
            lo = mid
        else:
            hi = mid
    left, right = row_a[lo], rows_b[lo + 1][j]
    value = left if left >= right else right
    left, right = row_a[hi], rows_b[hi + 1][j]
    other = left if left >= right else right
    if other < value:
        return other, hi
    return value, lo


def opt_time(table_a, r1: int, table_b, r2: int, i: int, j: int) -> ExactNumber:
    """Optimal time for r1+r2 robots on [i, j] given the two partial tables."""
    if j - i + 1 <= r1 + r2:
        return 0
    # splits that starve either side below its robot count are dominated
    return best_split(table_a[i], table_b, i + r1 - 1, j - r2, j)[0]


# --------------------------------------------------------------------------
# fixed initial positions
# --------------------------------------------------------------------------


def idle_edge_split(starts: Sequence[int], n: int, part_time) -> tuple:
    """Best division of nodes 0..n-1 into consecutive parts, one per robot.

    Robot r starts at node starts[r] (sorted, distinct) and explores the
    part [m, j] holding its start in part_time(r, m, j); the edge before
    each later part stays idle.  A prefix recurrence over the right end
    of the last part gives (optimum, [(r, m, j), ...] from left to
    right), or (INFINITY, None) when no division meets the deadlines.
    """
    prefix: list = [INFINITY] * n
    choice: list = [None] * n
    for j in range(n):
        r = bisect_right(starts, j)
        if r == 0:
            continue
        best = INFINITY
        best_m = None
        for m in range(starts[r - 2] + 1 if r >= 2 else 0, starts[r - 1] + 1):
            left = 0 if m == 0 else prefix[m - 1]
            if left is INFINITY:
                continue
            right = part_time(r - 1, m, j)
            cand = left if left >= right else right
            if cand < best:
                best = cand
                best_m = m
        prefix[j] = best
        choice[j] = best_m
    if prefix[n - 1] is INFINITY:
        return INFINITY, None
    parts = []
    j = n - 1
    while j >= 0:
        m = choice[j]
        parts.append((bisect_right(starts, j) - 1, m, j))
        j = m - 1
    parts.reverse()
    return prefix[n - 1], parts


def _start_times(labels, p: int, lo: int, hi: int) -> list:
    """rows[a][b]: the fastest exploration of the stretch from a nodes
    before p to b nodes after it (counterclockwise on a ring).

    Only the stretches that hold p and lie strictly inside the open
    window (lo, hi) are read, each once, off the label layers: they are
    the parts ``idle_edge_split`` can give the robot at p.
    """
    graph = labels.graph
    time = labels.time
    n = graph.n
    left = (p - lo - 1) % n
    right = (hi - p - 1) % n
    first = [graph.layer_ids(d).start for d in range(left + right + 1)]
    inf = INFINITY
    rows = []
    for a in range(left + 1):
        i = (p - a) % n
        row = [time[p]] if a == 0 else []
        for d in range(max(a, 1), a + right + 1):
            tl = time[first[d] + 2 * i]
            tr = time[first[d] + 2 * i + 1]
            row.append(tl if tr is inf or tl is not inf and tl <= tr else tr)
        rows.append(row)
    return rows


def solve_fixed(
    topology: Union[LineInstance, RingInstance],
    positions: Iterable[int],
    collect_candidates: bool = False,
) -> Verdict:
    """Optimal exploration of a line or ring by robots at given distinct nodes.

    Returns the optimum, the chosen idle edges, and one trajectory per
    robot; INFINITY/infeasible when no deadline-respecting split exists.
    """
    positions = tuple(sorted(positions))
    n = topology.n
    if len(set(positions)) != len(positions):
        raise ValueError("fixed positions must be distinct for reliable robots")
    if any(not 0 <= p < n for p in positions):
        raise ValueError("robot position out of range")
    k = len(positions)
    ring = isinstance(topology, RingInstance)
    if k == 1:
        if ring:
            return solve_from(topology, positions, collect_candidates)
        verdict = solve_fixed_start(topology, positions[0], collect_candidates)
        return replace(verdict, idle_edges=()) if verdict.feasible else verdict

    graph = StateGraph.of(topology)
    forests: List[TimeLabels] = []
    times = []
    for m, p in enumerate(positions):
        lo = positions[m - 1] if ring or m > 0 else -1
        hi = positions[(m + 1) % k] if ring or m < k - 1 else n
        labels = propagate(graph, init_start(graph, [p]), topology.deadlines, window=(lo, hi))
        forests.append(labels)
        times.append(_start_times(labels, p, lo, hi))

    if ring:
        # some edge between the closest adjacent pair (fewest edges) is idle,
        # so each is cut in turn; the line left runs ccw from head = cut + 1
        gap, pick = min(((positions[(m + 1) % k] - positions[m]) % n, m) for m in range(k))
        heads = [(positions[pick] + t + 1) % n for t in range(gap)]
    else:
        heads = [0]

    def part_time(r: int, i: int, j: int):
        # line nodes i..j of the current cut, explored by its r-th robot
        q = starts[r]
        return times[robots[r]][q - i][j - q]

    best = (INFINITY, None, None)  # optimum, head, [(robot, first node, last node)]
    for head in heads:
        line_pos = sorted(((p - head) % n, m) for m, p in enumerate(positions))
        starts = [q for q, _ in line_pos]
        robots = [m for _, m in line_pos]
        value, parts = idle_edge_split(starts, n, part_time)
        if value < best[0]:
            best = (value, head, [(robots[r], (head + i) % n, (head + j) % n) for r, i, j in parts])

    candidates = None
    if collect_candidates:
        vals = {0}
        for labels in forests:
            vals.update(labels.finite_values())
        candidates = tuple(sorted(vals))

    optimum, head, segments = best
    if segments is None:
        return Verdict(feasible=False, optimum=INFINITY, candidates=candidates)
    tracks = [None] * k
    idle = [((head - 1) % n, head)] if ring else []
    for robot, i, j in segments:
        labels = forests[robot]
        tracks[robot] = RobotTrack(extract_trajectory(labels, best_target(labels, i, j)))
        if i != head:
            idle.append(((i - 1) % n, i))
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=track_schedule(topology, tracks),
        idle_edges=tuple(sorted(idle)),
        candidates=candidates,
    )


# --------------------------------------------------------------------------
# free initial positions
# --------------------------------------------------------------------------


class TeamTables:
    """Optimal times for k freely placed robots on any stretch [i, j].

    ``tables[r][i][j]`` is the optimum for r robots, for each r below k on
    the doubling path to k, and ``parts[r]`` the (left, right) team sizes
    that made r.  On a line, row i holds j = 0 .. n-1, with zeros below i.
    On a ring, j runs on the doubled node order: row i holds j = i .. i+n-1
    (node j mod n), with zeros below i, and each table carries n more
    rows, row i+n being row i moved n places right, so a part that starts
    past node n-1 reads like any other.  One robot's part is never the
    whole ring, so ring rows of T[1] stop at j = i+n-2.  The k table
    itself is not built: ``value`` combines the last two on demand.
    """

    __slots__ = ("n", "k", "ring", "positions", "labels", "tables", "parts")

    def __init__(self, topology: Union[LineInstance, RingInstance], k: int):
        if k < 1:
            raise ValueError("need at least one robot")
        n = self.n = topology.n
        self.k = k
        self.ring = isinstance(topology, RingInstance)
        graph = StateGraph.of(topology)
        self.positions = topology.arc_positions() if self.ring else topology.coordinates
        self.labels = propagate(graph, init_start(graph, range(n)), topology.deadlines)
        self.tables = {1: self._doubled(self._one_robot())}
        b = k.bit_length() - 1
        steps = [(1 << (m - 1), 1 << (m - 1)) for m in range(1, b + 1)]
        r = 1 << b
        for m in range(1, b + 1):
            if (k >> (b - m)) & 1:
                p = 1 << (b - m)
                steps.append((p, r))
                r += p
        self.parts = {r1 + r2: (r1, r2) for r1, r2 in steps}
        for r1, r2 in steps[:-1]:
            self._combine(r1, r2)

    def _one_robot(self) -> list:
        """T[1] read off the label pass: per stretch the cheaper end, ties to L."""
        n = self.n
        time = self.labels.time
        inf = INFINITY
        rows = [[0] * (i + n - 1 if self.ring else n) for i in range(n)]
        for i in range(n):
            rows[i][i] = time[i]
        for layer in range(1, n - 1 if self.ring else n):
            ids = self.labels.graph.layer_ids(layer)
            pairs = time[ids.start:ids.stop]
            for i, (tl, tr) in enumerate(zip(pairs[0::2], pairs[1::2])):
                # identity tests keep INFINITY's Python-level comparisons out
                rows[i][i + layer] = tl if tr is inf or tl is not inf and tl <= tr else tr
        return rows

    def _doubled(self, rows: list) -> list:
        if not self.ring:
            return rows
        pad = [0] * self.n
        return rows + [pad + row for row in rows]

    def _combine(self, r1: int, r2: int):
        """Tabulate T[r1 + r2] with one split pointer per row.

        For row i, the first split s where row_a[s] >= rows_b[s + 1][j]
        never moves left as j grows, and the best split is s or s - 1.
        The minimum is the one ``best_split`` finds, in amortised O(1).
        """
        a = self.tables[r1]
        rows_b = self.tables[r2]
        n = self.n
        out = []
        for i in range(n):
            end = i + n if self.ring else n
            row_a = a[i]
            row = [0] * end
            lo = s = i + r1 - 1
            for j in range(i + r1 + r2, end):
                hi = j - r2
                left = row_a[s]
                right = rows_b[s + 1][j]
                while left < right and s < hi:
                    s += 1
                    left = row_a[s]
                    right = rows_b[s + 1][j]
                value = left if left >= right else right
                if s > lo:
                    left = row_a[s - 1]
                    right = rows_b[s][j]
                    other = left if left >= right else right
                    if other < value:
                        value = other
                row[j] = value
            out.append(row)
        self.tables[r1 + r2] = self._doubled(out)

    def value(self, i: int, j: int) -> ExactNumber:
        """Optimal time for all k robots on [i, j]."""
        if j - i + 1 <= self.k:
            return 0
        if self.k == 1:
            return self.tables[1][i][j]
        r1, r2 = self.parts[self.k]
        return opt_time(self.tables[r1], r1, self.tables[r2], r2, i, j)

    def rebuild_tracks(self, i: int, j: int, r: int, out: list):
        """Append one track per robot covering [i, j] with r robots."""
        n = self.n
        pos = self.positions
        count = j - i + 1
        if count <= r:
            for v in range(i, j + 1):
                out.append(RobotTrack(((0, pos[v % n]),)))
            for _ in range(r - count):
                out.append(RobotTrack(((0, pos[i % n]),)))
            return
        if r == 1:
            labels = self.labels
            out.append(RobotTrack(extract_trajectory(labels, best_target(labels, i % n, j % n))))
            return
        r1, r2 = self.parts[r]
        _, split = best_split(self.tables[r1][i], self.tables[r2], i + r1 - 1, j - r2, j)
        self.rebuild_tracks(i, split, r1, out)
        self.rebuild_tracks(split + 1, j, r2, out)

    def all_finite_values(self) -> set:
        """Every finite value a cell can take: each cell is 0 or the max of
        two cells one level down, so by induction 0 or a label value."""
        vals = {0}
        vals.update(self.labels.finite_values())
        return vals


def solve_free(
    topology: Union[LineInstance, RingInstance],
    k: int,
    collect_candidates: bool = False,
) -> Verdict:
    """Optimal exploration time and placement for k freely placed robots.

    A line reads the one stretch 0 .. n-1; a ring takes the first strict
    minimum over the stretches i .. i+n-1 of the doubled node order.
    """
    n = topology.n
    if k == 1:
        return solve_from(topology, range(n), collect_candidates)
    ring = isinstance(topology, RingInstance)
    solver = TeamTables(topology, k)
    candidates = tuple(sorted(solver.all_finite_values())) if collect_candidates else None
    best_i, optimum = 0, INFINITY
    for i in range(n if ring else 1):
        value = solver.value(i, i + n - 1)
        if value < optimum:
            best_i, optimum = i, value
    if optimum is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY, candidates=candidates)
    tracks: list = []
    solver.rebuild_tracks(best_i, best_i + n - 1, k, tracks)
    return Verdict(
        feasible=True,
        optimum=optimum,
        schedule=track_schedule(topology, tracks),
        candidates=candidates,
    )
