import random
from array import array
from fractions import Fraction

import pytest

from support import (
    arcs_from,
    assert_own_lines_equal_push,
    graph_dump,
    layer_of,
    push_labels,
    random_line,
    random_ring,
)
from roversweep.exact import INFINITY
from roversweep.instance import LineInstance, RingInstance
from roversweep.single_robot import extract_trajectory, init_start, propagate
from roversweep.state_graph import LEFT, RIGHT, StateGraph

GOLDEN_LINE_DUMP = """\
(0,0,R) -> (0,1,R) w=1
(1,1,R) -> (0,1,L) w=1
(1,1,R) -> (1,2,R) w=2
(2,2,R) -> (1,2,L) w=2
(0,1,L) -> (0,2,R) w=3
(0,1,R) -> (0,2,R) w=2
(1,2,L) -> (0,2,L) w=1
(1,2,R) -> (0,2,L) w=3"""


def test_single_node_line():
    g = StateGraph.from_line(LineInstance((0,), (INFINITY,)))
    assert g.node_count == 1
    assert g.arc_count == 0
    assert list(g.terminal_ids()) == [0]


def test_layer_counts_for_five_nodes():
    g = StateGraph.from_line(LineInstance(tuple(range(5)), (INFINITY,) * 5))
    assert g.node_count == 25
    assert [len(g.layer_ids(layer)) for layer in range(5)] == [5, 8, 6, 4, 2]


def test_size_law_up_to_fifty():
    for n in range(1, 51):
        g = StateGraph.from_line(LineInstance(tuple(range(n)), (INFINITY,) * n))
        assert g.node_count == n * n
        for layer in range(1, n):
            assert len(g.layer_ids(layer)) == 2 * (n - layer)


def test_golden_arc_dump():
    g = StateGraph.from_line(LineInstance((0, 1, 3), (INFINITY,) * 3))
    assert graph_dump(g) == GOLDEN_LINE_DUMP


def test_specific_arcs_and_non_arcs():
    g = StateGraph.from_line(LineInstance((0, 1, 3), (INFINITY,) * 3))
    arcs = {(u, v): w for u in range(g.node_count) for v, w, _ in arcs_from(g, u)}
    assert arcs[(g.id_of(0, 1, RIGHT), g.id_of(0, 2, RIGHT))] == 2
    assert (g.id_of(0, 1, RIGHT), g.id_of(0, 2, LEFT)) not in arcs
    assert arcs[(g.id_of(1, 1), g.id_of(1, 2, RIGHT))] == 2
    assert arcs[(g.id_of(1, 2, RIGHT), g.id_of(0, 2, LEFT))] == 3


def test_every_non_source_has_incoming_and_layers_are_consecutive():
    rng = random.Random(3)
    for _ in range(25):
        line = random_line(rng, max_n=9)
        g = StateGraph.from_line(line)
        indeg = [0] * g.node_count
        for u in range(g.node_count):
            lu = layer_of(g, u)
            for v, w, _ in arcs_from(g, u):
                assert layer_of(g, v) == lu + 1
                assert w > 0
                indeg[v] += 1
            assert len(list(arcs_from(g, u))) <= 2
        for v in range(g.n, g.node_count):
            assert indeg[v] >= 1
        assert max(indeg) <= 2


def test_arc_weights_are_exact_walk_distances():
    rng = random.Random(5)
    for _ in range(25):
        line = random_line(rng, max_n=8)
        g = StateGraph.from_line(line)
        for u in range(g.node_count):
            pu = g.position(u)
            for v, w, direction in arcs_from(g, u):
                pv = g.position(v)
                assert w == abs(pv - pu)
                assert w == direction * (pv - pu)


def test_ring_two_nodes():
    g = StateGraph.from_ring(RingInstance((1, 1), (INFINITY, INFINITY)))
    assert [g.state_of(uid) for uid in g.layer_ids(0)] == [(0, 0, RIGHT), (1, 1, RIGHT)]
    assert g.layer_ids(1) == g.terminal_ids()
    # every writing of the whole ring: the robot stands on node i at [i, i + 1]@L, on 1 - i at @R
    assert [g.state_of(uid) for uid in g.terminal_ids()] == [(0, 1, LEFT), (0, 1, RIGHT),
                                                           (1, 0, LEFT), (1, 0, RIGHT)]


def test_ring_five_nodes_structure():
    g = StateGraph.from_ring(RingInstance((1,) * 5, (INFINITY,) * 5))
    sizes = [len(g.layer_ids(layer)) for layer in range(5)]
    assert sizes == [5, 10, 10, 10, 10]
    assert g.node_count == 5 + 2 * 5 * 4
    for uid in g.terminal_ids():
        st = g.state_of(uid)
        assert (st.right - st.left) % 5 == 4  # whole ring explored


def test_unit_ring_both_directions_from_source():
    g = StateGraph.from_ring(RingInstance((1, 1, 1), (INFINITY,) * 3))
    weights = sorted(w for _, w, _ in arcs_from(g, g.id_of(0, 0)))
    assert weights == [1, 1]


def test_ring_arc_weights_match_walk_distances():
    rng = random.Random(9)
    for _ in range(20):
        ring = random_ring(rng, max_n=6)
        g = StateGraph.from_ring(ring)
        total = ring.lap
        for u in range(g.node_count):
            pu = g.position(u)
            for v, w, direction in arcs_from(g, u):
                pv = g.position(v)
                # unwrapped displacement matches the declared direction
                if direction == 1:
                    assert (pv - pu) % total == w % total
                else:
                    assert (pu - pv) % total == w % total
                assert 0 < w


def _assert_pull_equals_push(graph, deadlines, starts, lap=None):
    labels = propagate(graph, init_start(graph, starts), deadlines)
    ref_time, ref_parent = push_labels(graph, starts, deadlines)
    assert labels.time == ref_time
    assert list(labels.parent) == ref_parent
    ref = init_start(graph, starts)
    ref.time[:] = ref_time
    ref.parent[:] = array("q", ref_parent)
    for uid, t in enumerate(ref_time):
        if t is INFINITY:
            continue
        waypoints = extract_trajectory(labels, uid)
        assert waypoints == extract_trajectory(ref, uid)
        root = uid
        while ref_parent[root] >= 0:
            root = ref_parent[root]
        assert waypoints[0] == (0, graph.position(root))
        assert waypoints[-1][0] == t
        end = waypoints[-1][1] - graph.position(uid)
        assert (end == 0) if lap is None else (end % lap == 0)
        for (t0, x0), (t1, x1) in zip(waypoints, waypoints[1:]):
            assert abs(x1 - x0) == t1 - t0 > 0


def _ring_with_fraction_weights(rng, ring):
    if rng.random() < 0.5:
        return ring
    weights = tuple(Fraction(w, rng.choice((1, 2, 3))) for w in ring.edge_weights)
    return RingInstance(weights, ring.deadlines)


@pytest.mark.parametrize("integral", [True, False])
def test_pull_pass_equals_push_relaxation_on_lines(integral):
    rng = random.Random(31 + integral)
    for _ in range(100):
        line = random_line(rng, max_n=9, deadline_prob=rng.choice((0, 0.5, 0.9)),
                           integral=integral)
        n = line.n
        g = StateGraph.from_line(line)
        _assert_pull_equals_push(g, line.deadlines, [rng.randrange(n)])
        _assert_pull_equals_push(g, line.deadlines, sorted(rng.sample(range(n), rng.randint(1, n))))
        if n > 1:  # fixed robots, each on the line between its neighbours
            assert_own_lines_equal_push(line, rng.sample(range(n), rng.randint(2, n)))
        assert g.arc_count == sum(len(list(arcs_from(g, u))) for u in range(g.node_count))


def test_pull_pass_equals_push_relaxation_on_rings():
    rng = random.Random(37)
    seen_equal_ends = seen_two = seen_wrap = False
    for _ in range(120):
        ring = _ring_with_fraction_weights(
            rng, random_ring(rng, max_n=9, deadline_prob=rng.choice((0, 0.5, 0.9))))
        n = ring.n
        g = StateGraph.from_ring(ring)
        lap = ring.lap
        _assert_pull_equals_push(g, ring.deadlines, [rng.randrange(n)], lap=lap)
        _assert_pull_equals_push(g, ring.deadlines, sorted(rng.sample(range(n), rng.randint(1, n))),
                                 lap=lap)
        pulled, _ = _pulled(g, range(n), ring.deadlines)  # every start: a full live range
        assert len(pulled) == len(set(pulled))
        # fixed robots, each on the ccw arc between its neighbours
        positions = sorted(rng.sample(range(n), rng.randint(2, n)))
        assert_own_lines_equal_push(ring, positions)
        seen_equal_ends |= len(positions) == 2  # the window is every node but one
        seen_two |= n == 2
        seen_wrap |= 0 < positions[0] and positions[-1] < n - 1  # the first window passes node 0
        assert g.arc_count == sum(len(list(arcs_from(g, u))) for u in range(g.node_count))
    assert seen_equal_ends and seen_two and seen_wrap
    for n in range(2, 9):  # no two arcs join the same pair of states
        g = StateGraph.from_ring(RingInstance((1,) * n, (INFINITY,) * n))
        pairs = [(u, v) for u in range(g.node_count) for v, _, _ in arcs_from(g, u)]
        assert len(pairs) == len(set(pairs)) == g.arc_count


def _pulled(graph, starts, deadlines):
    """The ids ``pulls`` hands out, in order, with the reference labels
    written back batch by batch as ``propagate`` would write its own."""
    ref_time, _ = push_labels(graph, starts, deadlines)
    time = init_start(graph, starts).time
    pulled = []
    for batch in graph.pulls(time, deadlines):
        for v in batch.to:
            time[v] = ref_time[v]
            pulled.append(v)
    return pulled, ref_time


def test_one_start_on_a_deadline_free_line_pulls_only_reachable_states():
    # without deadlines the states reachable from p are the stretches that
    # hold p, less those that end with the robot back on p; nothing else
    # may be pulled, and every one of them exactly once
    rng = random.Random(41)
    for n in range(1, 12):
        line = LineInstance(tuple(range(0, 2 * n, 2)), (INFINITY,) * n)
        g = StateGraph.from_line(line)
        for p in {0, n - 1, rng.randrange(n)}:
            pulled, ref_time = _pulled(g, [p], line.deadlines)
            holding = {g.id_of(i, j, side) for i in range(p + 1) for j in range(max(p, i + 1), n)
                       for side in (LEFT, RIGHT) if (i, side) != (p, LEFT) and (j, side) != (p, RIGHT)}
            assert sorted(pulled) == sorted(holding)
            assert holding == {uid for uid in range(n, g.node_count) if ref_time[uid] is not INFINITY}


def test_narrowed_pass_equals_push_relaxation_at_the_edges_of_the_range():
    rng = random.Random(43)
    for _ in range(60):
        ring = _ring_with_fraction_weights(rng, random_ring(rng, max_n=9, deadline_prob=0.5))
        n = ring.n
        g = StateGraph.from_ring(ring)
        free = RingInstance(ring.edge_weights, (INFINITY,) * n)
        for topology in (ring, free):
            for starts in ([0], [n - 1], [n - 1, 0], [n - 2, 1] if n > 3 else [1, 0]):
                _assert_pull_equals_push(g, topology.deadlines, sorted(starts), lap=ring.lap)
            p = rng.randrange(n)  # two robots: the other's window is every node but p
            for start in ((p + 1) % n, (p - 1) % n):
                assert_own_lines_equal_push(topology, [p, start])
    for n in (1, 2):
        for deadlines in ((INFINITY,) * n, (0,) * n, (1,) * n):
            line = LineInstance(tuple(range(n)), deadlines)
            g = StateGraph.from_line(line)
            for p in range(n):
                _assert_pull_equals_push(g, deadlines, [p])
            if n == 2:
                assert_own_lines_equal_push(line, [0, 1])
                ring = RingInstance((1, 2), deadlines)
                g = StateGraph.from_ring(ring)
                for starts in ([0], [1], [0, 1]):
                    _assert_pull_equals_push(g, deadlines, starts, lap=3)
                assert_own_lines_equal_push(ring, [0, 1])


def test_a_dead_layer_ends_the_pass():
    # a deadline cap below the time to reach the far end leaves a layer with
    # no finite label mid-pass: the pass matches the reference and pulls
    # nothing past that layer
    rng = random.Random(47)
    seen_lines = seen_rings = 0
    for _ in range(150):
        if rng.random() < 0.5:
            topology = random_line(rng, min_n=4, max_n=12, deadline_prob=0.4, integral=True)
            lap = None
        else:
            topology = random_ring(rng, min_n=4, max_n=12, deadline_prob=0.4)
            lap = topology.lap
        n = topology.n
        cap = rng.randint(1, 8)
        deadlines = tuple(cap if d is INFINITY or d > cap else d for d in topology.deadlines)
        g = StateGraph.of(topology)
        starts = sorted(rng.sample(range(n), rng.choice((1, 1, 2))))
        _assert_pull_equals_push(g, deadlines, starts, lap=lap)
        pulled, ref_time = _pulled(g, starts, deadlines)
        dead = [layer for layer in range(n)
                if all(ref_time[uid] is INFINITY for uid in g.layer_ids(layer))]
        if dead:
            assert all(layer_of(g, uid) <= dead[0] for uid in pulled)
            if lap is None:
                seen_lines += 1
            else:
                seen_rings += 1
    assert seen_lines >= 20 and seen_rings >= 20
