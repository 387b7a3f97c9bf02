"""Shared seeded instance generators and slow reference implementations
for the test suites."""

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from unittest.mock import patch

from roversweep import multi_line
from roversweep.exact import INFINITY, format_number, scale
from roversweep.fault_line import Plan, PlanTable, mask_antichain
from roversweep.instance import FIXED, FREE, LineInstance, ProblemSpec, RingInstance, StarInstance
from roversweep.oracle import CapExceeded, _placements, enumerate_walks, walk_track
from roversweep.ring import replicate_ring
from roversweep.schedule import RobotTrack, Verdict, track_schedule
from roversweep.single_robot import (
    init_start,
    interval_table,
    propagate,
    stretch_reader,
)
from roversweep.state_graph import LEFT, RIGHT, StateGraph


def optimal_time(labels, i, j):
    """Fastest deadline-respecting exploration of stretch [i, j]."""
    return stretch_reader(labels)(i, (j - i) % labels.graph.n)


def arcs_from(graph, uid):
    """(target id, weight, direction) of each out-arc of state ``uid``,
    clockwise first: the arcs that ``StateGraph.pulls`` reads backwards."""
    n = graph.n
    si, sj, side = graph.state_of(uid)
    pos = graph._positions
    offsets = graph.layer_offsets
    if graph.kind == "line":
        layer = sj - si
        here = pos[si] if (layer > 0 and side == LEFT) else pos[sj]
        if si > 0:
            yield offsets[layer + 1] + 2 * (si - 1) + LEFT, here - pos[si - 1], -1
        if sj < n - 1:
            yield offsets[layer + 1] + 2 * si + RIGHT, pos[sj + 1] - here, 1
        return
    layer = (sj - si) % n
    if layer == n - 1:
        return
    here = si if side == LEFT else sj
    tgt = (si - 1) % n  # clockwise extension
    yield offsets[layer + 1] + 2 * tgt + LEFT, _ccw(graph, tgt, here), -1
    tgt = (sj + 1) % n  # counterclockwise extension
    yield offsets[layer + 1] + 2 * si + RIGHT, _ccw(graph, here, tgt), 1


def _ccw(graph, a, b):
    """Counterclockwise arc length from node a to node b of a ring graph."""
    pos = graph._positions
    if b >= a:
        return pos[b] - pos[a]
    return graph._lap - (pos[a] - pos[b])


def scaled_verdict(verdict, c):
    """The verdict of the problem with every number multiplied by c > 0."""
    return Verdict(
        feasible=verdict.feasible,
        optimum=None if verdict.optimum is None else scale(verdict.optimum, c),
        schedule=None if verdict.schedule is None else verdict.schedule.scaled(c),
        witness=None if verdict.witness is None else {
            node: tuple((robot, scale(t, c)) for robot, t in visits)
            for node, visits in verdict.witness.items()
        },
        idle_edges=verdict.idle_edges,
    )


def random_line(rng, min_n=1, max_n=8, deadline_prob=0.5, integral=False):
    n = rng.randint(min_n, max_n)
    coords = [Fraction(0)] if not integral else [0]
    for _ in range(n - 1):
        step = rng.randint(1, 6) if integral else Fraction(rng.randint(1, 8), rng.choice((1, 2)))
        coords.append(coords[-1] + step)
    span = coords[-1] if n > 1 else 1
    deadlines = []
    for _ in range(n):
        if rng.random() >= deadline_prob:
            deadlines.append(INFINITY)
        elif integral:
            deadlines.append(rng.randint(0, 3 * span))
        else:
            deadlines.append(Fraction(rng.randint(0, int(4 * span)), rng.choice((1, 2))))
    return LineInstance(tuple(coords), tuple(deadlines))


def random_ring(rng, min_n=2, max_n=6, deadline_prob=0.5):
    n = rng.randint(min_n, max_n)
    weights = tuple(rng.randint(1, 4) for _ in range(n))
    total = sum(weights)
    deadlines = tuple(
        INFINITY
        if rng.random() >= deadline_prob
        else Fraction(rng.randint(0, 2 * total), rng.choice((1, 2)))
        for _ in range(n)
    )
    return RingInstance(weights, deadlines)


def random_star(rng, min_q=1, max_q=7, deadline_prob=0.8, fractional=False):
    q = rng.randint(min_q, max_q)
    weights = tuple(
        Fraction(rng.randint(1, 10), rng.choice((1, 2, 3))) if fractional else rng.randint(1, 5)
        for _ in range(q)
    )
    bound = int(3 * sum(weights))
    deadlines = tuple(
        rng.randint(1, bound) if rng.random() < deadline_prob else INFINITY for _ in range(q)
    )
    center = INFINITY if rng.random() < 0.5 else rng.randint(0, bound)
    return StarInstance(weights, deadlines, center)


def star_single_robot(star: StarInstance) -> Verdict:
    """Feasibility check for one robot starting at the center.

    Visits leaves in nondecreasing deadline-plus-weight order (smaller
    index first on ties).  Either this order meets every leaf deadline or
    no order does; the claim is validated empirically against the
    permutation oracle in test_reductions.
    """
    q = star.q
    order = sorted(range(q), key=lambda i: (star.leaf_deadlines[i] + star.leaf_weights[i], i))
    t = 0
    waypoints = [(0, star.center)]
    for idx, leaf in enumerate(order):
        arrive = t + star.leaf_weights[leaf]
        if arrive > star.leaf_deadlines[leaf]:
            return Verdict(feasible=False, optimum=INFINITY)
        waypoints.append((arrive, leaf))
        if idx < q - 1:
            t = arrive + star.leaf_weights[leaf]
            waypoints.append((t, star.center))
        else:
            t = arrive
    schedule = track_schedule(star, (RobotTrack(tuple(waypoints)),))
    return Verdict(feasible=True, optimum=t, schedule=schedule)


def _star_plans(star, start, cutoff):
    """(on-time node mask, end of motion) of every plan of one robot that
    starts at ``start``, as a dominance antichain.

    A plan tours a set of leaves in some order, through the center, and
    stops at its last leaf; a robot on a leaf with nothing to tour may
    also walk to the center.  Visits count when at or before ``cutoff``.
    """
    q = star.q
    w = star.leaf_weights
    center = star.center
    off = 0 if start == center else w[start]
    home = 1 << start

    def on_time(v, t):
        return (1 << v) if t <= cutoff[v] else 0

    best = {home: 0}
    if start != center:
        walk = home | on_time(center, off)
        best[walk] = min(best.get(walk, off), off)
    others = [leaf for leaf in range(q) if leaf != start]
    for size in range(1, len(others) + 1):
        for order in itertools.permutations(others, size):
            mask = home | on_time(center, off)
            t = off
            for idx, leaf in enumerate(order):
                if idx:
                    t += w[order[idx - 1]]  # back to the center
                t += w[leaf]
                mask |= on_time(leaf, t)
            if t < best.get(mask, INFINITY):
                best[mask] = t
    return [
        (m, t) for m, t in best.items()
        if not any(m2 != m and m2 & m == m and t2 <= t for m2, t2 in best.items())
    ]


def star_brute(star, placement, k, f=0, delta=None):
    """Exact star optimum by enumeration, independent of the subset DP.

    Tries every start tuple the placement allows (repeats included for
    free and subset placements), and for every robot every set of leaves
    and every visiting order; a node is served when f+1 distinct robots
    reach it by min(deadline, delta).  The optimum is the least time by
    which every robot has stopped.  Meant for q <= 6 and k <= 2.
    """
    q = star.q
    if q > 6 or k > 2:
        raise CapExceeded("the star enumerator caps at q <= 6, k <= 2")
    cutoff = star.leaf_deadlines + (star.center_deadline,)
    if delta is not None:
        cutoff = tuple(min(d, delta) for d in cutoff)
    full = (1 << (q + 1)) - 1
    need = f + 1
    if placement.mode == FIXED:
        start_sets = [placement.positions]
    else:
        pool = range(q + 1) if placement.mode == FREE else placement.allowed
        start_sets = itertools.combinations_with_replacement(pool, k)
    plans = {}
    best = INFINITY
    for starts in start_sets:
        for s in starts:
            if s not in plans:
                plans[s] = _star_plans(star, s, cutoff)
        for combo in itertools.product(*(plans[s] for s in starts)):
            served = 0
            for group in itertools.combinations([m for m, _ in combo], need):
                both = full
                for m in group:
                    both &= m
                served |= both
            if served == full:
                end = max(t for _, t in combo)
                if end < best:
                    best = end
    if best is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY)
    return Verdict(feasible=True, optimum=best)


def line_span(line):
    """Distance between the two end nodes of a line."""
    return line.coordinates[-1] - line.coordinates[0]


def ring_from_line(spec):
    """The line of ``spec`` closed into a ring by an edge of weight
    bound + 1, with the same deadlines, robots, faults and bound.  No
    on-time plan crosses an edge longer than the bound, so every robot
    keeps the plans it has on the line."""
    x = spec.topology.coordinates
    gaps = tuple(b - a for a, b in zip(x, x[1:]))
    ring = RingInstance(gaps + (spec.bound + 1,), spec.topology.deadlines)
    return ProblemSpec(ring, spec.placement, spec.faults, spec.bound)


def fixed_positions(rng, n, k, allow_duplicates):
    if allow_duplicates:
        return tuple(sorted(rng.choices(range(n), k=k)))
    k = min(k, n)
    return tuple(sorted(rng.sample(range(n), k)))


def walk_plans(topology, p, delta):
    """The plans of a robot at p from an arc growth bounded by ``delta``."""
    return PlanTable(topology, p, delta).plans(delta)


def profile_plans(topology, p_idx, delta):
    """Reference plans of a robot at ``p_idx`` on a line or ring: the
    antichain of on-time coverage of all its walks within ``delta``."""
    n = topology.n
    plans = []
    for walk in enumerate_walks(topology, p_idx, delta, (INFINITY,) * n):
        mask = 0
        for v in range(n):
            t = walk.first_visit[v]
            if t is not None and t <= topology.deadlines[v] and t <= delta:
                mask |= 1 << v
        plans.append(Plan(mask=mask, track=walk_track(walk)))
    return mask_antichain(plans)


def reach_chain_decide(ring, positions, f, delta):
    """The published farthest-reach chain for fixed robots on a faulty ring.

    Kept only so that a test can pin its flaw.  On the ring made of f+1
    copies, P(i) is the farthest counterclockwise reach from node i that
    some permitted start copy explores within delta; the chain accepts
    when one start explores the whole replication, or when, from some cut
    among the first n edges, at most k greedy farthest reaches cover it.
    Nothing stops two of those reaches from being copies of one physical
    robot, so the chain over-accepts.
    """
    positions = tuple(sorted(positions))
    k = len(positions)
    n = ring.n
    big = replicate_ring(ring, f)
    big_n = big.n
    graph = StateGraph.from_ring(big)
    labels = init_start(graph, replicated_starts(ring, f, positions))
    propagate(graph, labels, big.deadlines)
    if any(labels.time[uid] <= delta for uid in graph.terminal_ids()):
        return True
    # time tables with restricted starts are not containment-monotone (a
    # longer segment may admit a better start), so every length is scanned
    reach = [None] * big_n
    for i in range(big_n):
        for ell in range(big_n - 1):
            if optimal_time(labels, i, (i + ell) % big_n) <= delta:
                reach[i] = ell
    for cut in range(n):
        head = (cut + 1) % big_n
        pos = 0
        for _ in range(k):
            ell = reach[(head + pos) % big_n]
            if ell is None:
                break
            pos += ell + 1
            if pos >= big_n:
                return True
    return False


def window_ids(graph, window):
    """Ids of the states whose stretch lies strictly inside the open interval
    (lo, hi), read counterclockwise on rings, layer by layer."""
    lo, hi = window
    n = graph.n
    if graph.kind == "line":
        for layer in range(n):
            for i in range(max(lo + 1, 0), min(hi - 1 - layer, n - 1 - layer) + 1):
                if layer == 0:
                    yield i
                else:
                    yield graph.id_of(i, i + layer, 0)
                    yield graph.id_of(i, i + layer, 1)
        return
    room = (hi - lo - 1) % n  # nodes strictly inside the ccw interval
    for layer in range(min(room, n - 1)):  # windows never include full coverage
        for off in range(1, room - layer + 1):
            i = (lo + off) % n
            if layer == 0:
                yield i
            else:
                yield graph.id_of(i, (i + layer) % n, 0)
                yield graph.id_of(i, (i + layer) % n, 1)


def push_labels(graph, starts, deadlines, window=None):
    """Reference label pass: relax every out-arc of ``arcs_from`` once, in
    id order (within a window, in ``window_ids`` order), keeping the
    first-found parent on ties.  Returns (time, parent) lists."""
    time = [INFINITY] * graph.node_count
    parent = [-1] * graph.node_count
    for s in starts:
        time[s] = 0
    order = range(graph.node_count) if window is None else window_ids(graph, window)
    for u in order:
        if time[u] is INFINITY:
            continue
        for v, w, _ in arcs_from(graph, u):
            t = time[u] + w
            st = graph.state_of(v)
            new = st.left if st.side == 0 else st.right  # the node visited on arrival
            if t <= deadlines[new] and (time[v] is INFINITY or t < time[v]):
                time[v] = t
                parent[v] = u
    return time, parent


def own_line_passes(topology, positions):
    """(verdict, [labels, ...]) of ``solve_fixed``: the label pass of each
    robot, in position order, on the graph of its own line."""
    with patch.object(multi_line, "propagate", wraps=multi_line.propagate) as spy:
        verdict = multi_line.solve_fixed(topology, positions)
    return verdict, [call.args[1] for call in spy.call_args_list]


def assert_own_lines_equal_push(topology, positions):
    """Each robot's own-line labels in ``solve_fixed`` equal, state for
    state (time and parent), ``push_labels`` over the whole graph kept to
    the robot's window; the own line holds the window's states and no
    other."""
    positions = sorted(positions)
    n, k = topology.n, len(positions)
    full = StateGraph.of(topology)
    ring = full.kind == "ring"
    _, passes = own_line_passes(topology, positions)
    assert len(passes) == k
    for m, (p, labels) in enumerate(zip(positions, passes)):
        window = (positions[m - 1] if ring or m else -1,
                  positions[(m + 1) % k] if ring or m < k - 1 else n)
        ref_time, ref_parent = push_labels(full, [p], topology.deadlines, window)
        own = labels.graph
        first = (window[0] + 1) % n

        def local(uid):
            i, j, side = full.state_of(uid)
            return own.id_of((i - first) % n, (j - first) % n, side)

        inside = list(window_ids(full, window))
        assert sorted(map(local, inside)) == list(range(own.node_count))
        for uid in inside:
            v = local(uid)
            assert labels.time[v] == ref_time[uid], (topology, positions, m, full.state_of(uid))
            parent = ref_parent[uid]
            assert labels.parent[v] == (-1 if parent < 0 else local(parent))


def naive_team_tables(line, k_max):
    """Reference DP for free-placement teams: split on every index, O(k n^3).

    Returns tables[r][i][j] = optimal time for r freely placed robots to
    explore [i, j], built by peeling one robot off the right side.
    """
    n = line.n
    base = interval_table(line, range(n))
    t1 = [[optimal_time(base, i, j) if j >= i else 0 for j in range(n)] for i in range(n)]
    tables = {1: t1}
    for r in range(2, k_max + 1):
        prev = tables[r - 1]
        cur = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if j - i + 1 <= r:
                    cur[i][j] = 0
                    continue
                best = INFINITY
                for m in range(i, j + 1):
                    left = prev[i][m]
                    right = t1[m + 1][j] if m + 1 <= j else 0
                    cand = max(left, right)
                    if cand < best:
                        best = cand
                cur[i][j] = best
        tables[r] = cur
    return tables


def finite_count(labels):
    """Number of states a label pass reached."""
    return sum(1 for t in labels.time if t is not INFINITY)


def state_time(labels, i, j, side):
    """Label of the state (i, j, side)."""
    return labels.time[labels.graph.id_of(i, j, side)]


def layer_of(graph, uid):
    """Number of edges of the stretch a state has explored."""
    st = graph.state_of(uid)
    return (st.right - st.left) % graph.n


def graph_dump(graph):
    """One arc per line, for golden-file comparisons."""
    def said(uid):
        left, right, side = graph.state_of(uid)
        return f"({left},{right},{'L' if side == LEFT else 'R'})"

    lines = []
    for u in range(graph.node_count):
        for v, weight, _ in arcs_from(graph, u):
            lines.append(f"{said(u)} -> {said(v)} w={format_number(weight)}")
    return "\n".join(lines)


def idle_edge_split_scan(starts, n, part_time):
    """``multi_line.idle_edge_split`` by scanning every split point for
    every right end, O(n * gap) reads: the reference for its crossing
    pointer.  Ties go to the smallest split point."""
    prefix = [INFINITY] * n
    choice = [None] * n
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
            if right is INFINITY:
                continue
            cand = left if left >= right else right
            if best is INFINITY or cand < best:
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


def line_visits_scan(nodes, track):
    """``oracle._coordinate_visits`` on a line by testing every node
    against every segment, the start included: O(segments * n)."""
    first = {}
    wps = track.waypoints
    for (t1, x1), (_, x2) in itertools.chain([(wps[0], wps[0])], zip(wps, wps[1:])):
        for v, c in enumerate(nodes):
            if min(x1, x2) <= c <= max(x1, x2):
                t = t1 + abs(c - x1)
                if v not in first or t < first[v]:
                    first[v] = t
    return first


def ring_visits_scan(nodes, total, track):
    """``oracle._coordinate_visits`` on a ring by lifting every node into
    every segment: the lifts c + m * total inside [lo, hi], O(segments * n)
    divisions."""
    first = {}
    wps = track.waypoints
    for (t1, x1), (_, x2) in itertools.chain([((0, wps[0][1]), (0, wps[0][1]))], zip(wps, wps[1:])):
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
        for v, c in enumerate(nodes):
            for m in range(math.ceil((lo - c) / total), math.floor((hi - c) / total) + 1):
                y = c + m * total
                t = t1 + (y - x1 if y >= x1 else x1 - y)
                if v not in first or t < first[v]:
                    first[v] = t
    return first


def copy_of(n, i):
    """The base node of node i of a ring of n nodes replicated."""
    return i % n


def replicated_starts(ring, f, starts):
    """Every copy of ``starts`` on the ring replicated f+1 times, sorted."""
    n = ring.n
    return tuple(sorted({p + t * n for p in starts for t in range(f + 1)}))


def n3dm_brute_force(a_values, b_values, c_values, target):
    """Decide N3DM directly by trying both pairing permutations."""
    q = len(a_values)
    for perm_b in itertools.permutations(range(q)):
        partial_ok = all(a_values[i] + b_values[perm_b[i]] < target for i in range(q))
        if not partial_ok:
            continue
        for perm_c in itertools.permutations(range(q)):
            if all(
                a_values[i] + b_values[perm_b[i]] + c_values[perm_c[i]] == target
                for i in range(q)
            ):
                return True
    return False


def partition_brute_force(values):
    """Decide Partition by a bitset of reachable subset sums."""
    total = sum(values)
    if total % 2 != 0:
        return False
    half = total // 2
    reachable = 1  # bitset over sums
    for v in values:
        reachable |= reachable << v
    return bool((reachable >> half) & 1)


def brute_solve_alt(spec):
    """Second, independently coded enumerator (tiny caps, no pruning).

    Cross-checks brute_solve; walks come from a breadth-first expansion
    instead of the depth-first recursion, and tuples are evaluated by a
    plain product scan.
    """
    top = spec.topology
    n = top.n
    k = spec.k
    if n > 6 or k > 3:
        raise CapExceeded("alternate enumerator caps at n <= 6, k <= 3")
    need = spec.faults + 1
    deadlines = top.deadlines
    bound = spec.bound
    is_line = isinstance(top, LineInstance)

    def ccw_dist(a, b):
        return sum(top.edge_weights[(a + t) % n] for t in range((b - a) % n))

    def expand(start):
        # states: (covered frozenset, boundary pair, at_left, time, fv dict)
        if is_line:
            init = (start, start, True, 0, ((start, 0),))
        else:
            init = (start, start, False, 0, ((start, 0),))
        frontier = [init]
        finished = []
        while frontier:
            nxt = []
            for lo, hi, at_left, t, fv in frontier:
                moves = []
                if is_line:
                    pos = top.coordinates[lo] if at_left else top.coordinates[hi]
                    if lo > 0:
                        moves.append((lo - 1, hi, True, t + (pos - top.coordinates[lo - 1])))
                    if hi < n - 1:
                        moves.append((lo, hi + 1, False, t + (top.coordinates[hi + 1] - pos)))
                else:
                    size = (hi - lo) % n + 1
                    if size < n:
                        here = lo if at_left else hi
                        d_ccw = ccw_dist(here, hi) + top.edge_weights[hi]
                        d_cw = ccw_dist(lo, here) + top.edge_weights[(lo - 1) % n]
                        moves.append(((lo - 1) % n, hi, True, t + d_cw))
                        moves.append((lo, (hi + 1) % n, False, t + d_ccw))
                if not moves:
                    finished.append(fv)
                    continue
                for nlo, nhi, nat_left, nt in moves:
                    new_node = nlo if nat_left else nhi
                    nxt.append((nlo, nhi, nat_left, nt, fv + ((new_node, nt),)))
            frontier = nxt
        return [dict(fv) for fv in finished]

    best = [INFINITY]
    for placement in _placements(spec):
        plan_lists = [expand(p) for p in placement]
        for combo in itertools.product(*plan_lists):
            worst = 0
            ok = True
            for v in range(n):
                times = []
                for fv in combo:
                    t = fv.get(v)
                    if t is not None and t <= deadlines[v] and (bound is None or t <= bound):
                        times.append(t)
                times.sort()
                if len(times) < need:
                    ok = False
                    break
                if times[need - 1] > worst:
                    worst = times[need - 1]
            if ok and worst < best[0]:
                best[0] = worst
    if best[0] is INFINITY:
        return Verdict(feasible=False, optimum=INFINITY)
    return Verdict(feasible=True, optimum=best[0])
