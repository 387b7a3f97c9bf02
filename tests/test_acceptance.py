"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 8 compares the fixed-position faulty-ring decision with
exhaustive search and reports every disagreement; the published reach-chain
recurrence failed it (it can assign two copies of one physical robot), the
exact search that replaced it passes (see notes in the README).
"""

import itertools
import random
import time
from fractions import Fraction

from support import (
    fixed_positions,
    n3dm_brute_force,
    naive_team_tables,
    partition_brute_force,
    random_line,
    random_ring,
    random_star,
    replicated_starts,
    star_single_robot,
)
from roversweep.exact import INFINITY
from roversweep.fault_line import solve_free_faulty
from roversweep.instance import (
    FIXED,
    FREE,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
)
from roversweep.multi_line import solve_fixed, solve_free
from roversweep.oracle import (
    Caps,
    enumerate_walks,
    verify_schedule,
)
from roversweep.reductions import (
    line_from_n3dm,
    star_exact,
    star_from_partition,
)
from roversweep.ring import (
    decide_ring_fixed_faulty,
    replicate_ring,
    solve_ring_fixed,
)
from roversweep.single_robot import init_start, propagate, solve_fixed_start
from roversweep.state_graph import StateGraph
from roversweep.fault_line import decide_fixed_faulty

WIDE_CAPS = Caps(max_n=500, max_k=8, max_f=7)


def report(number: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# -------------------------------------------------------------------------
# 1. state-graph size law
# -------------------------------------------------------------------------


def test_criterion_01_state_graph_size_law():
    started = time.monotonic()
    ok = True
    for n in range(1, 51):
        g = StateGraph.from_line(LineInstance(tuple(range(n)), (INFINITY,) * n))
        ok &= g.node_count == n * n
        ok &= all(len(g.layer_ids(layer)) == 2 * (n - layer) for layer in range(1, n))
    elapsed = time.monotonic() - started
    report(1, ok and elapsed < 1, f"n=1..50 node count n^2, layers 2(n-j); {elapsed:.2f}s")
    assert ok
    assert elapsed < 1


# -------------------------------------------------------------------------
# 2. single robot equals walk enumeration
# -------------------------------------------------------------------------


def _walk_optimum(line, start):
    best = INFINITY
    for walk in enumerate_walks(line, start):
        if all(t is not None for t in walk.first_visit):
            best = min(best, walk.completion)
    return best


def test_criterion_02_single_robot_oracle_equivalence():
    rng = random.Random(1002)
    started = time.monotonic()
    mismatches = 0
    for _ in range(500):
        line = random_line(rng, max_n=8)
        start = rng.randrange(line.n)
        if solve_fixed_start(line, start).optimum != _walk_optimum(line, start):
            mismatches += 1
    elapsed = time.monotonic() - started
    report(2, mismatches == 0 and elapsed < 30,
           f"500 random lines, {mismatches} mismatches; {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30


# -------------------------------------------------------------------------
# 3. fixed teams equal brute force, schedules verify and stay disjoint
# -------------------------------------------------------------------------


def _brute_fixed(line, positions):
    n, k = line.n, len(positions)
    best = INFINITY
    for cuts in itertools.combinations(range(n - 1), k - 1):
        bounds = [-1, *cuts, n - 1]
        worst = 0
        ok = True
        for r in range(k):
            i, j = bounds[r] + 1, bounds[r + 1]
            if not i <= positions[r] <= j:
                ok = False
                break
            sub = LineInstance(line.coordinates[i : j + 1], line.deadlines[i : j + 1])
            t = INFINITY
            for walk in enumerate_walks(sub, positions[r] - i):
                if all(v is not None for v in walk.first_visit):
                    t = min(t, walk.completion)
            if t is INFINITY:
                ok = False
                break
            worst = max(worst, t)
        if ok:
            best = min(best, worst)
    return best


def test_criterion_03_fixed_team_equivalence():
    rng = random.Random(1003)
    started = time.monotonic()
    mismatches = 0
    schedule_failures = 0
    for _ in range(500):
        line = random_line(rng, min_n=2, max_n=8)
        k = rng.randint(1, min(3, line.n))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=False)
        verdict = solve_fixed(line, positions)
        if verdict.optimum != _brute_fixed(line, positions):
            mismatches += 1
            continue
        if not verdict.feasible:
            continue
        spec = ProblemSpec(line, RobotPlacement(FIXED, positions=positions), 0, None)
        rep = verify_schedule(spec, verdict.schedule)
        spans = []
        for track in verdict.schedule.tracks:
            xs = [x for _, x in track.waypoints]
            spans.append((min(xs), max(xs)))
        disjoint = all(hi1 < lo2 for (_, hi1), (lo2, _) in zip(spans, spans[1:]))
        if not (rep.passed and rep.makespan == verdict.optimum and disjoint):
            schedule_failures += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and schedule_failures == 0 and elapsed < 120
    report(3, ok, f"500 random teams, {mismatches} value mismatches, "
                  f"{schedule_failures} schedule failures; {elapsed:.1f}s")
    assert mismatches == 0
    assert schedule_failures == 0
    assert elapsed < 120


# -------------------------------------------------------------------------
# 4. free placement equals the naive recurrence; large-instance smoke
# -------------------------------------------------------------------------


def test_criterion_04_free_placement_equivalence():
    rng = random.Random(1004)
    mismatches = 0
    for _ in range(200):
        line = random_line(rng, max_n=20)
        k = rng.randint(1, 7)
        got = solve_free(line, k).optimum
        if k >= line.n:
            want = 0
        else:
            want = naive_team_tables(line, k)[k][0][line.n - 1]
        if got != want:
            mismatches += 1
    n = 500
    big = LineInstance(tuple(range(n)), (INFINITY,) * n)
    started = time.monotonic()
    smoke = solve_free(big, 64)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60 and smoke.optimum == 7
    report(4, ok, f"200 random teams vs naive recurrence, {mismatches} mismatches; "
                  f"n=500,k=64 in {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60


# -------------------------------------------------------------------------
# 5. crash-tolerant free placement: group law and full multiplicity
# -------------------------------------------------------------------------


def test_criterion_05_group_replication_law():
    rng = random.Random(1005)
    mismatches = 0
    coverage_failures = 0
    for _ in range(300):
        line = random_line(rng, max_n=9)
        k = rng.randint(2, 7)
        f = rng.randint(1, k - 1)
        verdict = solve_free_faulty(line, k, f)
        if verdict.optimum != solve_free(line, k // (f + 1)).optimum:
            mismatches += 1
            continue
        if not verdict.feasible:
            continue
        spec = ProblemSpec(line, RobotPlacement(FREE, count=k), f, None)
        rep = verify_schedule(spec, verdict.schedule)
        if not rep.passed or any(c.covered < f + 1 for c in rep.nodes):
            coverage_failures += 1
    ok = mismatches == 0 and coverage_failures == 0
    report(5, ok, f"300 random lines, {mismatches} law violations, "
                  f"{coverage_failures} multiplicity failures")
    assert mismatches == 0
    assert coverage_failures == 0


# -------------------------------------------------------------------------
# 6. matching reduction soundness on the exhaustive conforming grid
# -------------------------------------------------------------------------


def test_criterion_06_matching_reduction_soundness():
    started = time.monotonic()
    mismatches = []
    checked = 0
    singles = list(itertools.combinations_with_replacement((1, 2, 3), 1))
    pairs = list(itertools.combinations_with_replacement((1, 2, 3), 2))
    for group in (singles, pairs):
        q = len(group[0])
        for a in group:
            for b in group:
                for c in group:
                    total = sum(a) + sum(b) + sum(c)
                    if total % q:
                        continue
                    s = total // q
                    spec = line_from_n3dm(list(a), list(b), list(c), s)
                    got = decide_fixed_faulty(
                        spec.topology, spec.placement.positions,
                        spec.faults, spec.bound, WIDE_CAPS,
                    ).feasible
                    want = n3dm_brute_force(a, b, c, s)
                    checked += 1
                    if got != want:
                        mismatches.append((a, b, c, s, got, want))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 300
    report(6, ok, f"{checked} conforming matching instances, "
                  f"{len(mismatches)} mismatches; {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 300


# -------------------------------------------------------------------------
# 7. Partition reduction soundness
# -------------------------------------------------------------------------


def test_criterion_07_partition_reduction_soundness():
    rng = random.Random(1007)
    started = time.monotonic()
    mismatches = []
    for _ in range(500):
        q = rng.randint(1, 8)
        values = [rng.randint(1, 5) for _ in range(q)]
        if sum(values) % 2:
            values[rng.randrange(q)] += 1
        spec = star_from_partition(values)
        got = star_exact(spec.topology, spec.placement, 2, 0, spec.bound).feasible
        want = partition_brute_force(values)
        if got != want:
            mismatches.append((values, got, want))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 60
    report(7, ok, f"500 sampled partition instances, {len(mismatches)} mismatches; {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 60


# -------------------------------------------------------------------------
# 8. ring fixed-faulty decision vs exhaustive search (known finding)
# -------------------------------------------------------------------------


def _brute_ring_cover(ring, positions, f, delta):
    n = ring.n
    need = f + 1
    plans = []
    blank = (INFINITY,) * n
    for p in positions:
        profiles = set()
        for walk in enumerate_walks(ring, p, delta, blank):
            profiles.add(
                tuple(
                    t if t is not None and t <= min(ring.deadlines[v], delta) else None
                    for v, t in enumerate(walk.first_visit)
                )
            )
        plans.append(sorted(profiles, key=lambda pr: tuple(str(x) for x in pr)))
    for combo in itertools.product(*plans):
        if all(sum(1 for prof in combo if prof[v] is not None) >= need for v in range(n)):
            return True
    return False


def _ring_candidate_times(ring, positions, f, delta_cap):
    rep = replicate_ring(ring, f)
    graph = StateGraph.from_ring(rep)
    labels = propagate(
        graph, init_start(graph, replicated_starts(ring, f, positions)), rep.deadlines
    )
    values = {0, *labels.finite_values()}
    blank = (INFINITY,) * ring.n
    for p in set(positions):
        for walk in enumerate_walks(ring, p, delta_cap, blank):
            values.update(t for t in walk.first_visit if t is not None)
    return sorted(v for v in values if v <= delta_cap)


def test_criterion_08_ring_decision_vs_exhaustive():
    rng = random.Random(1008)
    mismatches = []
    decisions = 0
    for _ in range(300):
        ring = random_ring(rng, max_n=5)
        f = rng.randint(0, 1)
        if f == 0:
            k = rng.randint(1, min(3, ring.n))
            positions = fixed_positions(rng, ring.n, k, allow_duplicates=False)
        else:
            k = rng.randint(2, 3)
            positions = fixed_positions(rng, ring.n, k, allow_duplicates=True)
        for delta in _ring_candidate_times(ring, positions, f, 2 * ring.lap):
            got = decide_ring_fixed_faulty(ring, positions, f, delta).feasible
            want = _brute_ring_cover(ring, positions, f, delta)
            decisions += 1
            if got != want:
                mismatches.append(
                    (ring.edge_weights, ring.deadlines, positions, f, delta, got, want)
                )
    ok = not mismatches
    report(8, ok, f"{decisions} swept decisions on 300 rings, "
                  f"{len(mismatches)} disagreements with exhaustive search")
    if mismatches:
        print("[acceptance] criterion 8 findings (reach-chain decision vs reality):")
        for weights, deadlines, positions, f, delta, got, want in mismatches[:12]:
            print(
                f"  ring weights={weights} deadlines={deadlines} robots={positions} "
                f"f={f} delta={delta}: chain says {'YES' if got else 'NO'}, "
                f"exhaustive search says {'YES' if want else 'NO'}"
            )
        if len(mismatches) > 12:
            print(f"  ... and {len(mismatches) - 12} more")
        print(
            "  cause: the farthest-reach chain may serve two segments with copies "
            "of the same physical robot, so it over-accepts; minimal case: "
            "weights (1,3,1), robots (0,2), f=1, delta=2"
        )
    assert not mismatches, (
        f"{len(mismatches)} disagreements between the polynomial ring decision "
        "and exhaustive search; the reach-chain recurrence over-accepts when "
        "copies of one robot serve two segments (reported above)"
    )


# -------------------------------------------------------------------------
# 9. ring fixed placement equals the best cut, without deadlines
# -------------------------------------------------------------------------


def _cut_to_line(ring, cut):
    n = ring.n
    order = [(cut + 1 + t) % n for t in range(n)]
    coords = [0]
    for idx in range(1, n):
        coords.append(coords[-1] + ring.edge_weights[order[idx - 1]])
    return LineInstance(tuple(coords), tuple(ring.deadlines[v] for v in order)), order


def test_criterion_09_ring_cut_equivalence():
    rng = random.Random(1009)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        ring = RingInstance(tuple(rng.randint(1, 5) for _ in range(n)), (INFINITY,) * n)
        k = rng.randint(1, min(3, n))
        positions = fixed_positions(rng, n, k, allow_duplicates=False)
        got = solve_ring_fixed(ring, positions).optimum
        want = INFINITY
        for cut in range(n):
            line, order = _cut_to_line(ring, cut)
            mapped = tuple(sorted(order.index(p) for p in positions))
            want = min(want, solve_fixed(line, mapped).optimum)
        if got != want:
            mismatches += 1
    report(9, mismatches == 0, f"200 no-deadline rings vs per-cut optimum, {mismatches} mismatches")
    assert mismatches == 0


# -------------------------------------------------------------------------
# 10. tightness: decision flips exactly at each reported optimum
# -------------------------------------------------------------------------


def test_criterion_10_decision_tightness():
    # every bound below the optimum must be refused, so probing just below it
    # is as strict as probing every smaller candidate time
    rng = random.Random(1010)
    checked = 0
    failures = []
    below = Fraction(1, 10**6)

    def check(tag, optimum, decide):
        nonlocal checked
        if optimum is INFINITY:
            return
        checked += 1
        if not decide(optimum):
            failures.append((tag, "optimum refused"))
        elif optimum >= below and decide(optimum - below):
            failures.append((tag, f"accepted {optimum - below} below optimum {optimum}"))

    for _ in range(40):  # suite 2: single robot, fixed start
        line = random_line(rng, max_n=7)
        start = rng.randrange(line.n)
        check(
            "single",
            solve_fixed_start(line, start).optimum,
            lambda d, line=line, start=start: solve_fixed_start(line.capped(d), start).optimum <= d,
        )

    for _ in range(40):  # suite 3: fixed team
        line = random_line(rng, min_n=2, max_n=7)
        k = rng.randint(1, min(3, line.n))
        positions = fixed_positions(rng, line.n, k, allow_duplicates=False)
        check(
            "fixed-team",
            solve_fixed(line, positions).optimum,
            lambda d, line=line, p=positions: solve_fixed(line.capped(d), p).optimum <= d,
        )

    for _ in range(40):  # suite 4: free team
        line = random_line(rng, max_n=10)
        k = rng.randint(1, 5)
        check(
            "free-team",
            solve_free(line, k).optimum,
            lambda d, line=line, k=k: solve_free(line.capped(d), k).optimum <= d,
        )

    for _ in range(40):  # suite 5: free team with crashes
        line = random_line(rng, max_n=8)
        k = rng.randint(2, 6)
        f = rng.randint(1, k - 1)
        check(
            "free-faulty",
            solve_free_faulty(line, k, f).optimum,
            lambda d, line=line, k=k, f=f: solve_free_faulty(line.capped(d), k, f).optimum <= d,
        )

    for _ in range(40):  # suite 9: fixed ring team
        ring = random_ring(rng, max_n=6)
        k = rng.randint(1, min(3, ring.n))
        positions = fixed_positions(rng, ring.n, k, allow_duplicates=False)
        check(
            "ring-fixed",
            solve_ring_fixed(ring, positions).optimum,
            lambda d, ring=ring, p=positions: solve_ring_fixed(ring.capped(d), p).optimum <= d,
        )

    report(10, not failures, f"{checked} optimizer outputs, {len(failures)} tightness failures")
    assert not failures, failures


# -------------------------------------------------------------------------
# 11. star ordering heuristic vs permutation brute force
# -------------------------------------------------------------------------


def _perm_feasible(star):
    q = star.q
    for perm in itertools.permutations(range(q)):
        t = 0
        ok = True
        for idx, leaf in enumerate(perm):
            arrive = t + star.leaf_weights[leaf]
            if arrive > star.leaf_deadlines[leaf]:
                ok = False
                break
            t = arrive + (star.leaf_weights[leaf] if idx < q - 1 else 0)
        if ok:
            return True
    return False


def test_criterion_11_star_heuristic_validation():
    rng = random.Random(1011)
    started = time.monotonic()
    counterexamples = []
    for _ in range(1000):
        star = random_star(rng)
        got = star_single_robot(star).feasible
        want = _perm_feasible(star)
        if got != want:
            counterexamples.append((star.leaf_weights, star.leaf_deadlines, got, want))
    elapsed = time.monotonic() - started
    ok = not counterexamples
    report(11, ok, f"1000 random stars, {len(counterexamples)} counterexamples "
                   f"to the deadline-plus-weight order; {elapsed:.1f}s")
    for ce in counterexamples:
        print(f"[acceptance] criterion 11 counterexample: weights={ce[0]} "
              f"deadlines={ce[1]} heuristic={ce[2]} brute={ce[3]}")
    assert not counterexamples, counterexamples
