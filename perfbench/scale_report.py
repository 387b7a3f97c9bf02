"""One-shot scale report: re-measures the baseline rows of ROADMAP.md.

    python3 perfbench/scale_report.py [--out perfbench/scale_baseline.json]

Not a workload: single runs of large instances, in one process, with
peak RSS read after the state-graph rows (they run first, smallest
first, so the running peak is theirs).  Takes about two minutes and
half a gigabyte at n = 2000.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "scale_baseline.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import corpus
    import run
    from roversweep import INFINITY, LineInstance, RingInstance, parse_instance, star_exact
    from roversweep.fault_line import solve_fixed_faulty
    from roversweep.multi_line import solve_free
    from roversweep.oracle import Caps
    from roversweep.ring import optimize_ring_fixed_faulty
    from roversweep.single_robot import init_start, propagate
    from roversweep.state_graph import StateGraph

    rows = []

    def row(name, **fields):
        rows.append({"row": name, **fields})
        print(json.dumps(rows[-1]), flush=True)

    for n in (1000, 2000):
        line = LineInstance(tuple(range(n)), (INFINITY,) * n)
        build_s, graph = _timed(StateGraph.from_line, line)
        t0 = perf_counter()
        labels = init_start(graph, range(n))
        propagate(graph, labels, line.deadlines)
        pass_s = perf_counter() - t0
        row("interval_table all starts", n=n, states=graph.node_count, arcs=graph.arc_count,
            build_s=build_s, pass_s=pass_s, peak_rss_mb=_rss_mb())
        del graph, labels

    rng = random.Random("scale:solve_free")
    orig = corpus.line_instance(rng, "free", "line_free", 300, 4, 0, "free", False)
    for inst in (orig, corpus.twin(orig)):
        spec = parse_instance(inst.text())
        seconds, verdict = _timed(solve_free, spec.topology, 4)
        row("solve_free k=4", n=300, numbers="fraction" if inst.has_fraction else "int",
            seconds=seconds, optimum=str(verdict.optimum))

    for n in (18, 22):
        rng = random.Random(f"scale:faulty_line:{n}")
        spec = parse_instance(corpus.line_instance(rng, "ff", "line_fixed_faulty", n, 3, 1, "fixed",
                                           False).text())
        seconds, verdict = _timed(solve_fixed_faulty, spec.topology, spec.placement.positions, 1,
                                  Caps(max_n=40, max_k=8, max_f=7))
        row("solve_fixed_faulty finite deadlines k=3 f=1", n=n, seconds=seconds,
            optimum=str(verdict.optimum))

    for n in (20, 40, 60):
        rng = random.Random(f"scale:ring:{n}")
        ring = RingInstance(tuple(rng.randint(1, 4) for _ in range(n)), (INFINITY,) * n)
        positions = tuple(sorted(rng.sample(range(n), 3)))
        seconds, verdict = _timed(optimize_ring_fixed_faulty, ring, positions, 1)
        row("optimize_ring_fixed_faulty no deadlines k=3 f=1", n=n, seconds=seconds,
            feasible=verdict.feasible, has_schedule=verdict.schedule is not None)

    rng = random.Random("scale:star")
    spec = parse_instance(corpus.star_instance(rng, "star", "star", 12, 2, 0, "free", False).text())
    seconds, verdict = _timed(star_exact, spec.topology, spec.placement, 2, 0, None)
    row("star_exact free k=2", q=12, seconds=seconds, optimum=str(verdict.optimum))

    report = {"environment": run.environment(), "rows": rows,
              "fraction_slowdown": rows[3]["seconds"] / rows[2]["seconds"]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
