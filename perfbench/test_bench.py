"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
from ops import Runner  # noqa: E402
from spans import Tracer  # noqa: E402


def _sample(workload, count):
    """A slice of the corpus with at least one op of every route."""
    full = corpus.WORKLOADS[workload](7)
    ops = list(full.ops[:count]) + run.warmup_ops(full)
    full.ops = ops
    return full


@pytest.mark.parametrize("workload,count", [("cli_mix", 120), ("exact_search", 24),
                                            ("poly_sweep", 0)])
def test_traced_run_reproduces_stdout_and_schedules(tmp_path, workload, count):
    rs, cli = run._import_program()
    runner = Runner(_sample(workload, count), str(tmp_path), cli)
    runner.write_files()
    plain = [runner.run(i, op) for i, op in enumerate(runner.corpus.ops)]
    runner.optimum.clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(i, op) for i, op in enumerate(runner.corpus.ops)]
    finally:
        tracer.uninstall()
    assert tracer.spans
    names = {span[0] for span in tracer.spans}
    assert not names & {"ring.decide_ring_fixed_faulty", "ring.optimize_ring_fixed_faulty"}
    for a, b in zip(plain, traced):
        assert [c.stdout for c in a.calls] == [c.stdout for c in b.calls], a.op
        assert a.schedule == b.schedule, a.op


def test_every_binding_is_wrapped_and_restored():
    rs, _ = run._import_program()
    import roversweep.multi_line as multi_line
    import roversweep.ring as ring
    import roversweep.single_robot as single_robot

    original = single_robot.propagate
    tracer = Tracer()
    tracer.install()
    try:
        for ns in (rs, single_robot, multi_line, ring):
            assert ns.propagate is not original
            assert ns.propagate.__wrapped__ is original
    finally:
        tracer.uninstall()
    for ns in (rs, single_robot, multi_line, ring):
        assert ns.propagate is original


def test_known_defect_ops_are_probed_not_timed():
    for make in corpus.WORKLOADS.values():
        c = make(3)
        assert not any(corpus.reaches_ring_fixed_decision(c.instances.get(op.inst), op.kind)
                       for op in c.ops)
        assert all(corpus.reaches_ring_fixed_decision(c.instances[op.inst], op.kind)
                   for op in c.probe)
    assert corpus.exact_search(3).probe and corpus.cli_mix(3).probe


def test_corpus_is_seeded():
    for make in corpus.WORKLOADS.values():
        a, b, c = make(3), make(3), make(4)
        assert [i.text() for i in a.instances.values()] == [i.text() for i in b.instances.values()]
        assert [i.text() for i in a.instances.values()] != [i.text() for i in c.instances.values()]


def test_reference_plans_bound_the_oracle():
    """The checker trusts designed feasibility and the reference bound;
    brute force must agree on every instance inside its caps."""
    from roversweep import brute_solve, parse_instance

    checked = 0
    for inst in corpus.cli_mix(5).instances.values():
        if not inst.in_caps or inst.doc["topology"] == "star":
            continue
        verdict = brute_solve(parse_instance(inst.text()))
        assert verdict.feasible == inst.feasible, inst.key
        if verdict.feasible:
            assert verdict.optimum <= inst.ref_bound, inst.key
        checked += 1
    assert checked > 50


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
