"""End-to-end and per-layer benchmark of the roversweep CLI.

    python3 perfbench/run.py --workload poly_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one closed-loop client: each op calls
``roversweep.cli.main`` in-process on a generated instance file, and
the next op starts when the previous one returns.  Whole passes over
the seeded corpus run until at least three passes and ``--seconds`` of
pass time are done, so every run of a seed times the same ops.  Every
time is scaled to reference machine speed (``speed.py``), and an op's
latency is its median over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then
replays one more pass, and the known-defect probe, with every layer
boundary wrapped and prints the per-layer metrics; the traced pass's
time against the untraced op latencies is the tracing overhead.  Every
op is checked after the timed loop; the last line of stdout is the JSON
result, and a fuller record goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from time import perf_counter

from check import REASONS, Checker
from corpus import ROUTES
from corpus import WORKLOADS as GENERATORS
from ops import Runner, parse_optimum
from spans import Tracer, layer_metrics
from speed import REFERENCE_S, Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
PASSES = 3

NOTES = ("single process, one closed-loop client, no extra threads or processes; "
         "no CPU pinning or cache control is attempted: the shared virtual machine "
         "the reference figures come from allows neither")


def _import_program():
    """Fresh import of the package under test (timed as part of set-up)."""
    for name in [n for n in sys.modules if n == "roversweep" or n.startswith("roversweep.")]:
        del sys.modules[name]
    rs = importlib.import_module("roversweep")
    return rs, importlib.import_module("roversweep.cli")


def _setup(workload, seed, workdir):
    """(start, seconds, runner, package) of one timed set-up."""
    t0 = perf_counter()
    rs, cli = _import_program()
    corpus = GENERATORS[workload](seed)
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    runner = Runner(corpus, workdir, cli)
    runner.write_files()
    for op in warmup_ops(corpus):
        runner.run(-1, op)
    runner.optimum.clear()
    return t0, perf_counter() - t0, runner, rs


def warmup_ops(corpus):
    """One op per route, on the route's smallest integer instance."""
    best = {}
    for op in corpus.ops:
        inst = corpus.instances.get(op.inst)
        route = inst.route if inst else op.kind
        size = (len(inst.doc["deadlines"]), inst.has_fraction) if inst else (0, False)
        if route not in best or size < best[route][0]:
            best[route] = (size, op)
    return [op for _, op in best.values()]


def _pass(runner, results, speed):
    runner.optimum.clear()
    for op in runner.corpus.ops:
        results.append(runner.run(len(results), op))
        speed.tick()


def _latencies(seconds, n_ops):
    """Each op's latency in ms: its median over the passes, at reference speed."""
    per_op = [[] for _ in range(n_ops)]
    for i, sec in enumerate(seconds):
        per_op[i % n_ops].append(sec * 1000)
    return [statistics.median(ms) for ms in per_op]


def tail_percentile(n_ops):
    """The highest percentile with at least ten ops beyond it."""
    return 100 * (n_ops - 10) / n_ops


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution
    (integrated with the midpoint rule).  Unlike a single order
    statistic it does not jump when ops near the quantile trade places,
    so it moves less between seeds."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    ts = [(k + 0.5) / (n * steps) for k in range(n * steps)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ts]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _check(runner, rs, results):
    """Failure reasons per executed op.  Each distinct op is checked once;
    its repeats must reproduce its bytes."""
    checker = Checker(runner, rs)
    first = {}
    solved = {}
    for res in results:
        if res.key not in first:
            first[res.key] = res
            if res.op.kind == "solve" and res.status == "ok":
                with contextlib.suppress(ValueError, ZeroDivisionError):
                    solved.setdefault(res.op.inst, parse_optimum(res.calls[0].stdout))
    reasons_of = {key: checker.check(res, solved) for key, res in first.items()}
    per_op = []
    for res in results:
        reasons = set(reasons_of[res.key])
        if res.digest() != first[res.key].digest():
            reasons.add("wrong_answer")
        per_op.append(reasons)
    return per_op


def _fingerprint(runner) -> str:
    """Identifies the corpus: instance files plus the op list."""
    h = hashlib.sha256()
    for key, text in runner.texts.items():
        h.update(f"{key}\0{text}\0".encode())
    for op in runner.corpus.ops:
        h.update(repr((op.kind, op.inst, str(op.delta), op.argv)).encode())
    return h.hexdigest()[:16]


def _digest_changes(workload, seed, fingerprint, first_pass):
    """(ops compared, ops changed) against the stored digests of this seed."""
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(workload, {}).get(str(seed), {})
    if stored.get("corpus") != fingerprint:
        return 0, 0
    ref = stored["ops"]
    pairs = [(ref[8 * i:8 * i + 8], r.digest()[:8]) for i, r in enumerate(first_pass)]
    pairs = [(a, b) for a, b in pairs if len(a) == 8]
    return len(pairs), sum(a != b for a, b in pairs)


def environment():
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "roversweep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "notes": NOTES,
    }


def _fraction_metrics(corpus, latency):
    """Share of ops on non-integer instances, and the solve time of the
    divided twins over that of their integer originals."""
    insts = corpus.instances
    solve_ms = {op.inst: ms for op, ms in zip(corpus.ops, latency) if op.kind == "solve"}
    twins = [key for key in solve_ms if insts[key].twin_of in solve_ms]
    orig_ms = sum(solve_ms[insts[key].twin_of] for key in twins)
    share = sum(1 for op in corpus.ops if op.inst and insts[op.inst].has_fraction)
    return {
        "exact.fraction_share": share / len(corpus.ops),
        "exact.fraction_slowdown": sum(solve_ms[k] for k in twins) / orig_ms if twins else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "roversweep", "__init__.py")):
        print(f"error: no roversweep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    try:
        return _run(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only once no other run uses it


def _run(args, tag, workdir) -> int:
    speed = Speedometer()
    setups = []   # (start, seconds)

    def fresh():
        """Set up from scratch (import, corpus, files, warm-up), timed,
        with the machine's speed sampled on either side.  The previous
        pass's garbage is collected first, outside the timing."""
        gc.collect()
        speed.sample()
        start, seconds, runner, rs = _setup(args.workload, args.seed, workdir)
        speed.sample()
        setups.append((start, seconds))
        return runner, rs

    # one set-up before the first pass and one after each pass, so the
    # median set-up time samples the machine over the whole run
    runner, rs = fresh()
    if not rs.__file__.startswith(SRC):
        print(f"error: imported roversweep from {rs.__file__}, not {SRC}", file=sys.stderr)
        return 3
    corpus = runner.corpus

    results = []
    pass_s = []
    while len(pass_s) < PASSES or sum(pass_s) < args.seconds:
        t_pass = perf_counter()
        _pass(runner, results, speed)
        pass_s.append(perf_counter() - t_pass)
        runner, rs = fresh()
    elapsed = sum(pass_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [speed.scaled(r.seconds, r.started) for r in results]
    latency = _latencies(scaled, len(corpus.ops))
    setup_scaled = [speed.scaled(seconds, start) for start, seconds in setups]

    layer = {}
    probe = []
    if args.trace:
        tracer = Tracer()
        traced = []
        tracer.install()
        try:
            runner.optimum.clear()
            for op in corpus.ops:
                tracer.op_id = len(traced)
                traced.append(runner.run(len(traced), op))
                speed.tick()
            # the known-defect ops, after the pass whose solves they decide on
            for op in corpus.probe:
                tracer.op_id = len(traced) + len(probe)
                probe.append(runner.run(tracer.op_id, op))
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_results", f"{tag}.spans.jsonl"))
        layer = layer_metrics(tracer.summary(), tracer.counts)
        traced_s = sum(speed.scaled(r.seconds, r.started) for r in traced)
        layer["trace.overhead_share"] = traced_s * 1000 / sum(latency) - 1
        layer["trace.mismatched_ops"] = sum(
            a.digest() != b.digest() for a, b in zip(results, traced))

    checked = _check(runner, rs, results + probe)
    per_op, probe_reasons = checked[:len(results)], checked[len(results):]
    fingerprint = _fingerprint(runner)
    compared, changed = _digest_changes(args.workload, args.seed, fingerprint,
                                        results[:len(corpus.ops)])
    failed = sum(1 for reasons in per_op if reasons)
    reasons = Counter(r for rs_ in per_op for r in rs_)
    by_route = Counter()
    for res, rs_ in zip(results, per_op):
        if rs_:
            inst = corpus.instances.get(res.op.inst)
            by_route[inst.route if inst else res.op.kind] += 1

    ranked = sorted(latency)
    end_to_end = {
        "op_p50_ms": (quantile(ranked, 0.5), "ms"),
        "op_tail_ms": (quantile(ranked, tail_percentile(len(ranked)) / 100), "ms"),
        "ops_per_s": (1000 * len(ranked) / sum(ranked), "1/s"),
        "ok_share": (1 - failed / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    if args.trace:
        layer.update({f"check.{r}": reasons[r] for r in REASONS})
        layer["check.output_changed"] = changed
        layer["check.output_compared"] = compared
        layer.update({f"check.route.{route}": by_route[route] for route in ROUTES})
        layer["failed_share"] = failed / len(results)
        layer["ring_fixed_probe.ops"] = len(probe)
        layer["ring_fixed_probe.failed"] = sum(1 for r in probe_reasons if r)
        for reason in ("no_schedule", "wrong_answer"):
            layer[f"ring_fixed_probe.{reason}"] = sum(reason in r for r in probe_reasons)
        layer.update(_fraction_metrics(corpus, latency))
        stats = _corpus_stats(corpus)
        layer["corpus.finite_deadline_share"] = stats["finite_deadline_share"]
        layer["corpus.infeasible_share"] = stats["infeasible_share"]
    per_layer = {name: (value, _unit(name)) for name, value in layer.items()}

    metrics = per_layer if args.trace else end_to_end
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "raw_ops_per_s": len(results) / elapsed,
        "pass_s": pass_s,
        "ops_per_pass": len(corpus.ops),
        "tail_percentile": tail_percentile(len(corpus.ops)),
        "attempted": len(results),
        "failed": failed,
        "failures_by_reason": dict(reasons),
        "failures_by_route": dict(by_route),
        "corpus_fingerprint": fingerprint,
        "digests": {"compared": compared, "changed": changed},
        "corpus": _corpus_stats(corpus),
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": {k: v[0] for k, v in per_layer.items()},
        "setup_runs_s": [seconds for _, seconds in setups],
        "setup_scaled_s": setup_scaled,
        "slowdown": [sec / REFERENCE_S for sec in speed.seconds],
        "environment": environment(),
        "probe": [{"kind": r.op.kind, "inst": r.op.inst, "digest": r.digest(),
                   "failed": sorted(rs_)} for r, rs_ in zip(probe, probe_reasons)],
        "ops": [{"i": r.index, "kind": r.op.kind, "inst": r.op.inst, "ms": r.seconds * 1000,
                 "scaled_ms": sec * 1000,
                 "key": r.key, "digest": r.digest(), "failed": sorted(rs_),
                 "detail": [c.detail[-500:] for c in r.calls if c.code not in (0, 1)]}
                for r, sec, rs_ in zip(results, scaled, per_op)],
    }
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"{args.workload} seed={args.seed}: {len(results)} ops in {elapsed:.1f} s, "
          f"{failed} failed {dict(by_route)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("slowdown"):
        return "ratio"
    if name == "schedule.bytes":
        return "bytes"
    return "count"


def _corpus_stats(corpus):
    insts = list(corpus.instances.values())
    return {
        "instances": len(insts),
        "finite_deadline_share": sum(i.finite_deadlines for i in insts) / len(insts),
        "fraction_share": sum(i.has_fraction for i in insts) / len(insts),
        "infeasible_share": corpus.infeasible_share,
        "in_caps_share": sum(i.in_caps for i in insts) / len(insts),
    }


if __name__ == "__main__":
    sys.exit(main())
