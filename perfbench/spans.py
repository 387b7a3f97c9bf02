"""Span tracing from outside the program.

The tracer replaces each listed public function with a wrapper in every
``roversweep`` module namespace that binds it (``from .single_robot
import propagate`` makes a separate binding in ``multi_line`` and
``ring``, and each one is wrapped).  A span records name, start, end,
parent span and op id; spans stay in memory and are written when the
run ends.  Counters are taken at the same boundaries, from the wrapped
call's result.  ``uninstall`` restores every original binding.

The list holds each module's entry points and layer boundaries.  Hot
helpers (exact arithmetic, state-id lookups, per-stretch table reads)
stay unwrapped: a span costs more than the work they do.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> counter updates taken from the call's result
TRACED = {
    ("state_graph", "StateGraph.from_line"): lambda r: {"state_graph.arcs": r.arc_count},
    ("state_graph", "StateGraph.from_ring"): lambda r: {"state_graph.arcs": r.arc_count},
    ("single_robot", "propagate"): None,
    ("single_robot", "extract_trajectory"): None,
    ("single_robot", "interval_table"): None,
    ("single_robot", "solve_fixed_start"): None,
    ("single_robot", "solve_free_start"): None,
    ("multi_line", "solve_fixed"): None,
    ("multi_line", "solve_free"): None,
    ("ring", "solve_ring_fixed"): None,
    ("ring", "solve_ring_free"): None,
    ("ring", "solve_ring_free_faulty"): None,
    ("ring", "decide_ring_fixed_faulty"): lambda r: {
        "ring.unwitnessed_yes": int(r.feasible and r.schedule is None)},
    ("ring", "optimize_ring_fixed_faulty"): None,
    ("fault_line", "solve_free_faulty"): None,
    ("fault_line", "decide_fixed_faulty"): None,
    ("fault_line", "fixed_faulty_candidates"): lambda r: {"fault_line.candidates": len(r)},
    ("fault_line", "solve_fixed_faulty"): None,
    ("fault_line", "resilience"): None,
    ("oracle", "enumerate_walks"): lambda r: {"oracle.walks": len(r)},
    ("oracle", "brute_solve"): None,
    ("oracle", "verify_schedule"): None,
    ("reductions", "star_exact"): None,
    ("instance", "parse_instance"): None,
    ("schedule", "Schedule.to_json"): lambda r: {"schedule.bytes": len(r)},
    ("schedule", "schedule_from_json"): None,
    ("cli", "main"): None,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                counts.update(count(result))
            return result

        return traced

    def install(self, package: str = "roversweep"):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        for (module, attr), count in TRACED.items():
            name = f"{module}.{attr.split('.')[-1]}"
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, count))
                else:
                    replacement = self._wrap(name, original, count)
                setattr(cls, meth, replacement)
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            for ns in namespaces:
                for binding, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, binding, wrapped)
                        self._undo.append((ns, binding, original))

    def uninstall(self):
        for target, binding, original in reversed(self._undo):
            setattr(target, binding, original)
        self._undo.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return dict(out)


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from spans and counters."""

    def total(*names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def self_of(module):
        return sum(v["self_s"] for n, v in summary.items() if n.split(".")[0] == module)

    builds = ("state_graph.from_line", "state_graph.from_ring")
    return {
        "state_graph.build_s": total(*builds),
        "state_graph.builds": calls(*builds),
        "state_graph.arcs": counts["state_graph.arcs"],
        "single_robot.propagate_s": total("single_robot.propagate"),
        "single_robot.propagate_calls": calls("single_robot.propagate"),
        "single_robot.extract_s": total("single_robot.extract_trajectory"),
        "multi_line.self_s": self_of("multi_line"),
        "ring.self_s": self_of("ring"),
        "fault_line.self_s": self_of("fault_line"),
        "fault_line.decide_calls": calls("fault_line.decide_fixed_faulty"),
        "fault_line.candidates": counts["fault_line.candidates"],
        "fault_line.resilience_s": total("fault_line.resilience"),
        "oracle.walks": counts["oracle.walks"],
        "oracle.walks_s": total("oracle.enumerate_walks"),
        "ring.decide_calls": calls("ring.decide_ring_fixed_faulty"),
        "ring.unwitnessed_yes": counts["ring.unwitnessed_yes"],
        "reductions.star_s": total("reductions.star_exact"),
        "reductions.star_calls": calls("reductions.star_exact"),
        "oracle.verify_s": total("oracle.verify_schedule"),
        "oracle.verify_calls": calls("oracle.verify_schedule"),
        "instance.parse_s": total("instance.parse_instance"),
        "schedule.to_json_s": total("schedule.to_json"),
        "schedule.from_json_s": total("schedule.schedule_from_json"),
        "schedule.bytes": counts["schedule.bytes"],
        "cli.self_s": self_of("cli"),
    }
