"""Correctness checker, run untimed after the timed loop.

Expected answers come from what the generator knows (designed
feasibility, the reference plan's completion time, the reductions'
source problems) and from the program's oracle layer: the schedule
verifier and the brute-force solver.  The fast solvers being checked
are reached only through the ops themselves: the workloads decide their
instances (``poly_sweep`` its integer originals) at the optimum the
solve reported and just below it, and the checker holds those answers
against each other.

Each failed check adds one reason to the op; an op with any reason is a
failed op.  Nothing here aborts the run.
"""

from __future__ import annotations

from dataclasses import replace

from corpus import n3dm_check, partition_check
from ops import parse_optimum

REASONS = ("error", "timeout", "no_schedule", "verify_failed", "wrong_answer")


class Checker:
    def __init__(self, runner, rs):
        """``rs`` is the roversweep package under test."""
        self.runner = runner
        self.corpus = runner.corpus
        self.rs = rs
        self._spec = {}
        self._brute = {}

    # ---- helpers ------------------------------------------------------------

    def spec(self, key):
        if key not in self._spec:
            self._spec[key] = self.rs.parse_instance(self.runner.texts[key])
        return self._spec[key]

    def brute(self, key, faults=None, bound=None):
        """brute_solve optimum (None when infeasible) of the instance, optionally
        with another fault budget and time bound."""
        memo = (key, faults, bound)
        if memo not in self._brute:
            spec = self.spec(key)
            if faults is not None:
                spec = replace(spec, faults=faults, bound=bound)
            verdict = self.rs.brute_solve(spec)
            self._brute[memo] = verdict.optimum if verdict.feasible else None
        return self._brute[memo]

    # ---- per-op checks ------------------------------------------------------

    def check(self, res, solved: dict) -> set:
        """Reasons the op failed.  ``solved`` maps instance key -> reported
        optimum (or None) from this run's solve ops."""
        if res.status != "ok":
            return {res.status}
        reasons = set()
        kind = res.op.kind
        if kind in ("solve", "oracle"):
            try:
                parse_optimum(res.calls[0].stdout)
            except (ValueError, ZeroDivisionError):
                return {"wrong_answer"}
        if kind == "solve":
            self._check_solve(res, solved, reasons)
        elif kind == "decide":
            self._check_decide(res, reasons)
        elif kind == "resilience":
            self._check_resilience(res, reasons)
        elif kind == "oracle":
            self._check_oracle(res, reasons)
        else:
            self._check_generate(res, reasons)
        return reasons

    def _expect_solution(self, inst, opt, reasons, upper_bound: bool):
        """Compare a reported optimum with the generator's knowledge and brute_solve.
        ``upper_bound``: the answer may exceed the true optimum (replication routes)."""
        if inst.feasible is not None and (opt is not None) != inst.feasible:
            reasons.add("wrong_answer")
            return
        if opt is not None and inst.ref_bound is not None and opt > inst.ref_bound:
            reasons.add("wrong_answer")
        if inst.oracle and inst.oracle[0] == "partition":
            if (opt is not None) != partition_check(inst.oracle[1]):
                reasons.add("wrong_answer")
        if inst.in_caps:
            truth = self.brute(inst.key)
            if (opt is None) != (truth is None):
                # an upper-bound route may only miss a solution, never invent one
                if not (upper_bound and opt is None):
                    reasons.add("wrong_answer")
            elif opt is not None:
                if opt < truth or (opt > truth and not upper_bound):
                    reasons.add("wrong_answer")

    def _check_solve(self, res, solved, reasons):
        inst = self.corpus.instances[res.op.inst]
        opt = parse_optimum(res.calls[0].stdout)
        self._expect_solution(inst, opt, reasons, inst.upper_bound_route)
        if opt is None:
            return
        if res.schedule is None:
            reasons.add("no_schedule")
        else:
            if len(res.calls) < 2 or res.calls[1].code != 0:
                reasons.add("verify_failed")
            try:
                schedule = self.rs.schedule_from_json(res.schedule.decode())
                report = self.rs.verify_schedule(replace(self.spec(inst.key), bound=opt), schedule)
                if not report.passed:
                    reasons.add("verify_failed")
            except (self.rs.ScheduleError, ValueError):
                reasons.add("verify_failed")
        if inst.twin_of is not None and inst.twin_of in solved:
            orig = solved[inst.twin_of]
            if orig is None or opt != orig / inst.divisor:
                reasons.add("wrong_answer")

    def _check_decide(self, res, reasons):
        inst = self.corpus.instances[res.op.inst]
        answer = res.calls[0].stdout.strip()
        if answer not in ("YES", "NO"):
            reasons.add("wrong_answer")
            return
        if res.expect is not None and answer != res.expect:
            reasons.add("wrong_answer")
        if inst.oracle and inst.oracle[0] == "n3dm":
            if (answer == "YES") != n3dm_check(*inst.oracle[1:]):
                reasons.add("wrong_answer")
        if inst.in_caps and res.delta is not None:
            truth = self.brute(inst.key, inst.doc["faults"], res.delta)
            if (answer == "YES") != (truth is not None):
                # a replication route may answer NO where a bespoke schedule exists
                if not (inst.upper_bound_route and answer == "NO"):
                    reasons.add("wrong_answer")

    def _check_resilience(self, res, reasons):
        inst = self.corpus.instances[res.op.inst]
        text = res.calls[0].stdout.strip()
        if text != "none" and not text.isdigit():
            reasons.add("wrong_answer")
            return
        value = None if text == "none" else int(text)
        k = self.spec(inst.key).k
        # the delta is the optimum for the instance's own fault budget
        if res.expect == "YES" and (value is None or value < inst.doc["faults"]):
            reasons.add("wrong_answer")
        if not inst.in_caps:
            return
        if value is not None and value <= 2 and self.brute(inst.key, value, res.delta) is None:
            reasons.add("wrong_answer")
        nxt = 0 if value is None else value + 1
        if nxt < k and nxt <= 2 and not inst.upper_bound_route:
            if self.brute(inst.key, nxt, res.delta) is not None:
                reasons.add("wrong_answer")

    def _check_oracle(self, res, reasons):
        inst = self.corpus.instances[res.op.inst]
        self._expect_solution(inst, parse_optimum(res.calls[0].stdout), reasons, False)

    def _check_generate(self, res, reasons):
        try:
            spec = self.rs.parse_instance(res.calls[0].stdout)
        except ValueError:
            reasons.add("wrong_answer")
            return
        topology = type(spec.topology).__name__.replace("Instance", "").lower()
        if (topology, spec.k, spec.faults) != tuple(res.op.expect):
            reasons.add("wrong_answer")
