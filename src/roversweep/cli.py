"""Command-line front end.

Subcommands:
    solve INSTANCE [--emit-schedule PATH] [--json] [--max-n N] [--max-k K]
    decide INSTANCE [--delta D] [--json] [--max-n N] [--max-k K]
    resilience INSTANCE [--delta D] [--json] [--max-n N] [--max-k K]
    generate n3dm --a A [A ...] --b B [B ...] --c C [C ...] --s S [-o PATH]
    generate partition --values V [V ...] [-o PATH]
    generate random [--topology line|ring|star] [--n N] [--k K] [--f F]
                    [--placement fixed|free] [--seed SEED] [-o PATH]
    verify INSTANCE SCHEDULE [--json]
    oracle INSTANCE [--json] [--max-n N] [--max-k K]

``decide`` and ``resilience`` take the document's delta when --delta is
not given.  --max-n and --max-k override the caps of the exact search
for fixed robots on lines and rings (``oracle``: of the brute force);
on a star, which no capped search solves, they are refused.
``solve`` and ``oracle`` print their answer the same way; only
``solve --json`` adds the decimal.

Every command reads its documents straight into integers: each number
times c, the least positive int that makes the instance, ``--delta`` and
(for ``verify``) the schedule integral (see ``exact``).  ``solve``,
``decide`` and ``resilience`` ask the one router, ``fault_line.solve``,
``fault_line.decide`` and ``fault_line.resilience``, which verifies every
answer it gives; ``oracle`` asks the brute force on lines and rings and
the router on stars, where the exact star solver is the reference; and
``verify`` replays the schedule, all in integers; only the
numbers printed (the optimum, the makespan and the schedule) are divided
back by c, so the output is that of the documents as written.

Exit codes: 0 success / YES / PASS, 1 infeasible / NO / FAIL, 2 usage
errors, malformed input, a refused exact search, or an instance too large
to hold in memory, 3 an internal error (a solver's answer failed the
router's verification).  Output is deterministic: identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from typing import Optional

from . import fault_line, reductions
from .exact import INFINITY, decimal_str, format_number, scale
from .instance import (
    FIXED,
    FREE,
    InstanceError,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    parse_instance,
    read_amount,
    read_instance,
    serialize_instance,
    widened,
)
from .oracle import Caps, CapExceeded, brute_solve, verify_schedule
from .schedule import ScheduleError, read_schedule, schedule_from_json

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _say_number(value) -> str:
    return f"{format_number(value)} ({decimal_str(value)})"


def _caps_from(args, topology=None) -> Optional[Caps]:
    """The exact-search caps of ``topology`` (the oracle's ``Caps()``
    without one), with --max-n and --max-k applied; None on a star, which
    no capped search solves, so it refuses both flags."""
    if topology is not None and topology.kind == "star":
        if args.max_n is not None or args.max_k is not None:
            raise ValueError("--max-n and --max-k cap the exact search on lines and rings, not on stars")
        return None
    default = Caps() if topology is None else fault_line.fixed_search_caps(topology)
    return Caps(
        max_n=args.max_n if args.max_n is not None else default.max_n,
        max_k=args.max_k if args.max_k is not None else default.max_k,
    )


def _spec_and_delta(args) -> tuple:
    """(spec, delta): the instance read in integers, and the time bound
    (--delta, else the document's delta) in the same units."""
    spec, c = read_instance(_read(args.instance))
    if args.delta is not None:
        spec, _, delta = widened(spec, c, read_amount(args.delta, "delta"))
        return spec, delta
    if spec.bound is None:
        raise ValueError(f"{args.command} needs --delta or a delta field in the instance")
    return spec, spec.bound


def _print_answer(args, verdict, c: int, decimal: bool = False) -> int:
    """Print the optimum divided back by c, or "infeasible"; with --json a
    document, which ``decimal`` extends by the optimum's decimal."""
    optimum = scale(verdict.optimum, Fraction(1, c))
    if args.json:
        doc = {"feasible": verdict.feasible, "optimum": format_number(optimum) if verdict.feasible else None}
        if decimal:
            doc["decimal"] = decimal_str(optimum) if verdict.feasible else None
        print(json.dumps(doc, sort_keys=True))
    else:
        print(_say_number(optimum) if verdict.feasible else "infeasible")
    return 0 if verdict.feasible else 1


def cmd_solve(args) -> int:
    spec, c = read_instance(_read(args.instance))
    verdict = fault_line.solve(spec, _caps_from(args, spec.topology))
    if args.emit_schedule and verdict.feasible:
        with open(args.emit_schedule, "w", encoding="utf-8") as fh:
            fh.write(verdict.schedule.scaled(Fraction(1, c)).to_json())
    return _print_answer(args, verdict, c, decimal=True)


def cmd_decide(args) -> int:
    spec, delta = _spec_and_delta(args)
    answer = fault_line.decide(spec, delta, _caps_from(args, spec.topology)).feasible
    if args.json:
        print(json.dumps({"answer": "YES" if answer else "NO"}))
    else:
        print("YES" if answer else "NO")
    return 0 if answer else 1


def cmd_resilience(args) -> int:
    spec, delta = _spec_and_delta(args)
    value = fault_line.resilience(spec, delta, _caps_from(args, spec.topology))
    if args.json:
        print(json.dumps({"resilience": value}))
    else:
        print("none" if value is None else str(value))
    return 0 if value is not None else 1


def cmd_generate(args) -> int:
    if args.kind == "n3dm":
        spec = reductions.line_from_n3dm(args.a, args.b, args.c, args.s)
    elif args.kind == "partition":
        spec = reductions.star_from_partition(args.values)
    else:
        spec = _random_instance(args)
    text = serialize_instance(spec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _random_instance(args) -> ProblemSpec:
    rng = random.Random(args.seed)
    n = args.n
    k = args.k
    f = args.f
    least = 2 if args.topology == "ring" else 1
    if n < least:
        raise ValueError(f"--n must be at least {least} on a {args.topology}, got {n}")
    if args.topology == "line":
        coords = [0]
        for _ in range(n - 1):
            coords.append(coords[-1] + rng.randint(1, 4))
        span = coords[-1] if coords[-1] else 1
        deadlines = tuple(
            INFINITY if rng.random() < 0.5 else Fraction(rng.randint(1, 4 * span), rng.choice((1, 2)))
            for _ in range(n)
        )
        top = LineInstance(tuple(coords), deadlines)
    elif args.topology == "ring":
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        total = sum(weights)
        deadlines = tuple(
            INFINITY if rng.random() < 0.5 else Fraction(rng.randint(1, 2 * total), rng.choice((1, 2)))
            for _ in range(n)
        )
        top = RingInstance(weights, deadlines)
    else:
        weights = tuple(rng.randint(1, 5) for _ in range(n))
        bound = 3 * sum(weights)
        deadlines = tuple(
            INFINITY if rng.random() < 0.3 else rng.randint(1, bound) for _ in range(n)
        )
        top = StarInstance(weights, deadlines, INFINITY if rng.random() < 0.5 else rng.randint(1, bound))
    nodes = n if args.topology != "star" else n + 1
    if f > 0:
        positions = tuple(sorted(rng.choice(range(nodes)) for _ in range(k)))
    else:
        positions = tuple(sorted(rng.sample(range(nodes), min(k, nodes))))
    placement = (
        RobotPlacement(FIXED, positions=positions)
        if args.placement == "fixed"
        else RobotPlacement(FREE, count=k)
    )
    return ProblemSpec(topology=top, placement=placement, faults=f, bound=None)


def cmd_verify(args) -> int:
    instance_text = _read(args.instance)
    spec, c = read_instance(instance_text)
    schedule_text = _read(args.schedule)
    schedule, wide = read_schedule(schedule_text, c)
    try:
        report = verify_schedule(spec.scaled(wide // c), schedule)
    except ScheduleError:
        if wide == 1:
            raise
        # the error may quote a time or a position: raise it as written
        report = verify_schedule(parse_instance(instance_text), schedule_from_json(schedule_text))
    makespan = scale(report.makespan, Fraction(1, wide))
    if args.json:
        doc = {
            "passed": report.passed,
            "makespan": format_number(makespan),
            "first_violation": report.first_violation.node if report.first_violation else None,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if report.passed else 1
    if report.passed:
        print(f"PASS makespan={_say_number(makespan)}")
        return 0
    bad = report.first_violation
    print(f"FAIL node={bad.node} covered={bad.covered} required={bad.required}")
    return 1


def cmd_oracle(args) -> int:
    spec, c = read_instance(_read(args.instance))
    if spec.topology.kind == "star":
        verdict = fault_line.solve(spec, _caps_from(args, spec.topology))
    else:
        verdict = brute_solve(spec, _caps_from(args))
    return _print_answer(args, verdict, c)


def _add_answering(sub, name: str, func, about: str, flag: Optional[str] = None, metavar=None):
    """A subcommand answering about INSTANCE: its own option ``flag``,
    then --json, --max-n and --max-k."""
    p = sub.add_parser(name, help=about)
    p.add_argument("instance")
    if flag:
        p.add_argument(flag, metavar=metavar)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-n", type=int, default=None, help="override the exact-search node cap")
    p.add_argument("--max-k", type=int, default=None, help="override the exact-search robot cap")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roversweep",
        description="Exact deadline-constrained exploration solvers for lines, rings and stars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, about, flag, metavar in (
        ("solve", cmd_solve, "optimal exploration time", "--emit-schedule", "PATH"),
        ("decide", cmd_decide, "is exploration possible within --delta", "--delta", None),
        ("resilience", cmd_resilience, "largest tolerable number of crashes within --delta", "--delta", None),
    ):
        _add_answering(sub, name, func, about, flag, metavar)

    p_gen = sub.add_parser("generate", help="emit instance documents")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_n3dm = gen_sub.add_parser("n3dm", help="matching reduction onto a faulty line decision")
    g_n3dm.add_argument("--a", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--b", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--c", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--s", type=int, required=True)
    g_n3dm.add_argument("-o", "--output")
    g_n3dm.set_defaults(func=cmd_generate)
    g_part = gen_sub.add_parser("partition", help="Partition reduction onto a two-robot star")
    g_part.add_argument("--values", type=int, nargs="+", required=True)
    g_part.add_argument("-o", "--output")
    g_part.set_defaults(func=cmd_generate)
    g_rand = gen_sub.add_parser("random", help="seeded random instance")
    g_rand.add_argument("--topology", choices=("line", "ring", "star"), default="line")
    g_rand.add_argument("--n", type=int, default=6)
    g_rand.add_argument("--k", type=int, default=2)
    g_rand.add_argument("--f", type=int, default=0)
    g_rand.add_argument("--placement", choices=("fixed", "free"), default="fixed")
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("-o", "--output")
    g_rand.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="check a schedule against an instance")
    p_ver.add_argument("instance")
    p_ver.add_argument("schedule")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    _add_answering(
        sub, "oracle", cmd_oracle,
        "brute-force verdict on lines and rings (capped); on stars the exact star solver, the same as solve",
    )
    return parser


def _glue_delta(argv: list) -> list:
    """``--delta V`` as ``--delta=V`` when V is a negative number: argparse
    takes a value such as -1/2 for an option flag and stops."""
    out: list = []
    for arg in argv:
        if out and out[-1] == "--delta" and re.match(r"-[0-9.]", arg):
            out[-1] = "--delta=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_delta(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (InstanceError, ScheduleError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        # an instance too large to hold, such as a line with millions of nodes
        print("error: out of memory: the instance is too large to solve", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        # a solver's own answer failed verification: a bug, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
