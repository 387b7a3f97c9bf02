"""Command-line front end.

Subcommands:
    solve INSTANCE [--emit-schedule PATH] [--json]
    decide INSTANCE --delta D [--json]
    resilience INSTANCE --delta D [--json]
    generate n3dm|partition|random ... [-o PATH]
    verify INSTANCE SCHEDULE [--json]
    oracle INSTANCE [--json]

``solve``, ``decide`` and ``resilience`` ask the one router,
``fault_line.solve``, ``fault_line.decide`` and ``fault_line.resilience``,
about the instance scaled to integers (see ``exact``) and print the
answer of the instance as given.

Exit codes: 0 success / YES / PASS, 1 infeasible / NO / FAIL, 2 usage
errors, malformed input, or a refused exact search, 3 an internal error
(a solver's answer failed its own verification).  Output is
deterministic: identical inputs produce identical bytes.
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
from .exact import INFINITY, common_denominator, decimal_str, format_number, scale
from .instance import (
    FIXED,
    FREE,
    InstanceError,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    parse_amount,
    parse_instance,
    serialize_instance,
)
from .oracle import Caps, CapExceeded, brute_solve, verify_schedule
from .schedule import ScheduleError, schedule_from_json

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _say_number(value) -> str:
    return f"{format_number(value)} ({decimal_str(value)})"


def _caps_from(args, topology=None) -> Caps:
    """The exact-search caps of ``topology`` (the oracle's ``Caps()``
    without one), with --max-n and --max-k applied."""
    default = Caps() if topology is None else fault_line.fixed_search_caps(topology)
    return Caps(
        max_n=args.max_n if args.max_n is not None else default.max_n,
        max_k=args.max_k if args.max_k is not None else default.max_k,
        max_f=default.max_f,
    )


def _in_integers(spec: ProblemSpec, delta=None) -> tuple:
    """(spec, delta, c): both multiplied by the least c that makes every
    number an integer.  Answers scale with c, and the DP loops run several
    times faster on ints than on Fractions."""
    c = common_denominator(spec.numbers() + (() if delta is None else (delta,)))
    return spec.scaled(c), None if delta is None else scale(delta, c), c


def cmd_solve(args) -> int:
    spec = parse_instance(_read(args.instance))
    lowered, _, c = _in_integers(spec)
    verdict = fault_line.solve(lowered, _caps_from(args, spec.topology)).scaled(Fraction(1, c))
    if verdict.feasible and verdict.schedule is None:
        raise RuntimeError("internal error: a feasible verdict came without a schedule")
    if args.emit_schedule and verdict.feasible:
        with open(args.emit_schedule, "w", encoding="utf-8") as fh:
            fh.write(verdict.schedule.to_json())
    if args.json:
        doc = {
            "feasible": verdict.feasible,
            "optimum": format_number(verdict.optimum) if verdict.feasible else None,
            "decimal": decimal_str(verdict.optimum) if verdict.feasible else None,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if verdict.feasible else 1
    if not verdict.feasible:
        print("infeasible")
        return 1
    print(_say_number(verdict.optimum))
    return 0


def cmd_decide(args) -> int:
    spec = parse_instance(_read(args.instance))
    delta = parse_amount(args.delta, "delta") if args.delta is not None else spec.bound
    if delta is None:
        print("decide needs --delta or a delta field in the instance", file=sys.stderr)
        return USAGE_ERROR
    lowered, delta, _ = _in_integers(spec, delta)
    answer = fault_line.decide(lowered, delta, _caps_from(args, spec.topology)).feasible
    if args.json:
        print(json.dumps({"answer": "YES" if answer else "NO"}))
    else:
        print("YES" if answer else "NO")
    return 0 if answer else 1


def cmd_resilience(args) -> int:
    spec = parse_instance(_read(args.instance))
    delta = parse_amount(args.delta, "delta") if args.delta is not None else spec.bound
    if delta is None:
        print("resilience needs --delta or a delta field in the instance", file=sys.stderr)
        return USAGE_ERROR
    lowered, delta, _ = _in_integers(spec, delta)
    value = fault_line.resilience(lowered, delta, _caps_from(args, spec.topology))
    if args.json:
        print(json.dumps({"resilience": value}))
    else:
        print("none" if value is None else str(value))
    return 0 if value is not None else 1


def cmd_generate(args) -> int:
    if args.kind == "n3dm":
        spec = reductions.line_from_n3dm(
            args.a, args.b, args.c, args.s, sparse=args.sparse
        )
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
    spec = parse_instance(_read(args.instance))
    schedule = schedule_from_json(_read(args.schedule))
    report = verify_schedule(spec, schedule)
    if args.json:
        doc = {
            "passed": report.passed,
            "makespan": format_number(report.makespan),
            "first_violation": report.first_violation.node if report.first_violation else None,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if report.passed else 1
    if report.passed:
        print(f"PASS makespan={_say_number(report.makespan)}")
        return 0
    bad = report.first_violation
    print(f"FAIL node={bad.node} covered={bad.covered} required={bad.required}")
    return 1


def cmd_oracle(args) -> int:
    spec = parse_instance(_read(args.instance))
    caps = _caps_from(args)
    if isinstance(spec.topology, StarInstance):
        verdict = reductions.star_exact(
            spec.topology, spec.placement, spec.k, spec.faults, spec.bound
        )
    else:
        verdict = brute_solve(spec, caps)
    if args.json:
        doc = {
            "feasible": verdict.feasible,
            "optimum": format_number(verdict.optimum) if verdict.feasible else None,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if verdict.feasible else 1
    if not verdict.feasible:
        print("infeasible")
        return 1
    print(_say_number(verdict.optimum))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roversweep",
        description="Exact deadline-constrained exploration solvers for lines, rings and stars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--max-n", type=int, default=None, help="override the exact-search node cap")
        p.add_argument("--max-k", type=int, default=None, help="override the exact-search robot cap")

    p_solve = sub.add_parser("solve", help="optimal exploration time")
    p_solve.add_argument("instance")
    p_solve.add_argument("--emit-schedule", metavar="PATH")
    p_solve.add_argument("--json", action="store_true")
    add_caps(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_dec = sub.add_parser("decide", help="is exploration possible within --delta")
    p_dec.add_argument("instance")
    p_dec.add_argument("--delta")
    p_dec.add_argument("--json", action="store_true")
    add_caps(p_dec)
    p_dec.set_defaults(func=cmd_decide)

    p_res = sub.add_parser("resilience", help="largest tolerable number of crashes within --delta")
    p_res.add_argument("instance")
    p_res.add_argument("--delta")
    p_res.add_argument("--json", action="store_true")
    add_caps(p_res)
    p_res.set_defaults(func=cmd_resilience)

    p_gen = sub.add_parser("generate", help="emit instance documents")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_n3dm = gen_sub.add_parser("n3dm", help="matching reduction onto a faulty line decision")
    g_n3dm.add_argument("--a", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--b", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--c", type=int, nargs="+", required=True)
    g_n3dm.add_argument("--s", type=int, required=True)
    g_n3dm.add_argument("--sparse", action="store_true")
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

    p_orc = sub.add_parser(
        "oracle",
        help="brute-force verdict on lines and rings (capped); on stars the exact "
        "star solver, the same as solve",
    )
    p_orc.add_argument("instance")
    p_orc.add_argument("--json", action="store_true")
    add_caps(p_orc)
    p_orc.set_defaults(func=cmd_oracle)
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
    except RuntimeError as exc:
        # a solver's own answer failed verification: a bug, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
