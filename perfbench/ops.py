"""Running one operation: the roversweep CLI called in-process.

Each CLI call runs under a wall-clock limit set with ``signal.setitimer``
in the main thread; no thread or process is started.  Stdout and stderr
are captured, and the emitted schedule is read back after the op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import signal
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Optional

from corpus import Corpus, Op

OP_LIMIT_S = 30.0
BELOW = Fraction(1, 1000)


class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Call:
    argv: list
    code: object          # exit code, "timeout" or "error"
    stdout: str
    detail: str = ""      # stderr, or the traceback of an escaped exception


@dataclass
class Result:
    index: int            # position in the run
    op: Op
    key: str              # digest of the op's inputs
    delta: Optional[Fraction]
    expect: Optional[str]  # decide: "YES" / "NO" when the answer is known
    calls: list = field(default_factory=list)
    schedule: Optional[bytes] = None
    started: float = 0.0  # perf_counter() at the op's start
    seconds: float = 0.0

    @property
    def status(self) -> str:
        for c in self.calls:
            if c.code == "timeout":
                return "timeout"
            if c.code == "error" or c.code == 2:
                return "error"
        return "ok"

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.calls:
            h.update(f"{c.argv[0]}|{c.code}|{c.stdout}\x00".encode())
        h.update(self.schedule or b"-")
        return h.hexdigest()[:16]


def call_cli(cli_module, argv: list, limit: float = OP_LIMIT_S) -> Call:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                code = cli_module.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        detail = err.getvalue()
    except OpTimeout:
        code, detail = "timeout", f"exceeded {limit} s"
    except SystemExit as exc:  # argparse usage errors
        code, detail = exc.code if isinstance(exc.code, int) else 2, err.getvalue()
    except Exception:  # the CLI must not end in a traceback; record it as a failure
        code, detail = "error", traceback.format_exc()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Call(argv, code, out.getvalue(), detail)


def parse_optimum(stdout: str):
    """Optimum printed by ``solve``: a Fraction, or None when infeasible."""
    first = stdout.split()[0] if stdout.split() else ""
    if first == "infeasible":
        return None
    return Fraction(first)


class Runner:
    """Executes ops of one corpus against the instance files in ``workdir``."""

    def __init__(self, corpus: Corpus, workdir: str, cli_module):
        self.corpus = corpus
        self.workdir = workdir
        self.cli = cli_module
        self.paths = {}
        self.texts = {}
        self.optimum = {}   # instance key -> Fraction, or None when infeasible
        self.schedule_path = os.path.join(workdir, "schedule.json")

    def write_files(self):
        os.makedirs(self.workdir, exist_ok=True)
        for i, (key, inst) in enumerate(self.corpus.instances.items()):
            path = os.path.join(self.workdir, f"i{i:04d}.json")
            text = inst.text()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[key] = path
            self.texts[key] = text

    @staticmethod
    def _caps(inst) -> list:
        """Raised exact-search caps for instances that need them."""
        out = []
        if inst is not None and inst.max_n:
            out += ["--max-n", str(inst.max_n)]
        if inst is not None and inst.max_k:
            out += ["--max-k", str(inst.max_k)]
        return out

    def resolve(self, op: Op):
        """(delta, expected decide answer) with lazy deltas filled in."""
        if not isinstance(op.delta, str):
            return op.delta, None
        inst = self.corpus.instances[op.inst]
        if op.inst not in self.optimum:
            return inst.ref_bound or Fraction(1), None
        opt = self.optimum[op.inst]
        if opt is None:
            return inst.ref_bound or Fraction(1), "NO"
        if op.delta == "below" and opt >= BELOW:
            return opt - BELOW, "NO"
        return opt, "YES"

    def argv(self, op: Op, delta) -> list:
        """The op's CLI arguments (a solve's verify call follows it)."""
        path = self.paths.get(op.inst)
        caps = self._caps(self.corpus.instances.get(op.inst))
        if op.kind == "solve":
            return ["solve", path, "--emit-schedule", self.schedule_path, *caps]
        if op.kind in ("decide", "resilience"):
            return [op.kind, path, "--delta", str(delta), *caps]
        if op.kind == "oracle":
            return ["oracle", path]
        return ["generate", *op.argv]

    def input_key(self, op: Op, delta) -> str:
        h = hashlib.sha256(f"{op.kind}|{delta}|{' '.join(op.argv)}|".encode())
        if op.inst:
            h.update(self.texts[op.inst].encode())
            h.update(" ".join(self._caps(self.corpus.instances[op.inst])).encode())
        return h.hexdigest()[:16]

    def run(self, index: int, op: Op) -> Result:
        delta, expect = self.resolve(op)
        res = Result(index, op, self.input_key(op, delta), delta, expect)
        argv = self.argv(op, delta)
        if op.kind == "solve" and os.path.exists(self.schedule_path):
            os.remove(self.schedule_path)
        t0 = res.started = perf_counter()
        res.calls.append(call_cli(self.cli, argv))
        if op.kind == "solve" and res.calls[0].code == 0 and os.path.exists(self.schedule_path):
            res.calls.append(call_cli(self.cli, ["verify", argv[1], self.schedule_path]))
        res.seconds = perf_counter() - t0
        if op.kind == "solve":
            if os.path.exists(self.schedule_path):
                with open(self.schedule_path, "rb") as fh:
                    res.schedule = fh.read()
            if res.calls[0].code in (0, 1):
                try:
                    self.optimum[op.inst] = parse_optimum(res.calls[0].stdout)
                except (ValueError, ZeroDivisionError):
                    pass
        return res
