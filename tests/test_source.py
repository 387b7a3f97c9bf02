"""Static checks on the package source: nothing in it is dead.

Every module of ``roversweep`` is parsed with ``ast``.  A module-level
``_private`` name that no module of the package reads is dead, and so is
an import that its own module never reads.  Only ``exact`` spells an
infinity; every other module uses its ``INFINITY``.  Imports on a line marked
``# noqa: F401`` are kept on purpose (names bound for other code to
find), and the package ``__init__`` imports are its public names.
Answers are verified at one exit: ``oracle.witnessed`` is called only
by the router, ``fault_line.solve`` and ``fault_line.decide``.  The
solvers read a line or a ring through its shared geometry (``positions``
and ``lap``): outside ``instance`` only ``fault_line.replicate_ring``,
which glues copies of a ring's edges, and the independent reference
``oracle.enumerate_walks`` read ``edge_weights`` or ``coordinates``.  Nothing
ships that only tests need: every public function, class and method is
read by some module other than the package ``__init__``, save the few
names listed with the code outside the package that still reads them.
"""

import ast
import os

import roversweep

PACKAGE = os.path.dirname(roversweep.__file__)


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                text = fh.read()
            yield name, text.splitlines(), ast.parse(text)


def _loaded(tree) -> set:
    """The names a module reads as variables."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read_anywhere(trees) -> set:
    """The names any module reads: as variables, as attributes, or by
    importing them from another module."""
    out = set()
    for tree in trees:
        out |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def _private_definitions(tree):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield stmt.lineno, name


def _unused_imports(lines, tree):
    loaded = _loaded(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield alias.lineno, bound


def test_the_package_holds_no_dead_names_or_unused_imports():
    modules = list(_modules())
    read = _read_anywhere(tree for _, _, tree in modules)
    dead = []
    for name, lines, tree in modules:
        dead += [f"{name}:{line}: {n} is never read" for line, n in _private_definitions(tree) if n not in read]
        if name != "__init__.py":
            dead += [f"{name}:{line}: import {n} is unused" for line, n in _unused_imports(lines, tree)]
    assert dead == []


def _callers(tree, callee: str):
    """The top-level definition around each call of ``callee``."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                    yield getattr(stmt, "name", None)


def test_only_exact_spells_infinity():
    # one "never" value: every other module takes INFINITY from exact
    spelled = [
        f"{name}:{number}"
        for name, lines, _ in _modules() if name != "exact.py"
        for number, line in enumerate(lines, 1)
        if any(word in line for word in ("math.inf", 'float("inf")', "float('inf')"))
    ]
    assert spelled == []


def test_only_the_router_verifies_answers():
    callers = [(name, caller) for name, _, tree in _modules() for caller in _callers(tree, "witnessed")]
    assert sorted(callers) == [("fault_line.py", "decide"), ("fault_line.py", "solve")]


def test_only_the_reference_and_the_replicator_read_raw_lengths():
    readers = {
        (name, getattr(stmt, "name", None))
        for name, _, tree in _modules() if name != "instance.py"
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr in ("edge_weights", "coordinates")
    }
    assert readers == {("fault_line.py", "replicate_ring"), ("oracle.py", "enumerate_walks")}


# Public names that no module of the package reads, each with the code
# outside it that does; they go with that code's next change.
READ_ONLY_OUTSIDE = {
    "ring.solve_ring_fixed": "wrapped by perfbench/spans.py (TRACED)",
    "ring.solve_ring_free": "wrapped by perfbench/spans.py (TRACED)",
    "ring.solve_ring_free_faulty": "wrapped by perfbench/spans.py (TRACED)",
    "ring.decide_ring_fixed_faulty": "wrapped by perfbench/spans.py (TRACED) and named in perfbench/test_bench.py",
    "ring.optimize_ring_fixed_faulty": "wrapped by perfbench/spans.py (TRACED) and run by perfbench/scale_report.py",
    "single_robot.interval_table": "wrapped by perfbench/spans.py (TRACED)",
    "state_graph.StateGraph.arc_count": "the state_graph.arcs counter of perfbench/spans.py",
}


def _public_definitions(module: str, tree):
    """``module.name`` of each public top-level def and class, and
    ``module.Class.name`` of each public method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield f"{module}.{stmt.name}", stmt.name
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{module}.{stmt.name}.{node.name}", node.name


def test_every_public_name_is_read_by_the_package():
    modules = list(_modules())
    read = _read_anywhere(tree for name, _, tree in modules if name != "__init__.py")
    unread = {
        qualified
        for name, _, tree in modules
        for qualified, bare in _public_definitions(name[:-3], tree)
        if bare not in read
    }
    assert unread == set(READ_ONLY_OUTSIDE)
