"""The package raises exactly two errors of its own: ``ConfigError`` for
bad input and ``RunInvariantError`` for a simulator defect. The mission's
abort flag and its leader each have one writer, so an abort and a
promotion are each decided in one place; drone phases have two, and both
store only what the phase machine returns."""
import ast
import builtins
from pathlib import Path

import swarmsim

SRC = Path(swarmsim.__file__).resolve().parent
ERRORS = {"ConfigError", "RunInvariantError"}


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _base_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_builtin_exception(name) -> bool:
    obj = getattr(builtins, name or "", None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def test_the_package_defines_exactly_two_exception_classes():
    classes = [node for _, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions: set[str] = set()
    grew = True
    while grew:  # a subclass of a package exception is one too
        found = {c.name for c in classes
                 if any(_is_builtin_exception(_base_name(b)) or _base_name(b) in exceptions
                        for b in c.bases)}
        grew = found != exceptions
        exceptions = found
    assert exceptions == ERRORS


def test_every_raise_is_one_of_the_two_errors_or_a_re_raise():
    stray = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _base_name(exc) not in ERRORS:
                stray.append(f"{module}:{node.lineno}")
    assert stray == []


def _attribute_writes(tree) -> list[tuple[str, str, ast.expr | None]]:
    """(attribute, qualified name of the enclosing function, stored value)
    of every attribute store, ``SwarmState`` or ``Drone`` keyword and
    ``setattr`` in a module; the value is None for an unpacked or augmented
    store."""
    writes = []
    values = {}  # id of an assignment's plain target -> the value it stores

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Assign):
            values.update((id(t), node.value) for t in node.targets)
        if isinstance(node, ast.AnnAssign):
            values[id(node.target)] = node.value
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            writes.append((node.attr, scope, values.get(id(node))))
        if isinstance(node, ast.Call):
            if _base_name(node.func) in ("SwarmState", "Drone"):
                writes.extend((k.arg, scope, k.value) for k in node.keywords)
            if (_base_name(node.func) == "setattr" and len(node.args) > 2
                    and isinstance(node.args[1], ast.Constant)):
                writes.append((node.args[1].value, scope, node.args[2]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return writes


def test_only_the_abort_sets_aborted_and_only_the_promotion_moves_the_leader():
    writers = {"aborted": set(), "leader_id": set()}
    for module, tree in _trees():
        for attr, scope, _ in _attribute_writes(tree):
            if attr in writers:
                writers[attr].add(f"{module}:{scope}")
    assert writers == {"aborted": {"runner.py:_Mission._abort"},
                       "leader_id": {"failure.py:_promote", "swarm.py:init_swarm"}}


def test_only_the_mission_move_and_the_isolation_store_phases_from_the_machine():
    # (writer, whether the stored value is a transition_phase call)
    writers = set()
    for module, tree in _trees():
        for attr, scope, value in _attribute_writes(tree):
            if attr == "phase":
                by_machine = (isinstance(value, ast.Call)
                              and _base_name(value.func) == "transition_phase")
                writers.add((f"{module}:{scope}", by_machine))
    assert writers == {("runner.py:_Mission._move", True),
                       ("failure.py:isolate_drone", True)}
