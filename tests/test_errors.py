"""The package raises exactly two errors of its own: ``ConfigError`` for
bad input and ``RunInvariantError`` for a simulator defect."""
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
