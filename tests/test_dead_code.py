"""Every top-level function and class of the package is used by the package
itself or exported through ``swarmsim.__all__``, and every method of a
package class is referenced by name within the package."""
import ast
from collections import Counter
from pathlib import Path

import swarmsim

SRC = Path(swarmsim.__file__).resolve().parent

# methods nothing in the package calls, each kept for a named reason
UNREFERENCED_METHODS = {
    # every counted delivery goes through Link._finish, which counts it
    # itself; the benchmark's tracer (perfbench/swarmtrace.py) still
    # patches this method by name
    "netsim.py:Metrics.delivered",
}


def _modules():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _names(node):
    """Every name and attribute name used under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions_and_uses():
    """Top-level definitions as (module, name), and every name used, paired
    with the top-level definition it appears in (None at module level)."""
    defined, used = [], set()
    for module, tree in _modules():
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                defined.append((module, owner))
            used.update((name, owner) for name in _names(node))
    return defined, used


def test_every_top_level_definition_is_used_or_exported():
    defined, used = _definitions_and_uses()
    exported = set(swarmsim.__all__)
    unused = [
        f"{module}:{name}" for module, name in defined
        if name not in exported
        and not any(n == name and owner != name for n, owner in used)
    ]
    assert unused == []


def test_every_method_is_referenced_outside_its_own_body():
    modules = _modules()
    uses = Counter(name for _, tree in modules for name in _names(tree))
    unreferenced = []
    for module, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = sum(name == fn.name for name in _names(fn))
                if uses[fn.name] == own:
                    unreferenced.append(f"{module}:{cls.name}.{fn.name}")
    # an allowed method that gains a caller must leave the list too
    assert sorted(unreferenced) == sorted(UNREFERENCED_METHODS)
