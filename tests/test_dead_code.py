"""Every top-level function and class of the package is used by the package
itself or exported through ``swarmsim.__all__``."""
import ast
from pathlib import Path

import swarmsim

SRC = Path(swarmsim.__file__).resolve().parent


def _definitions_and_uses():
    """Top-level definitions as (module, name), and every name used, paired
    with the top-level definition it appears in (None at module level)."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                defined.append((path.name, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add((sub.id, owner))
                elif isinstance(sub, ast.Attribute):
                    used.add((sub.attr, owner))
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
