"""Every property test draws the same examples on every tier-1 run: the
profile that ``conftest.py`` loads fixes that, and no ``@settings`` may
override it, so what a test catches does not change between two runs."""
import ast
from pathlib import Path

from hypothesis import settings

TESTS = Path(__file__).resolve().parent
# what the loaded profile alone decides
PROFILE_ONLY = {"derandomize", "database"}


def _settings_overrides(tree):
    """(line, keyword) of each ``derandomize`` or ``database`` keyword of a
    ``settings(...)`` or ``hypothesis.settings(...)`` decorator."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            func = deco.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "settings":
                yield from ((deco.lineno, kw.arg) for kw in deco.keywords
                            if kw.arg in PROFILE_ONLY)


def test_no_settings_decorator_overrides_the_profile():
    found = [(path.name, line, kw) for path in sorted(TESTS.glob("*.py"))
             for line, kw in _settings_overrides(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_walk_sees_an_override_on_a_function_or_a_method():
    tree = ast.parse(
        "@settings(max_examples=5, derandomize=True)\ndef f(): pass\n"
        "class T:\n    @hypothesis.settings(database=None)\n    def g(self): pass\n"
        "@settings(max_examples=5)\ndef h(): pass\n")
    assert list(_settings_overrides(tree)) == [(1, "derandomize"), (4, "database")]


def test_tier1_draws_the_same_examples_every_run():
    assert settings.get_current_profile_name() == "tier1"
    assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None
