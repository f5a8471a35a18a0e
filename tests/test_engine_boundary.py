"""The runner drives the engine through its public names only: the queue's
bookkeeping and the link's timing, buffer and counters stay in ``netsim``,
so a closed form that needs them is a ``Link`` method, not a runner copy."""
import ast
from pathlib import Path

import swarmsim

RUNNER = Path(swarmsim.__file__).resolve().parent / "runner.py"


def _private_reaches(tree):
    """(line, source) of each read or write of a ``_``-prefixed, non-dunder
    attribute of anything but ``self``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            yield node.lineno, ast.unparse(node)


def test_the_runner_touches_no_private_name_of_another_object():
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    assert list(_private_reaches(tree)) == []


def test_the_walk_sees_private_names_behind_any_object_but_self():
    tree = ast.parse("q._heap\nself.wlan._admits += 1\nself._move()\nx.__class__\n")
    assert [src for _, src in _private_reaches(tree)] == ["q._heap", "self.wlan._admits"]
