"""The runner drives the engine through its public names only: the queue's
bookkeeping and the link's timing, buffer and counters stay in ``netsim``,
so a closed form that needs them is a ``Link`` method, not a runner copy.
Within ``netsim``, ``Link.send`` is the one admission path: a train slot
that is not completed in place offers its packet through it."""
import ast
from pathlib import Path

import swarmsim

RUNNER = Path(swarmsim.__file__).resolve().parent / "runner.py"
NETSIM = RUNNER.with_name("netsim.py")
# what admitting a packet touches: the admission cache, the buffer charge,
# serving, a key's first entry and the counters' owner
ADMISSION = {"_admits", "_buffered_bits", "_serve", "_new_admission", "metrics"}


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


def _method(tree, cls: str, name: str):
    (node,) = [fn for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
               for fn in c.body if isinstance(fn, ast.FunctionDef) and fn.name == name]
    return node


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_a_train_slot_admits_nothing_itself():
    # the in-place completion reads a key's cached entry (Link._cached) and
    # counts what it completes; admitting is send's
    step = _method(ast.parse(NETSIM.read_text(encoding="utf-8")), "_Train", "step")
    assert _names(step) & ADMISSION == set()
    assert "send" in _names(step)


def test_the_admission_names_are_the_ones_send_uses():
    send = _method(ast.parse(NETSIM.read_text(encoding="utf-8")), "Link", "send")
    assert ADMISSION <= _names(send)
