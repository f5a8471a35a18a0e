"""The runner drives the engine through its public names only: the queue's
bookkeeping and the link's timing, buffer and counters stay in ``netsim``,
so a closed form that needs them is a ``Link`` method, not a runner copy.
Within ``netsim``, ``Link.send`` is the one admission path: a train slot
that is not completed in place offers its packet through it. A runner
function that registers a train with a settle hook does so as its last act,
since the hook may settle the round at registration. The roster epoch is
a value that ``_Mission._refresh_senders`` alone replaces."""
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


def _settling_trains(tree):
    """(function, whether it is the function's last statement) of each
    ``train(...)`` call that passes a settle hook, the sixth argument."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        last = fn.body[-1]
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "train"
                    and (len(node.args) >= 6 or any(kw.arg == "settle" for kw in node.keywords))):
                yield fn.name, isinstance(last, ast.Expr) and last.value is node


def test_a_train_with_a_settle_hook_is_its_function_s_last_act():
    # the hook may run at registration, so nothing after it in the same
    # event may change what the round settles on
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    assert sorted(_settling_trains(tree)) == [
        ("_on_waypoint_delivered", True), ("_status_tick", True)]


def test_the_registration_walk_sees_a_hook_by_keyword_or_position():
    tree = ast.parse(
        "def a():\n    l.train(t, x, p, settle=s)\n    f()\n"
        "def b():\n    if c:\n        l.train(t, x, p, cb, tie, s)\n"
        "def c():\n    l.train(t, x, p, cb)\n    f()\n"
        "def d():\n    f()\n    l.train(t, x, p, settle=s)\n")
    assert list(_settling_trains(tree)) == [("a", False), ("b", False), ("d", True)]


def _epoch_writers(tree):
    """The enclosing function (None at module or class level) of each
    store to or delete of an ``epoch`` attribute, and of each ``setattr``
    call that names one."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and node.attr == "epoch"
                and isinstance(node.ctx, (ast.Store, ast.Del)))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "epoch")):
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parents.get(scope)
            yield getattr(scope, "name", None)


def test_only_the_refresh_replaces_the_roster_epoch():
    # the epoch is a value: one function builds it and the refresh alone
    # swaps it in, so no round can see a half-built or edited roster
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    assert list(_epoch_writers(tree)) == ["_refresh_senders"]


def test_the_epoch_walk_sees_every_kind_of_store():
    tree = ast.parse(
        "def a():\n    self.epoch = e\n"
        "def b():\n    self.epoch, n = e, 1\n"
        "def c():\n    setattr(self, 'epoch', e)\n"
        "def d():\n    del m.epoch\n"
        "def e():\n    f(lambda: setattr(m, 'epoch', e))\n    x = self.epoch.flight_acks\n"
        "self.epoch += 1\n")
    assert sorted(_epoch_writers(tree), key=str) == [None, "a", "b", "c", "d", "e"]
