"""Every function, class, method and property defined in the package has
a caller: a use in the package (an export from ``__init__`` counts) or
in the bench scripts, a name the bench tracer wraps, or a mention in the
README.  The tests are no callers: what only they use belongs in
``tests/oracles.py``.

A function or class is used where its name is read at all; a method or
property only where some code reads it as an attribute, since a bare
name of the same spelling (a local variable, say) is not a call of it.
What this check still cannot see is which class an attribute read
belongs to: a method whose name another class also defines (``is_zero``,
``evaluate``, ``weighted_degree``, ...) passes on the other class's
uses.  Every such name was audited by hand, and found called for each
class, when ``Polynomial.scale``, ``VectorField.zero`` and
``LeavesReport.verdict`` were deleted: only the tests called them, and
they had passed on ``VectorField.scale``, ``PolyRing.zero`` and
``IncompressibilityReport.verdict``."""

import ast
import re
from collections import Counter
from pathlib import Path

from test_bench_spans import load_spans

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "leafalg").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, definition node, whether it is a member) of each
    module-level function and class and of each method and property of
    a module-level class; a member's name carries its class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item, True


def _uses(node) -> tuple[Counter, Counter]:
    """How often each name is read inside ``node``: as an identifier, an
    attribute or an import; and as a read attribute alone."""
    found, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
            if isinstance(sub.ctx, ast.Load):
                attributes[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
    return found, attributes


def test_every_definition_has_a_caller():
    trees = [ast.parse(path.read_text(), str(path)) for path in USERS]
    counts = [_uses(tree) for tree in trees]
    uses = [sum((c[member] for c in counts), Counter()) for member in (False, True)]
    readme = re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)", (ROOT / "README.md").read_text())
    mentioned = {word for ref in readme for word in ref.split(".")}
    traced = {name for names in load_spans().TRACED.values() for name in names}
    dead = [
        f"{path.stem}.{qualified}"
        for path, tree in zip(USERS, trees)
        if path in PACKAGE
        for qualified, node, member in _definitions(tree)
        if not ((name := node.name).startswith("__") and name.endswith("__"))
        and name not in traced
        and name not in mentioned
        and uses[member][name] == _uses(node)[member][name]  # every use is inside the definition
    ]
    assert not dead, f"defined but never used: {dead}"
