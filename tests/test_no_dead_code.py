"""Every function, class, method and property defined in the package has
a caller: a use in the package, the tests or the bench scripts, a name
the bench tracer wraps, or a mention in the README."""

import ast
import re
from collections import Counter
from pathlib import Path

from test_bench_spans import load_spans

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "leafalg").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, definition node) of each module-level function and class
    and of each method and property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _uses(node) -> Counter:
    """How often each name is read as an identifier, an attribute or an
    import inside ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
    return found


def test_every_definition_has_a_caller():
    trees = [ast.parse(path.read_text(), str(path)) for path in USERS]
    uses = sum((_uses(tree) for tree in trees), Counter())
    readme = re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)", (ROOT / "README.md").read_text())
    mentioned = {word for ref in readme for word in ref.split(".")}
    traced = {name for names in load_spans().TRACED.values() for name in names}
    dead = [
        f"{path.stem}.{name}"
        for path, tree in zip(USERS, trees)
        if path in PACKAGE
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in traced
        and name not in mentioned
        and uses[name] == _uses(node)[name]  # every use is inside the definition
    ]
    assert not dead, f"defined but never used: {dead}"
