"""Every function, class and method of ``risroute`` is reached by the program,
every name a ``risroute`` module imports is used in that module, and every
``SimConfig`` field is read by the program.

A name counts as reached when an identifier, attribute or string constant
in ``src/risroute`` or ``bench/`` outside the name's own definition spells
it (``bench/tracing.py`` rebinds targets it names in strings). Helpers that
only the tests call belong in the tests, as oracles next to the checks
that use them. Dunders are exempt, and so is ``cli.main``, the console
entry point declared in ``pyproject.toml``. An import counts as used when
an identifier of its module spells the bound name; ``from __future__``
imports are exempt. A config field counts as read when an attribute in
``src/risroute`` outside ``SimConfig.__post_init__`` (which only checks
values) spells it.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from risroute.config import SimConfig

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"cli.main"}


def references(node: ast.AST) -> Counter:
    """Identifiers, attribute names and string constants used under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of top-level functions and classes and their methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def unreached_names() -> list[str]:
    package = sorted((ROOT / "src" / "risroute").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted((ROOT / "bench").glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    unreached = []
    for path in package:
        for qualified, name, node in definitions(trees[path]):
            qualified = f"{path.stem}.{qualified}"
            if name.startswith("__") and name.endswith("__") or qualified in EXEMPT:
                continue
            if used[name] - references(node)[name] <= 0:
                unreached.append(qualified)
    return unreached


def test_every_definition_is_reached_by_the_program():
    assert unreached_names() == []


def unused_imports() -> list[str]:
    """``module.name`` for each name a ``src/risroute`` module imports but never uses."""
    unused = []
    for path in sorted((ROOT / "src" / "risroute").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def attribute_names(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unread_config_fields() -> list[str]:
    """``SimConfig`` fields no attribute of ``src/risroute`` spells, ``SimConfig.__post_init__`` aside."""
    read = Counter()
    for path in sorted((ROOT / "src" / "risroute").glob("*.py")):
        tree = ast.parse(path.read_text())
        read += attribute_names(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "SimConfig":
                read -= sum((attribute_names(f) for f in cls.body
                             if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"), Counter())
    return [f.name for f in fields(SimConfig) if read[f.name] <= 0]


def test_every_config_field_is_read():
    assert unread_config_fields() == []
