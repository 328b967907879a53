"""The public API holds only what the package or its README needs.

A public top-level name in ``src/`` must be used in ``src/`` outside the
statement that defines it, or be named in README.md.  A name that only
tests need belongs in ``tests/oracles.py``.  Re-exports in the package's
``__init__`` do not count as uses: the README names the root exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "decoyroute"


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _referenced_names(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unused_public_names(modules: dict[str, str], readme: str) -> list[str]:
    """``module.name`` for each public top-level name used neither elsewhere in ``modules``
    nor in ``readme``; ``modules`` maps a module name to its source."""
    statements = [
        (module, statement)
        for module, source in modules.items()
        for statement in ast.parse(source).body
    ]
    references = [
        set() if module == "__init__" else _referenced_names(statement)
        for module, statement in statements
    ]
    unused = []
    for here, (module, statement) in enumerate(statements):
        for name in _defined_names(statement):
            if name.startswith("_"):
                continue
            used = any(name in refs for there, refs in enumerate(references) if there != here)
            if not used and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(f"{module}.{name}")
    return unused


def test_sweep_flags_a_name_only_tests_could_use():
    modules = {
        "a": "LIMIT = 3\ndef helper(x):\n    return helper(x - 1) if x else LIMIT\n",
        "b": "from .a import helper\n\nclass Shown:\n    pass\n",
        "__init__": "from .a import LIMIT\n",
    }
    # `helper` calls itself, which is no use, but b imports it; `LIMIT` is
    # used inside `helper` (the __init__ re-export does not count); `Shown`
    # is named in the README.
    assert unused_public_names(modules, readme="`Shown`") == []
    # Without b's import only `helper` itself calls it; `Hidden` is nowhere.
    modules["b"] = "class Hidden:\n    pass\n"
    assert unused_public_names(modules, readme="") == ["a.helper", "b.Hidden"]


def test_every_public_name_in_src_is_used_by_src_or_named_in_the_readme():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    assert unused_public_names(modules, readme) == []
