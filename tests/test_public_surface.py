"""Nothing public is kept that only tests call.

Every public module-level function or class of ``src/blackedge``, and
every public method of those classes, must be used somewhere other than
the tests: named in the library outside ``__init__.py``, named in
``perfbench/`` (imports included), or documented in backticks in
``README.md``.  Click commands are exempt: the CLI calls them.  Names
are matched by identifier, not by type, so a method counts as used when
any attribute of that name is read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blackedge"


def _is_click_command(node) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _public_definitions() -> list[tuple[str, str]]:
    """(qualified name, identifier) of each public def and class, and of
    each public method of those classes."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or _is_click_command(node):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _identifiers(tree, imports: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _used_names() -> set[str]:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _identifiers(ast.parse(path.read_text()), imports=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _identifiers(ast.parse(path.read_text()), imports=True)
    readme = (ROOT / "README.md").read_text()
    fence = re.compile(r"```.*?```", re.S)
    for span in fence.findall(readme) + re.findall(r"`([^`]+)`", fence.sub("", readme)):
        used |= set(re.findall(r"\w+", span))
    return used


def test_every_public_name_is_used_outside_the_tests():
    definitions = _public_definitions()
    assert len(definitions) > 50  # the scan sees the library
    used = _used_names()
    assert [qualified for qualified, name in definitions if name not in used] == []
