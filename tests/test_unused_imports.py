"""No module under ``src/repro`` imports a name it never uses.

A static scan with the stdlib ``ast`` module.  A name counts as used when
it appears as an identifier anywhere in the module, is listed in the
module's ``__all__`` (a deliberate re-export), or appears inside a string
annotation (``"Optional[Tracer]"`` next to a ``TYPE_CHECKING`` import).
Package ``__init__.py`` files are skipped: importing names is how they
re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    bound: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> Set[str]:
    used = set(_names_in(tree))
    for annotation in _annotations(tree):
        for child in ast.walk(annotation):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                used.update(_names_in(ast.parse(child.value, mode="eval")))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> Dict[str, int]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return {
        name: line for name, line in _imported(tree).items() if name not in used
    }


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path)
    assert not unused, ", ".join(
        f"{path.name}:{line} imports {name}" for name, line in sorted(unused.items())
    )


def test_scan_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from json import JSONDecoder\n"
        "from pathlib import Path as P\n"
        "__all__ = ['P']\n"
        "def f(x: 'Optional[JSONDecoder]') -> List[int]:\n"
        "    return [os.getpid()]\n"
    )
    assert unused_imports(module) == {"sys": 2}
