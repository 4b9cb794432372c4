"""No module under ``src/repro`` keeps a top-level import it never uses.

A static scan with :mod:`ast` only.  A top-level ``import`` binding is used
when its name is read anywhere in the module (string annotations
included), is listed in the module's ``__all__``, or is imported from that
module by some file under ``src/``, ``tests/`` or ``bench/`` (a
re-export).  ``__init__.py`` files, whose imports are the package surface,
and ``from __future__`` imports are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REFERRERS = (ROOT / "src", ROOT / "tests", ROOT / "bench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _bindings(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` of every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, quoted annotations parsed too."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _dunder_all(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return {
                elt.value for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            }
    return set()


def _resolve(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imported_from() -> Dict[str, Set[str]]:
    """Per module, the names some file imports from it by name."""
    imported: Dict[str, Set[str]] = {}
    for top in REFERRERS:
        for path in top.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    module = _resolve(path, node) if top.name == "src" else node.module
                    names = imported.setdefault(module or "", set())
                    names.update(alias.name for alias in node.names)
    return imported


def unused_imports() -> List[Tuple[str, int, str]]:
    """``(file, line, name)`` of every unused top-level import in ``repro``."""
    imported = _imported_from()
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        kept = (
            _read_names(tree)
            | _dunder_all(tree)
            | imported.get(_module_name(path), set())
        )
        for line, name in _bindings(tree):
            if name not in kept:
                found.append((str(path.relative_to(ROOT)), line, name))
    return found


def test_no_unused_top_level_imports():
    found = unused_imports()
    assert not found, "unused imports:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in found
    )


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import List, Optional\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [system.maxsize]\n"
    )
    kept = _read_names(tree)
    assert [name for _, name in _bindings(tree) if name not in kept] == ["os"]
