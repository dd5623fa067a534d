"""Source hygiene: nothing in ``src/repro`` that nothing uses.

An AST scan (it imports nothing and takes about a second) that fails
on

* a module-level import that a non-``__init__`` module of
  ``src/repro`` never uses, and
* a function, method or class in ``src/repro`` that nothing in
  ``src/``, ``tests/``, ``benchmarks/``, ``perfbench/`` or
  ``examples/`` references.

A reference to a function or class is a name, an attribute, an
imported name, or an identifier inside a string constant or f-string
(so quoted forward annotations count).  A method is referenced only
when something reads it as an attribute or names it in a string that
is exactly its name (the ``getattr`` case): a local variable that
shares a method's name does not keep the method alive.  Docstrings do
not count, and neither do the imports and ``__all__`` strings of
``src/repro/**/__init__.py``: a definition that only prose mentions, or
that a package only re-exports, is still dead.
"""

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CORPUS = ("src", "tests", "benchmarks", "perfbench", "examples")

#: Methods the standard library calls by name
#: (``BaseHTTPRequestHandler`` dispatches ``do_<METHOD>``).
CALLED_BY_NAME = frozenset({"do_GET", "do_POST", "do_PUT", "do_DELETE",
                            "log_message"})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _parse_corpus() -> Dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for top in CORPUS for path in sorted((ROOT / top).rglob("*.py"))}


def _docstrings(tree: ast.AST) -> Set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _references(nodes, docstrings: Set[int]) -> Set[str]:
    names: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                names.update(_IDENTIFIER.findall(node.value))
    return names


def _attribute_references(nodes, docstrings: Set[int]) -> Set[str]:
    """Attributes read, and strings that are exactly an identifier."""
    names: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in docstrings \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def _in_package(path: Path) -> bool:
    return PACKAGE in path.parents


def _is_reexport(stmt: ast.stmt) -> bool:
    return isinstance(stmt, _IMPORTS) or (
        isinstance(stmt, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets))


def _counted(path: Path, tree: ast.Module) -> List[ast.AST]:
    """What in ``tree`` can keep a definition alive: everything but a
    package ``__init__``'s imports and ``__all__``."""
    if _in_package(path) and path.name == "__init__.py":
        return [stmt for stmt in tree.body if not _is_reexport(stmt)]
    return [tree]


def unused_imports(corpus: Dict[Path, ast.Module]) -> List[str]:
    """``path:line name`` of every module-level import its module never
    uses (``__init__`` modules re-export, so they are skipped)."""
    problems = []
    for path, tree in corpus.items():
        if not _in_package(path) or path.name == "__init__.py":
            continue
        body = [stmt for stmt in tree.body if not isinstance(stmt, _IMPORTS)]
        used = _references(body, _docstrings(tree))
        for stmt in tree.body:
            if not isinstance(stmt, _IMPORTS) or (
                    isinstance(stmt, ast.ImportFrom)
                    and stmt.module == "__future__"):
                continue
            for alias in stmt.names:
                bound = alias.asname or (
                    alias.name.split(".")[0]
                    if isinstance(stmt, ast.Import) else alias.name)
                if bound not in used:
                    problems.append(f"{path.relative_to(ROOT)}:"
                                    f"{stmt.lineno} {bound}")
    return problems


def unreferenced_definitions(corpus: Dict[Path, ast.Module]) -> List[str]:
    """``path:line name`` of every function, method or class in
    ``src/repro`` that nothing in the corpus references."""
    referenced: Set[str] = set()
    attributes: Set[str] = set()
    for path, tree in corpus.items():
        nodes, docstrings = _counted(path, tree), _docstrings(tree)
        referenced.update(_references(nodes, docstrings))
        attributes.update(_attribute_references(nodes, docstrings))
    problems = []
    for path, tree in corpus.items():
        if not _in_package(path):
            continue
        methods = {id(stmt) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for stmt in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            used = attributes if id(node) in methods else referenced
            if name.startswith("__") and name.endswith("__") \
                    or name in CALLED_BY_NAME or name in used:
                continue
            problems.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return problems


@pytest.fixture(scope="module")
def corpus() -> Dict[Path, ast.Module]:
    return _parse_corpus()


def test_no_unused_imports(corpus):
    assert unused_imports(corpus) == []


def test_no_unreferenced_definitions(corpus):
    assert unreferenced_definitions(corpus) == []
