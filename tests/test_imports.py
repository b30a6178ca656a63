"""Every module of the package and of its tests uses what it imports.

The scan reads each file with ``ast``: a name bound by an import counts as
used when the module loads it anywhere (annotations included, also those
written as strings) or lists it in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _annotation_names(tree: ast.AST):
    """Names loaded by the string annotations of ``tree``."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            arguments += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in arguments] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from _loaded_names(ast.parse(part.value, mode="eval"))


def _loaded_names(tree: ast.AST):
    return (node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def unused_imports(source: str):
    """(line, name) of every import binding in ``source`` that is never used."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = set(_loaded_names(tree)) | set(_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import List, Tuple\nx: 'List[int]' = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Tuple")]


def test_names_in_all_count_as_used():
    assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []


def test_no_module_has_an_unused_import():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
