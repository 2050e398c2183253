"""``src/tabmt`` imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = {"numpy", "tabmt"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tabmt").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level package of each absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_or_numpy(path):
    foreign = [m for m in absolute_imports(path)
               if m not in sys.stdlib_module_names and m not in ALLOWED]
    assert foreign == []


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def reads(tree) -> set[str]:
    """Every name ``tree`` reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def module_names(tree) -> list[tuple[str, bool]]:
    """(name, bound by an import) for each name a module-level statement binds."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], True) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, True) for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, False) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    """Each module-level import is read in its module; ``__init__`` re-exports."""
    used = {n.id for n in ast.walk(TREES[path])
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    assert [n for n, imported in module_names(TREES[path])
            if imported and n not in used] == []


def test_every_private_name_is_read():
    """Each private module-level name is read somewhere in ``src/tabmt``."""
    read = set().union(*(reads(tree) for tree in TREES.values()))
    unread = [f"{path.stem}.{n}" for path, tree in TREES.items()
              for n, imported in module_names(tree)
              if not imported and n.startswith("_") and not n.startswith("__")
              and n not in read]
    assert unread == []
