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
