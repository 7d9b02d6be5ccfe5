"""The runtime imports only the standard library, as ``dependencies = []`` promises."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "serpsim").glob("*.py"))


def _outside_stdlib(source: str) -> list[str]:
    """Top-level names of the imports in ``source`` that are neither serpsim,
    relative, nor a standard-library module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return [top for top in tops if top != "serpsim" and top not in sys.stdlib_module_names]


def test_sources_found():
    assert "urlnorm.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_stdlib(path):
    assert _outside_stdlib(path.read_text(encoding="utf-8")) == []


def test_third_party_import_is_flagged():
    source = "import json, regex.core\nfrom . import errors\nfrom numpy import array\n"
    assert _outside_stdlib(source) == ["regex", "numpy"]
