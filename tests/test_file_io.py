"""File I/O of the runtime goes through ``urlnorm``: it alone decodes input bytes,
and its one writer encodes a text before it opens the target."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "serpsim").glob("*.py"))


def _text_file_calls(source: str) -> list[str]:
    """The ``read_text``, ``write_text``, ``open``, ``write_bytes`` and ``decode`` calls in
    ``source``, by name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("read_text", "write_text", "open", "write_bytes", "decode"):
                names.append(name)
    return names


def test_sources_found():
    assert "urlnorm.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_text_file_call_outside_the_reader(path):
    calls = _text_file_calls(path.read_text(encoding="utf-8"))
    if path.name == "urlnorm.py":  # the reader and the writer, and default_fetch's request
        calls = [name for name in calls if name not in ("open", "write_bytes", "decode")]
    assert calls == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_reader_names_the_input_encoding(path):
    assert ("utf-8-sig" in path.read_text(encoding="utf-8")) == (path.name == "urlnorm.py")


def test_text_file_calls_are_flagged():
    source = (
        "p.read_text()\nPath(q).write_text(t)\nwith open(f) as h:\n    h.read()\n"
        "p.read_bytes()\nPath(q).write_bytes(b)\nb.decode()\n"
    )
    assert sorted(_text_file_calls(source)) == [
        "decode", "open", "read_text", "write_bytes", "write_text"
    ]
