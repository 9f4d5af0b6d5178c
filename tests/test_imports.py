"""Every name a module imports is used in that module, and every module
parses under the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/dwe", "tests", "scripts")
                 for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read in ``source``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") \
        == ["line 2: c", "line 1: os"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_sources_parse_at_the_python_floor():
    """Syntax only: a standard-library name newer than the floor, such as
    ``contextlib.chdir`` (3.11) on a 3.10 floor, passes here."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # tomllib is 3.11 and later
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
                      re.MULTILINE)
    assert floor is not None, "no requires-python floor in pyproject.toml"
    version = (int(floor[1]), int(floor[2]))
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=version)
