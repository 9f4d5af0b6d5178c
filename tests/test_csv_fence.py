"""Every table the package writes goes through ``corpus.write_table``:
no module but corpus imports ``csv``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in (ROOT / "src/dwe").glob("*.py")
                 if path.name != "corpus.py")


def csv_imports(source: str) -> list[str]:
    """Each import of csv, or of a name from it, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "csv" or name.startswith("csv.")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_sees_each_way_of_importing_csv():
    source = ("import json\nimport csv\nimport os, csv as c\n"
              "from csv import writer\nfrom .corpus import csv\n"
              "def f():\n    import csv\n")
    assert csv_imports(source) == [
        "line 2: csv", "line 3: csv", "line 4: csv", "line 7: csv"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_csv_outside_corpus(path):
    assert csv_imports(path.read_text(encoding="utf-8")) == []
