"""Every memo in the package is a bounded ``functools.lru_cache``: each
``lru_cache`` is given a positive ``maxsize=`` literal, and there is no
``functools.cache`` and no ``__missing__``.  ``functools.cached_property``
is allowed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/dwe").glob("*.py"))


def _bounded(call: ast.Call) -> bool:
    """Whether an ``lru_cache(...)`` call passes ``maxsize=`` a positive
    int literal and nothing else."""
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (not call.args and len(call.keywords) == 1 and len(sizes) == 1
            and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value > 0)


def unbounded_memos(source: str) -> list[str]:
    """Each memo in ``source`` that the rule above forbids."""
    tree = ast.parse(source)
    modules, lru_names = {"functools"}, {"lru_cache"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names
                           if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == "lru_cache":
                    lru_names.add(alias.asname or alias.name)
                elif alias.name == "cache":
                    found.append((node.lineno, "functools.cache"))
    called = {id(node.func): node for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__missing__":
            found.append((node.lineno, "__missing__"))
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name) \
                and node.value.id in modules:
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in lru_names:
            name = "lru_cache"
        else:
            continue
        if name == "cache":
            found.append((node.lineno, "functools.cache"))
        elif name == "lru_cache":
            call = called.get(id(node))
            if call is None or not _bounded(call):
                found.append((node.lineno, "lru_cache without maxsize="))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_sees_each_unbounded_memo():
    source = (
        "import functools\nimport functools as ft\n"
        "from functools import lru_cache, cache, cached_property\n"
        "@functools.lru_cache(maxsize=4096)\ndef a(x): pass\n"
        "@functools.lru_cache\ndef b(x): pass\n"
        "@lru_cache()\ndef c(x): pass\n"
        "@ft.lru_cache(maxsize=None)\ndef d(x): pass\n"
        "e = functools.lru_cache(4096)(len)\n"
        "f = lru_cache(maxsize=0)(len)\n"
        "g = functools.lru_cache(maxsize=8)(len)\n"
        "@functools.cache\ndef h(x): pass\n"
        "class Days(dict):\n"
        "    @cached_property\n    def i(self): pass\n"
        "    @functools.cached_property\n    def j(self): pass\n"
        "    def __missing__(self, key): pass\n"
        "k = lru_cache(maxsize=True)(len)\n")
    assert unbounded_memos(source) == [
        "line 3: functools.cache",
        "line 6: lru_cache without maxsize=",
        "line 8: lru_cache without maxsize=",
        "line 10: lru_cache without maxsize=",
        "line 12: lru_cache without maxsize=",
        "line 13: lru_cache without maxsize=",
        "line 15: functools.cache",
        "line 22: __missing__",
        "line 23: lru_cache without maxsize="]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_every_memo_is_a_bounded_lru_cache(path):
    assert unbounded_memos(path.read_text(encoding="utf-8")) == []
