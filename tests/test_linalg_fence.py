"""Every least-squares solve and factorisation of the package is in lsq:
no other module reads a ``numpy.linalg`` or ``scipy.linalg`` name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in (ROOT / "src/dwe").glob("*.py")
                 if path.name != "lsq.py")
FENCED = ("numpy.linalg", "scipy.linalg")


def linalg_uses(source: str) -> list[str]:
    """The numpy.linalg and scipy.linalg names ``source`` reads, through
    whatever names its imports bind, each at its longest dotted form."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bound[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    def dotted(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    def fenced(name: str | None) -> bool:
        return name is not None and any(
            name == module or name.startswith(f"{module}.")
            for module in FENCED)

    heads = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    uses = [(node.lineno, dotted(node)) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and id(node) not in heads and fenced(dotted(node))]
    return [f"line {line}: {name}" for line, name in sorted(uses)]


def test_scan_sees_each_way_of_naming_a_solve():
    source = ("import numpy as np\nimport scipy.linalg\n"
              "from scipy import linalg as sla\n"
              "from numpy.linalg import pinv\n"
              "np.linalg.lstsq(a, b)\nscipy.linalg.qr(a)\nsla.solve(a, b)\n"
              "pinv(a)\nnp.linalg.norm(a)\nsla.lapack.dgeqrf(a)\n")
    assert linalg_uses(source) == [
        "line 5: numpy.linalg.lstsq",
        "line 6: scipy.linalg.qr", "line 7: scipy.linalg.solve",
        "line 8: numpy.linalg.pinv", "line 9: numpy.linalg.norm",
        "line 10: scipy.linalg.lapack.dgeqrf"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_solve_outside_lsq(path):
    assert linalg_uses(path.read_text(encoding="utf-8")) == []
