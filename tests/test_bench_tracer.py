"""The benchmark tracer wraps functions that exist.

``perfbench/tracing.py`` rebinds the ``dwe`` functions named in its
``WRAPPED`` table; a renamed or deleted one would only show up as "not
traced" in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_wrapped():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


WRAPPED = _load_wrapped()


@pytest.mark.parametrize("module", sorted(WRAPPED))
def test_traced_functions_exist(module):
    mod = importlib.import_module(f"dwe.{module}")
    missing = [name for name in WRAPPED[module]
               if not callable(getattr(mod, name, None))]
    assert not missing, f"dwe.{module} lacks {missing}"
