"""Every name the benchmark's tracer wraps must still exist.

perfbench/tracer.py replaces (owner, attribute) pairs listed in SPANS and
COUNTERS; if one of them is renamed or deleted, ``perfbench/run.py
--trace 1`` fails at install time.  The tracer is loaded by path, since
perfbench is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("entry", tracer.SPANS + tracer.COUNTERS,
                         ids=lambda e: f"{getattr(e[0], '__name__', e[0])}.{e[1]}")
def test_traced_name_resolves(entry):
    owner, attr = entry[0], entry[1]
    assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"
