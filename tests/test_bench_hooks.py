"""The benchmark tracer's call sites must name real module attributes."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _call_sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, name) for m, names in module.CALL_SITES for name in names]


@pytest.mark.parametrize("module_name, name", _call_sites())
def test_call_site_resolves(module_name, name):
    # The tracer swaps each (module, name) for a timed wrapper; a name the
    # module no longer has would make the traced benchmark fail.
    assert callable(getattr(importlib.import_module(module_name), name))
