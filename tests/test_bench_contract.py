"""The benchmark's layer tracer names program functions by attribute path.

`bench/tracing.py` reports a function it cannot find as absent and its
metrics as 0, so a rename would silently zero a per-layer metric.  These
tests read its tables, without changing it, and resolve every path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"weylflow.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module,path", [(spec[1], spec[2]) for spec in tracing.SPECS], ids=lambda x: x
)
def test_traced_function_exists(module, path):
    assert callable(_resolve(module, path))


@pytest.mark.parametrize("name", tracing.VERIFY_CHECKS)
def test_traced_verify_check_exists(name):
    assert callable(_resolve("verify", name))
