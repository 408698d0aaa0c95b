"""The benchmark's layer tracer names program functions by attribute path.

`bench/tracing.py` reports a function it cannot find as absent and its
metrics as 0, so a rename would silently zero a per-layer metric.  These
tests read its tables, without changing it, and resolve every path, and
run it on two small commands to see that the layers they call are traced.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize(
    "args, layers",
    [
        (["transfer", "k33", "--mu", "1", "--radius", "2"], {"transfer.transfer_matrix"}),
        (["verify", "k33", "--radius", "1"],
         {"transfer.transfer_matrix", "spectra.koszul_complexes"}),
    ],
    ids=["transfer", "verify"],
)
def test_a_traced_command_records_the_layers_it_runs(args, layers, tmp_path):
    # the tracer patches the modules that `import weylflow.cli` put in
    # sys.modules; a module that cli imported only inside a handler would
    # run unpatched, and its layers would read 0 without any error
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(TRACING.parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(spans_path), *args],
        capture_output=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(spans_path.read_text())
    assert doc["absent"] == []
    seen = {span[0] for span in doc["spans"]}
    assert layers <= seen
    if args[0] == "verify":
        assert any(layer.startswith("verify.check_") for layer in seen)
