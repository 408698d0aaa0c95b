"""The package's lazy re-exports, and what each command loads.

`import weylflow` and `import weylflow.cli` execute only the modules every
command needs; the others run when a command first reads one of their
attributes.  Startup is a per-process property, so these tests run the
program in fresh interpreters.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path, PurePosixPath

import pytest

import weylflow
from weylflow import fixtures

SRC = Path(weylflow.__file__).parents[1]

# runs `weylflow ARGS...` and writes the names of the modules that were
# executed to OUT; a module bound lazily but never read is not a
# types.ModuleType until it runs (type() does not trigger the load)
_RUN = """
import json, sys, types
from weylflow.cli import main
code = main(sys.argv[2:])
executed = [name for name, m in sys.modules.items() if type(m) is types.ModuleType]
with open(sys.argv[1], "w") as fh:
    json.dump(executed, fh)
sys.exit(code)
"""


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd,
                          timeout=120)


def _executed(tmp_path, *args) -> set:
    out = tmp_path / "modules.json"
    proc = _python("-c", _RUN, str(out), *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(json.loads(out.read_text()))


def test_validate_imports_no_numpy(tmp_path):
    executed = _executed(tmp_path, "validate", "a2q2")
    assert "weylflow.chamber" in executed
    assert not any(name == "numpy" or name.startswith("numpy.") for name in executed)


@pytest.mark.parametrize(
    "args", [["verify", "k33", "--radius", "2"], ["spectrum", "k33"], ["ihara", "k33"]]
)
def test_sampling_commands_never_execute_numpy_random(args, tmp_path):
    # the sample characters come from weylflow's own PCG64 stream
    executed = _executed(tmp_path, *args)
    assert {"numpy", "weylflow.pcg64"} <= executed
    assert not any(name == "numpy.random" or name.startswith("numpy.random.") for name in executed)


@pytest.mark.parametrize(
    "args",
    [["germs", "a2q2", "--radius", "2"], ["transfer", "k33", "--mu", "1", "--radius", "2"]],
)
def test_exports_never_execute_the_spectral_modules(args, tmp_path):
    executed = _executed(tmp_path, *args)
    assert {"numpy", "weylflow.sectors"} <= executed
    assert not executed & {"weylflow.spectra", "weylflow.verify", "weylflow.oracles"}


@pytest.mark.parametrize("command", ["spectrum", "koszul"])
def test_spectral_commands_never_execute_verify_or_the_oracles(command, tmp_path):
    # the commands build their family from sectors and transfer alone
    executed = _executed(tmp_path, command, "k33")
    assert {"weylflow.spectra", "weylflow.transfer"} <= executed
    assert not executed & {"weylflow.verify", "weylflow.oracles"}


def test_every_exported_name_resolves():
    for name in weylflow.__all__:
        assert getattr(weylflow, name) is not None
        assert name in dir(weylflow)
    namespace = {}
    exec("from weylflow import *", namespace)
    assert set(weylflow.__all__) <= set(namespace)
    assert weylflow.SectorSpace is weylflow.sectors.SectorSpace
    assert weylflow.load is weylflow.chamber.load
    assert weylflow.Family is weylflow.spectra.Family


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylflow.no_such_name
    assert not hasattr(weylflow, "cmd_validate")


def test_a_lazily_bound_module_is_the_imported_module():
    # cli binds transfer before anything imports it; a later import must
    # find that same object, on the package and in sys.modules
    proc = _python("-c", (
        "import sys, weylflow, weylflow.cli as cli\n"
        "import weylflow.transfer as t\n"
        "assert weylflow.transfer is t is cli.transfer is sys.modules['weylflow.transfer']\n"
        "assert t.TransferMatrix is weylflow.TransferMatrix\n"
    ))
    assert proc.returncode == 0, proc.stderr.decode()


def test_every_fixture_file_ships_with_the_package():
    # the JSON documents are the fixtures' only source: a file left out of
    # the package's data would make its name unusable
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["weylflow"]
    package = Path(weylflow.__file__).parent
    for name in fixtures.FIXTURES:
        relative = PurePosixPath("fixtures", f"{name}.json")
        assert (package / relative).is_file(), relative
        assert any(relative.match(pattern) for pattern in patterns), relative


@pytest.mark.parametrize("path", sorted(SRC.joinpath("weylflow").glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # an import that no line reads is what a deletion tends to leave behind
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in read} == {}


def test_every_defined_name_is_used():
    # a definition whose name no other line of the project reads is what a
    # move tends to leave behind; dunder names are called by the language
    lines_naming = Counter()
    for folder in ("src", "tests", "demos", "bench"):
        for path in SRC.parent.joinpath(folder).rglob("*.py"):
            for line in path.read_text(encoding="utf-8").splitlines():
                lines_naming.update(set(re.findall(r"\w+", line)))
    unused = []
    for path in sorted(SRC.joinpath("weylflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not re.fullmatch(r"__\w+__", node.name)
                and lines_naming[node.name] < 2  # the definition's own line only
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
