"""Every command and demo in tests/golden/ prints exactly its transcript.

The transcripts hold stdout, stderr and the exit code byte for byte; a
change that moves output on purpose regenerates them with
`python tests/golden/regen.py` and commits the diff.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylflow

_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


def _line(lines, k):
    return lines[k] if k < len(lines) else "<end of transcript>"


@pytest.mark.parametrize("stem", list(regen.CASES))
def test_transcript_is_unchanged(stem):
    case = regen.CASES[stem]
    path = regen.path_of(stem)
    assert path.is_file(), f"no transcript {path.name}: run python tests/golden/regen.py"
    want = path.read_text(encoding="utf-8")
    got = regen.transcript(case)
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    line = next(
        (k for k, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
        min(len(got_lines), len(want_lines)),
    )
    pytest.fail(
        f"{regen.title(case)}: transcript line {line + 1} differs\n"
        f"  golden: {_line(want_lines, line)!r}\n  now:    {_line(got_lines, line)!r}",
        pytrace=False,
    )


def test_verify_into_a_file_prints_its_transcript_once(tmp_path):
    # a file, as bench/launch.py gives, is block-buffered: the header is still
    # in the buffer when the suite forks, and a child that flushed its copy
    # would print it twice
    stem = "verify-k33-r1"
    env = dict(os.environ, PYTHONPATH=str(Path(weylflow.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open(tmp_path / "stdout.txt", "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "weylflow.cli", *regen.CASES[stem]],
            stdout=out, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    text = (tmp_path / "stdout.txt").read_text()
    assert text.count("== k33 ==") == 1
    outcome = (proc.returncode, text, proc.stderr.decode())
    assert regen.transcript(regen.CASES[stem], outcome) == regen.path_of(stem).read_text()
