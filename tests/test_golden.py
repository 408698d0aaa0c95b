"""Every command and demo in tests/golden/ prints exactly its transcript.

The transcripts hold stdout, stderr and the exit code byte for byte; a
change that moves output on purpose regenerates them with
`python tests/golden/regen.py` and commits the diff.
"""

import importlib.util
from pathlib import Path

import pytest

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
