"""Golden transcripts of the weylflow command line and demos.

    python tests/golden/regen.py

rewrites every transcript in this directory from the program in src/.
A transcript holds one command's exit code, stdout and stderr, byte for
byte, floats included.  `tests/test_golden.py` runs the same commands
in-process and compares.  A change that moves output on purpose commits
the regenerated files, so that the change shows as their diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# file stem -> the arguments of `weylflow`, or the path of a demo
CASES = {
    "verify-all-r3": ["verify", "all", "--radius", "3"],
    "verify-k33-r1": ["verify", "k33", "--radius", "1"],
    **{f"spectrum-{name}": ["spectrum", name] for name in ("k33", "q3", "biregular", "a2q2")},
    **{f"koszul-{name}": ["koszul", name] for name in ("k33", "q3", "biregular", "a2q2")},
    **{f"ihara-{name}": ["ihara", name] for name in ("k33", "q3", "biregular")},
    "spectrum-a2q2-seed5-theta1_4": ["spectrum", "a2q2", "--seed", "5", "--theta", "1/4"],
    "spectrum-a2q2-generators": ["spectrum", "a2q2", "--generators", "1,1;1,0"],
    "koszul-a2q2-chi-tol": ["koszul", "a2q2", "--chi", "1+0j,0.5j", "--tol-rank", "1e-8"],
    # usage errors
    "err-validate-missing": ["validate", "no-such-file.json"],
    "err-ihara-missing": ["ihara", "no-such-file.json"],
    "err-verify-missing": ["verify", "no-such-file.json"],
    "err-ihara-not-a-graph": ["ihara", "a2q2"],
    "err-transfer-radius-short": ["transfer", "k33", "--mu", "2", "--radius", "2"],
    "err-transfer-bad-mu": ["transfer", "k33", "--mu", "1,0", "--radius", "2"],
    "err-transfer-dense-budget": ["transfer", "a2q2", "--mu", "1,1", "--radius", "6"],
    "err-germs-budget": ["germs", "a2q2", "--radius", "8"],
    "err-transfer-budget": ["transfer", "a2q2", "--mu", "1,0", "--radius", "7"],
    "err-verify-budget": ["verify", "a2q2", "--radius", "7"],
    "err-germs-max-radius": ["germs", "k33", "--radius", str(10**12)],
    "err-spectrum-generator-budget": ["spectrum", "k33", "--generators", "30"],
    "err-spectrum-negative-seed": ["spectrum", "a2q2", "--seed", "-1"],
    "err-koszul-tol-rank": ["koszul", "a2q2", "--chi", "1+0j,1+0j", "--tol-rank", "0"],
    "err-verify-radius": ["verify", "k33", "--radius", "0"],
    "err-gen-a2-order": ["gen-a2", "--q", "3"],
    "err-validate-out": ["validate", "k33", "--out", "x.txt"],
    "err-ihara-force": ["ihara", "q3", "--force"],
    **{f"demo-{path.stem}": path for path in sorted((ROOT / "demos").glob("*.py"))},
}


def run(case) -> tuple:
    """(exit code, stdout, stderr) of one case, run in this process.

    argparse wraps its usage lines to the terminal width, so the run fixes
    the width that it reads.
    """
    from weylflow import cli

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if isinstance(case, Path):
                    runpy.run_path(str(case), run_name="__main__")
                    code = 0
                else:
                    code = cli.main(case)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def title(case) -> str:
    if isinstance(case, Path):
        return f"python {case.relative_to(ROOT).as_posix()}"
    return "weylflow " + shlex.join(case)


def _section(name: str, text: str) -> str:
    body = text if not text or text.endswith("\n") else text + "\n\\ no newline at end\n"
    return f"== {name}: {text.count(chr(10))} newlines ==\n{body}"


def transcript(case, outcome=None) -> str:
    """The golden file's text for one case: its command, exit code, stdout and
    stderr, from the given (code, stdout, stderr) or from `run(case)`."""
    code, out, err = outcome or run(case)
    return f"$ {title(case)}\nexit {code}\n" + _section("stdout", out) + _section("stderr", err)


def path_of(stem: str) -> Path:
    return HERE / f"{stem}.txt"


def main():
    for stem, case in CASES.items():
        path_of(stem).write_text(transcript(case), encoding="utf-8")
    print(f"wrote {len(CASES)} transcripts to {HERE}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
