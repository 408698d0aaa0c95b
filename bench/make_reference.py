#!/usr/bin/env python3
"""Write the benchmark's input and its seed-0 reference outputs.

    python3 bench/make_reference.py

Run it only at a commit whose CLI output is the reference, since every
benchmark run is checked against what it writes: a2q2-chambers.json, the
bundled a2q2 fixture as a chamber-system/v1 file, and reference.json,
holding what each workload prints on that input, in the form the checks
compare.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from weylflow import fixtures

    doc = fixtures.load_fixture("a2q2").to_json_dict()
    workloads.BASE_INPUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    try:
        input_path = tmp / "input.json"
        perm = workloads.write_input(input_path, 0)

        def cli(*args):
            child = run.run_child(run.weylflow_argv([str(a) for a in args]), tmp, 600)
            if child.code != 0:
                raise SystemExit(f"weylflow {' '.join(map(str, args))} failed:\n{child.stderr}")
            return child.stdout

        germs = tmp / "germs-r2.json"
        cli("germs", input_path, "--radius", "2", "--out", germs)
        ref = {
            "validate": cli("validate", input_path),
            "F2-germs": [[g["sigma"], g["chambers"]]
                         for g in json.loads(germs.read_text())["germs"]],
        }
        for wl in workloads.WORKLOADS.values():
            out = tmp / "out"
            stdout = cli(*(a.format(input=input_path, out=out) for a in wl.args))
            fingerprint, work = wl.fingerprint(stdout, out, perm, ref)
            # at seed 0 the restored output must be the file itself, which
            # shows that the checks rebuild the program's exact format
            if out.exists() and fingerprint != hashlib.sha256(out.read_bytes()).hexdigest():
                raise SystemExit(f"{wl.name}: restored output differs from the file")
            ref[wl.name] = fingerprint
            print(f"{wl.name}: {work} {wl.work_unit}")
        workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
