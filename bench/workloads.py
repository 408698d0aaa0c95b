"""Workloads of the weylflow benchmark: seeded inputs and output checks.

Every workload runs one `weylflow` command on the a2q2 chamber system with
its chamber ids permuted by the seed (seed 0 is the identity), so the
program sees only a relabelled `chamber-system/v1` file.  A check maps the
output back through the inverse permutation and compares it with the
seed-0 reference in reference.json, which make_reference.py writes.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

HERE = Path(__file__).resolve().parent
BASE_INPUT = HERE / "a2q2-chambers.json"
REFERENCE = HERE / "reference.json"

INPUT = "{input}"  # placeholder for the relabelled input file
OUT = "{out}"      # placeholder for the output file

# verify prints float residuals with %.2e; they move in the last digits
# when the chambers are relabelled, so the check masks them.
_FLOAT = re.compile(r"\d\.\d+e[+-]\d+")


class Mismatch(Exception):
    """The program's output differs from the seed-0 reference."""


def permutation(seed: int, n: int) -> List[int]:
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def write_input(path: Path, seed: int) -> List[int]:
    """Write the a2q2 system with chamber c renamed perm[c]; return perm."""
    doc = json.loads(BASE_INPUT.read_text(encoding="utf-8"))
    if "vertex_ids" in doc:
        raise ValueError("relabelling does not handle vertex_ids")
    perm = permutation(seed, doc["num_chambers"])
    doc["residues"] = {
        t: sorted(sorted(perm[c] for c in block) for block in blocks)
        for t, blocks in doc["residues"].items()
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return perm


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _inverse(perm: List[int]) -> List[int]:
    inv = [0] * len(perm)
    for c, image in enumerate(perm):
        inv[image] = c
    return inv


def certify_fingerprint(stdout: str, out: Path, perm, ref) -> Tuple[List[str], int]:
    """Every output line, with the input-path header and float residuals masked."""
    lines = stdout.splitlines()
    if any(line.startswith("[FAIL]") for line in lines):
        raise Mismatch("a check printed FAIL")
    masked = [
        "== INPUT ==" if line.startswith("== ") else _FLOAT.sub("<float>", line)
        for line in lines
    ]
    return masked, sum(line.startswith("[PASS]") for line in lines)


def germs_fingerprint(stdout: str, out: Path, perm, ref) -> Tuple[str, int]:
    """SHA-256 of the germs/v1 file the seed-0 input would have produced."""
    doc = json.loads(out.read_text(encoding="utf-8"))
    inv = _inverse(perm)
    for germ in doc["germs"]:
        germ["chambers"] = [inv[c] for c in germ["chambers"]]
    doc["germs"].sort(key=lambda g: (g["sigma"], g["chambers"]))
    return _sha256(json.dumps(doc, indent=1, sort_keys=True) + "\n"), doc["count"]


def operator_fingerprint(stdout: str, out: Path, perm, ref) -> Tuple[str, int]:
    """SHA-256 of the CSV matrix the seed-0 input would have produced.

    Rows and columns follow the canonical order of the F_n germs, sorted by
    (rotation, chamber ids); relabelling the chambers reorders them.
    """
    germs = ref["F2-germs"]  # seed-0 order: [sigma, chambers]
    order = sorted(
        range(len(germs)),
        key=lambda j: (germs[j][0], [perm[c] for c in germs[j][1]]),
    )
    # order[h] is the seed-0 position of the germ at relabelled position h
    where = [0] * len(order)
    for h, j in enumerate(order):
        where[j] = h
    header, *rows = out.read_text(encoding="utf-8").split("\n")
    if rows[-1:] != [""] or len(rows) != len(where) + 1:
        raise Mismatch(f"expected {len(where)} matrix rows")
    cells = [row.split(",") for row in rows[:-1]]
    restored = [header]
    for j in range(len(where)):
        row = cells[where[j]]
        restored.append(",".join(row[k] for k in where))
    return _sha256("\n".join(restored) + "\n"), len(where) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    args: Tuple[str, ...]  # weylflow arguments, with INPUT and OUT placeholders
    work_unit: str         # what work_per_s counts
    fingerprint: Callable  # (stdout, out path, perm, reference) -> (fingerprint, work)


WORKLOADS = {
    w.name: w
    for w in (
        # The headline user path: the whole invariant suite.  It holds the
        # seminorm kernel, the pair matrices, the region-growing distance,
        # the radius-5 table of the F_n check, many small operators and the
        # spectra.
        Workload(
            "certify-a2q2",
            ("verify", INPUT, "--radius", "3"),
            "checks passed",
            certify_fingerprint,
        ),
        # One germ-table build and germs/v1 export: no seminorm, distance or
        # spectra calls, so optimising those layers should leave it unchanged.
        Workload(
            "germs-a2q2-r4",
            ("germs", INPUT, "--radius", "4", "--out", OUT),
            "germs",
            germs_fingerprint,
        ),
        # One operator assembled and exported as exact rationals, rather
        # than many small operators multiplied: a change to operator storage
        # that helps the checks but costs the export shows here.
        Workload(
            "operator-a2q2-F2",
            ("transfer", INPUT, "--mu", "1,0", "--radius", "3", "--format", "csv", "--out", OUT),
            "matrix entries",
            operator_fingerprint,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
