"""Bundled example systems and fixture-file resolution.

Four systems ship with the package, one JSON document each: the complete
bipartite graph K33 and the cube graph Q3 (both 3-regular, so homogeneous
rank 1), a (3,2)-biregular graph obtained by subdividing every edge of K4,
and the order-2 triangle presentation of Cartwright-Mantero-Steger-Zappa
over seven symbols, whose triples are the cyclic rotations of
(x, x+1, x+3) mod 7.

The documents are the only source of the fixtures: every command that
takes a fixture name reads its file through `document`, and `gen-graph`
and `gen-a2` print it.  The directory holding the files can be
overridden with the WEYLFLOW_FIXTURES environment variable.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import chamber

FIXTURES = ("k33", "q3", "biregular", "a2q2")


def fixture_dir() -> Path:
    env = os.environ.get("WEYLFLOW_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "fixtures"


def fixture_path(name: str) -> Path:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    return fixture_dir() / f"{name}.json"


def document(name: str) -> dict:
    """The fixture's JSON document, read from `fixture_dir()`."""
    return chamber.read_document(str(fixture_path(name)))


def load_fixture(name: str) -> chamber.ChamberSystem:
    return chamber.from_document(document(name))
