import json
import tracemalloc

import pytest

from weylflow import fixtures
from weylflow.sectors import SENTINEL
from weylflow.verify import FixtureContext


@pytest.fixture(scope="session")
def contexts():
    """Shared per-fixture caches so germ tables are built once per run."""
    return {
        name: FixtureContext(name, fixtures.load_fixture(name))
        for name in fixtures.FIXTURES
    }


@pytest.fixture(scope="session")
def k33(contexts):
    return contexts["k33"]


@pytest.fixture(scope="session")
def q3(contexts):
    return contexts["q3"]


@pytest.fixture(scope="session")
def biregular(contexts):
    return contexts["biregular"]


@pytest.fixture(scope="session")
def a2(contexts):
    return contexts["a2q2"]


@pytest.fixture(scope="session")
def k33_spectrum():
    """Eigenvalues of the halved non-backtracking matrix of K_{3,3}: 1, -1, and
    +-1/2 and +-i/sqrt(2) four times each."""
    root = 0.5 ** 0.5
    return [1, -1] + [0.5, -0.5, 1j * root, -1j * root] * 4


@pytest.fixture(scope="session")
def swapped_a2q2(tmp_path_factory):
    """Path of a2q2 with two chambers swapped between residue-1 blocks: the
    local checks fail, and the preimage counts come out irregular."""
    doc = fixtures.load_fixture("a2q2").to_json_dict()
    blocks = doc["residues"]["1"]
    first = blocks.index([0, 14, 16])
    second = blocks.index([11, 12, 18])
    blocks[first][0], blocks[second][0] = 11, 0
    path = tmp_path_factory.mktemp("swapped") / "swapped.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="session")
def traced_peak():
    """fn -> (fn(), peak bytes traced while it ran), under a fresh tracemalloc."""

    def measure(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


def _bfs_distance(space, g1, g2):
    """(k, k_i, agreeing region) of two germs by breadth-first search: the
    reference for `SectorSpace.region_distances`.

    The region grows from the base face over the faces where the germs'
    `_face_ids` agree, stepping between a face and its facets; k is the norm
    of the first coweight vertex outside it and k_i the first ray position
    outside it, SENTINEL if none.  A ray face index past the last face is
    outside, as it is in no region.
    """
    trunc = space.truncation(g1.radius)
    agree = (space._face_ids(g1) == space._face_ids(g2)).tolist()
    near = [[] for _ in trunc.faces]
    for fi, f in enumerate(trunc.faces):
        for drop in range(len(f.vidx) if len(f.vidx) > 1 else 0):
            si = trunc.face_index[tuple(v for j, v in enumerate(f.vidx) if j != drop)]
            near[fi].append(si)
            near[si].append(fi)
    fringe = [trunc.base_face] if agree[trunc.base_face] else []
    region = set(fringe)
    while fringe:
        for nb in near[fringe.pop()]:
            if nb not in region and agree[nb]:
                region.add(nb)
                fringe.append(nb)
    k = next((norm for _, norm, v in trunc.coweight_vertices
              if trunc.face_index[(v,)] not in region), SENTINEL)
    kdir = tuple(next((ell for ell, fi in enumerate(ray) if fi not in region), SENTINEL)
                 for ray in space._ray_faces(g1.radius))
    return k, kdir, frozenset(region)


@pytest.fixture(scope="session")
def bfs_distance():
    return _bfs_distance
