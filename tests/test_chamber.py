import copy
import json

import pytest

from weylflow import chamber, fixtures
from weylflow.chamber import (
    from_bipartite_graph,
    from_triangle_presentation,
    load,
    save,
)


def test_minimal_two_cycle(tmp_path):
    doc = {
        "format": "chamber-system/v1",
        "root_system": "A1~",
        "q": {"0": 1, "1": 1},
        "num_chambers": 2,
        "residues": {"0": [[0, 1]], "1": [[0, 1]]},
    }
    p = tmp_path / "two.json"
    p.write_text(json.dumps(doc))
    system = load(str(p))
    assert system.num_chambers == 2
    assert system.validate().passed


def test_overlapping_blocks_rejected(tmp_path):
    doc = {
        "format": "chamber-system/v1",
        "root_system": "A1~",
        "q": {"0": 1, "1": 1},
        "num_chambers": 2,
        "residues": {"0": [[0, 1], [1]], "1": [[0, 1]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load(str(p))


def test_block_size_violation_is_soft(tmp_path):
    doc = {
        "format": "chamber-system/v1",
        "root_system": "A1~",
        "q": {"0": 2, "1": 2},
        "num_chambers": 2,
        "residues": {"0": [[0, 1]], "1": [[0, 1]]},
    }
    p = tmp_path / "flagged.json"
    p.write_text(json.dumps(doc))
    system = load(str(p))
    assert system.size_flags
    report = system.validate()
    assert not report.regular and not report.passed


def test_k33_roundtrip(tmp_path):
    system = fixtures.load_fixture("k33")
    assert system.num_chambers == 9
    p = tmp_path / "k33.json"
    save(system, p)
    again = load(str(p))
    assert again == system
    p2 = tmp_path / "k33b.json"
    save(again, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_from_bipartite_graph_k33():
    system = from_bipartite_graph(fixtures.document("k33")["edges"])
    assert system.kind == "A1~"
    assert system.num_chambers == 9
    assert system.params.as_dict() == {0: 2, 1: 2}
    for i in (0, 1):
        assert sorted(len(b) for b in system.residues[i]) == [3, 3, 3]
    assert system.validate().passed


def test_from_bipartite_graph_cube():
    system = from_bipartite_graph(fixtures.document("q3")["edges"])
    assert system.kind == "A1~"
    assert system.num_chambers == 12
    assert system.params.as_dict() == {0: 2, 1: 2}


def test_from_bipartite_graph_biregular():
    system = from_bipartite_graph(fixtures.document("biregular")["edges"])
    assert system.kind == "BC1~"
    assert system.params.as_dict() == {0: 2, 1: 1}


def test_star_graph_rejected():
    with pytest.raises(ValueError):
        from_bipartite_graph([(0, 1), (0, 2), (0, 3)])


def test_odd_cycle_rejected():
    with pytest.raises(ValueError):
        from_bipartite_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_triangle_presentation_bundled():
    doc = fixtures.document("a2q2")
    # the triples are the cyclic rotations of (x, x+1, x+3) mod 7
    base = [(x, (x + 1) % 7, (x + 3) % 7) for x in range(7)]
    assert sorted(map(tuple, doc["triples"])) == sorted(t[r:] + t[:r] for t in base for r in range(3))
    system = from_triangle_presentation(doc["points"], doc["lambda"], doc["triples"])
    assert system.kind == "A2~"
    assert system.num_chambers == 21
    assert system.validate().passed


def test_triangle_presentation_missing_triple():
    doc = fixtures.document("a2q2")
    with pytest.raises(ValueError):
        from_triangle_presentation(doc["points"], doc["lambda"], doc["triples"][1:])


def test_triangle_presentation_empty():
    with pytest.raises(ValueError):
        from_triangle_presentation(0, [], [])


def test_corrupted_a2_fails_rank2_checks():
    system = fixtures.load_fixture("a2q2")
    doc = system.to_json_dict()
    res = copy.deepcopy(doc["residues"])
    # swap two chambers between the first two blocks of one relation
    a = res["0"][0][0]
    b = res["0"][1][0]
    res["0"][0][0], res["0"][1][0] = b, a
    bad = chamber.ChamberSystem("A2~", 2, doc["num_chambers"], {int(i): v for i, v in res.items()})
    report = bad.validate()
    assert report.regular
    assert not all(report.rank2_ok.values())
    assert not report.passed


def test_residue_examples():
    system = fixtures.load_fixture("k33")
    assert system.residue(0, ()) == [0]
    assert sorted(system.residue(0, (0, 1))) == list(range(9))
    star = system.residue(0, (0,))
    assert len(star) == 3
    assert all(system.vertex_ids[0][c] == system.vertex_ids[0][0] for c in star)


def test_unknown_format_rejected(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"format": "mystery/v9"}')
    with pytest.raises(ValueError):
        load(str(p))


def test_equal_systems_are_unhashable():
    a, b = fixtures.load_fixture("a2q2"), fixtures.load_fixture("a2q2")
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)
