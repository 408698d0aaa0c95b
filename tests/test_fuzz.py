"""Malformed inputs and arguments fail cleanly: exit 2, one `error:` line.

Hypothesis feeds the `chamber-system/v1` and `graph/v1` loaders broken
documents, the `--mu`, `--chi`, `--generators` and `--theta` parsers
arbitrary text, and the input argument missing paths with control
characters.  Every run must end in an exit code, never in an exception
escaping `main`; exit 2 must come with exactly one `error:` line on stderr
and nothing after it.  The example counts keep the whole module near 4 s.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from weylflow import fixtures
from weylflow.cli import main

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# chamber ids and counts from far outside the valid range too
ids = st.integers(-3, 12) | st.integers()


def outcome(args):
    """(exit code, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean(code, err, allowed=(0, 1, 2)):
    assert code in allowed, (code, err)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], err


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_loader(path, doc, command="validate"):
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = outcome([command, str(path)])
    assert_clean(code, err)
    return code


@FUZZ
@given(doc=json_values)
def test_arbitrary_json_is_refused(path, doc):
    # text leaves have at most 6 characters, too few to name a format
    assert run_loader(path, doc) == 2


@FUZZ
@given(raw=st.binary(max_size=40))
def test_unparsable_bytes_are_refused(path, raw):
    path.write_bytes(raw)
    code, err = outcome(["validate", str(path)])
    assert_clean(code, err, allowed=(2,))


CHAMBER_FIELDS = ("root_system", "q", "num_chambers", "residues", "vertex_ids")


@FUZZ
@given(
    name=st.sampled_from(["k33", "a2q2"]),
    field=st.sampled_from(CHAMBER_FIELDS),
    value=json_values,
    delete=st.booleans(),
)
def test_chamber_system_with_a_broken_field(path, name, field, value, delete):
    doc = fixtures.load_fixture(name).to_json_dict()
    if delete:
        doc.pop(field, None)
    else:
        doc[field] = value
    run_loader(path, doc)


@FUZZ
@given(
    num_chambers=ids,
    edits=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 20), ids), max_size=3),
)
def test_chamber_system_with_broken_residues(path, num_chambers, edits):
    doc = fixtures.load_fixture("k33").to_json_dict()
    doc["num_chambers"] = num_chambers
    for t, block, chamber_id in edits:
        blocks = doc["residues"][str(t)]
        blocks[block % len(blocks)][0] = chamber_id
    run_loader(path, doc)


graph_docs = st.fixed_dictionaries(
    {"format": st.just("graph/v1"), "edges": json_values | st.lists(st.lists(ids, max_size=3), max_size=8)}
)


@FUZZ
@given(doc=graph_docs, command=st.sampled_from(["validate", "ihara"]))
def test_broken_graphs(path, doc, command):
    run_loader(path, doc, command)


@FUZZ
@given(
    head=st.text(max_size=6),
    control=st.characters(categories=["Cc", "Zl", "Zp"]),
    tail=st.text(max_size=6),
)
@example(head="", control="\n", tail="file.json")
def test_missing_input_with_a_control_character(head, control, tail):
    # the path is quoted, so its line breaks cannot split the one error line
    code, err = outcome(["validate", f"missing{head}{control}{tail}"])
    assert code == 2 and err.startswith("error: no such input: ")
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err


# parser fuzzing: text made of the characters these values are written in,
# plus arbitrary text; the `--flag=value` form keeps a leading "-" a value

def parser_text(alphabet):
    return st.text(alphabet=alphabet, max_size=10) | st.text(max_size=6)


@FUZZ
@given(text=parser_text("0123456789,+-_ .x"))
@example(text="2\r")  # int() strips the "\r", which must not split the error line
def test_mu_parser(path, text):
    code, err = outcome(["transfer", "k33", f"--mu={text}", "--radius", "2", "--out", str(path)])
    assert_clean(code, err, allowed=(0, 2))
    if any(c in text for c in ".x"):
        assert code == 2


@FUZZ
@given(text=parser_text("0123456789,;+-.ejn ai"))
def test_chi_parser(text):
    code, err = outcome(["koszul", "k33", f"--chi={text}"])
    assert_clean(code, err, allowed=(0, 2))


@FUZZ
@given(text=parser_text("0123456789,;+- "))
def test_generators_parser(path, text):
    code, err = outcome(["spectrum", "k33", f"--generators={text}", "--out", str(path)])
    assert_clean(code, err)


@FUZZ
@given(text=parser_text("0123456789/.-e "))
# exponents that Fraction would expand to a power of ten of millions of digits
@example(text="1e-9999999")
@example(text="1e99999999")
# in range as a rational, but 0 as the float that `spectrum` reads
@example(text="1e-400")
def test_theta_parser(path, text):
    code, err = outcome(["spectrum", "k33", f"--theta={text}", "--out", str(path)])
    assert_clean(code, err)
    if code == 0:
        assert 0 < json.loads(path.read_text(encoding="utf-8"))["theta"] < 1
