import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import weylflow
from weylflow import chamber, cli, fixtures, spectra
from weylflow.cli import main
from weylflow.io_utils import dumps_canonical, rational_str, stream_canonical


def run(args):
    return main(args)


def test_validate_fixture_passes(capsys):
    assert run(["validate", "k33"]) == 0
    out = capsys.readouterr().out
    assert "regular:   ok" in out


def test_validate_corrupted_fails(tmp_path, capsys):
    doc = fixtures.load_fixture("a2q2").to_json_dict()
    a = doc["residues"]["0"][0][0]
    b = doc["residues"]["0"][1][0]
    doc["residues"]["0"][0][0], doc["residues"]["0"][1][0] = b, a
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(["validate", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_failed_preimage_counting_exits_cleanly(swapped_a2q2, capsys):
    # with --force the local checks are skipped and the counting gates fail
    assert run(["transfer", swapped_a2q2, "--mu", "1,0", "--radius", "2", "--force"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: preimage counting failed") and err.count("\n") == 1


def _noncommuting(real):
    """`transfer_matrix` with one row of each L_(0,1) moved, so that a2q2's generators do not commute."""
    from weylflow import transfer

    def tampered(space, mu, radius):
        tm = real(space, mu, radius)
        if mu.coords == (0, 1):
            rows = tm.preimages.copy()
            rows[0] = np.sort((rows[0] + 1) % tm.dim)
            tm = transfer.TransferMatrix(tm.mu, tm.radius, rows, tm.m_mu)
        return tm

    return tampered


@pytest.mark.parametrize("command", ["spectrum", "koszul"])
def test_noncommuting_family_exits_cleanly(command, monkeypatch, capsys):
    from weylflow import transfer

    monkeypatch.setattr(transfer, "transfer_matrix", _noncommuting(transfer.transfer_matrix))
    assert run([command, "a2q2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the operator family does not commute exactly\n"


@pytest.mark.parametrize(
    "chi, message",
    [("1,2,3", "--chi needs 2 complex entries"), ("nan,1", "--chi entries must be finite")],
)
@pytest.mark.parametrize("assembly", ["refused", "noncommuting"])
def test_koszul_parses_chi_before_any_assembly(chi, message, assembly, monkeypatch, capsys):
    from weylflow import transfer

    def refused(*args, **kwargs):
        raise AssertionError("--chi must be parsed before any operator is assembled")

    patched = refused if assembly == "refused" else _noncommuting(transfer.transfer_matrix)
    monkeypatch.setattr(transfer, "transfer_matrix", patched)
    assert run(["koszul", "a2q2", "--chi", chi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_transfer_refuses_dense_export_above_the_cell_budget(monkeypatch, capsys):
    from weylflow import transfer

    def unreachable(*args, **kwargs):
        raise AssertionError("the budget must refuse before assembly")

    monkeypatch.setattr(transfer, "transfer_matrix", unreachable)
    assert run(["transfer", "a2q2", "--mu", "1,1", "--radius", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a dense export of F_4 has 1040449536 cells, more than the budget of 100000000\n"
    )


def _array_memory_error():
    """numpy's MemoryError subclass, made without allocating anything."""
    from numpy._core._exceptions import _ArrayMemoryError

    return _ArrayMemoryError((2**40,), np.dtype(np.float64))


@pytest.mark.parametrize("exc", [MemoryError(), _array_memory_error()], ids=["bare", "numpy"])
def test_memory_error_exits_with_one_line(exc, monkeypatch, capsys):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_germs", exhausted)
    assert run(["germs", "k33", "--radius", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory") and captured.err.count("\n") == 1
    assert isinstance(exc, MemoryError) and str(exc) in captured.err


def test_missing_file_is_usage_error(capsys):
    for command in ("validate", "ihara", "verify"):
        assert run([command, "no-such-file.json"]) == 2
        assert capsys.readouterr().err == "error: no such input: no-such-file.json\n"


def test_germs_output_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["germs", "k33", "--radius", "2", "--out", str(out1)]) == 0
    assert run(["germs", "k33", "--radius", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["format"] == "germs/v1" and doc["count"] == 36


def test_transfer_csv_and_budget_guard(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run(["transfer", "k33", "--mu", "1", "--radius", "2", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["M_mu"] == 2 and header["dim"] == 18 and header["radius"] == 1
    assert len(lines) == 1 + 18
    assert set(lines[1].split(",")) <= {"0/1", "1/2"}
    # insufficient budget: the operator would act on F_0
    assert run(["transfer", "k33", "--mu", "2", "--radius", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "need --radius >=" in err


def test_transfer_rejects_bad_mu(capsys):
    assert run(["transfer", "k33", "--mu", "1,0", "--radius", "2"]) == 2


def test_spectrum_deterministic_and_schema(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run(["spectrum", "k33", "--theta", "1/2", "--out", str(out1)]) == 0
    assert run(["spectrum", "k33", "--theta", "1/2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["format"] == "spectrum/v1"
    assert doc["dimF1"] == 18
    assert doc["generators"] == [[1]]
    assert any(abs(j["chi"][0][0] - 1.0) < 1e-9 for j in doc["joint"])


def test_negative_seed_is_a_usage_error(capsys):
    assert run(["spectrum", "a2q2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: expected non-negative integer\n"


def test_koszul_command(tmp_path):
    out = tmp_path / "k.json"
    assert run(["koszul", "k33", "--chi", "1+0j", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cohomology"] == [1, 1]


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_koszul_rejects_nonpositive_tol_rank(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["koszul", "a2q2", "--chi", "1+0j,1+0j", "--tol-rank", value])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, explicit, other",
    [
        (["spectrum", "k33"],
         ["--seed", hex(spectra.DEFAULT_SEED), "--tol-res", repr(spectra.TOL_RES),
          "--tol-rank", repr(spectra.TOL_RANK), "--tol-merge", repr(spectra.TOL_MERGE)],
         ["--seed", "1"]),
        (["koszul", "a2q2"], ["--tol-rank", repr(spectra.TOL_RANK)], ["--tol-rank", "0.5"]),
    ],
)
def test_omitted_spectral_options_take_the_spectra_defaults(args, explicit, other, capsys):
    # the parser leaves these options unset, so that building it loads no
    # spectra; the command then uses spectra's constants, and a given value wins
    assert run(args) == 0
    default = capsys.readouterr().out
    assert run(args + explicit) == 0
    assert capsys.readouterr().out == default
    assert run(args + other) == 0
    assert capsys.readouterr().out != default


def test_ihara_command(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert run(["ihara", "q3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["directed_edges"] == 24
    assert doc["identity_residual"] <= 1e-10
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"format": "graph/v1", "edges": [[0, 1], [1, 2], [2, 0]]}))
    assert run(["ihara", str(bad)]) == 2


def test_gen_commands_roundtrip(tmp_path):
    g = tmp_path / "g.json"
    assert run(["gen-graph", "--kind", "biregular", "--out", str(g)]) == 0
    doc = json.loads(g.read_text())
    assert doc["format"] == "graph/v1" and len(doc["edges"]) == 12
    a = tmp_path / "a.json"
    assert run(["gen-a2", "--out", str(a)]) == 0
    doc = json.loads(a.read_text())
    assert doc["format"] == "triangle-presentation/v1"
    assert len(doc["triples"]) == 21
    from weylflow.chamber import load

    assert load(str(g)).num_chambers == 12
    assert load(str(a)).num_chambers == 21


BUNDLED = Path(fixtures.__file__).resolve().parent / "fixtures"
ORACLE_LINES = (
    "[PASS] determinant identity residual <= 1e-10",
    "[PASS] transfer matrix equals the halved edge operator",
    "[PASS] spectrum matches the edge-operator oracle",
)


def _oracle_lines(out: str):
    return [line for line in out.splitlines() if line.startswith(ORACLE_LINES)]


def test_fixture_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLFLOW_FIXTURES", str(tmp_path))
    for name in fixtures.FIXTURES:
        (tmp_path / f"{name}.json").write_bytes((BUNDLED / f"{name}.json").read_bytes())
    assert fixtures.fixture_path("k33") == tmp_path / "k33.json"
    system = fixtures.load_fixture("k33")
    assert system.num_chambers == 9


def test_every_command_reads_the_overridden_fixture(tmp_path, monkeypatch, capsys):
    # k33.json holds Q3's graph: the system, the oracle's edges and ihara all see Q3
    monkeypatch.setenv("WEYLFLOW_FIXTURES", str(tmp_path))
    (tmp_path / "k33.json").write_bytes((BUNDLED / "q3.json").read_bytes())
    validated, real = [], chamber.ChamberSystem.validate

    def spy(system):
        validated.append(system.num_chambers)
        return real(system)

    monkeypatch.setattr(chamber.ChamberSystem, "validate", spy)
    assert run(["validate", "k33"]) == 0
    assert validated == [12]  # Q3's edges; K33 has 9
    capsys.readouterr()
    assert run(["ihara", "k33"]) == 0
    assert json.loads(capsys.readouterr().out)["directed_edges"] == 24
    assert run(["verify", "k33", "--radius", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "[FAIL]" not in captured.out
    assert "[PASS] germ tables built: sizes [8, 24, 48]" in captured.out
    assert len(_oracle_lines(captured.out)) == 3
    assert run(["gen-graph", "--kind", "k33"]) == 0
    assert capsys.readouterr().out == (BUNDLED / "q3.json").read_text()


def test_a_missing_fixture_file_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEYLFLOW_FIXTURES", str(tmp_path))
    assert run(["validate", "k33"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args, name",
    [(["gen-graph", "--kind", kind], kind) for kind in ("k33", "q3", "biregular")]
    + [(["gen-a2"], "a2q2")],
)
def test_gen_commands_print_the_bundled_document(args, name, capsys):
    assert run(args) == 0
    assert capsys.readouterr().out == dumps_canonical(fixtures.document(name))


def test_gen_a2_refuses_other_orders(capsys):
    assert run(["gen-a2", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: only the order-2 presentation is bundled\n"


def test_verify_runs_the_oracle_on_any_graph_file(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_bytes((BUNDLED / "k33.json").read_bytes())
    assert run(["verify", str(graph), "--radius", "2"]) == 0
    assert len(_oracle_lines(capsys.readouterr().out)) == 3
    # a chamber-system/v1 export of the same graph holds no edges
    system = tmp_path / "system.json"
    system.write_text(json.dumps(fixtures.load_fixture("k33").to_json_dict()))
    assert run(["verify", str(system), "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and _oracle_lines(out) == []


def test_verify_subcommand_small(capsys):
    assert run(["verify", "k33", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_nonpositive_radius(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "k33", "--radius", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("argument --radius: must be >= 1")


@pytest.mark.parametrize(
    "args",
    [
        ["germs", "a2q2", "--radius", "8"],
        ["transfer", "a2q2", "--mu", "1,0", "--radius", "7"],
        ["verify", "a2q2", "--radius", "7"],
    ],
)
def test_germ_budget_refuses_before_building(args, monkeypatch, capsys):
    from weylflow import sectors

    built = []
    real = sectors.GermTable.__init__

    def recording(self, space, radius):
        built.append(radius)
        real(self, space, radius)

    monkeypatch.setattr(sectors.GermTable, "__init__", recording)
    assert run(args) == 2
    assert max(built) <= 2
    captured = capsys.readouterr()
    assert captured.out == ""
    radius = args[-1]
    assert captured.err == (
        f"error: a radius-{radius} germ table would hold {4032 * 8 ** (int(radius) - 3)} germs, "
        "more than the budget of 4194304\n"
    )


def test_verify_budgets_the_radius_its_suite_reads(monkeypatch, capsys):
    # whatever --radius says, the suite assembles L_(1,1) on F_3 from radius-5 germs
    monkeypatch.setattr(cli, "GERM_BUDGET", 32_256)  # a2q2 at radius 4
    assert run(["verify", "a2q2", "--radius", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a radius-5 germ table would hold 258048 germs, more than the budget of 32256\n"
    )


def test_germ_size_prediction_is_exact_on_the_fixtures(contexts):
    for name, ctx in contexts.items():
        sizes = [len(ctx.space.table(n)) for n in range(5)]
        assert [ctx.space.predicted_size(n) for n in range(5)] == sizes, name
    assert contexts["a2q2"].space.predicted_size(6) == 2064384 <= cli.GERM_BUDGET
    assert contexts["a2q2"].space.predicted_size(7) > cli.GERM_BUDGET


def test_dumps_canonical_format():
    doc = {
        "b": 0.1,
        10: [complex(0.5, -1 / 3), Fraction(3, -4)],
        2: (np.float64(2.0), True, None, "s", 7),
    }
    assert dumps_canonical(doc) == (
        '{\n "10": [\n  [\n   0.5,\n   -0.33333333333333331\n  ],\n  "-3/4"\n ],\n'
        ' "2": [\n  2,\n  true,\n  null,\n  "s",\n  7\n ],\n'
        ' "b": 0.10000000000000001\n}\n'
    )


def test_stream_canonical_matches_dumps_canonical():
    head = {"b": [1, 2], "a": 0.5}
    items = [{"x": [k, -k]} for k in range(5)]
    expected = dumps_canonical({**head, "list": items})
    rendered = [dumps_canonical(item)[:-1].replace("\n", "\n  ") for item in items]
    chunks = ["  " + ",\n  ".join(rendered[:2]), "  " + ",\n  ".join(rendered[2:])]
    assert "".join(stream_canonical(head, "list", chunks)) == expected
    assert "".join(stream_canonical(head, "list", [])) == dumps_canonical({**head, "list": []})


def _transfer_document(tm) -> dict:
    """The transfer JSON document built cell by cell: the reference for the writer."""
    counts = np.zeros((tm.dim, tm.dim), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(tm.dim), tm.m_mu), tm.preimages.ravel()), 1)
    text = [rational_str(Fraction(c, tm.m_mu)) for c in range(tm.m_mu + 1)]
    return {
        "mu": list(tm.mu.coords),
        "radius": tm.radius,
        "M_mu": tm.m_mu,
        "dim": tm.dim,
        "entries": [[text[c] for c in row] for row in counts.tolist()],
    }


def test_transfer_json_writer_matches_the_canonical_dump(contexts, tmp_path):
    # the strong coweight: the largest M_mu, so the most distinct entries
    out = tmp_path / "m.json"
    for name, ctx in contexts.items():
        mu = ctx.strong
        for n in (1, 2):
            args = ["transfer", name, "--mu", ",".join(map(str, mu.coords)),
                    "--radius", str(n + mu.norm), "--out", str(out)]
            assert run(args) == 0
            assert out.read_text() == dumps_canonical(_transfer_document(ctx.tm(mu, n)))


@pytest.mark.parametrize(
    "args",
    [
        ["germs", "a2q2", "--radius", "2"],
        ["transfer", "a2q2", "--mu", "1,0", "--radius", "2"],
        ["transfer", "a2q2", "--mu", "1,1", "--radius", "3", "--format", "csv"],
        ["spectrum", "k33"],
    ],
)
def test_stdout_equals_the_out_file(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(args) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["validate", "k33"], ["--out", "x.txt"]),
        (["validate", "k33"], ["--force"]),
        (["verify", "k33"], ["--out", "x.txt"]),
        (["verify", "k33"], ["--force"]),
        (["ihara", "q3"], ["--force"]),
        (["gen-graph", "--kind", "k33"], ["--force"]),
        (["gen-a2"], ["--force"]),
    ],
)
def test_flags_a_command_ignores_are_rejected(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args + flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("unrecognized arguments: " + " ".join(flag))


def _cli_process(*args) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(weylflow.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "weylflow.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize(
    "args", [["verify", "k33", "--radius", "1"], ["germs", "a2q2", "--radius", "3"]]
)
def test_closed_stdout_exits_cleanly(args):
    # the reader leaves before any output arrives, as `| head` may
    proc = _cli_process(*args)
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_budgets_the_generators_before_building(capsys):
    assert run(["spectrum", "k33", "--generators", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: a radius-31 germ table would hold 19327352832 germs, "
        "more than the budget of 4194304\n"
    )
    assert run(["germs", "k33", "--radius", str(10**12)]) == 2
    assert capsys.readouterr().err == (
        f"error: radius {10**12} is above the largest supported radius {cli.MAX_RADIUS}\n"
    )
