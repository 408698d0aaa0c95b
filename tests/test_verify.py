"""The invariant suite itself must pass on every bundled system.

The metric radius is kept small here; the acceptance module runs the
radius-3 version.  Property-based checks sample germ triples and drive the
explicit region-growing distance, independently of the class arrays used
by the exhaustive suites.
"""

import gc
import itertools
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weylflow import chamber, cli, fixtures, sectors, spectra, transfer, verify
from weylflow.sectors import SENTINEL, byte_keys
from weylflow.verify import FixtureContext, run_suite


class _Log:
    """Records pickled to one file, so that the child `run_suite` forks for
    the germ-layer half records into the same log as this process."""

    def __init__(self, path):
        self.path = path

    def add(self, key, record):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, pickle.dumps((key, os.getpid(), record)))
        finally:
            os.close(fd)

    def read(self, key):
        """(pid, record) of each entry under key, in the order written."""
        out = []
        if self.path.exists():
            with open(self.path, "rb") as f:
                while f.peek(1):
                    k, pid, record = pickle.load(f)
                    if k == key:
                        out.append((pid, record))
        return out


@pytest.fixture
def log(tmp_path):
    return _Log(tmp_path / "calls.pickle")


def _counting(monkeypatch, log, module, name, record):
    """Log record(*args) for every call of module.name, in this process or a
    forked child; returns a function that gives the records, in call order."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        log.add(name, record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return lambda: [rec for _, rec in log.read(name)]


def _counting_builds(monkeypatch, log):
    """Log (id of the SectorSpace, radius) for every germ table built, and the
    radius of every table that makes its Germ objects; returns a function that
    gives the builds as (pid, (space, radius))."""
    real_init, real_germs = sectors.GermTable.__init__, sectors.GermTable.__dict__["germs"]

    def init(self, space, radius):
        log.add("table", (id(space), radius))
        real_init(self, space, radius)

    def germs(self):
        if "germs" not in vars(self):
            log.add("germs", self.radius)
        return real_germs.__get__(self, sectors.GermTable)

    monkeypatch.setattr(sectors.GermTable, "__init__", init)
    monkeypatch.setattr(sectors.GermTable, "germs", property(germs))
    return lambda: log.read("table")


def _assert_lean_after_suite(space, kept, builds, metric_radius):
    """Over both processes of the suite each table was built once and none
    above metric_radius was built whole; this process keeps the tables it
    built itself, none above the metric radius, and the child's went with it."""
    radii = sorted(r for _, (sid, r) in builds if sid == id(space))
    assert radii == list(range(metric_radius + 1)), radii
    mine = sorted(r for pid, (sid, r) in builds if sid == id(space) and pid == os.getpid())
    assert kept == mine and max(kept) <= metric_radius, (kept, radii)


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_full_suite_passes(name, monkeypatch, log):
    builds = _counting_builds(monkeypatch, log)
    ctx = FixtureContext(name, fixtures.load_fixture(name))
    edges = None
    if ctx.rank == 1:
        edges = [tuple(e) for e in fixtures.document(name)["edges"]]
    joint_calls = _counting(monkeypatch, log, spectra, "joint_spectrum", lambda family: None)
    koszul_calls = _counting(monkeypatch, log, spectra, "koszul_complexes", lambda _, chi: chi)
    eigen_calls = _counting(monkeypatch, log, spectra, "eigen", lambda mat: None)
    results = run_suite(ctx, metric_radius=3, edges=edges)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    # the spectral checks share one joint spectrum and one record per character
    assert len(joint_calls()) == 1
    # one eigensolve for the joint spectrum and one per generator: 3 on a2q2
    assert len(eigen_calls()) == 1 + ctx.rank
    chars = koszul_calls()
    assert len(chars) == len(set(chars)) > len(ctx.f1.joint)
    # the suite runs on the row arrays: no large table makes Germ objects,
    # though the distance cross-check, in the child, does at radius 2
    made = [radius for _, radius in log.read("germs")]
    assert 2 in made and [radius for radius in made if radius >= 3] == []
    assert len({pid for pid, _ in builds()}) == 2  # the germ half builds in its child
    _assert_lean_after_suite(ctx.space, sorted(ctx.space._tables), builds(), 3)


def test_the_germ_half_leaves_only_the_metric_tables(a2):
    # verify a2q2 --radius 3, germ half in this process: the operators on F_3,
    # which read radius-5 germs, walk table(3), so no table above it is built
    ctx = FixtureContext("a2q2", a2.system)
    for g in ctx.generators:
        ctx.tm(g, 1)
    lines = [res for part in verify._run_half("germ", ctx, 3, None) for res in part]
    assert lines and all(res.passed for res in lines)
    assert sorted(ctx.space._tables) == [0, 1, 2, 3]


def test_verify_all_assembles_each_operator_once(monkeypatch, log, capsys):
    # the CLI path: every context is made and budgeted before the first suite
    builds = _counting_builds(monkeypatch, log)
    validated = _counting(monkeypatch, log, chamber.ChamberSystem, "validate", id)
    # each suite's context, with the tables this process keeps after it
    suites, real_suite = [], verify.run_suite

    def suite(ctx, *args, **kwargs):
        results = real_suite(ctx, *args, **kwargs)
        suites.append((ctx, sorted(ctx.space._tables)))
        return results

    # the pass under way in this process, as (space, (coords, n) of each
    # request), set before its pieces are cut and None between passes
    assembly, real_assembly = [None], transfer.transfer_matrices

    def assemble(space, requests):
        assembly[0] = (id(space), tuple((tuple(mu.coords), n) for mu, n in requests))
        log.add("assembly", assembly[0])
        try:
            return real_assembly(space, requests)
        finally:
            assembly[0] = None

    # per plug grouping: (assembly, big rows, whether its piece is one plug
    # key); the groupings made while the pieces are cut are logged apart
    real_groups, real_pieces = transfer.row_groups, transfer._pieces
    piece_is_one_key, cutting = [], [False]

    def checked_pieces(rows, cols, budget):
        # the pieces partition the parent rows, each inside one rotation
        # block and within the budget or a single plug key
        covered = np.zeros(len(rows), dtype=np.int64)
        pieces = real_pieces(rows, cols, budget)
        while True:
            cutting[0] = True
            piece = next(pieces, None)
            cutting[0] = False
            if piece is None:
                break
            at = np.arange(len(rows))[piece]
            covered[at] += 1
            keys = rows[at][:, [0, *cols]]
            assert np.all(keys[:, 0] == keys[0, 0])
            piece_is_one_key.append(bool(np.all(keys == keys[0])))
            assert len(at) <= budget or piece_is_one_key[-1]
            yield piece
        assert np.all(covered == 1)

    def checked_groups(columns):
        first, labels = real_groups(columns)
        _, want_first, want_labels = np.unique(
            byte_keys(np.transpose(columns)), return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(labels, want_labels.reshape(-1))
        if cutting[0]:
            log.add("cut", (assembly[0], len(labels)))
        elif assembly[0] is not None:  # check_fn_invariance groups classes outside a pass
            log.add("plug", (assembly[0], len(labels), piece_is_one_key[-1]))
        return first, labels

    monkeypatch.setattr(verify, "run_suite", suite)
    monkeypatch.setattr(transfer, "transfer_matrices", assemble)
    monkeypatch.setattr(transfer, "_pieces", checked_pieces)
    monkeypatch.setattr(transfer, "row_groups", checked_groups)
    assert cli.main(["verify", "all", "--radius", "3"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert [ctx.name for ctx, _ in suites] == list(fixtures.FIXTURES)
    # each input is validated once, by its context
    assert validated() == [id(ctx.system) for ctx, _ in suites]
    for ctx, kept in suites:
        _assert_lean_after_suite(ctx.space, kept, builds(), 3)
    passes = [key for _, key in log.read("assembly")]
    keys = [(space, *request) for space, requests in passes for request in requests]
    assert len(keys) == len(set(keys))
    # one plug grouping per piece and request, each equal to the np.unique
    # grouping and within _BLOCK_ROWS big rows or a single plug key; the
    # pieces of a pass cover the radius-(n + |mu|) germs of each request
    plugs = [plug for _, plug in log.read("plug")]
    assert all(size <= sectors._BLOCK_ROWS or one for _, size, one in plugs)
    spaces = {id(ctx.space): ctx for ctx, _ in suites}
    pieces = {}
    for key in passes:
        space, requests = key
        sizes = [size for a, size, _ in plugs if a == key]
        ctx = spaces[space]
        for k, (coords, n) in enumerate(requests):
            assert sum(sizes[k :: len(requests)]) == ctx.space.predicted_size(n + sum(coords))
        pieces[ctx.name, requests] = sizes
    # a2q2's operator on F_3 walks the radius-3 table: it cuts each of its
    # three rotation blocks of 1,344 rows between plug keys of 64 rows into
    # pieces of 640, 640 and 64 rows, which extend to 40,960, 40,960 and 4,096
    # radius-5 germs, grouping each block's rows once
    assert pieces["a2q2", (((1, 1), 3),)] == [40960, 40960, 4096] * 3
    cuts = {}
    for (space, requests), size in [cut for _, cut in log.read("cut")]:
        cuts.setdefault((spaces[space].name, requests), []).append(size)
    assert cuts == {("a2q2", (((1, 1), 3),)): [1344] * 3}
    # the seven operators on F_1 and F_2 that read the radius-4 germs share
    # one pass over the three rotation blocks of the radius-2 table
    (big,) = [(requests, sizes) for (name, requests), sizes in pieces.items()
              if name == "a2q2" and len(requests) == 7]
    assert {n + sum(coords) for coords, n in big[0]} == {4} and big[1] == [10752] * 21


def test_verify_all_releases_each_context_after_its_suite(monkeypatch, capsys):
    # GermTable.space and SectorSpace._tables form a cycle, so a released
    # context is gone only after a collection
    refs = []

    def suite(ctx, metric_radius, edges):
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        refs.append(weakref.ref(ctx))
        ctx.space.table(1)  # the cycle a real suite leaves
        return [verify.CheckResult(ctx.name, True)]

    monkeypatch.setattr(verify, "run_suite", suite)
    assert cli.main(["verify", "all", "--radius", "3"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == len(refs) == len(fixtures.FIXTURES)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(message, exc=transfer.InvariantError):
    def check(*args, **kwargs):
        raise exc(message)

    return check


def test_a_germ_half_error_exits_as_before_the_split(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_lasota_yorke", _raising("germ half"))
    assert cli.main(["verify", "k33", "--radius", "1"]) == 1
    assert capsys.readouterr() == ("== k33 ==\n", "error: germ half\n")
    _assert_no_child_left()
    # the germ half ran first before the split, so its error wins over the
    # spectral half's
    monkeypatch.setattr(verify, "check_koszul_suite", _raising("spectral half"))
    assert cli.main(["verify", "k33", "--radius", "1"]) == 1
    assert capsys.readouterr() == ("== k33 ==\n", "error: germ half\n")
    _assert_no_child_left()


def test_a_spectral_half_error_still_reaps_the_child(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_parametrix", _raising("spectral half"))
    assert cli.main(["verify", "k33", "--radius", "1"]) == 1
    assert capsys.readouterr() == ("== k33 ==\n", "error: spectral half\n")
    _assert_no_child_left()


def test_an_interrupted_suite_kills_and_reaps_the_child(monkeypatch):
    # the germ half would take a minute: only a killed child ends in time
    real = verify.check_fn_invariance

    def slow(ctx):
        time.sleep(60)
        return real(ctx)

    monkeypatch.setattr(verify, "check_fn_invariance", slow)
    for exc in (KeyboardInterrupt, SystemExit):
        monkeypatch.setattr(verify, "check_koszul_suite", _raising("stop", exc))
        ctx = FixtureContext("k33", fixtures.load_fixture("k33"))
        start = time.perf_counter()
        with pytest.raises(exc):
            run_suite(ctx, metric_radius=1)
        assert time.perf_counter() - start < 30
        _assert_no_child_left()


def test_a_germ_half_exception_carries_the_childs_traceback(monkeypatch):
    monkeypatch.setattr(verify, "check_lasota_yorke", _raising("germ half"))
    ctx = FixtureContext("k33", fixtures.load_fixture("k33"))
    with pytest.raises(transfer.InvariantError, match="germ half") as info:
        run_suite(ctx, metric_radius=1)
    assert "in _run_half" in info.value.__notes__[-1]
    _assert_no_child_left()


# `verify k33 --radius 1` whose Lasota-Yorke check writes "x" to the inherited
# fd argv[1] and sleeps argv[2] seconds, and whose F_n check, the next one,
# writes "n"; the fd reads EOF once the forked child has ended too
_SLOW_GERM_HALF = """
import os, sys, time
from weylflow import cli, verify
fd, sleep = int(sys.argv[1]), float(sys.argv[2])

def slow(ctx):
    os.write(fd, b"x")
    time.sleep(sleep)
    return []

def after(ctx):
    os.write(fd, b"n")
    return []

verify.check_lasota_yorke, verify.check_fn_invariance = slow, after
sys.exit(cli.main(["verify", "k33", "--radius", "1"]))
"""


def _kill_during_the_germ_half(sig, sleep):
    """(exit code, what the child wrote after it began to sleep) of a verify
    process sent `sig` while its child sleeps in the germ half."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
    read, write = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_GERM_HALF, str(write), str(sleep)],
        pass_fds=(write,), stdout=subprocess.DEVNULL, env=env,
    )
    os.close(write)
    try:
        assert select.select([read], [], [], 60)[0] and os.read(read, 1) == b"x"
        proc.send_signal(sig)
        code = proc.wait(timeout=30)
        rest = b""
        while select.select([read], [], [], 30)[0]:
            chunk = os.read(read, 64)
            if not chunk:
                return code, rest
            rest += chunk
        raise AssertionError("the forked child outlived its parent by 30 s")
    finally:
        proc.kill()
        proc.wait()
        os.close(read)


def test_sigterm_kills_and_reaps_the_child():
    # the child sleeps a minute; the parent ends at once, and its child with it
    start = time.perf_counter()
    assert _kill_during_the_germ_half(signal.SIGTERM, 60) == (128 + signal.SIGTERM, b"")
    assert time.perf_counter() - start < 30


def test_a_child_whose_parent_is_killed_stops_before_its_next_check():
    assert _kill_during_the_germ_half(signal.SIGKILL, 1) == (-signal.SIGKILL, b"")


def test_a_child_that_sends_no_result_is_one_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_tables", lambda ctx, max_radius: os.kill(os.getpid(), 9))
    assert cli.main(["verify", "k33", "--radius", "1"]) == 2
    assert capsys.readouterr() == (
        "== k33 ==\n",
        "error: the germ-layer checks ended without a result (killed by signal 9)\n",
    )
    _assert_no_child_left()


def test_a_germ_half_failure_lands_on_its_line(monkeypatch, capsys):
    assert cli.main(["verify", "k33", "--radius", "1"]) == 0
    want = capsys.readouterr().out.splitlines()
    real = verify.check_fn_invariance

    def failing(ctx):
        first, *rest = real(ctx)
        return [verify.CheckResult(first.name, False, "tampered"), *rest]

    monkeypatch.setattr(verify, "check_fn_invariance", failing)
    assert cli.main(["verify", "k33", "--radius", "1"]) == 1
    got = capsys.readouterr().out.splitlines()
    at = want.index("[PASS] matrix compression consistent across radii")
    assert got == want[:at] + ["[FAIL] matrix compression consistent across radii: tampered"] + want[at + 1:]
    _assert_no_child_left()


def test_every_check_is_wired_into_the_suite(monkeypatch):
    # each check_* stubbed to one line named after it: a check left out of
    # SUITE is missing from both runs, whatever the golden transcripts hold
    def stub(name):
        return lambda *args, **kwargs: [verify.CheckResult(name, True)]

    names = [name for name in dir(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, stub(name))
    seen = set()
    for name, edges in (("a2q2", None), ("k33", fixtures.document("k33")["edges"])):
        ctx = FixtureContext(name, fixtures.load_fixture(name))
        lines = [res.name for res in run_suite(ctx, metric_radius=1, edges=edges)]
        assert lines[:2] == ["local building checks", "check_walk_parameters"], lines
        assert len(set(lines)) == len(lines), lines  # each check once per run
        seen.update(lines[1:])
    _assert_no_child_left()
    # A2~ health runs only on a2q2 and the rank-1 oracle only on k33
    assert seen == set(names)


def test_an_operator_that_fails_to_assemble_fails_in_the_sequential_order(monkeypatch, capsys):
    # the germ half meets (1,1) on F_2 before it reads (1,0) on F_1 outside
    # the row-sum check; the spectral half, and the assembly before the
    # split, meet (1,0) on F_1 first
    # every assembly, alone or in a shared pass, runs through transfer_matrices
    real = transfer.transfer_matrices

    def failing(space, requests):
        for mu, n in requests:
            if (tuple(mu.coords), n) in {((1, 0), 1), ((1, 1), 2)}:
                raise transfer.CountingError(f"{tuple(mu.coords)} on F_{n}")
        return real(space, requests)

    monkeypatch.setattr(transfer, "transfer_matrices", failing)
    assert cli.main(["verify", "a2q2", "--radius", "1"]) == 1
    assert capsys.readouterr() == ("== a2q2 ==\n", "error: (1, 1) on F_2\n")
    _assert_no_child_left()


def _moved_chambers(radius, column, targets, sources):
    """An extend_rows whose radius-`radius` rows `targets` take, in `column`,
    the chambers of the rows `sources`."""
    real = sectors.SectorSpace.extend_rows

    def tampered(self, parent, base, r):
        rows, base, parents = real(self, parent, base, r)
        if r == radius:
            rows[targets, column] = rows[sources, column]
        return rows, base, parents

    return "extend_rows", tampered


def _shared_representative(coords):
    """A shift_positions under which the first group of each piece of mu's
    operator takes the class of the last group."""
    real = sectors.SectorSpace.shift_positions

    def tampered(self, rows, radius, mu):
        pos = real(self, rows, radius, mu)
        if mu.coords == coords:
            pos[0] = pos[-1]
        return pos

    return "shift_positions", tampered


@pytest.mark.parametrize(
    "tamper, first",
    [
        # the failures land in the row-sum line, first at one operator on F_2
        (_moved_chambers(3, 9, [0], [1]), "(1, 0) on F_2: conditioning groups have mixed sizes"),
        (_moved_chambers(4, 16, [0], [1]), "(2, 0) on F_2: conditioning groups have mixed sizes"),
        (_moved_chambers(4, 14, [0, 64], [64, 0]), "(0, 2) on F_2: group counts are not uniform"),
        # (2, 1) on F_1 is read first by the semigroup line, which raises
        (_shared_representative((2, 1)), "(2, 1) on F_1: preimage counts at class"),
    ],
)
def test_a_tampered_germ_fails_the_shared_passes_as_one_at_a_time(a2, monkeypatch, tamper, first):
    # with the operators of each radius n + |mu| assembled in one pass, or one
    # at a time as `tm` reads them, the operator identities fail alike: the
    # same first operator in their order, with the same CountingError text
    def outcome(shared):
        ctx = FixtureContext("a2q2", a2.system)
        for g in ctx.generators:
            ctx.tm(g, 1)
        with monkeypatch.context() as m:
            m.setattr(sectors.SectorSpace, *tamper)
            if not shared:
                m.setattr(ctx, "assemble", lambda keys: None)
            try:
                results = verify.check_transfer_exact(ctx)
            except transfer.CountingError as exc:
                return f"raised {exc}"
            assert all(res.detail for res in results if not res.passed)
            return [res.line() for res in results]

    got = outcome(True)
    assert got == outcome(False)
    assert f"preimage counting failed for mu={first}" in str(got), got


def test_uneven_extension_counts_name_their_own_line(k33):
    # one radius-2 germ moved to another parent's restriction class: each
    # radius-1 class keeps an extension, and two now hold 1 and 3
    ctx = FixtureContext("k33", k33.system)
    table = ctx.space.table(2)
    real = table.restriction_map

    def moved(m):
        restr = real(m)
        if m == 1:
            restr = restr.copy()
            restr[0] = (restr[0] + 1) % (restr.max() + 1)
        return restr

    table.restriction_map = moved
    _, surjective, regular = verify.check_tables(ctx, max_radius=2)
    assert surjective.line() == "[PASS] restriction maps surjective"
    assert regular.line() == (
        "[FAIL] extension count independent of the germ: radius 2: extension counts range 1..3"
    )


def test_a_row_split_inside_its_class_names_the_maps_into_line(a2, monkeypatch):
    # the strongly dominant operator on F_2 with row 1, which shares its
    # radius-1 class with row 0, rolled by one
    real = transfer.transfer_matrix

    def tampered(space, mu, radius):
        tm = real(space, mu, radius)
        if (mu, radius) == (a2.strong, 2):
            rows = tm.preimages.copy()
            rows[1] = np.sort((rows[1] + 1) % tm.dim)
            tm = transfer.TransferMatrix(tm.mu, tm.radius, rows, tm.m_mu)
        return tm

    monkeypatch.setattr(transfer, "transfer_matrix", tampered)
    compression, maps_into = verify.check_fn_invariance(FixtureContext("a2q2", a2.system))
    assert maps_into.line() == (
        "[FAIL] strongly dominant shift maps F_2 into F_1: rows 0 and 1 differ inside radius-1 class 0"
    )
    assert not compression.passed and compression.detail
    assert "differ inside" not in compression.detail


def test_walk_parameter_details_land_on_their_own_result(a2, monkeypatch):
    real = verify.translation_parameter

    def skewed(R, q, mu):
        return real(R, q, mu) + (1 if sum(mu.coords) == 2 else 0)

    monkeypatch.setattr(verify, "translation_parameter", skewed)
    unique, mult, inv = verify.check_walk_parameters(a2)
    assert not mult.passed
    assert "not multiplicative" in mult.detail
    assert "not multiplicative" not in unique.detail + inv.detail
    assert not unique.passed and "walks give" in unique.detail
    assert not inv.passed and "reverse walk" in inv.detail


def _dense_metric_laws(ctx, n):
    """The metric laws on dense pair matrices: the reference for check_metric_suite."""
    space, table = ctx.space, ctx.space.table(n)
    k = table.k_matrix().astype(int)
    ultra = all(np.all(k >= np.minimum(k[:, b][:, None], k[b, :][None, :])) for b in range(len(k)))
    kis = [table.ki_matrix(i).astype(int) for i in range(ctx.rank)]
    resolved = (k <= n) & np.all([ki <= n for ki in kis], axis=0)
    direction = np.all(k[resolved] == np.min(kis, axis=0)[resolved])
    mono = key = directional = True
    for mu in ctx.generators + [ctx.strong]:
        if mu.norm > n:
            continue
        gate = table.region_classes(mu)
        same = gate[:, None] == gate[None, :]
        smap = space.shift_map(n, mu)
        kshift = space.table(n - mu.norm).k_matrix().astype(int)[np.ix_(smap, smap)]
        mono &= np.all(k[same] >= kshift[same])
        if mu.strongly_dominant:
            key &= np.all(k[same] >= kshift[same] + 1)
    for i, mu in enumerate(ctx.generators):
        gate = table.ray_classes(i, 1)
        same = gate[:, None] == gate[None, :]
        smap = space.shift_map(n, mu)
        for j in range(ctx.rank):
            small = space.table(n - 1).ki_matrix(j).astype(int)[np.ix_(smap, smap)]
            if j == i:
                directional &= np.all(kis[i][same] == np.minimum(small[same] + 1, n + 1))
            else:
                directional &= np.all(kis[j][same] >= small[same])
    return [bool(x) for x in (ultra, direction, mono, key, directional)]


def _constant_shift_maps(ctx):
    real = ctx.space.shift_map
    ctx.space.shift_map = lambda radius, mu: np.zeros_like(real(radius, mu))


def _split_first_ray_class(ctx, n):
    table = ctx.space.table(n)
    real = table.ray_classes

    def split(direction, ell):
        cls = real(direction, ell).copy()
        if (direction, ell) == (0, 1):
            cls[0] = cls.max() + 1  # germ 0 alone in a new class
        return cls

    table.ray_classes = split


def _first_difference(levels):
    """k of every pair from bare class labels: the first level where it differs."""
    k = np.full((len(levels[0]),) * 2, len(levels))
    for m in reversed(range(len(levels))):
        k[levels[m][:, None] != levels[m][None, :]] = m
    return k


def test_meet_labels_are_the_lexicographic_ranks_of_the_label_tuples():
    rng = np.random.default_rng(8)
    # labels up to 2^40 overflow a mixed-radix int64 key: the meet relabels between digits
    for size, top, count in ((1, 1, 1), (50, 3, 2), (400, 400, 4), (400, 2**40, 3)):
        labels = [rng.integers(0, top, size) for _ in range(count)]
        want = np.unique(np.column_stack(labels), axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(sectors.row_groups(labels)[1], want)
    # a column wider than 2^62 / (distinct keys before it) is ranked before it is a digit
    assert sectors.row_groups([np.array([0, 1, 1]), np.array([2**62, 2**62, 0])])[1].tolist() == [0, 2, 1]


def test_law_helpers_match_pair_definitions():
    # random labels are not nested, so bare labels would give other answers
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(300):
        size = int(rng.integers(1, 10))

        def labels(count):
            return [rng.integers(0, 3, size) for _ in range(count)]

        gate = rng.integers(0, 3, size)
        same = gate[:, None] == gate[None, :]
        shift = int(rng.integers(0, 2))
        small = labels(int(rng.integers(1, 4)))
        big = labels(len(small) + shift + int(rng.integers(0, 2)))
        kb, ks = _first_difference(big), _first_difference(small)
        want = bool(np.all(kb[same] >= ks[same] + shift))
        assert verify._k_at_least(gate, big, small, shift) == want
        seen.add(("at least", want))
        if len(big) == len(small) + shift:
            want = bool(np.all(kb[same] <= ks[same] + shift))
            assert verify._k_at_most(gate, big, small, shift) == want
            seen.add(("at most", want))
        levels = labels(3)
        rays = [labels(3) for _ in range(int(rng.integers(1, 3)))]
        k, kis = _first_difference(levels), [_first_difference(ray) for ray in rays]
        resolved = (k <= 2) & np.all([ki <= 2 for ki in kis], axis=0)
        want = int(np.sum(resolved & (k != np.min(kis, axis=0))))
        assert verify._direction_violations(levels, rays) == want
        seen.add(("direction", want == 0))
    assert len(seen) == 6  # every helper met both verdicts


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_metric_refinements_match_dense_laws(name):
    system = fixtures.load_fixture(name)
    for n in (1, 2):
        for tamper in (None, _constant_shift_maps, _split_first_ray_class):
            ctx = FixtureContext(name, system)
            if tamper is _constant_shift_maps:
                tamper(ctx)
            elif tamper is not None:
                tamper(ctx, n)
            results = verify.check_metric_suite(ctx, radius=n)
            verdicts = [res.passed for res in results]
            assert verdicts == _dense_metric_laws(ctx, n), (n, tamper)
            assert all(res.detail for res in results if not res.passed)
            if tamper is None:
                assert all(verdicts)


def test_tampered_maps_fail_their_laws():
    system = fixtures.load_fixture("a2q2")
    ctx = FixtureContext("a2q2", system)
    _constant_shift_maps(ctx)
    lines = {res.name: res for res in verify.check_metric_suite(ctx, radius=2)}
    mono = lines["shift monotonicity (radius 2)"]
    assert not mono.passed and mono.detail == "mu=(1, 0); mu=(0, 1)"
    ctx = FixtureContext("a2q2", system)
    _split_first_ray_class(ctx, 2)
    lines = {res.name: res for res in verify.check_metric_suite(ctx, radius=2)}
    direction = lines["direction formula k = min_i k_i (radius 2)"]
    assert not direction.passed and direction.detail == "12 resolved ordered pairs have k != min_i k_i"
    directional = lines["directional shift laws (radius 2)"]
    assert not directional.passed and directional.detail == "k_0 under the shift by mu=(0, 1)"


def test_iterated_contraction_names_the_failing_power(a2, monkeypatch):
    # a mutant seminorm kernel that pushes every column of L^2 over its bound
    m_mu = a2.tm(a2.strong, 2).m_mu
    real = transfer.lipschitz_seminorms

    def inflated(space, block, denom, n, theta):
        columns = real(space, block, denom, n, theta)
        return [v + 100 for v in columns] if denom == m_mu**2 else columns

    monkeypatch.setattr(transfer, "lipschitz_seminorms", inflated)
    lines = {res.name: res for res in verify.check_lasota_yorke(a2)}
    iterated = lines.pop("iterated contraction up to the third power")
    assert not iterated.passed and iterated.detail.count("; ") == 2  # the first three witnesses
    assert iterated.detail.startswith("L^2 too large on indicator 0: |L phi| = "), iterated.detail
    assert all(res.passed for res in lines.values())


def test_lasota_yorke_peak_memory(a2, traced_peak):
    # the operators on F_2 are assembled first; each column block of L^1..L^3
    # then grows from the same block of the identity and goes to the kernel
    # whole: 0.84 MiB measured, 1.83 MiB when the kernel took each block's
    # nonzero cells, 3.2 MiB with dense 504 x 504 powers, 6.2 MiB with the
    # 84,672 nonzero cells of L^3 at once
    for mu in {a2.strong, *a2.generators}:
        a2.tm(mu, 2)
    results, peak = traced_peak(lambda: verify.check_lasota_yorke(a2))
    assert all(res.passed for res in results)
    assert peak < 1.25 * 2**20, peak


@pytest.mark.parametrize(
    "check, bound",
    # 0.73, 1.19 and 0.69 MiB measured; check_parametrix took 2.87 MiB on
    # stacks of five characters
    [("check_koszul_suite", 1.5), ("check_parametrix", 1.75), ("check_taylor_main", 1.5)],
)
def test_spectral_check_peak_memory(a2, traced_peak, monkeypatch, check, bound):
    # the shared F_1 data, the Koszul identities included, is built first, so
    # that the peak does not depend on which test built it; every Koszul
    # record is computed afresh
    assert a2.f1.joint and a2.f1.eigenvalues
    assert a2.f1.identities == (0.0, None, None)
    monkeypatch.setattr(a2.f1, "_koszul", {})
    results, peak = traced_peak(lambda: getattr(verify, check)(a2))
    assert all(res.passed for res in results)
    assert peak < bound * 2**20, peak


def test_koszul_identities_peak_memory(a2, traced_peak):
    # decided once per family, on the integer counts at the four cube
    # characters: 1.40 MiB measured
    family = spectra.Family([a2.tm(g, 1) for g in a2.generators])
    identities, peak = traced_peak(lambda: family.identities)
    assert identities == (0.0, None, None)
    assert peak < 1.75 * 2**20, peak


def _enc(k, radius):
    return radius + 1 if k is SENTINEL else k


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), name=st.sampled_from(["k33", "biregular", "a2q2"]))
def test_ultrametric_on_sampled_triples(contexts, data, name):
    ctx = contexts[name]
    table = ctx.space.table(2)
    idx = st.integers(0, len(table) - 1)
    a, b, c = (table.germs[data.draw(idx)] for _ in range(3))
    kab = _enc(ctx.space.distance(a, b)[0].k, 2)
    kbc = _enc(ctx.space.distance(b, c)[0].k, 2)
    kac = _enc(ctx.space.distance(a, c)[0].k, 2)
    assert kac >= min(kab, kbc)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), name=st.sampled_from(["q3", "a2q2"]))
def test_distance_symmetric_and_definite(contexts, data, name):
    ctx = contexts[name]
    table = ctx.space.table(2)
    idx = st.integers(0, len(table) - 1)
    a = table.germs[data.draw(idx)]
    b = table.germs[data.draw(idx)]
    res_ab, val_ab = ctx.space.distance(a, b)
    res_ba, val_ba = ctx.space.distance(b, a)
    assert res_ab.k == res_ba.k and val_ab == val_ba
    if a is b:
        assert res_ab.k is SENTINEL
    if res_ab.k is SENTINEL:
        assert a.canonical_key == b.canonical_key


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_max_formula_on_sampled_a2_pairs(a2, data):
    table = a2.space.table(2)
    idx = st.integers(0, len(table) - 1)
    a = table.germs[data.draw(idx)]
    b = table.germs[data.draw(idx)]
    res, _ = a2.space.distance(a, b)
    ks = [_enc(k, 2) for k in res.k_directional]
    assert _enc(res.k, 2) == min(min(ks), 3)


def test_k33_gated_eigenvalues_are_members(contexts):
    ctx = contexts["k33"]
    report = spectra.taylor_report(ctx.f1, 0.5)
    for j in report.joint:
        if spectra.passes_gate(j.chi, 0.5):
            assert report.taylor[j.chi] is True


def _fresh_family(ctx):
    """A family of the context's F_1 generators that shares no spectral data with ctx.f1."""
    return spectra.Family([ctx.tm(g, 1) for g in ctx.generators])


def test_shared_joint_spectrum_is_a_fresh_one(contexts):
    for name, ctx in contexts.items():
        fresh = _fresh_family(ctx).joint
        assert [(j.chi, j.multiplicity, j.residual) for j in ctx.f1.joint] == [
            (j.chi, j.multiplicity, j.residual) for j in fresh
        ], name
        assert all(np.array_equal(a.vector, b.vector) for a, b in zip(ctx.f1.joint, fresh))


def test_taylor_check_matches_direct_reports(contexts, monkeypatch):
    real, shared = spectra.taylor_report, []

    def recording(*args, **kwargs):
        shared.append(real(*args, **kwargs))
        return shared[-1]

    monkeypatch.setattr(spectra, "taylor_report", recording)
    for name, ctx in contexts.items():
        shared.clear()
        assert all(res.passed for res in verify.check_taylor_main(ctx))
        assert [report.theta for report in shared] == [0.25, 0.5]
        for theta, got in zip((0.25, 0.5), shared):
            want = real(_fresh_family(ctx), theta)
            for field in ("taylor", "cohomology", "mismatches"):
                assert getattr(got, field) == getattr(want, field), (name, theta, field)


def _rays_from_coweight_vertices(trunc, rank):
    """Per direction i, face indices of the vertices ell * w_i, via the coweight vertex list."""
    where = {cw.coords: vidx for cw, _, vidx in trunc.coweight_vertices}
    rays = []
    for i in range(rank):
        ray = []
        for ell in range(trunc.radius + 1):
            coords = tuple(ell if j == i else 0 for j in range(rank))
            if coords not in where:
                break
            ray.append(trunc.face_index[(where[coords],)])
        rays.append(ray)
    return rays


def test_cached_ray_faces_match_the_coweight_vertices(contexts):
    for name, ctx in contexts.items():
        for n in range(4):
            want = _rays_from_coweight_vertices(ctx.space.truncation(n), ctx.rank)
            assert ctx.space._ray_faces(n) == want, (name, n)
            # radius 0 has no alcoves, so no vertices
            assert [len(ray) for ray in want] == [n + 1 if n else 0] * ctx.rank


@pytest.mark.parametrize("name", ["k33", "a2q2"])
@pytest.mark.parametrize(
    "tamper",
    [lambda ray: ray[:-1], lambda ray: [fi + 1 for fi in ray], lambda ray: ray[:-1] + [10**6]],
    ids=["last-vertex-dropped", "shifted-by-one", "last-vertex-past-the-faces"],
)
def test_tampered_ray_faces_fail_the_distance_cross_check(
    contexts, monkeypatch, bfs_distance, name, tamper
):
    space = contexts[name].space
    rays = space._ray_faces(2)
    monkeypatch.setitem(space._ray_face_lists, 2, [tamper(ray) for ray in rays])
    (res,) = verify.check_distance_cross_validation(contexts[name], radius=2)
    assert not res.passed
    # the detail of the first failing pair in row-major order, as the breadth-
    # first search reference gives it pair by pair
    table = space.table(2)
    idxs = range(0, len(table), max(1, len(table) // 60))
    mats = [table.k_matrix()] + [table.ki_matrix(i) for i in range(contexts[name].rank)]
    for a, b in itertools.product(idxs, idxs):
        k, kdir, _ = bfs_distance(space, table.germs[a], table.germs[b])
        got = (k, *kdir)
        want = [SENTINEL if m[a, b] == 3 else int(m[a, b]) for m in mats]
        bad = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), None)
        if bad is not None:
            break
    assert bad and res.detail == f"pair ({a},{b}) direction {bad - 1}: {got[bad]} vs {want[bad]}"


def _flip_last_chain_differential(monkeypatch):
    """Make `koszul_chain` return its top boundary negated: ranks and d o d stay as they were."""
    real = spectra.koszul_chain

    def flipped(mats, chi):
        out = real(mats, chi)
        return out[:-1] + [-out[-1]]

    monkeypatch.setattr(spectra, "koszul_chain", flipped)


def _mutant_family(ctx, monkeypatch):
    """Make ctx.f1 a fresh family, which decides its Koszul identities over the patched complexes."""
    family = _fresh_family(ctx)
    monkeypatch.setattr(ctx, "f1", family)
    return family


@pytest.mark.parametrize("name", ["k33", "a2q2"])
def test_chain_sign_flip_fails_the_duality_line(contexts, monkeypatch, name):
    ctx = contexts[name]
    _flip_last_chain_differential(monkeypatch)
    family = _mutant_family(ctx, monkeypatch)
    mats = family.mats
    results = {res.name: res for res in verify.check_koszul_suite(ctx)}
    dual = results["chain/cochain duality dim H_p = dim H^(r-p)"]
    first = family.joint[0].chi
    assert not dual.passed
    # the witness is the first character of the cube and the flipped degree
    assert dual.detail == f"chi={(0,) * ctx.rank} at chain degree {ctx.rank}"
    assert results["Koszul differentials square to zero"].passed
    assert all(res.detail for res in results.values() if not res.passed)
    rec = spectra.koszul_complexes(family, first)
    assert rec.homology is None
    # the chain rank SVDs of the old route cannot see the flip
    ranks = [spectra._rank(m, spectra.TOL_RANK)[0] for m in spectra.koszul_chain(mats, first)]
    cochain_ranks = [spectra._rank(m, spectra.TOL_RANK)[0] for m in spectra.koszul_cochain(mats, first)]
    assert ranks == cochain_ranks[::-1]


def test_cochain_sign_flip_fails_the_square_line(a2, monkeypatch):
    real = spectra.koszul_cochain

    def flipped(mats, chi):
        out = real(mats, chi)
        out[0][: out[0].shape[1]] *= -1  # the (A_0 - chi_0) block of d_0
        return out

    monkeypatch.setattr(spectra, "koszul_cochain", flipped)
    _mutant_family(a2, monkeypatch)
    results = {res.name: res for res in verify.check_koszul_suite(a2)}
    square = results["Koszul differentials square to zero"]
    assert not square.passed and square.detail == "chi=(0, 0) at cochain degree 0"
    dual = results["chain/cochain duality dim H_p = dim H^(r-p)"]
    assert not dual.passed and dual.detail == "chi=(0, 0) at chain degree 2"
    assert all(res.detail for res in results.values() if not res.passed)


def test_koszul_command_writes_null_homology_when_the_identity_fails(monkeypatch, capsys):
    _flip_last_chain_differential(monkeypatch)
    assert cli.main(["koszul", "k33", "--chi", "1+0j"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homology"] is None and doc["cohomology"] == [1, 1]


def test_verify_reports_a_failed_local_check_in_one_line(swapped_a2q2, monkeypatch, log, capsys):
    builds = _counting_builds(monkeypatch, log)
    assert cli.main(["verify", swapped_a2q2]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"== {swapped_a2q2} ==",
        "[FAIL] local building checks: residue {0,1}: component of chamber 0: repeated flag; "
        "residue {1,2}: component of chamber 0: girth 4, diameter 4, expected 6 and 3",
    ]
    assert err == "" and builds() == []
