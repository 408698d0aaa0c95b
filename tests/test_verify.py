"""The invariant suite itself must pass on every bundled system.

The metric radius is kept small here; the acceptance module runs the
radius-3 version.  Property-based checks sample germ triples and drive the
explicit region-growing distance, independently of the class arrays used
by the exhaustive suites.
"""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weylflow import chamber, cli, fixtures, sectors, spectra, transfer, verify
from weylflow.sectors import SENTINEL, byte_keys
from weylflow.verify import FixtureContext, run_suite


def _counting(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_builds(monkeypatch):
    """Record (id of the SectorSpace, radius) for every germ table built."""
    builds, real = [], sectors.GermTable.__init__

    def init(self, space, radius):
        builds.append((id(space), radius))
        real(self, space, radius)

    monkeypatch.setattr(sectors.GermTable, "__init__", init)
    return builds


def _assert_lean_after_suite(ctx, builds, metric_radius):
    """Each table was built once, none above metric_radius + 1 was ever built
    whole, and none above the metric radius is kept."""
    radii = sorted(r for space, r in builds if space == id(ctx.space))
    assert radii == list(range(len(radii))), radii
    assert metric_radius <= radii[-1] <= metric_radius + 1, radii
    assert max(ctx.space._tables) == metric_radius


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_full_suite_passes(name, monkeypatch):
    builds = _counting_builds(monkeypatch)
    ctx = FixtureContext(name, fixtures.load_fixture(name))
    edges = None
    if ctx.rank == 1:
        edges = [tuple(e) for e in fixtures.document(name)["edges"]]
    joint_calls = _counting(monkeypatch, spectra, "joint_spectrum")
    koszul_calls = _counting(monkeypatch, spectra, "koszul_complexes")
    eigen_calls = _counting(monkeypatch, spectra, "eigen")
    results = run_suite(ctx, metric_radius=3, edges=edges)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    # the spectral checks share one joint spectrum and one record per character
    assert len(joint_calls) == 1
    # one eigensolve for the joint spectrum and one per generator: 3 on a2q2
    assert len(eigen_calls) == 1 + ctx.rank
    chars = [chi for _, chi in koszul_calls]
    assert len(chars) == len(set(chars)) > len(ctx.f1.joint)
    # the suite runs on the row arrays: no large table makes Germ objects
    tables = ctx.space._tables
    assert not [n for n, table in tables.items() if n >= 3 and "germs" in vars(table)]
    _assert_lean_after_suite(ctx, builds, 3)


def test_verify_all_assembles_each_operator_once(monkeypatch, capsys):
    # the CLI path: every context is made and budgeted before the first suite
    builds = _counting_builds(monkeypatch)
    suites = _counting(monkeypatch, verify, "run_suite")
    assemblies = _counting(monkeypatch, transfer, "transfer_matrix")
    validated = _counting(monkeypatch, chamber.ChamberSystem, "validate")
    # per plug grouping: (assembly, big rows, whether its piece is one plug key)
    plugs, real_groups, real_pieces = [], transfer.row_groups, transfer._pieces
    piece_is_one_key = []

    def checked_pieces(rows, cols, budget):
        # the pieces partition the parent rows, each inside one rotation
        # block and within the budget or a single plug key
        covered = np.zeros(len(rows), dtype=np.int64)
        for piece in real_pieces(rows, cols, budget):
            at = np.arange(len(rows))[piece]
            covered[at] += 1
            keys = rows[at][:, [0, *cols]]
            assert np.all(keys[:, 0] == keys[0, 0])
            piece_is_one_key.append(bool(np.all(keys == keys[0])))
            assert len(at) <= budget or piece_is_one_key[-1]
            yield piece
        assert np.all(covered == 1)

    def checked_groups(rows):
        first, labels = real_groups(rows)
        _, want_first, want_labels = np.unique(
            byte_keys(rows), return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(labels, want_labels.reshape(-1))
        plugs.append((len(assemblies) - 1, len(rows), piece_is_one_key[-1]))
        return first, labels

    monkeypatch.setattr(transfer, "_pieces", checked_pieces)
    monkeypatch.setattr(transfer, "row_groups", checked_groups)
    assert cli.main(["verify", "all", "--radius", "3"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert [ctx.name for ctx, *_ in suites] == list(fixtures.FIXTURES)
    # each input is validated once, by its context
    assert [id(system) for system, in validated] == [id(ctx.system) for ctx, *_ in suites]
    for ctx, *_ in suites:
        _assert_lean_after_suite(ctx, builds, 3)
    keys = [(id(space), tuple(mu.coords), n) for space, mu, n, *_ in assemblies]
    assert len(keys) == len(set(keys))
    # one plug grouping per piece, each equal to the np.unique grouping and
    # within _BLOCK_ROWS big rows or a single plug key; the pieces of an
    # assembly cover its radius-(n + |mu|) germs
    assert all(size <= sectors._BLOCK_ROWS or one for _, size, one in plugs)
    names = {id(ctx.space): ctx.name for ctx, *_ in suites}
    pieces = {}
    for i, (space, mu, n, *_) in enumerate(assemblies):
        sizes = [size for a, size, _ in plugs if a == i]
        assert sum(sizes) == space.predicted_size(n + mu.norm)
        pieces[names[id(space)], tuple(mu.coords), n] = sizes
    # a2q2's operator on F_3 cuts each of its three rotation blocks of 86,016
    # radius-5 germs in two
    assert pieces["a2q2", (1, 1), 3] == [43008] * 6


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
        assert np.array_equal(verify._meet(*labels), want)


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
            verdicts = [res.passed for res in verify.check_metric_suite(ctx, radius=n)]
            assert verdicts == _dense_metric_laws(ctx, n), (n, tamper)
            if tamper is None:
                assert all(verdicts)


def test_tampered_maps_fail_their_laws():
    system = fixtures.load_fixture("a2q2")
    ctx = FixtureContext("a2q2", system)
    _constant_shift_maps(ctx)
    lines = {res.name: res.passed for res in verify.check_metric_suite(ctx, radius=2)}
    assert lines["shift monotonicity (radius 2)"] is False
    ctx = FixtureContext("a2q2", system)
    _split_first_ray_class(ctx, 2)
    lines = {res.name: res.passed for res in verify.check_metric_suite(ctx, radius=2)}
    assert lines["direction formula k = min_i k_i (radius 2)"] is False
    assert lines["directional shift laws (radius 2)"] is False


def test_iterated_contraction_names_the_failing_power(a2, monkeypatch):
    # a mutant seminorm kernel that pushes every column of L^2 over its bound
    m_mu = a2.tm(a2.strong, 2).m_mu
    real = transfer.lipschitz_seminorms

    def inflated(space, entries, ncols, denom, n, theta):
        columns = real(space, entries, ncols, denom, n, theta)
        return [v + 100 for v in columns] if denom == m_mu**2 else columns

    monkeypatch.setattr(transfer, "lipschitz_seminorms", inflated)
    lines = {res.name: res for res in verify.check_lasota_yorke(a2)}
    iterated = lines.pop("iterated contraction up to the third power")
    assert not iterated.passed
    assert iterated.detail.startswith("L^2 too large on indicator 0: |L phi| = "), iterated.detail
    assert all(res.passed for res in lines.values())


def test_lasota_yorke_peak_memory(a2, traced_peak):
    # the operators on F_2 are assembled first; each column block of L^1..L^3
    # then grows from the same block of the identity: 1.8 MiB measured, 3.2
    # MiB with dense 504 x 504 powers, 6.2 MiB with the 84,672 nonzero cells
    # of L^3 at once
    for mu in {a2.strong, *a2.generators}:
        a2.tm(mu, 2)
    results, peak = traced_peak(lambda: verify.check_lasota_yorke(a2))
    assert all(res.passed for res in results)
    assert peak < 2.5 * 2**20, peak


@pytest.mark.parametrize(
    "check, bound",
    # 1.23, 1.24 and 1.25 MiB measured; check_parametrix took 2.87 MiB on
    # stacks of five characters
    [("check_koszul_suite", 1.5), ("check_parametrix", 1.75), ("check_taylor_main", 1.5)],
)
def test_spectral_check_peak_memory(a2, traced_peak, monkeypatch, check, bound):
    # the shared F_1 data is built first; every Koszul record is computed afresh
    assert a2.f1.joint and a2.f1.eigenvalues
    monkeypatch.setattr(a2.f1, "_koszul", {})
    results, peak = traced_peak(lambda: getattr(verify, check)(a2))
    assert all(res.passed for res in results)
    assert peak < bound * 2**20, peak


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
    [lambda ray: ray[:-1], lambda ray: [fi + 1 for fi in ray]],
    ids=["last-vertex-dropped", "shifted-by-one"],
)
def test_tampered_ray_faces_fail_the_distance_cross_check(contexts, monkeypatch, name, tamper):
    space = contexts[name].space
    rays = space._ray_faces(2)
    monkeypatch.setitem(space._ray_face_lists, 2, [tamper(ray) for ray in rays])
    res = verify.check_distance_cross_validation(contexts[name], radius=2)
    assert not res.passed
    assert res.detail.startswith("pair (") and "direction" in res.detail


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


def test_koszul_command_writes_null_homology_when_the_identity_fails(monkeypatch, capsys):
    _flip_last_chain_differential(monkeypatch)
    assert cli.main(["koszul", "k33", "--chi", "1+0j"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homology"] is None and doc["cohomology"] == [1, 1]


def test_verify_reports_a_failed_local_check_in_one_line(swapped_a2q2, monkeypatch, capsys):
    builds = _counting_builds(monkeypatch)
    assert cli.main(["verify", swapped_a2q2]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"== {swapped_a2q2} ==",
        "[FAIL] local building checks: residue {0,1}: component of chamber 0: repeated flag",
    ]
    assert err == "" and builds == []
