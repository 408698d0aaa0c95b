"""The invariant suite itself must pass on every bundled system.

The metric radius is kept small here; the acceptance module runs the
radius-3 version.  Property-based checks sample germ triples and drive the
explicit region-growing distance, independently of the class arrays used
by the exhaustive suites.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weylflow import fixtures, verify
from weylflow.sectors import SENTINEL
from weylflow.verify import FixtureContext, run_suite


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_full_suite_passes(name):
    ctx = FixtureContext(name, fixtures.load_fixture(name))
    edges = None
    if ctx.rank == 1:
        edges = [tuple(e) for e in fixtures.fixture_documents()[name]["edges"]]
    results = run_suite(ctx, metric_radius=2, edges=edges)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    # the suite runs on the row arrays: no large table makes Germ objects
    tables = ctx.space._tables
    assert max(tables) >= 3
    assert not [n for n, table in tables.items() if n >= 3 and "germs" in vars(table)]


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
    from weylflow import spectra

    ctx = contexts["k33"]
    mats, exact = ctx.family(1)
    report = spectra.taylor_report(mats, 0.5, exact=exact)
    for j in report.joint:
        gate = spectra.Character(j.chi, spectra.default_gate_elements(1))
        if gate.passes_gate(0.5):
            assert report.taylor[j.chi] is True
