"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria 2, 3 and 5-10 run the matching `verify.check_*` on every
bundled system, so each invariant and its tolerance live in `verify.py`
only; criteria 1 and 4 add their own pinned values and time bounds.
"""

import time

import numpy as np

from weylflow import fixtures, oracles, verify
from weylflow.rootdata import Coweight
from weylflow.verify import check_distance_cross_validation, check_metric_suite


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _passes(ctx, results):
    failures = [res.line() for res in results if not res.passed]
    assert not failures, f"{ctx.name}: " + "; ".join(failures)


def test_criterion_1_rank1_oracle(k33, k33_spectrum):
    start = time.time()
    tm = k33.tm(Coweight((1,)), 1)
    assert tm.dim == 18 and tm.m_mu == 2
    _passes(k33, verify.check_rank1_oracle(k33, fixtures.document("k33")["edges"]))
    got = np.linalg.eigvals(tm.dense())
    assert oracles.multiset_close(got, k33_spectrum, 1e-8)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"transfer matrix = halved edge operator, 18 eigenvalues match ({elapsed:.2f}s)")


def test_criterion_2_trivial_joint_eigenvalue(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_joint_trivial(ctx))
    _report(2, "chi = 1 with the constant eigenvector everywhere; parity -1 on A1~ graphs")


def test_criterion_3_exact_structural_identities(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_transfer_exact(ctx))
    _report(3, "row sums, semigroup/commutation and sup-norm non-expansion exact on F_1, F_2")


def test_criterion_4_metric_suite(contexts):
    start = time.time()
    for name, ctx in contexts.items():
        for radius in (1, 2, 3):
            for res in check_metric_suite(ctx, radius=radius):
                assert res.passed, f"{name}: {res.name} {res.detail}"
        (cross,) = check_distance_cross_validation(ctx, radius=2)
        assert cross.passed, f"{name}: {cross.detail}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(4, f"ultrametric, direction formula, shift laws over all pairs at radius <= 3 ({elapsed:.1f}s)")


def test_criterion_5_lasota_yorke(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_lasota_yorke(ctx))
    _report(5, "|L phi| <= theta |phi| + 2/theta |phi|_oo on every indicator of F_2")


def test_criterion_6_fn_mapping(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_fn_invariance(ctx))
    _report(6, "radius compression exact; strongly dominant shifts map F_2 into F_1")


def test_criterion_7_koszul_suite(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_koszul_suite(ctx, seed=2024))
    _report(7, "d o d = 0, Euler = 0, far vanishing, H^0 = joint eigenspace, duality")


def test_criterion_8_parametrix_and_homotopy(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_parametrix(ctx, seed=4096))
    _report(8, "telescoping identity to 1e-12; homotopy zero to 1e-8")


def test_criterion_9_main_theorem_on_f1(contexts):
    for ctx in contexts.values():
        _passes(ctx, verify.check_taylor_main(ctx))
    _report(9, "gated Taylor members coincide with joint eigenvalues at theta = 1/4, 1/2")


def test_criterion_10_a2_fixture_health(a2):
    assert a2.system.validate().passed
    _passes(a2, verify.check_a2_health(a2))
    _report(10, "presentation valid, dim F_1 = 3 N, M = q^2, generators commute")
