import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylflow import spectra, verify
from weylflow.pcg64 import PCG64
from weylflow.rootdata import Coweight
from weylflow.transfer import InvariantError, TransferMatrix


def test_eigen_identity():
    vals = spectra.eigen(np.eye(5))
    assert len(vals) == 5
    for v, vec, res in vals:
        assert abs(v - 1) < 1e-12
        assert res < 1e-12


def test_eigen_companion_quadratic():
    # companion matrix of z^2 + z + 2
    a = np.array([[0.0, -2.0], [1.0, -1.0]])
    got = sorted((v for v, _, _ in spectra.eigen(a)), key=lambda z: z.imag)
    root = np.sqrt(7.0) / 2.0
    want = [complex(-0.5, -root), complex(-0.5, root)]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))


def test_eigen_deterministic_order():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 7))
    first = [v for v, _, _ in spectra.eigen(a)]
    second = [v for v, _, _ in spectra.eigen(a.copy())]
    assert first == second
    reals = [(v.real, v.imag) for v in first]
    assert reals == sorted(reals)


def test_eigen_k33_oracle(k33, k33_spectrum):
    from weylflow import oracles

    tm = k33.tm(Coweight((1,)), 1)
    got = [v for v, _, _ in spectra.eigen(tm.dense())]
    assert oracles.multiset_close(got, k33_spectrum, 1e-8)


def test_eigen_rejects_empty():
    with pytest.raises(ValueError):
        spectra.eigen(np.zeros((0, 0)))


def test_joint_spectrum_trivial_character(contexts):
    for name, ctx in contexts.items():
        joint = spectra.joint_spectrum(ctx.f1)
        ones = [j for j in joint if max(abs(c - 1) for c in j.chi) < 1e-9]
        assert len(ones) == 1, name
        v = ones[0].vector
        spread = np.max(np.abs(v - v.mean()))
        assert spread < 1e-8  # the eigenvector is the constant one


def test_joint_eigenvectors_own_their_data(a2):
    # a view would keep the whole SVD factor of its stacked null space alive
    # for as long as the family keeps the joint spectrum
    assert a2.f1.joint and all(j.vector.base is None for j in a2.f1.joint)


def test_joint_spectrum_parity(k33, q3):
    for ctx in (k33, q3):
        joint = spectra.joint_spectrum(ctx.f1)
        assert any(abs(j.chi[0] + 1) < 1e-9 for j in joint)


def test_joint_spectrum_counts_k33(k33):
    joint = spectra.joint_spectrum(k33.f1)
    vals = sorted((j.chi[0].real, j.chi[0].imag) for j in joint)
    root = np.sqrt(2) / 2
    want = sorted(
        [(1.0, 0.0), (-1.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, root), (0.0, -root)]
    )
    assert len(vals) == len(want)
    for got, expect in zip(vals, want):
        assert abs(got[0] - expect[0]) < 1e-8 and abs(got[1] - expect[1]) < 1e-8
    mult = {round(j.chi[0].real, 3): j.multiplicity for j in joint if abs(j.chi[0].imag) < 1e-9}
    assert mult[1.0] == 1 and mult[-1.0] == 1
    assert mult[0.5] == 4 and mult[-0.5] == 4


def test_joint_spectrum_rejects_noncommuting():
    # both rows of a see class 1 and both rows of b class 0: ab and ba differ,
    # and no family, so no joint spectrum, is made of them
    a = TransferMatrix(Coweight((1, 0)), 1, np.array([[1], [1]], dtype=np.int32), 1)
    b = TransferMatrix(Coweight((0, 1)), 1, np.array([[0], [0]], dtype=np.int32), 1)
    with pytest.raises(InvariantError, match="does not commute"):
        spectra.Family([a, b])


def test_koszul_far_character_vanishes(a2):
    rec = spectra.koszul_complexes(a2.f1, (10.0 + 0j, 10.0 + 0j))
    assert rec.cohomology == (0, 0, 0)
    assert rec.homology == (0, 0, 0)


def test_koszul_trivial_character_k33(k33):
    rec = spectra.koszul_complexes(k33.f1, (1.0 + 0j,))
    assert rec.cohomology == (1, 1)
    assert rec.homology == (1, 1)


def test_koszul_euler_characteristic_always_zero(a2):
    rng = np.random.default_rng(1)
    for _ in range(25):
        chi = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        rec = spectra.koszul_complexes(a2.f1, chi)
        assert sum((-1) ** p * h for p, h in enumerate(rec.cohomology)) == 0


def _conjugate_by_the_formula(d, r, p):
    """Block (T, U) = sgn(T^c T) sgn(U^c U) (-1)^p block (T^c, U^c) of d_p, block by block."""

    def sign(seq):  # of the permutation that sorts seq, by counting its inversions
        return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))

    def comp(t):
        return tuple(x for x in range(r) if x not in t)

    rows = list(itertools.combinations(range(r), r - p - 1))
    cols = list(itertools.combinations(range(r), r - p))
    src_rows = list(itertools.combinations(range(r), p + 1))
    src_cols = list(itertools.combinations(range(r), p))
    n = d.shape[1] // len(cols)
    out = np.zeros_like(d)
    for i, t in enumerate(rows):
        for j, u in enumerate(cols):
            ti, uj = src_rows.index(comp(t)), src_cols.index(comp(u))
            sgn = sign(comp(t) + t) * sign(comp(u) + u) * (-1) ** p
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = sgn * d[ti * n:(ti + 1) * n, uj * n:(uj + 1) * n]
    return out


def _circulant_family(r, d, rng):
    """A family of r circulant operators on d classes, which commute; operator i has i + 1 preimages."""
    tms = []
    for i in range(r):
        rows = np.sort((np.arange(d)[:, None] + rng.integers(0, d, size=i + 1)) % d, axis=1)
        tms.append(TransferMatrix(Coweight((1,)), 1, rows.astype(np.int32), i + 1))
    return spectra.Family(tms)


@pytest.mark.parametrize("r", [3, 4])
def test_chain_is_the_hodge_conjugate_of_the_cochain(r):
    # any matrices will do: the identity does not need a commuting family
    rng = np.random.default_rng(r)
    for _ in range(3):
        d = int(rng.integers(1, 4))
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(r)]
        chi = tuple(complex(rng.normal(), rng.normal()) for _ in range(r))
        co, ch = spectra.koszul_cochain(mats, chi), spectra.koszul_chain(mats, chi)
        for p in range(r):
            want = _conjugate_by_the_formula(co[p], r, p)
            assert np.array_equal(ch[r - p - 1], want)
            assert np.array_equal(spectra.hodge_conjugate(co[p], r, p), want)
        assert spectra.chain_mismatch(co, ch) is None
        # a record needs a family: rank r ones are circulant
        family = _circulant_family(r, d, rng)
        assert family.identities == (0.0, None, None)
        rec = spectra.koszul_complexes(family, chi)
        assert rec.homology == rec.cohomology[::-1]


def test_chain_svd_route_reproduces_the_record(contexts):
    # the chain rank SVDs that koszul_complexes no longer takes, on every suite character
    for name, ctx in contexts.items():
        verify.check_koszul_suite(ctx)
        mats = ctx.f1.mats
        r = len(mats)
        for chi, rec in ctx.f1._koszul.items():
            ranks, bands = zip(*(spectra._rank(m, spectra.TOL_RANK) for m in spectra.koszul_chain(mats, chi)))
            padded = (0,) + ranks + (0,)  # padded[p] = rank of the boundary leaving degree p
            homology = tuple(rec.cochain_dims[p] - padded[p] - padded[p + 1] for p in range(r + 1))
            assert homology == rec.homology, (name, chi)
            assert rec.ambiguous or not any(bands), (name, chi)


def test_per_character_identities_agree_with_the_family_decision(contexts):
    # the per-character route that the family's exact decision replaced, on
    # every suite character: the float d o d is rounding, and the chain
    # complex is the Hodge conjugate of the cochain one
    for name, ctx in contexts.items():
        verify.check_koszul_suite(ctx)
        mats = ctx.f1.mats
        assert ctx.f1.identities == (0.0, None, None), name
        scale = max(np.linalg.norm(m, 2) for m in mats) + 1.0
        assert len(ctx.f1._koszul) >= 100
        for chi in ctx.f1._koszul:
            co, ch = spectra.koszul_cochain(mats, chi), spectra.koszul_chain(mats, chi)
            products = [b @ a for a, b in zip(co, co[1:])] + [a @ b for a, b in zip(ch, ch[1:])]
            defect = max((np.linalg.norm(m, 2) for m in products), default=0.0)
            assert defect <= 1e-10 * scale, (name, chi, defect)
            assert spectra.chain_mismatch(co, ch) is None, (name, chi)


def _counting_svds(monkeypatch):
    """List that collects the shape of every np.linalg.svd call from now on.

    The 2-norms of `np.linalg.norm` take numpy's internal SVD and do not count.
    """
    calls, real = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _counting_calls(monkeypatch, owner, name, keep=lambda *args, **kwargs: True):
    """List that collects the arguments of every call of owner.name that `keep` admits."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_koszul_complexes_takes_r_rank_svds(a2, monkeypatch):
    assert a2.f1.identities == (0.0, None, None)  # decided once per family, before counting
    assert a2.f1.joint
    calls = _counting_svds(monkeypatch)
    two_norms = _counting_calls(
        monkeypatch, np.linalg, "norm", lambda x, ord=None, *a, **k: ord == 2
    )
    chains = _counting_calls(monkeypatch, spectra, "koszul_chain")
    # at a joint eigenvalue, d_0's singular values are the joint spectrum's:
    # only d_1 (126 x 63 once transposed) takes an SVD
    rec = spectra.koszul_complexes(a2.f1, a2.f1.joint[0].chi)
    assert calls == [(126, 63)] and rec.homology == rec.cohomology[::-1]
    assert not two_norms and not chains


@pytest.mark.parametrize("name", ["k33", "a2q2"])
def test_koszul_suite_builds_chain_complexes_on_the_cube_only(contexts, monkeypatch, name):
    ctx = contexts[name]
    # a fresh family, whose identities are not decided yet
    monkeypatch.setattr(ctx, "f1", spectra.Family([ctx.tm(g, 1) for g in ctx.generators]))
    chains = _counting_calls(monkeypatch, spectra, "koszul_chain")
    assert all(res.passed for res in verify.check_koszul_suite(ctx))
    assert sorted(chi for _, chi in chains) == list(itertools.product((0, 1), repeat=ctx.rank))


def test_koszul_suite_svd_budget(a2, monkeypatch):
    assert a2.f1.joint and a2.f1.eigenvalues  # shared data, computed before counting
    monkeypatch.setattr(a2.f1, "_koszul", {})
    calls = _counting_svds(monkeypatch)
    assert all(res.passed for res in verify.check_koszul_suite(a2))
    # one SVD of d_1 at each joint eigenvalue, then one 63 x 63 SVD of a B_i,
    # and no 126 x 63 one, at each of the 100 sampled characters
    joint = len(a2.f1.joint)
    assert len(a2.f1._koszul) == joint + 100
    assert calls == [(126, 63)] * joint + [(63, 63)] * 100


def _rank_svd_record(family, chi):
    """(cohomology, ambiguous) at chi from `_rank` on every cochain differential."""
    co = spectra.koszul_cochain(family.mats, chi)
    ranks, bands = zip(*(spectra._rank(m, family.tol_rank) for m in co))
    padded = (0,) + ranks + (0,)
    dims = [m.shape[1] for m in co] + [co[-1].shape[0]]
    return tuple(dims[p] - padded[p] - padded[p + 1] for p in range(len(co) + 1)), any(bands)


@pytest.mark.parametrize("tol_rank", [spectra.TOL_RANK, 1e-5])
def test_koszul_records_match_the_rank_svds(contexts, monkeypatch, tol_rank):
    # every character that verify's Koszul and Taylor checks, and the koszul
    # command's default, visit: a record is what `_rank` gives on the built
    # cochain differentials, whether its ranks came from it, from the joint
    # spectrum's singular values or from the bound on the end differentials
    for name, ctx in contexts.items():
        family = spectra.Family([ctx.tm(g, 1) for g in ctx.generators], tol_rank=tol_rank)
        # the command's default, on a family with no joint spectrum yet
        default = tuple(1.0 for _ in ctx.generators)
        assert (family.koszul(default).cohomology, family.koszul(default).ambiguous) == (
            _rank_svd_record(family, default)
        ), name
        monkeypatch.setattr(ctx, "f1", family)
        verify.check_koszul_suite(ctx)
        verify.check_taylor_main(ctx)
        assert len(family._koszul) > 100 + len(family.joint)
        for chi, rec in family._koszul.items():
            assert (rec.cohomology, rec.ambiguous) == _rank_svd_record(family, chi), (name, chi)


def test_a_character_in_the_band_falls_back_to_the_rank_svds(a2, monkeypatch):
    # chi moved off a joint eigenvalue by about the rank threshold: d_0's
    # d-th singular value falls inside the ambiguity band
    family = a2.f1
    joint = family.joint[0]
    co = spectra.koszul_cochain(family.mats, joint.chi)
    thresh = family.tol_rank * np.linalg.norm(co[0], 2) * max(co[0].shape)
    chi = tuple(c + thresh for c in joint.chi)
    want = _rank_svd_record(family, chi)
    assert want[1]
    # so near the spectra no bound is tried: both differentials take their SVD
    calls = _counting_svds(monkeypatch)
    rec = spectra.koszul_complexes(family, chi)
    assert calls == [(126, 63)] * 2 and (rec.cohomology, rec.ambiguous) == want
    # tried anyway, sigma_min(B_i) does not clear it, and the SVDs decide
    monkeypatch.setattr(family, "distances", lambda chi: [1.0, 1.0])
    del calls[:]
    rec = spectra.koszul_complexes(family, chi)
    assert calls == [(63, 63)] + [(126, 63)] * 2 and (rec.cohomology, rec.ambiguous) == want


def test_parametrix_single_operator_square():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    b = 0.3 - 0.7j
    (bmat,) = spectra.parametrix([a], (2,), (b,))
    assert np.allclose(bmat, a + b * np.eye(6))
    assert spectra.parametrix_residual([a], (2,), (b,), [bmat]) < 1e-12


def test_parametrix_two_step_telescoping():
    rng = np.random.default_rng(4)
    a1 = rng.normal(size=(5, 5))
    a2_ = 0.3 * a1 @ a1 - 0.8 * a1 + 0.1 * np.eye(5)  # commutes with a1
    chi = (0.2 + 0.1j, -0.4 + 0.9j)
    bs = spectra.parametrix([a1, a2_], (1, 1), chi)
    assert np.allclose(bs[0], chi[1] * np.eye(5))
    assert np.allclose(bs[1], a1)
    assert spectra.parametrix_residual([a1, a2_], (1, 1), chi, bs) < 1e-12


def test_parametrix_residual_random_exponents(a2):
    mats = a2.f1.mats
    rng = np.random.default_rng(9)
    for _ in range(5):
        chi = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        for exps in ((2, 1), (3, 1), (2, 2), (4, 0)):
            bs = spectra.parametrix(mats, exps, chi)
            assert spectra.parametrix_residual(mats, exps, chi, bs) < 1e-12


def test_parametrix_worst_residual_is_pinned(a2):
    # check_parametrix's grid: 20 PCG64(11) characters, every exponent of
    # total degree 1..4, over a shared power table; the check runs one
    # exponent at a time, this loop one character at a time, to the same bits
    assert "worst residual 7.03e-16" in verify.check_parametrix(a2)[0].line()
    mats = a2.f1.mats
    rng = PCG64(11)
    chis = [tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)) for _ in range(20)]
    powers = spectra.matrix_powers(mats, 4)
    worst = 0.0
    for chi in chis:
        for e in itertools.product(range(5), repeat=2):
            if 0 < sum(e) <= 4:
                bs = spectra.parametrix(mats, e, chi, powers=powers)
                target = spectra.power_product(powers, e)
                worst = spectra.parametrix_residual(mats, e, chi, bs, floor=worst, target=target)
    assert worst == float.fromhex("0x1.94fce63b37207p-51")


def _count_spectral_norms(monkeypatch):
    calls, real = [], np.linalg.norm

    def counted(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            calls.append(x.shape)
        return real(x, ord=ord, axis=axis, keepdims=keepdims)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


def test_pruned_worst_norm_equals_the_full_maximum(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(200):
        k, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        blocks = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        if rng.random() < 0.5:  # rank one: the 2-norm equals the Frobenius norm
            u = rng.normal(size=(k, d, 1)) + 1j * rng.normal(size=(k, d, 1))
            blocks = u @ u.conj().transpose(0, 2, 1)
        blocks *= 10.0 ** rng.integers(-17, 3, size=(k, 1, 1))
        blocks[rng.random(k) < 0.3] = 0
        if k > 1 and rng.random() < 0.5:
            blocks[-1] = blocks[0]  # a tie
        full = max([0.0] + [float(np.linalg.norm(b, 2)) for b in blocks])
        floor = float(rng.choice([0.0, full / 2, full, 2 * full]))
        assert spectra.worst_norm(blocks) == full
        assert spectra.worst_norm(blocks, floor) == max(floor, full)
    # rounding can put a computed 2-norm above the computed Frobenius norm
    # (rank one: they are equal in exact arithmetic); such a block still counts
    over = 0
    for _ in range(100):
        u = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
        block = u @ u.conj().T
        fro, two = float(np.linalg.norm(block)), float(np.linalg.norm(block, 2))
        assert spectra.worst_norm(block[None], floor=fro) == max(fro, two)
        over += two > fro
    assert over
    # the pruning itself: after the largest block, small and zero blocks take no SVD
    big = np.diag([3.0, 0.0]).astype(complex)
    blocks = np.array([big, big / 10, np.zeros((2, 2)), big / 5])
    calls = _count_spectral_norms(monkeypatch)
    assert spectra.worst_norm(blocks) == 3.0
    assert len(calls) == 1
    assert spectra.worst_norm(np.zeros((3, 2, 2))) == 0.0 and len(calls) == 1


def test_homotopy_takes_one_svd_per_differential(a2, monkeypatch):
    mats = a2.f1.mats
    chi = a2.f1.joint[0].chi
    calls, real = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, ok = spectra.homotopy_zero_check(mats, chi)
    assert ok and len(calls) == 2  # r = 2 cochain differentials


def _homotopy_by_kron(mats, chi, exponents):
    # the homotopy as kron(I, f) on each whole cochain space; the kernels and
    # images come from the same SVDs as in homotopy_zero_check, since at
    # residuals near rounding another basis moves the worst norm by about 1%
    d, r = mats[0].shape[0], len(mats)
    bs = spectra.parametrix(mats, exponents, chi)
    f = sum((a - c * np.eye(d)) @ b for a, c, b in zip(mats, chi, bs))
    kernels, images = [], []
    for m in spectra.koszul_cochain(mats, chi):
        tall = m.shape[0] >= m.shape[1]
        x, s, yh = np.linalg.svd(m if tall else m.conj().T, full_matrices=not tall)
        u, v = (x, yh.conj().T) if tall else (yh.conj().T, x)
        rank = spectra._rank_rule(s, max(m.shape), spectra.TOL_RANK)[0]
        kernels.append(v[:, rank:])
        images.append(u[:, :rank])
    kernels.append(np.eye(d))
    worst = 0.0
    for p, kernel in enumerate(kernels):
        if kernel.shape[1] == 0:
            continue
        moved = np.kron(np.eye(math.comb(r, p)), f) @ kernel
        if p >= 1:
            moved = moved - images[p - 1] @ (images[p - 1].conj().T @ moved)
        worst = max(worst, float(np.linalg.norm(moved, 2)))
    return worst, worst <= 1e-8 * max(float(np.linalg.norm(f, 2)), 1.0)


def test_homotopy_matches_the_kronecker_form(a2):
    mats = a2.f1.mats
    rng = PCG64(23)
    chis = [j.chi for j in a2.f1.joint[:5]] + [
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)) for _ in range(5)
    ]
    for chi in chis:
        worst, ok = spectra.homotopy_zero_check(mats, chi)
        want, want_ok = _homotopy_by_kron(mats, chi, (1, 1))
        assert worst == pytest.approx(want, rel=1e-13, abs=0.0), chi
        assert ok == want_ok, chi


def test_homotopy_zero_on_and_off_spectrum(k33):
    mats = k33.f1.mats
    worst, ok = spectra.homotopy_zero_check(mats, (1.0 + 0j,))
    assert ok
    worst, ok = spectra.homotopy_zero_check(mats, (2.5 + 0.5j,))
    assert ok  # vacuous: all kernels are trivial off the spectrum


def test_character_gate():
    # |chi(w_1 + w_2)| = 0.3 and |chi(2 w_1 + 2 w_2)| = 0.09
    chi = (0.6 + 0j, 0.5 + 0j)
    assert spectra.passes_gate(chi, 0.25)
    assert not spectra.passes_gate(chi, 0.5)
    # only |chi(2 w_1 + 2 w_2)| = 1.44 exceeds 1.3
    assert spectra.passes_gate((1.2 + 0j, 1.0 + 0j), 1.3)


def test_taylor_report_no_mismatches(contexts):
    for name, ctx in contexts.items():
        report = spectra.taylor_report(ctx.f1, 0.5)
        assert not report.mismatches, name
        ones = [
            chi
            for chi in report.taylor
            if max(abs(c - 1) for c in chi) < 1e-8
        ]
        assert ones and report.taylor[ones[0]] is True


def test_taylor_far_character_not_member(k33):
    family = k33.f1
    assert not spectra.taylor_report(family, 0.5).mismatches
    # the far character passes the gate, has no cohomology and is no joint eigenvalue
    far = (10.0 + 0j,)
    assert spectra.passes_gate(far, 0.5)
    assert not any(family.koszul(far).cohomology)
    assert not family.is_joint(far)


# every caller's seed, and seeds of two, three, four and five 32-bit words
@pytest.mark.parametrize("seed", [
    0, 7, 11, 12345, 0xC0FFEE, 0xC0FFEE ^ 0x5EED, 2**32 + 5, 2**70 + 3, 2**97 + 12345, 2**130 + 7,
])
def test_pcg64_stream_equals_numpy_default_rng(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    # scalar draws interleaved as the sample characters take them, then a
    # `size=` draw as joint_spectrum takes its phases
    for low, high in [(-1.5, 1.5), (-1, 1), (-2, 2), (-0.4, 0.4)] * 10:
        assert ours.uniform(low, high).hex() == float(theirs.uniform(low, high)).hex()
    drawn = ours.uniform(0.0, 2 * np.pi, size=5)
    assert [x.hex() for x in drawn] == [float(x).hex() for x in theirs.uniform(0.0, 2 * np.pi, size=5)]


def test_pcg64_stream_is_pinned():
    # the first Koszul sample coordinates of `verify`, whatever numpy does later
    rng = PCG64(7)
    assert [rng.uniform(-1.5, 1.5).hex() for _ in range(4)] == [
        "0x1.804b13f756bf8p-2", "0x1.310f69360d734p+0", "0x1.a774063d7841cp-1", "-0x1.a614edf8ff834p-1",
    ]


def test_pcg64_rejects_a_negative_seed_as_numpy_does():
    for make in (PCG64, np.random.default_rng):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            make(-1)


@pytest.mark.parametrize("user_value", [None, "2"])
def test_import_defaults_openblas_to_one_thread(user_value):
    import weylflow

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(weylflow.__file__).resolve().parents[1])
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = "import os, weylflow; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == f"{user_value or 1}\n"
