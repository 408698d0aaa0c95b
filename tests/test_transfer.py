from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylflow import oracles, transfer, verify
from weylflow.rootdata import Coweight
from weylflow.sectors import SectorSpace


def _counts(tm):
    """The dense integer count matrix, rebuilt entry by entry from the preimage lists."""
    counts = np.zeros((tm.dim, tm.dim), dtype=np.int64)
    for h, row in enumerate(tm.preimages.tolist()):
        assert row == sorted(row) and len(row) == tm.m_mu
        for g in row:
            counts[h, g] += 1
    return counts


def test_k33_equals_halved_nonbacktracking(k33):
    tm = k33.tm(Coweight((1,)), 1)
    assert tm.m_mu == 2
    b, des = oracles.non_backtracking_matrix([(i, 3 + j) for i in range(3) for j in range(3)])
    perm = oracles.germ_edge_positions(k33.system, k33.space.table(1), des)
    counts = _counts(tm)
    assert np.array_equal(counts, b.T[np.ix_(perm, perm)])
    assert np.array_equal(tm.dense(), counts / 2)
    for h in range(tm.dim):
        for g in range(tm.dim):
            assert Fraction(int(counts[h, g]), tm.m_mu) in (Fraction(0), Fraction(1, 2))


def test_row_sums_every_fixture(contexts):
    for name, ctx in contexts.items():
        for mu_coords in ([1] * ctx.rank, [2] + [0] * (ctx.rank - 1)):
            tm = ctx.tm(Coweight(tuple(mu_coords)), 1)
            assert tm.row_sums_ok(), name


def test_semigroup_exact_rank1(k33):
    t1 = k33.tm(Coweight((1,)), 2)
    t2 = k33.tm(Coweight((2,)), 2)
    assert np.array_equal(_counts(t1) @ _counts(t1), _counts(t2))
    assert np.array_equal(transfer.compose(t1.preimages, t1.preimages), t2.preimages)
    assert t2.m_mu == t1.m_mu**2


def test_semigroup_exact_a2(a2):
    t1 = a2.tm(Coweight((1, 0)), 1)
    t2 = a2.tm(Coweight((0, 1)), 1)
    t12 = a2.tm(Coweight((1, 1)), 1)
    assert t12.m_mu == t1.m_mu * t2.m_mu
    c1, c2, c12 = _counts(t1), _counts(t2), _counts(t12)
    assert np.array_equal(c1 @ c2, c12) and np.array_equal(c2 @ c1, c12)
    for a, b in ((t1, t2), (t2, t1)):
        assert np.array_equal(transfer.compose(a.preimages, b.preimages), t12.preimages)


def test_counting_depth_independent(a2):
    base = transfer.transfer_matrix(a2.space, Coweight((1, 0)), 1, depth=0)
    deeper = transfer.transfer_matrix(a2.space, Coweight((1, 0)), 1, depth=1)
    assert np.array_equal(base.preimages, deeper.preimages)


def test_apply_constant_is_fixed(contexts):
    # row-stochasticity: every row lists M_mu preimages
    for ctx in contexts.values():
        tm = ctx.tm(ctx.generators[0], 1)
        ones = np.ones(tm.dim, dtype=np.int64)
        assert np.array_equal(ones[tm.preimages].sum(axis=1), tm.m_mu * ones)


def test_apply_parity_flips(k33):
    tm = k33.tm(Coweight((1,)), 1)
    table = k33.space.table(1)
    rots = k33.system.root_system.rotations
    phi = np.array([1 if rots[g.sigma_index].perm[0] == 0 else -1 for g in table.germs])
    assert np.array_equal(phi[tm.preimages].sum(axis=1), -tm.m_mu * phi)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=18, max_size=18))
def test_apply_sup_norm_contracts(k33, phi):
    tm = k33.tm(Coweight((1,)), 1)
    out = np.array(phi, dtype=object)[tm.preimages].sum(axis=1) / tm.m_mu  # Fractions
    assert max(abs(x) for x in out) <= max(abs(x) for x in phi)


def test_pi_projection_contracts_seminorm(k33):
    # the projection to F_1 samples each radius-1 class at its first germ
    # and reads the sample back on F_2
    import random

    space = k33.space
    restr = space.table(2).restriction_map(1)
    first = np.unique(restr, return_index=True)[1]
    rng = random.Random(5)
    theta = Fraction(1, 2)
    for _ in range(10):
        phi = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(len(space.table(2)))]
        proj = [phi[first[c]] for c in restr]
        assert transfer.lipschitz_seminorm(space, proj, 2, theta) <= transfer.lipschitz_seminorm(
            space, phi, 2, theta
        )


def test_seminorm_examples(k33):
    space = k33.space
    dim = len(space.table(1))
    const = [Fraction(3, 7)] * dim
    assert transfer.lipschitz_seminorm(space, const, 1, Fraction(1, 2)) == 0
    ind = [Fraction(0)] * dim
    ind[0] = Fraction(1)
    assert transfer.lipschitz_seminorm(space, ind, 1, Fraction(1, 2)) == 2
    scaled = [Fraction(-5, 2) * v for v in ind]
    assert transfer.lipschitz_seminorm(space, scaled, 1, Fraction(1, 2)) == 5
    # constant on radius-0 classes: only the level-0 spread counts
    coarse = [Fraction(int(c == 0)) for c in space.table(1).restriction_map(0)]
    assert transfer.lipschitz_seminorm(space, coarse, 1, Fraction(1, 2)) == 1
    # numerators beyond int64 stay exact
    huge = [Fraction(3**50, 7) * v for v in ind]
    assert transfer.lipschitz_seminorm(space, huge, 1, Fraction(1, 2)) == Fraction(2 * 3**50, 7)


def _pairwise_seminorms(kmat, counts, denom, n, theta):
    """Seminorm of each column of counts/denom straight from the pair definition."""
    p, q = theta.numerator, theta.denominator
    kk = np.minimum(kmat, n).astype(np.int64)
    # |dphi| / theta^k, scaled by p^n to stay in integers; unresolved pairs weigh 0
    weight = np.where(kmat <= n, q**kk * p ** (n - kk), 0)
    out = []
    for col in counts.T:
        diff = np.abs(col[:, None] - col[None, :])
        out.append(Fraction(int((diff * weight).max()), denom * p**n))
    return out


def test_seminorm_matches_pairwise_definition(k33, a2):
    import random

    space = k33.space
    table = space.table(2)
    kmat = table.k_matrix()
    theta = Fraction(1, 2)
    rng = random.Random(11)
    for _ in range(5):
        phi = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(len(table))]
        brute = Fraction(0)
        for a in range(len(table)):
            for b in range(len(table)):
                kk = int(kmat[a, b])
                if kk <= 2:
                    brute = max(brute, abs(phi[a] - phi[b]) / theta**kk)
        assert transfer.lipschitz_seminorm(space, phi, 2, theta) == brute

    # every column of an operator matrix at once, against the pair definition
    for ctx, mu in ((k33, Coweight((1,))), (a2, Coweight((1, 1)))):
        tm = ctx.tm(mu, 2)
        counts = _counts(tm)
        kmat = ctx.space.table(2).k_matrix()
        for theta in (Fraction(1, 2), Fraction(1, 4)):
            fast = transfer.lipschitz_seminorms(
                ctx.space, transfer.cells(tm.preimages), tm.dim, tm.m_mu, 2, theta
            )
            assert fast == _pairwise_seminorms(kmat, counts, tm.m_mu, 2, theta)
            for g in range(0, tm.dim, 37):
                image = [Fraction(int(c), tm.m_mu) for c in counts[:, g]]
                assert transfer.lipschitz_seminorm(ctx.space, image, 2, theta) == fast[g]


def _fraction_maxima(spreads, denom, n, theta):
    """Each column's max over the levels of spread_m / (denom theta^m), one Fraction each."""
    return [
        max(Fraction(int(spreads[m][c])) / (denom * theta**m) for m in range(n + 1))
        for c in range(spreads.shape[1])
    ]


def test_integer_seminorm_maxima_match_the_fraction_route(contexts):
    for theta in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)):
        for name, ctx in contexts.items():
            mu = ctx.strong if ctx.rank > 1 else Coweight((1,))
            tm = ctx.tm(mu, 2)
            entries = transfer.cells(tm.preimages)
            spreads = transfer._level_spreads(ctx.space, entries, tm.dim, 2)
            want = _fraction_maxima(spreads, tm.m_mu, 2, theta)
            assert transfer.lipschitz_seminorms(ctx.space, entries, tm.dim, tm.m_mu, 2, theta) == want
            # values near 2^62 take the Python-int route where int64 would overflow
            row, col, value = entries
            huge = (row, col, value.astype(np.int64) << (62 - int(value.max()).bit_length()))
            spreads = transfer._level_spreads(ctx.space, huge, tm.dim, 2)
            want = _fraction_maxima(spreads, tm.m_mu, 2, theta)
            assert transfer.lipschitz_seminorms(ctx.space, huge, tm.dim, tm.m_mu, 2, theta) == want, name


def test_indicator_seminorms_match_identity_columns(contexts):
    for theta in (Fraction(1, 2), Fraction(1, 4)):
        for name, ctx in contexts.items():
            dim = len(ctx.space.table(2))
            identity = np.arange(dim).reshape(-1, 1)  # preimage lists of the identity
            columns = transfer.lipschitz_seminorms(
                ctx.space, transfer.cells(identity), dim, 1, 2, theta
            )
            values = transfer.level_seminorms(theta, 2)
            own = [values[m] for m in transfer.indicator_levels(ctx.space, 2)]
            assert own == columns, name


def test_lasota_yorke_k33_radius2(k33):
    rep = transfer.check_lasota_yorke(k33.space, Coweight((1,)), 2, Fraction(1, 2))
    assert rep.passed and rep.checked == 36


def test_lasota_yorke_a2(a2):
    rep = transfer.check_lasota_yorke(
        a2.space, Coweight((1, 1)), 2, Fraction(1, 2), matrix=a2.tm(Coweight((1, 1)), 2)
    )
    assert rep.passed
    assert rep.max_slack == Fraction(47, 8)
    rep = transfer.check_lasota_yorke(
        a2.space, Coweight((1, 1)), 2, Fraction(1, 4), matrix=a2.tm(Coweight((1, 1)), 2)
    )
    assert rep.passed and rep.checked == 504
    assert rep.max_slack == Fraction(47, 4)


def test_fn_invariance_k33(k33):
    rep = transfer.check_fn_invariance(k33.space, Coweight((1,)), 1)
    assert rep.compression_exact
    rep2 = transfer.check_fn_invariance(k33.space, Coweight((1,)), 2)
    assert rep2.passed and rep2.maps_into_smaller


def test_fn_invariance_names_first_witnesses(a2, monkeypatch):
    real = transfer.transfer_matrix
    h = 1  # shares its radius-1 class with row 0

    def tampered(space, mu, radius, depth=None):
        tm = real(space, mu, radius, depth)
        if radius == 2:
            rows = tm.preimages.copy()
            rows[h] = np.sort((rows[h] + 1) % tm.dim)  # the dense row, rolled by one
            tm = transfer.TransferMatrix(tm.mu, tm.radius, rows, tm.m_mu)
        return tm

    monkeypatch.setattr(transfer, "transfer_matrix", tampered)
    rep = transfer.check_fn_invariance(a2.space, Coweight((1, 1)), 2)
    first_big = int(np.flatnonzero(a2.space.table(3).restriction_map(2) == h)[0])
    assert not rep.compression_exact and rep.maps_into_smaller is False
    assert rep.details == [
        f"big class {first_big}: compressed row differs",
        f"rows 0 and {h} differ inside radius-1 class 0",
    ]


def test_row_sums_are_checked_before_packing(k33, monkeypatch):
    real = transfer._pack

    def tampered(row, col, value, dim, m_mu):  # one assembly count off by one
        value = value.copy()
        value[0] += 1
        return real(row, col, value, dim, m_mu)

    monkeypatch.setattr(transfer, "_pack", tampered)
    rows = verify.check_transfer_exact(verify.FixtureContext("k33", k33.system))[0]
    assert rows.name == "row sums equal M_mu on F_1 and F_2" and not rows.passed
    assert "the counts of row 0 sum to 3, not M_mu=2" in rows.detail


def test_f3_assembly_peak_memory(a2, traced_peak):
    mu = Coweight((1, 1))
    transfer.transfer_matrix(a2.space, mu, 3)  # builds the tables and maps
    tm, peak = traced_peak(lambda: transfer.transfer_matrix(a2.space, mu, 3))
    assert tm.preimages.shape == (4032, 16)
    assert peak < 16 * 2**20, peak


def test_f3_assembly_peak_over_built_tables(a2, traced_peak):
    # tables up to radius 5 built, no map yet, as in `verify`: the plug
    # grouping and the (group, column) cells are sorted without key copies;
    # 9.5 MiB measured, 17.6 MiB with `np.unique` for both
    space = SectorSpace(a2.system)
    for radius in range(6):
        space.table(radius)
    tm, peak = traced_peak(lambda: transfer.transfer_matrix(space, Coweight((1, 1)), 3))
    assert tm.preimages.shape == (4032, 16)
    assert peak < 12 * 2**20, peak


def test_counting_rejects_rows_that_depend_on_the_representative(a2):
    space = SectorSpace(a2.system)
    real = space.shift_map

    def swapped(radius, mu):  # two germs trade their shifts
        smap = real(radius, mu).copy()
        smap[[0, -1]] = smap[[-1, 0]]
        return smap

    space.shift_map = swapped
    with pytest.raises(RuntimeError, match="depend on the representative"):
        transfer.transfer_matrix(space, Coweight((1, 0)), 1)


def test_zero_shift_is_identity_matrix(k33):
    tm = k33.tm(Coweight((0,)), 1)
    assert tm.m_mu == 1
    assert np.array_equal(tm.preimages, np.arange(tm.dim).reshape(-1, 1))


def test_budget_guard():
    with pytest.raises(ValueError):
        transfer.transfer_matrix(None, Coweight((1,)), 0)
