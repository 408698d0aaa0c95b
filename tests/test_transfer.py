import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylflow import chamber, oracles, sectors, transfer, verify
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


def test_failed_counting_is_not_retried(swapped_a2q2):
    # radius + |mu| = 6 is walked in pieces of the radius-2 table, each
    # extended by four radii; the first failing gate aborts there, with its
    # own piece's witness, and no table above F_2's is built
    space = SectorSpace(chamber.load(swapped_a2q2), check=False)
    mu, radius = Coweight((2, 2)), 2
    with pytest.raises(transfer.CountingError) as exc:
        transfer.transfer_matrix(space, mu, radius)
    assert str(exc.value) == (
        "preimage counting failed for mu=(2, 2) on F_2: "
        "conditioning groups have mixed sizes [30, 1028]"
    )
    assert max(space._tables) == radius


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
            fast = transfer.lipschitz_seminorms(ctx.space, counts, tm.m_mu, 2, theta)
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
            counts = _counts(tm)
            spreads = transfer._level_spreads(ctx.space, counts, 2)
            want = _fraction_maxima(spreads, tm.m_mu, 2, theta)
            assert transfer.lipschitz_seminorms(ctx.space, counts, tm.m_mu, 2, theta) == want
            # values near 2^62 take the Python-int route where int64 would overflow
            huge = counts << (62 - int(counts.max()).bit_length())
            spreads = transfer._level_spreads(ctx.space, huge, 2)
            want = _fraction_maxima(spreads, tm.m_mu, 2, theta)
            assert transfer.lipschitz_seminorms(ctx.space, huge, tm.m_mu, 2, theta) == want, name


def test_indicator_seminorms_match_identity_columns(contexts):
    for theta in (Fraction(1, 2), Fraction(1, 4)):
        for name, ctx in contexts.items():
            identity = np.eye(len(ctx.space.table(2)), dtype=np.int64)
            columns = transfer.lipschitz_seminorms(ctx.space, identity, 1, 2, theta)
            values = transfer.level_seminorms(theta, 2)
            own = [values[m] for m in transfer.indicator_levels(ctx.space, 2)]
            assert own == columns, name


def test_power_seminorms_of_l_match_the_whole_count_matrix(contexts):
    # the count matrix rebuilt entry by entry, handed to the kernel at once,
    # is the reference for the column blocks grown from the identity
    for theta in (Fraction(1, 2), Fraction(1, 4)):
        for name, ctx in contexts.items():
            for mu in {ctx.strong, *ctx.generators}:
                tm = ctx.tm(mu, 2)
                want = transfer.lipschitz_seminorms(ctx.space, _counts(tm), tm.m_mu, 2, theta)
                assert transfer.power_seminorms(ctx.space, tm, theta, 1)[0] == want, (name, mu)


def test_lasota_yorke_k33_radius2(k33):
    tm = transfer.transfer_matrix(k33.space, Coweight((1,)), 2)
    rep = transfer.check_lasota_yorke(k33.space, tm, Fraction(1, 2))
    assert rep.passed and rep.checked == 36


def test_lasota_yorke_a2(a2):
    rep = transfer.check_lasota_yorke(a2.space, a2.tm(Coweight((1, 1)), 2), Fraction(1, 2))
    assert rep.passed
    assert rep.max_slack == Fraction(47, 8)
    rep = transfer.check_lasota_yorke(a2.space, a2.tm(Coweight((1, 1)), 2), Fraction(1, 4))
    assert rep.passed and rep.checked == 504
    assert rep.max_slack == Fraction(47, 4)


def test_lasota_yorke_reads_the_factor_from_the_operator(a2):
    # the generator (1, 0) is merely dominant: |L phi| <= |phi| + (2/theta) |phi|_oo
    theta = Fraction(1, 2)
    tm = a2.tm(Coweight((1, 0)), 2)
    rep = transfer.check_lasota_yorke(a2.space, tm, theta)
    assert rep.passed and rep.checked == 504 and rep.max_slack == 7
    (images,) = transfer.power_seminorms(a2.space, tm, theta, 1)
    assert rep == transfer.check_indicator_bound(a2.space, images, 2, theta, 1, 2 / theta)
    # the same matrix labelled strongly dominant gets the contracting factor theta
    relabelled = transfer.TransferMatrix(Coweight((1, 1)), 2, tm.preimages, tm.m_mu)
    strict = transfer.check_lasota_yorke(a2.space, relabelled, theta)
    assert strict == transfer.check_indicator_bound(a2.space, images, 2, theta, theta, 2 / theta)
    assert strict.max_slack < rep.max_slack


def test_fn_invariance_k33(k33):
    tms = [transfer.transfer_matrix(k33.space, Coweight((1,)), n) for n in (1, 2, 3)]
    rep = transfer.check_fn_invariance(k33.space, tms[0], tms[1])
    assert rep.compression_exact
    rep2 = transfer.check_fn_invariance(k33.space, tms[1], tms[2])
    assert rep2.passed and rep2.maps_into_smaller


def test_fn_invariance_needs_one_mu_on_adjacent_radii(a2):
    small = a2.tm(Coweight((1, 1)), 1)
    for big in (a2.tm(Coweight((1, 0)), 2), a2.tm(Coweight((1, 1)), 1)):
        with pytest.raises(ValueError, match="one mu's operators"):
            transfer.check_fn_invariance(a2.space, small, big)


def test_fn_invariance_names_first_witnesses(a2, monkeypatch):
    real = transfer.transfer_matrix
    h = 1  # shares its radius-1 class with row 0

    def tampered(space, mu, radius):
        tm = real(space, mu, radius)
        if radius == 2:
            rows = tm.preimages.copy()
            rows[h] = np.sort((rows[h] + 1) % tm.dim)  # the dense row, rolled by one
            tm = transfer.TransferMatrix(tm.mu, tm.radius, rows, tm.m_mu)
        return tm

    monkeypatch.setattr(transfer, "transfer_matrix", tampered)
    mu = Coweight((1, 1))
    small, big = (transfer.transfer_matrix(a2.space, mu, n) for n in (2, 3))
    rep = transfer.check_fn_invariance(a2.space, small, big)
    first_big = int(np.flatnonzero(a2.space.table(3).restriction_map(2) == h)[0])
    assert not rep.compression_exact and rep.maps_into_smaller is False
    assert rep.details == [
        f"big class {first_big}: compressed row differs",
        f"rows 0 and {h} differ inside radius-1 class 0",
    ]


def test_a_short_preimage_list_fails_the_row_sum_line(k33, monkeypatch):
    real = transfer.transfer_matrices

    def tampered(space, requests):  # L_2 on F_1 assembled one preimage short per row
        return [
            transfer.TransferMatrix(tm.mu, tm.radius, tm.preimages[:, 1:], tm.m_mu)
            if (tm.mu.coords, tm.radius) == ((2,), 1) else tm
            for tm in real(space, requests)
        ]

    monkeypatch.setattr(transfer, "transfer_matrices", tampered)
    rows = verify.check_transfer_exact(verify.FixtureContext("k33", k33.system))[0]
    assert rows.name == "row sums equal M_mu on F_1 and F_2" and not rows.passed
    assert rows.detail == "first failure at mu=(2,), n=1"


def test_a_group_size_off_the_preimage_count_fails_the_counting(k33, monkeypatch):
    real = transfer.translation_parameter
    monkeypatch.setattr(transfer, "translation_parameter", lambda R, q, mu: real(R, q, mu) + 1)
    with pytest.raises(transfer.CountingError) as exc:
        transfer.transfer_matrix(k33.space, Coweight((1,)), 1)
    assert str(exc.value) == (
        "preimage counting failed for mu=(1,) on F_1: group size 2 is not a multiple of M_mu=3"
    )


def test_a_class_no_group_reaches_fails_the_counting(k33, monkeypatch):
    # every piece of the walked radius-1 table is walked as the first piece,
    # so the groups agree but reach only the classes that the first piece reaches
    real, pieces = transfer._pieces, []

    def repeated(rows, cols, budget):
        for piece in real(rows, cols, budget):
            pieces.append(piece)
            yield pieces[0]

    monkeypatch.setattr(transfer, "_pieces", repeated)
    with pytest.raises(transfer.CountingError) as exc:
        transfer.transfer_matrix(SectorSpace(k33.system), Coweight((1,)), 1)
    assert len(pieces) > 1
    assert str(exc.value) == (
        "preimage counting failed for mu=(1,) on F_1: some classes received no conditioning group"
    )


# (fixture, mu, n) -> (dim, M_mu, SHA-256 of the int32 preimage array),
# recorded when each assembly still held its largest germ table whole
PREIMAGE_SHA256 = {
    ("k33", (1,), 1): (18, 2, "880161157a8ea7d0a3c219dd2d755dcd00206e2b4b2cebed91fd60fb49b75241"),
    ("k33", (1,), 2): (36, 2, "0a307c6a4e5b604e3f7a241608447170afe600eaadd117dde8bfa1bb35dccddc"),
    ("k33", (1,), 3): (72, 2, "7cdc92f1ae055252316e8894675df5ced0539821fdd3d39399f04e72b0510aac"),
    ("k33", (2,), 1): (18, 4, "1af1634ece90c3994f81d582e92d2cb02dbf50d1a32a6857274b58d502ec052b"),
    ("k33", (2,), 2): (36, 4, "c678969465cf941cb8551063065c826d79958776825f8f5f11057545d56b525d"),
    ("k33", (2,), 3): (72, 4, "f0e5fa5657423c70c1829ccfbf6e44a46dadceb817d0e4c15a3b471cf137cc77"),
    ("q3", (1,), 1): (24, 2, "06498d28ee655515a21eccd474f680e11f85599f60002bb6822e6da1fa6b36a1"),
    ("q3", (1,), 2): (48, 2, "64d39f1a0b80a5b376f6eea420ecada5980ec24101928e43b9610f66cb1f471a"),
    ("q3", (1,), 3): (96, 2, "8c322f8a9cccfe86c89df86448f6fc12dd67b13e9f780aa999505deee429090d"),
    ("q3", (2,), 1): (24, 4, "c68e77f9247b06a6e428b05d8d4936fe3ad395b6c5c6f51a380c8c6a4102072d"),
    ("q3", (2,), 2): (48, 4, "4336aa7084d7052f7fac16e12227c6c95f7e260493affbcaf4b86c66d01c20ef"),
    ("q3", (2,), 3): (96, 4, "048d7092de4bfd7e8ecff7bb34d4ff4e053b4f9e752c6202b7d7ad10d8c2c059"),
    ("biregular", (1,), 1): (12, 2, "4407fcbda8d0bb05ad348dc5c180e857ba81836a04f3b2178b92b91a5e64eb6e"),
    ("biregular", (1,), 2): (24, 2, "6b290099359b938adf884607f52fa07ed009674ba07af24c80eabd31bd479e38"),
    ("biregular", (1,), 3): (48, 2, "5ea179861358fa8e9473ceb1432d34fbd59a389dd220a504df2a2f0352c88ea2"),
    ("biregular", (2,), 1): (12, 4, "b2e72ca15b7ab4a9b6334d4b0fee264f38d744da4071aef13ce429e7d58c371a"),
    ("biregular", (2,), 2): (24, 4, "b8a9cb4adead2552a61506a7cfff80cb7d6892cf0693171d1866f4fb5acbbb35"),
    ("biregular", (2,), 3): (48, 4, "cf3bf3963c197b65dc56819caa79b5a3585879b1b1807fa7ce49fcc61b23cf3f"),
    ("a2q2", (0, 1), 1): (63, 4, "98aad9b4908702667c4a964374af4535322594c146bd37a7783d3d24c82446f3"),
    ("a2q2", (0, 1), 2): (504, 4, "b7fe9db6d8a415b4d91e44b638d755abfb682010a4130788537ba7f38dae0aa5"),
    ("a2q2", (0, 1), 3): (4032, 4, "982cf719088394444fdbd9536e668df5d2ff6048de2de0d1ae853a960720364e"),
    ("a2q2", (1, 0), 1): (63, 4, "4f143c3c405eecf681a3fe7f1faefaeb72d1677586d111f4cded9a61f947e415"),
    ("a2q2", (1, 0), 2): (504, 4, "b53199b9b348dc79717337f09605762d6e5085e9675d927e16d73c8646fec4c9"),
    ("a2q2", (1, 0), 3): (4032, 4, "19a23757ea0b8e20558f2770d6095a9ae6494642effb10a06475af425bddde53"),
    ("a2q2", (0, 2), 1): (63, 16, "4aa63d558632deee76b41eca61dc326952facbee43e05f5503bb7593a818027f"),
    ("a2q2", (0, 2), 2): (504, 16, "8ce4f07180c7617cb05376ac4bd68c0671259256be3d9b8cc3e388247569e1b7"),
    ("a2q2", (0, 2), 3): (4032, 16, "88c593d16a70ce72362f31e639a44fc6d8a82bcb7a77e49781da436d59242ff2"),
    ("a2q2", (1, 1), 1): (63, 16, "cfec3729d9979d60ec7b94e287fbae992eefb884f24b1f0b215471a8d3b81447"),
    ("a2q2", (1, 1), 2): (504, 16, "f0945d68a866cca1fc7dfe1013e6a466c44092381fb668fa61ed7d43d6b38855"),
    ("a2q2", (1, 1), 3): (4032, 16, "872f43ffebe9904c6912c87d77bfaa2d973012507adf9dc09a9a17116d272b2c"),
    ("a2q2", (2, 0), 1): (63, 16, "004eb8c201f18f676d3336970f296aa8639939a26662cd5f7977a38d7ed3dd20"),
    ("a2q2", (2, 0), 2): (504, 16, "43ae7ee2a3a55a5084ceb727966562c1dfc1de47faf43004f46018df5f4c2bf1"),
    ("a2q2", (2, 0), 3): (4032, 16, "4fdd17c79271c99964a54d975f77022650264967b8c193dcac36847d46a7263e"),
}


def test_preimages_match_the_recorded_hashes(contexts):
    seen = set()
    for name, ctx in contexts.items():
        for coords in verify._dominant_coords(ctx.rank, 2):
            for n in (1, 2, 3):
                tm = transfer.transfer_matrix(ctx.space, Coweight(coords), n)
                p = tm.preimages
                got = (*p.shape, hashlib.sha256(p.tobytes()).hexdigest())
                assert got == PREIMAGE_SHA256[name, coords, n], (name, coords, n)
                seen.add((name, coords, n))
    assert seen == set(PREIMAGE_SHA256)


@pytest.mark.parametrize("block_rows", [None, 16])
def test_shared_passes_match_the_recorded_hashes(contexts, monkeypatch, block_rows):
    # the recorded operators of each fixture, in one pass per radius n + |mu|;
    # a budget of 16 big rows cuts the pieces on the plug columns that all of
    # a pass's requests hold
    if block_rows:
        monkeypatch.setattr(transfer, "_BLOCK_ROWS", block_rows)
    calls, cuts = _recorded_pieces(monkeypatch), {}
    passes = {}
    for name, coords, n in PREIMAGE_SHA256:
        passes.setdefault((name, n + sum(coords)), []).append((Coweight(coords), n))
    assert len(passes["a2q2", 3]) == 5  # two operators on F_2 and three on F_1
    for (name, big), requests in passes.items():
        del calls[:]
        tms = transfer.transfer_matrices(contexts[name].space, requests)
        for (mu, n), tm in zip(requests, tms):
            p = tm.preimages
            got = (*p.shape, hashlib.sha256(p.tobytes()).hexdigest())
            assert got == PREIMAGE_SHA256[name, mu.coords, n], (name, mu.coords, n)
        ((_, cols, _, pieces),) = calls
        cuts[name, big] = (cols, len(pieces))
    # k33's radius-4 germs, for L_1 on F_3 and L_2 on F_2, are cut on the one
    # plug column both hold; a2q2's five operators of radius 3 share none, so
    # their pass walks whole rotation blocks
    assert cuts["k33", 4] == ([3], 10 if block_rows else 2)
    assert cuts["a2q2", 3] == ([], 3)


def test_a_pass_takes_requests_of_one_radius(k33):
    with pytest.raises(ValueError, match="one radius"):
        transfer.transfer_matrices(k33.space, [(Coweight((1,)), 1), (Coweight((1,)), 2)])
    assert transfer.transfer_matrices(k33.space, []) == []


def _recorded_pieces(monkeypatch, cut=None):
    """Record each assembly's pieces as (parent rows, plug columns, budget,
    piece positions); `cut` replaces the plug columns the pieces are cut on."""
    calls, real = [], transfer._pieces

    def recorded(rows, cols, budget):
        calls.append((rows, cols, budget, []))
        for piece in real(rows, cols if cut is None else cut, budget):
            calls[-1][3].append(np.arange(len(rows))[piece])
            yield piece

    monkeypatch.setattr(transfer, "_pieces", recorded)
    return calls


def test_preimages_match_the_recorded_hashes_in_small_pieces(contexts, monkeypatch):
    # a budget of 16 big rows cuts a2q2's blocks down to single plug keys
    monkeypatch.setattr(transfer, "_BLOCK_ROWS", 16)
    calls, counts = _recorded_pieces(monkeypatch), {}
    for name in ("a2q2", "k33"):
        ctx = contexts[name]
        for coords in verify._dominant_coords(ctx.rank, 2):
            for n in (1, 2, 3):
                del calls[:]
                p = transfer.transfer_matrix(ctx.space, Coweight(coords), n).preimages
                got = (*p.shape, hashlib.sha256(p.tobytes()).hexdigest())
                assert got == PREIMAGE_SHA256[name, coords, n], (name, coords, n)
                ((rows, cols, budget, pieces),) = calls
                # the pieces partition the parent rows, each within the
                # budget or one plug key
                assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(len(rows)))
                for at in pieces:
                    keys = rows[at][:, [0, *cols]]
                    assert len(at) <= budget or np.all(keys == keys[0]), (name, coords, n)
                counts[name, coords, n] = len(pieces)
    # L_(1,1) on F_3 walks the 4,032 radius-3 rows of a2q2, each extended by
    # two radii, in 63 pieces, one plug key each; L_2 on F_3 walks k33's two
    # blocks of 36 radius-3 rows in 18 pieces of 4
    assert counts["a2q2", (1, 1), 3] == 63 and counts["k33", (2,), 3] == 18


def test_pieces_cut_on_a_non_plug_column_fail_the_counting(a2, monkeypatch):
    # the first alcove is in no plug key: cutting on its chamber splits
    # conditioning groups between pieces
    _recorded_pieces(monkeypatch, cut=[1])
    with pytest.raises(transfer.CountingError, match="mixed sizes"):
        transfer.transfer_matrix(a2.space, Coweight((1, 1)), 3)


def test_rank1_f1_keeps_its_rotation_blocks_whole(k33, monkeypatch):
    # the radius-1 parent of L_1 on F_1 holds no plug column, so even a
    # budget of one row leaves each rotation block whole
    monkeypatch.setattr(transfer, "_BLOCK_ROWS", 1)
    calls = _recorded_pieces(monkeypatch)
    tm = transfer.transfer_matrix(k33.space, Coweight((1,)), 1)
    assert tm.preimages.shape == (18, 2)
    ((rows, cols, _, pieces),) = calls
    assert cols == []
    sig = rows[:, 0]
    assert [at.tolist() for at in pieces] == [np.flatnonzero(sig == s).tolist() for s in (0, 1)]


def test_f3_assembly_peak_memory(a2, traced_peak):
    mu = Coweight((1, 1))
    transfer.transfer_matrix(a2.space, mu, 3)  # builds the tables and maps
    tm, peak = traced_peak(lambda: transfer.transfer_matrix(a2.space, mu, 3))
    assert tm.preimages.shape == (4032, 16)
    # 4.1 MiB measured in pieces, 6.0 MiB by whole rotation blocks
    assert peak < 5 * 2**20, peak


def test_f3_assembly_peak_over_built_tables(a2, traced_peak):
    # tables up to radius 3 built, no map yet, as in `verify`: the radius-5
    # germs are walked in nine pieces of at most 40,960, each from radius-3
    # rows extended twice; 4.2 MiB measured, 6.0 MiB by whole rotation blocks
    # and 9.5 MiB when the radius-5 table was grouped whole
    space = SectorSpace(a2.system)
    for radius in range(4):
        space.table(radius)
    tm, peak = traced_peak(lambda: transfer.transfer_matrix(space, Coweight((1, 1)), 3))
    assert tm.preimages.shape == (4032, 16)
    assert max(space._tables) == 3
    assert peak < 5 * 2**20, peak


def test_f4_assembly_peak_over_built_tables(a2, traced_peak):
    # the 2,064,384 radius-6 germs in pieces of at most 65,536, each from
    # radius-4 rows extended twice; 9.6 MiB measured, 55 MiB by three whole
    # rotation blocks and 158 MiB when the radius-6 table (73 MiB of rows)
    # was built whole
    space = SectorSpace(a2.system)
    for radius in range(5):
        space.table(radius)
    tm, peak = traced_peak(lambda: transfer.transfer_matrix(space, Coweight((1, 1)), 4))
    assert max(space._tables) == 4
    assert tm.preimages.shape == (32256, 16)
    digest = hashlib.sha256(tm.preimages.tobytes()).hexdigest()
    assert digest == "38cbdac3bf0af6a8013795582e46c3aa9f73dec7f70c92706ba123b8344134e0"
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("n", [2, 3])
def test_an_operator_builds_no_table_above_its_own(a2, n):
    # L_(1,1) on F_n walks table(n), extended by two radii, and its classes
    # are table(n)'s own positions
    space = SectorSpace(a2.system)
    tm = transfer.transfer_matrix(space, Coweight((1, 1)), n)
    assert sorted(space._tables) == list(range(n + 1))
    got = (*tm.preimages.shape, hashlib.sha256(tm.preimages.tobytes()).hexdigest())
    assert got == PREIMAGE_SHA256["a2q2", (1, 1), n]


def test_counting_rejects_rows_that_depend_on_the_representative(a2):
    space = SectorSpace(a2.system)
    real = space.shift_positions

    def copied(rows, radius, mu):  # a block's first group takes the shift of its last
        pos = real(rows, radius, mu)
        pos[0] = pos[-1]
        return pos

    space.shift_positions = copied
    with pytest.raises(RuntimeError, match="depend on the representative"):
        transfer.transfer_matrix(space, Coweight((1, 0)), 1)


def test_zero_shift_is_identity_matrix(k33):
    tm = k33.tm(Coweight((0,)), 1)
    assert tm.m_mu == 1
    assert np.array_equal(tm.preimages, np.arange(tm.dim).reshape(-1, 1))


def test_budget_guard():
    with pytest.raises(ValueError):
        transfer.transfer_matrix(None, Coweight((1,)), 0)
