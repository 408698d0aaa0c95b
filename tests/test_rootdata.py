import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylflow.rootdata import (
    INFINITE,
    Coweight,
    ParameterSystem,
    all_minimal_walk_products,
    build_root_system,
    dot,
    embed_shift,
    minimal_walk_types,
    translation_parameter,
    truncated_sector,
    vadd,
)

ALL_KINDS = ("A1~", "BC1~", "A2~", "B2~", "G2~")

# Captured from the Fraction implementation that the integer geometry replaced.
# kind -> (Coxeter matrix, marks, rotations as (perm, rep), good types)
GOLDEN_DATA = {
    "A1~": (((1, None), (None, 1)), (1,), [((0, 1), (0,)), ((1, 0), (1,))], {0, 1}),
    "BC1~": (((1, None), (None, 1)), (2,), [((0, 1), (0,))], {0}),
    "A2~": (
        ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
        (1, 1),
        [((0, 1, 2), (0, 0)), ((1, 2, 0), (1, 0)), ((2, 0, 1), (0, 1))],
        {0, 1, 2},
    ),
    "B2~": (
        ((1, 2, 4), (2, 1, 4), (4, 4, 1)), (1, 2), [((0, 1, 2), (0, 0)), ((1, 0, 2), (1, 0))], {0, 1}
    ),
    "G2~": (((1, 2, 3), (2, 1, 6), (3, 6, 1)), (3, 2), [((0, 1, 2), (0, 0))], {0}),
}

# kind -> the radius-3 truncation's alcove keys in order, one alcove a line,
# its vertices in ambient coordinates
GOLDEN_KEYS = {
    "A1~": """
        0 1
        1 2
        2 3
    """,
    "BC1~": """
        0 1/2
        1/2 1
        1 3/2
        3/2 2
        2 5/2
        5/2 3
    """,
    "A2~": """
        0,0,0 1/3,1/3,-2/3 2/3,-1/3,-1/3
        1/3,1/3,-2/3 2/3,-1/3,-1/3 1,0,-1
        1/3,1/3,-2/3 2/3,2/3,-4/3 1,0,-1
        2/3,-1/3,-1/3 1,0,-1 4/3,-2/3,-2/3
        2/3,2/3,-4/3 1,0,-1 4/3,1/3,-5/3
        1,0,-1 4/3,-2/3,-2/3 5/3,-1/3,-4/3
        2/3,2/3,-4/3 1,1,-2 4/3,1/3,-5/3
        1,0,-1 4/3,1/3,-5/3 5/3,-1/3,-4/3
        4/3,-2/3,-2/3 5/3,-1/3,-4/3 2,-1,-1
    """,
    "B2~": """
        0,0 1/2,1/2 1,0
        1/2,1/2 1,0 1,1
        1,0 1,1 3/2,1/2
        1,0 3/2,1/2 2,0
        1,1 3/2,1/2 2,1
        1,1 3/2,3/2 2,1
        3/2,1/2 2,0 2,1
        3/2,3/2 2,1 2,2
        2,0 2,1 5/2,1/2
        2,1 2,2 5/2,3/2
        2,0 5/2,1/2 3,0
        2,1 5/2,1/2 3,1
        2,1 5/2,3/2 3,1
        2,2 5/2,3/2 3,2
        5/2,1/2 3,0 3,1
        2,2 5/2,5/2 3,2
        5/2,3/2 3,1 3,2
        5/2,5/2 3,2 3,3
    """,
    "G2~": """
        0,0,0 1/6,1/6,-1/3 1/3,0,-1/3
        1/6,1/6,-1/3 1/3,0,-1/3 1/3,1/3,-2/3
        1/3,0,-1/3 1/3,1/3,-2/3 1/2,0,-1/2
        1/3,1/3,-2/3 1/2,0,-1/2 2/3,0,-2/3
        1/3,1/3,-2/3 2/3,0,-2/3 2/3,1/6,-5/6
        2/3,0,-2/3 2/3,1/6,-5/6 1,0,-1
        1/3,1/3,-2/3 2/3,1/6,-5/6 2/3,1/3,-1
        1/3,1/3,-2/3 1/2,1/2,-1 2/3,1/3,-1
        2/3,1/6,-5/6 2/3,1/3,-1 1,0,-1
        1/2,1/2,-1 2/3,1/3,-1 2/3,2/3,-4/3
        2/3,1/3,-1 5/6,1/3,-7/6 1,0,-1
        2/3,1/3,-1 2/3,2/3,-4/3 5/6,1/3,-7/6
        5/6,1/3,-7/6 1,0,-1 1,1/3,-4/3
        2/3,2/3,-4/3 5/6,1/3,-7/6 1,1/3,-4/3
        1,0,-1 1,1/3,-4/3 7/6,1/6,-4/3
        2/3,2/3,-4/3 1,1/3,-4/3 1,1/2,-3/2
        1,0,-1 7/6,1/6,-4/3 4/3,0,-4/3
        1,1/3,-4/3 7/6,1/6,-4/3 4/3,1/3,-5/3
        1,1/3,-4/3 1,1/2,-3/2 4/3,1/3,-5/3
        7/6,1/6,-4/3 4/3,0,-4/3 4/3,1/3,-5/3
        4/3,0,-4/3 4/3,1/3,-5/3 3/2,0,-3/2
        4/3,1/3,-5/3 3/2,0,-3/2 5/3,0,-5/3
        4/3,1/3,-5/3 5/3,0,-5/3 5/3,1/6,-11/6
        5/3,0,-5/3 5/3,1/6,-11/6 2,0,-2
        2/3,2/3,-4/3 1,1/2,-3/2 1,2/3,-5/3
        2/3,2/3,-4/3 5/6,5/6,-5/3 1,2/3,-5/3
        1,1/2,-3/2 1,2/3,-5/3 4/3,1/3,-5/3
        5/6,5/6,-5/3 1,2/3,-5/3 1,1,-2
        1,2/3,-5/3 7/6,2/3,-11/6 4/3,1/3,-5/3
        1,2/3,-5/3 1,1,-2 7/6,2/3,-11/6
        7/6,2/3,-11/6 4/3,1/3,-5/3 4/3,2/3,-2
        1,1,-2 7/6,2/3,-11/6 4/3,2/3,-2
        4/3,1/3,-5/3 4/3,2/3,-2 3/2,1/2,-2
        4/3,1/3,-5/3 5/3,1/6,-11/6 5/3,1/3,-2
        1,1,-2 4/3,2/3,-2 4/3,5/6,-13/6
        4/3,1/3,-5/3 3/2,1/2,-2 5/3,1/3,-2
        4/3,2/3,-2 3/2,1/2,-2 5/3,2/3,-7/3
        5/3,1/6,-11/6 5/3,1/3,-2 2,0,-2
        4/3,2/3,-2 4/3,5/6,-13/6 5/3,2/3,-7/3
        3/2,1/2,-2 5/3,1/3,-2 5/3,2/3,-7/3
        5/3,1/3,-2 11/6,1/3,-13/6 2,0,-2
        5/3,1/3,-2 5/3,2/3,-7/3 11/6,1/3,-13/6
        11/6,1/3,-13/6 2,0,-2 2,1/3,-7/3
        5/3,2/3,-7/3 11/6,1/3,-13/6 2,1/3,-7/3
        2,0,-2 2,1/3,-7/3 13/6,1/6,-7/3
        5/3,2/3,-7/3 2,1/3,-7/3 2,1/2,-5/2
        2,0,-2 13/6,1/6,-7/3 7/3,0,-7/3
        2,1/3,-7/3 13/6,1/6,-7/3 7/3,1/3,-8/3
        2,1/3,-7/3 2,1/2,-5/2 7/3,1/3,-8/3
        13/6,1/6,-7/3 7/3,0,-7/3 7/3,1/3,-8/3
        7/3,0,-7/3 7/3,1/3,-8/3 5/2,0,-5/2
        7/3,1/3,-8/3 5/2,0,-5/2 8/3,0,-8/3
        7/3,1/3,-8/3 8/3,0,-8/3 8/3,1/6,-17/6
        8/3,0,-8/3 8/3,1/6,-17/6 3,0,-3
    """,
}

# parameters per kind, and per dominant coweight of norm <= 4 the crossing
# cotypes of the minimal walk with its translation parameter
GOLDEN_Q = {
    "A1~": {0: 2, 1: 2}, "BC1~": {0: 2, 1: 1}, "A2~": 2, "B2~": {0: 2, 1: 2, 2: 3}, "G2~": {0: 2, 1: 3, 2: 2}
}
GOLDEN_WALKS = {
    "A1~": {
        (0,): ("", 1),
        (1,): ("0", 2),
        (2,): ("01", 4),
        (3,): ("010", 8),
        (4,): ("0101", 16),
    },
    "BC1~": {
        (0,): ("", 1),
        (1,): ("01", 2),
        (2,): ("0101", 4),
        (3,): ("010101", 8),
        (4,): ("01010101", 16),
    },
    "A2~": {
        (0, 0): ("", 1),
        (0, 1): ("01", 4),
        (0, 2): ("0120", 16),
        (0, 3): ("012012", 64),
        (0, 4): ("01201201", 256),
        (1, 0): ("02", 4),
        (1, 1): ("0212", 16),
        (1, 2): ("021201", 64),
        (1, 3): ("02120120", 256),
        (2, 0): ("0210", 16),
        (2, 1): ("021020", 64),
        (2, 2): ("02102012", 256),
        (3, 0): ("021021", 64),
        (3, 1): ("02102101", 256),
        (4, 0): ("02102102", 256),
    },
    "B2~": {
        (0, 0): ("", 1),
        (0, 1): ("0212", 36),
        (0, 2): ("02120212", 1296),
        (0, 3): ("021202120212", 46656),
        (0, 4): ("0212021202120212", 1679616),
        (1, 0): ("020", 12),
        (1, 1): ("0210202", 432),
        (1, 2): ("02102021202", 15552),
        (1, 3): ("021020212021202", 559872),
        (2, 0): ("021021", 144),
        (2, 1): ("0210201212", 5184),
        (2, 2): ("02102012120212", 186624),
        (3, 0): ("021020120", 1728),
        (3, 1): ("0210201210202", 62208),
        (4, 0): ("021020121021", 20736),
    },
    "G2~": {
        (0, 0): ("", 1),
        (0, 1): ("021212", 144),
        (0, 2): ("021201210212", 20736),
        (0, 3): ("021201212021210212", 2985984),
        (0, 4): ("021201212021212021210212", 429981696),
        (1, 0): ("0212012121", 5184),
        (1, 1): ("0212012120121212", 746496),
        (1, 2): ("0212012120121201210212", 107495424),
        (1, 3): ("0212012120121201212021210212", 15479341056),
        (2, 0): ("02120121201212012121", 26873856),
        (2, 1): ("02120121201212012120121212", 3869835264),
        (2, 2): ("02120121201212012120121201210212", 557256278016),
        (3, 0): ("021201212012120121201212012121", 139314069504),
        (3, 1): ("021201212012120121201212012120121212", 20061226008576),
        (4, 0): ("0212012120121201212012120121201212012121", 722204136308736),
    },
}

# all minimal walk products of the G2~ coweights of norm 6 under GOLDEN_Q
GOLDEN_G2_NORM6 = {
    (0, 6): {8916100448256},
    (1, 5): {320979616137216},
    (2, 4): {11555266180939776},
    (3, 3): {415989582513831936},
    (4, 2): {14975624970497949696},
    (5, 1): {539122498937926189056},
    (6, 0): {19408409961765342806016},
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_coweight_duality_exact(kind):
    R = build_root_system(kind)
    for i, w in enumerate(R.coweights):
        for j, b in enumerate(R.simple_roots):
            assert dot(w, b) == (R.scale if i == j else 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_highest_root_marks(kind):
    R = build_root_system(kind)
    assert all(m >= 1 for m in R.marks)
    acc = tuple(Fraction(0) for _ in range(R.dim))
    for m, b in zip(R.marks, R.simple_roots):
        acc = vadd(acc, tuple(Fraction(m) * x for x in b))
    assert acc == R.highest_root


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_positive_roots_are_nonnegative_combinations(kind):
    R = build_root_system(kind)
    for beta in R.positive_roots:
        # the coordinates in the simple roots pair with the dual basis D w_j
        cs = [Fraction(dot(beta, w), R.scale) for w in R.coweights]
        assert all(c.denominator == 1 and c >= 0 for c in cs)
        assert sum(cs) >= 1
        acc = tuple(Fraction(0) for _ in range(R.dim))
        for c, alpha in zip(cs, R.simple_roots):
            acc = vadd(acc, tuple(c * x for x in alpha))
        assert acc == beta


def test_coxeter_matrix_values():
    assert build_root_system("A2~").coxeter_matrix == ((1, 3, 3), (3, 1, 3), (3, 3, 1))
    M = build_root_system("A1~").coxeter_matrix
    assert M[0][1] is INFINITE
    assert build_root_system("BC1~").coxeter_matrix[0][1] is INFINITE
    G = build_root_system("G2~").coxeter_matrix
    assert G[1][2] == 6
    B = build_root_system("B2~").coxeter_matrix
    assert sorted([B[0][1], B[0][2], B[1][2]]) == [2, 4, 4]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_coxeter_matrix_symmetric(kind):
    M = build_root_system(kind).coxeter_matrix
    n = len(M)
    for i in range(n):
        assert M[i][i] == 1
        for j in range(n):
            assert M[i][j] == M[j][i]
            if i != j and M[i][j] is not INFINITE:
                assert M[i][j] >= 2


def test_rotation_group_orders():
    assert len(build_root_system("A1~").rotations) == 2
    assert len(build_root_system("BC1~").rotations) == 1
    assert len(build_root_system("A2~").rotations) == 3
    assert len(build_root_system("B2~").rotations) == 2
    assert len(build_root_system("G2~").rotations) == 1


def test_rotations_identity_first_and_closed():
    for kind in ALL_KINDS:
        R = build_root_system(kind)
        rots = R.rotations
        assert rots[0].perm == tuple(R.index_set)
        perms = {r.perm for r in rots}
        for a in rots:
            for b in rots:
                assert tuple(a.perm[b.perm[i]] for i in R.index_set) in perms


def test_unsupported_kind_rejected():
    with pytest.raises(ValueError):
        build_root_system("E8~")


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=2))
def test_coweight_norm_is_l1(coords):
    mu = Coweight(tuple(coords))
    assert mu.norm == sum(abs(c) for c in coords)
    assert mu.dominant == all(c >= 0 for c in coords)
    assert mu.strongly_dominant == all(c >= 1 for c in coords)


def test_coweight_norm_examples():
    assert Coweight((1, 0)).norm == 1
    assert Coweight((1, 2)).norm == 3
    assert Coweight((0, 0)).norm == 0


def test_translation_parameter_examples():
    A1 = build_root_system("A1~")
    assert translation_parameter(A1, ParameterSystem(A1, 2), Coweight((1,))) == 2
    A2 = build_root_system("A2~")
    q2 = ParameterSystem(A2, 2)
    assert len(minimal_walk_types(A2, Coweight((1, 0)))) == 2
    assert translation_parameter(A2, q2, Coweight((1, 0))) == 4
    assert len(minimal_walk_types(A2, Coweight((1, 1)))) == 4
    assert translation_parameter(A2, q2, Coweight((1, 1))) == 16


def test_translation_parameter_rejects_non_dominant():
    A2 = build_root_system("A2~")
    with pytest.raises(ValueError):
        translation_parameter(A2, ParameterSystem(A2, 2), Coweight((-1, 0)))


@pytest.mark.parametrize(
    "kind,q",
    [("A1~", {0: 2, 1: 2}), ("BC1~", {0: 2, 1: 1}), ("A2~", 2), ("B2~", {0: 2, 1: 2, 2: 3}), ("G2~", 2)],
)
def test_walk_products_unique_and_multiplicative(kind, q):
    R = build_root_system(kind)
    ps = ParameterSystem(R, q)
    import itertools

    coords = [
        cs
        for cs in itertools.product(range(5), repeat=R.rank)
        if 0 < sum(cs) <= 4
    ]
    values = {}
    for cs in coords:
        prods = all_minimal_walk_products(R, ps, Coweight(cs))
        assert len(prods) == 1, f"walk products not unique at {cs}"
        values[cs] = prods.pop()
        assert values[cs] == translation_parameter(R, ps, Coweight(cs))
    for a in coords:
        for b in coords:
            c = tuple(x + y for x, y in zip(a, b))
            if c in values:
                assert values[c] == values[a] * values[b]


def test_parameter_system_constraints():
    A2 = build_root_system("A2~")
    with pytest.raises(ValueError):
        ParameterSystem(A2, {0: 2, 1: 2, 2: 3})  # odd bond forces equality
    A1 = build_root_system("A1~")
    with pytest.raises(ValueError):
        ParameterSystem(A1, {0: 2, 1: 3})  # the rotation swaps the types
    BC1 = build_root_system("BC1~")
    ParameterSystem(BC1, {0: 2, 1: 1})  # allowed: no rotation, no odd bond
    with pytest.raises(ValueError):
        ParameterSystem(BC1, {0: 0, 1: 1})


def test_truncation_examples():
    A2 = build_root_system("A2~")
    assert len(truncated_sector(A2, 1).alcoves) == 1
    t2 = truncated_sector(A2, 2)
    assert len(t2.alcoves) == 4
    A1 = build_root_system("A1~")
    assert len(truncated_sector(A1, 3).alcoves) == 3


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_truncation_prefix_property(kind):
    R = build_root_system(kind)
    prev = None
    for n in (1, 2, 3):
        t = truncated_sector(R, n)
        keys = [a.key for a in t.alcoves]
        if prev is not None:
            assert keys[: len(prev)] == prev
        prev = keys


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_truncation_covers_dominant_coweights(kind):
    import itertools

    R = build_root_system(kind)
    n = 3
    t = truncated_sector(R, n)
    have = {cw.coords for cw, _, _ in t.coweight_vertices}
    for cs in itertools.product(range(n + 1), repeat=R.rank):
        if sum(cs) <= n:
            assert cs in have


def test_embed_shift_examples():
    A1 = build_root_system("A1~")
    t2 = truncated_sector(A1, 2)
    emb = embed_shift(A1, t2, Coweight((1,)))
    assert len(emb) == 1
    image = t2.alcoves[emb[0]]
    assert image.verts == ((1 * A1.scale,), (2 * A1.scale,))

    assert embed_shift(A1, t2, Coweight((0,))) == [0, 1]

    A2 = build_root_system("A2~")
    t2 = truncated_sector(A2, 2)
    emb = embed_shift(A2, t2, Coweight((1, 0)))
    assert len(emb) == 1
    w1 = A2.coweights[0]
    w2 = A2.coweights[1]
    expect = {w1, tuple(2 * x for x in w1), vadd(w1, w2)}
    assert set(t2.alcoves[emb[0]].verts) == expect

    with pytest.raises(ValueError):
        embed_shift(A2, truncated_sector(A2, 1), Coweight((1, 1)))


def _good_types(R):
    """The types of the coweight vertices: those of norm at most 2 reach them all."""
    return frozenset(
        R.vertex_type(R.coweight_vector(Coweight(c)))
        for c in itertools.product(range(3), repeat=R.rank) if sum(c) <= 2
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_good_types_match_rotation_orbit_of_zero(kind):
    R = build_root_system(kind)
    assert _good_types(R) == frozenset(r.perm[0] for r in R.rotations)


def _ambient(R, v):
    return tuple(Fraction(x, R.scale) for x in v)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_root_data_matches_the_fraction_goldens(kind):
    R = build_root_system(kind)
    cox, marks, rots, good = GOLDEN_DATA[kind]
    assert R.coxeter_matrix == cox
    assert R.marks == marks
    assert [(r.perm, r.rep) for r in R.rotations] == rots
    assert _good_types(R) == good


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_truncation_keys_match_the_fraction_goldens(kind):
    R = build_root_system(kind)
    want = [
        tuple(tuple(Fraction(x) for x in v.split(",")) for v in line.split())
        for line in GOLDEN_KEYS[kind].strip().splitlines()
    ]
    t = truncated_sector(R, 3)
    assert [tuple(_ambient(R, v) for v in a.key) for a in t.alcoves] == want


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_walks_match_the_fraction_goldens(kind):
    R = build_root_system(kind)
    q = ParameterSystem(R, GOLDEN_Q[kind])
    for cs, (types, param) in GOLDEN_WALKS[kind].items():
        mu = Coweight(cs)
        assert "".join(map(str, minimal_walk_types(R, mu))) == types, cs
        assert translation_parameter(R, q, mu) == param, cs


def test_walk_products_need_no_deep_recursion(monkeypatch):
    G2 = build_root_system("G2~")
    q = ParameterSystem(G2, GOLDEN_Q["G2~"])
    limit = sys.getrecursionlimit()

    def refuse(n):
        raise AssertionError("the walk products changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for cs, want in GOLDEN_G2_NORM6.items():
        assert all_minimal_walk_products(G2, q, Coweight(cs)) == want, cs
        assert sys.getrecursionlimit() == limit


def _pair(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _fraction_neighbor(R, alcove, drop):
    """The alcove across a panel, reflected in ambient Fraction coordinates."""
    pts = [_ambient(R, v) for v in alcove.verts]
    panel = pts[:drop] + pts[drop + 1 :]
    alpha, k = next(
        (alpha, _pair(alpha, panel[0]))
        for alpha in R.positive_roots
        if _pair(alpha, panel[0]).denominator == 1
        and all(_pair(alpha, p) == _pair(alpha, panel[0]) for p in panel)
    )
    c = (_pair(alpha, pts[drop]) - k) * 2 / _pair(alpha, alpha)
    return sorted(panel + [tuple(x - c * a for x, a in zip(pts[drop], alpha))])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_integer_reflections_match_fraction_reflections(kind):
    R = build_root_system(kind)
    rng = random.Random(kind)
    a = R.fundamental_alcove()
    for _ in range(300):  # a random gallery through the arrangement
        drop = rng.randrange(len(a.verts))
        b = R.neighbor(a, drop)
        assert [_ambient(R, v) for v in b.verts] == _fraction_neighbor(R, a, drop)
        a = b


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_points_are_scaled_ints(kind):
    R = build_root_system(kind)
    t = truncated_sector(R, 3)
    for v in itertools.chain(t.vertices, R.coweights, R.positive_roots):
        assert all(type(x) is int for x in v), v
    # the scale is the least one that makes the fundamental alcove integral
    c0 = R.fundamental_alcove().verts
    assert all(
        any(x % p for v in c0 for x in v) for p in range(2, R.scale + 1) if R.scale % p == 0
    )
