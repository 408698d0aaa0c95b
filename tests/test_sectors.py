import json
from fractions import Fraction

import numpy as np
import pytest

from weylflow import chamber, sectors
from weylflow.io_utils import dumps_canonical
from weylflow.rootdata import Coweight
from weylflow.sectors import SENTINEL, SectorSpace, germs_json_chunks
from weylflow.verify import FixtureContext


@pytest.fixture(scope="module")
def k17_17():
    """K(17,17): 289 chambers, so its rows are uint16, and its blocks of 17
    put chambers up to 288 in the build's padded block array."""
    ctx = FixtureContext("k17_17", chamber.from_bipartite_graph(
        [(i, 17 + j) for i in range(17) for j in range(17)]
    ))
    assert ctx.space.table(1).rows.dtype == np.uint16
    return ctx


@pytest.fixture(scope="module")
def cases(contexts, k17_17):
    """(context, largest radius) for the per-germ comparisons."""
    return [(ctx, 3) for ctx in contexts.values()] + [(k17_17, 2)]


def test_germ_counts_rank1(k33):
    assert len(k33.space.table(1)) == 18  # one germ per directed edge
    assert len(k33.space.table(2)) == 36  # each extends in q = 2 ways


def test_germ_counts_a2(a2):
    # one germ per (rotation, chamber): the radius-1 truncation is one alcove
    assert len(a2.space.table(1)) == 3 * a2.system.num_chambers


def test_rank1_radius_one_rotation_matches_base_color(k33):
    table = k33.space.table(1)
    rots = k33.system.root_system.rotations
    for g in table.germs:
        base_type = rots[g.sigma_index].perm[0]
        assert g.base_id[1] == base_type


def test_restrict_identity_and_tower(k33):
    space = k33.space
    t3 = space.table(3)
    for g in t3.germs:
        assert space.restrict(g, 3) == g
        assert space.restrict(space.restrict(g, 2), 1) == space.restrict(g, 1)


def test_restriction_maps_surjective(a2):
    for n in (1, 2, 3):
        restr = a2.space.table(n).restriction_map(n - 1)
        assert len(set(restr.tolist())) == len(a2.space.table(n - 1))


def test_extension_regularity(contexts):
    for name, ctx in contexts.items():
        for n in (1, 2, 3):
            restr = ctx.space.table(n).restriction_map(n - 1)
            counts = np.bincount(restr, minlength=len(ctx.space.table(n - 1)))
            assert counts.min() == counts.max(), f"{name} radius {n}"


def test_shift_zero_is_identity(k33):
    space = k33.space
    for g in space.table(2).germs:
        assert space.shift(g, Coweight((0,))) == g


def test_shift_drops_first_edge(k33):
    space = k33.space
    t2 = space.table(2)
    t1 = space.table(1)
    for g in t2.germs:
        s = space.shift(g, Coweight((1,)))
        assert s.radius == 1
        # the remaining edge is the second edge of the path
        assert s.chambers == (g.chambers[1],)
        assert t1.index[s.canonical_key] is not None


def test_shift_composes_with_embedding(a2):
    from weylflow.rootdata import embed_shift

    space = a2.space
    mu = Coweight((1, 0))
    t2 = space.table(2)
    emb = embed_shift(space.root_system, t2.trunc, mu)
    for g in t2.germs[::17]:
        s = space.shift(g, mu)
        assert s.radius == 1
        assert s.chambers == (g.chambers[emb[0]],)


def test_shift_insufficient_radius(k33):
    with pytest.raises(ValueError):
        k33.space.shift(k33.space.table(1).germs[0], Coweight((2,)))


def test_distance_equal_germs_is_sentinel(k33):
    space = k33.space
    g = space.table(2).germs[0]
    res, val = space.distance(g, g)
    assert res.k is SENTINEL
    assert val == Fraction(1, 4)  # reported upper bound theta^radius
    assert res.k_directional == (SENTINEL,)


def test_distance_zero_for_different_base(k33):
    space = k33.space
    table = space.table(1)
    for a in table.germs:
        for b in table.germs:
            res, val = space.distance(a, b)
            if a.base_id != b.base_id or a.sigma_index != b.sigma_index:
                assert res.k == 0 and val == 1


def test_distance_one_for_same_tail_different_edge(k33):
    space = k33.space
    table = space.table(1)
    found = 0
    for a in table.germs:
        for b in table.germs:
            if a is b:
                continue
            if a.sigma_index == b.sigma_index and a.base_id == b.base_id:
                res, val = space.distance(a, b)
                assert res.k == 1 and val == Fraction(1, 2)
                assert res.k_directional == (1,)
                found += 1
    assert found == 18 * 2  # each of 18 germs pairs with q = 2 others


def test_rank1_directional_equals_plain(biregular):
    space = biregular.space
    table = space.table(2)
    for a in range(len(table)):
        for b in range(len(table)):
            res, _ = space.distance(table.germs[a], table.germs[b])
            assert res.k_directional[0] == res.k


def test_a2_direction_split_witness(a2):
    # a pair agreeing along one coweight direction strictly farther than the other
    table = a2.space.table(2)
    k1 = table.ki_matrix(0)
    k2 = table.ki_matrix(1)
    asym = (k2 == 1) & (k1 > 1)
    assert np.any(asym)
    a, b = map(int, np.argwhere(asym)[0])
    res, _ = a2.space.distance(table.germs[a], table.germs[b])
    assert res.k_directional[1] == 1
    assert res.k_directional[0] is SENTINEL or res.k_directional[0] > 1


def test_face_ids_agree_exactly_where_the_faces_agree(contexts):
    # the original per-face test: same image type at each vertex type, same face id
    for ctx in contexts.values():
        space, system = ctx.space, ctx.system
        faces = space.truncation(2).faces
        rots = system.root_system.rotations
        germs = space.table(2).germs[::7]
        for a in germs[:12]:
            for b in germs:
                pa, pb = rots[a.sigma_index].perm, rots[b.sigma_index].perm
                plan_a = space._cached_plan(2, a.sigma_index)
                plan_b = space._cached_plan(2, b.sigma_index)
                want = [
                    all(pa[t] == pb[t] for t in f.types)
                    and sectors._face_id(system, plan_a[fi], a.chambers)
                    == sectors._face_id(system, plan_b[fi], b.chambers)
                    for fi, f in enumerate(faces)
                ]
                assert (space._face_ids(a) == space._face_ids(b)).tolist() == want


def test_region_growing_distance_reads_no_class_array(contexts, monkeypatch):
    # the explicit route stays independent of the face lookups the class arrays use
    def refused(*args):
        raise AssertionError("the region-growing distance used _face_lookup")

    monkeypatch.setattr(sectors, "_face_lookup", refused)
    ctx = contexts["a2q2"]
    space = SectorSpace(ctx.system)
    germs = space.table(2).germs[::50]
    want = ctx.space.table(2)
    kk = want.k_matrix()
    for a in germs:
        for b in germs:
            res, _ = space.distance(a, b)
            k = int(kk[want.position(a), want.position(b)])
            assert res.k == (SENTINEL if k == want.radius + 1 else k)


def test_ultrametric_exhaustive_small(k33, biregular):
    for ctx in (k33, biregular):
        k = ctx.space.table(2).k_matrix().astype(int)
        size = k.shape[0]
        for b in range(size):
            bound = np.minimum(k[:, b][:, None], k[b, :][None, :])
            assert np.all(k >= bound)


def test_max_formula_a2(a2):
    table = a2.space.table(2)
    k = table.k_matrix()
    k1 = table.ki_matrix(0)
    k2 = table.ki_matrix(1)
    resolved = (k <= 2) & (k1 <= 2) & (k2 <= 2)
    assert np.all(k[resolved] == np.minimum(k1, k2)[resolved])


def test_germ_table_canonical_order(contexts):
    for ctx in contexts.values():
        for n in (1, 2):
            germs = ctx.space.table(n).germs
            keys = [g.canonical_key for g in germs]
            assert keys == sorted(keys)
        for n in (1, 2, 3):
            rows = ctx.space.table(n).rows
            assert np.array_equal(np.lexsort(rows.T[::-1]), np.arange(len(rows))), (ctx.name, n)


def test_rows_increase_check():
    rows = np.array([[0, 1, 2], [0, 2, 0], [1, 0, 0]], dtype=np.uint8)
    assert sectors._rows_increase(rows) and sectors._rows_increase(rows[:1])
    assert not sectors._rows_increase(rows[::-1])
    assert not sectors._rows_increase(rows[[0, 1, 1, 2]])  # two equal rows


def test_class_labels_match_unique_rows(contexts, monkeypatch):
    # every fixture and level of the ray and region classes, radius 0 included
    seen, real = [], sectors.row_groups

    def recorded(ids):
        groups = real(ids)
        seen.append((ids.copy(), groups[1]))
        return groups

    monkeypatch.setattr(sectors, "row_groups", recorded)
    for ctx in contexts.values():
        space = SectorSpace(ctx.system)  # fresh, so no class array is cached
        for n in range(3):
            table = space.table(n)
            for i in range(ctx.rank):
                for ell in range(n + 1):
                    table.ray_classes(i, ell)
            for mu in ctx.generators + [ctx.strong]:
                if mu.norm <= n:
                    table.region_classes(mu)
    assert seen
    one_row = np.array([[2, 0, 5]], dtype=np.uint8)
    ties = np.array([[1, 2], [0, 9], [1, 2], [0, 9], [0, 3]], dtype=np.uint16)
    # the class arrays hold one key column per row of ids
    for ids in [one_row.T, ties.T] + [ids for ids, _ in seen]:
        want = np.unique(ids.T, axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(real(ids)[1], want)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_row_groups_match_unique_byte_keys(dtype):
    rng = np.random.default_rng(3)
    # int64 columns hold labels, as the metric laws pass them
    top = min(np.iinfo(dtype).max, 2**40)
    distinct = np.unique(rng.integers(0, top, size=(300, 3)), axis=0)
    wide = rng.integers(0, top, size=(5_000, 12), endpoint=True)
    cases = {
        "one row": rng.integers(0, top, size=(1, 4)),
        "all equal": np.repeat(rng.integers(0, top, size=(1, 5)), 70_000, axis=0),
        "all distinct": distinct[rng.permutation(len(distinct))],
        "mixed": rng.integers(0, 3, size=(150_000, 4)) * (top // 2),
        # full-range columns: the mixed-radix key is relabelled between digits
        "wide": wide[rng.integers(0, len(wide), 20_000)],
        "empty": np.zeros((0, 3), dtype=dtype),
    }
    for name, rows in cases.items():
        rows = rows.astype(dtype)
        first, labels = sectors.row_groups(rows.T)
        _, want_first, want_labels = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first), name
        assert np.array_equal(labels, want_labels.reshape(-1)), name


def test_duplicate_germ_rows_still_raise(contexts):
    space = SectorSpace(contexts["k33"].system)
    parent = space.table(1)
    # a repeated parent row repeats each of its extensions
    parent.rows = np.concatenate([parent.rows, parent.rows[-1:]])
    parent.base = np.concatenate([parent.base, parent.base[-1:]])
    with pytest.raises(AssertionError, match="duplicate canonical germ keys"):
        space.table(2)


def _germs_document(table):
    """The germs/v1 document as one dict per germ: the reference for the writer."""
    return {
        "format": "germs/v1",
        "radius": table.radius,
        "count": len(table),
        "germs": [{"sigma": s, "chambers": chambers} for s, *chambers in table.rows.tolist()],
    }


def _written(table) -> str:
    return "".join(germs_json_chunks(table))


def test_germ_export_schema(k33):
    doc = json.loads(_written(k33.space.table(2)))
    assert doc["format"] == "germs/v1"
    assert doc["radius"] == 2
    assert doc["count"] == 36
    assert len(doc["germs"]) == 36
    assert set(doc["germs"][0]) == {"sigma", "chambers"}


def test_germs_writer_matches_the_canonical_dump(contexts, monkeypatch):
    for name, ctx in contexts.items():
        for n in (0, 1, 2, 3):
            table = ctx.space.table(n)
            expected = dumps_canonical(_germs_document(table))
            assert _written(table) == expected, (name, n)
            # several chunks, the last one short
            with monkeypatch.context() as m:
                m.setattr(sectors, "_GERM_CHUNK_ROWS", 5)
                assert _written(table) == expected, (name, n)


def test_germs_writer_memory_against_the_document_route(a2, traced_peak):
    # a2q2 radius 4 (32,256 germs, eight chunks): the whole document as
    # dicts and one string, against chunks rendered from the rows and
    # dropped as they come
    table = a2.space.table(4)
    expected, document_peak = traced_peak(lambda: dumps_canonical(_germs_document(table)))
    _, stream_peak = traced_peak(lambda: sum(1 for _ in germs_json_chunks(table)))
    assert 4 * stream_peak <= document_peak, (stream_peak, document_peak)
    assert _written(table) == expected


def test_shift_maps_match_per_germ_shifts(cases):
    # the array lookup route against Germ objects shifted one at a time
    for ctx, top in cases:
        space = SectorSpace(ctx.system)  # keeps .germs off the shared tables
        for n in range(1, top + 1):
            for mu in ctx.generators + [ctx.strong]:
                if mu.norm > n:
                    continue
                dst = space.table(n - mu.norm)
                want = [dst.position(space.shift(g, mu)) for g in space.table(n).germs]
                assert space.shift_map(n, mu).tolist() == want, f"{ctx.name} n={n} mu={mu.coords}"


def test_restriction_maps_match_per_germ_restrictions(cases):
    for ctx, top in cases:
        space = SectorSpace(ctx.system)
        for n in range(1, top + 1):
            germs = space.table(n).germs
            for r in range(n + 1):
                want = [space.table(r).position(space.restrict(g, r)) for g in germs]
                assert space.table(n).restriction_map(r).tolist() == want, f"{ctx.name} {n}->{r}"


def test_table_build_and_shift_query_memory(a2, traced_peak):
    # a2q2 radius 5: 258,048 germs in a 6.4 MiB row array; the build holds
    # about two row arrays at once, and the shift query is built in the
    # row dtype, which the lookup searches without converting it
    space = SectorSpace(a2.system)
    table, build_peak = traced_peak(lambda: space.table(5))
    assert table.rows.nbytes == 258048 * 26
    assert build_peak <= 20 * 2**20, build_peak
    _, shift_peak = traced_peak(lambda: space.shift_map(5, Coweight((1, 1))))
    assert shift_peak <= 16 * 2**20, shift_peak


def _germ_constraints(space, n):
    """Per alcove of the radius-n truncation, in truncation order: the earlier
    panel neighbours as (alcove, relation label), and the earlier alcoves
    that share only a vertex with it."""
    trunc = space.truncation(n)
    rank = space.root_system.rank
    panels, stars = [], []
    for k in range(trunc.alcove_count(n)):
        panels.append([
            (nb, panel_types[0] if rank == 1 else cotype)
            for cotype, nb, panel_types in trunc.adjacency[k] if 0 <= nb < k
        ])
        verts = set(trunc.alcoves[k].verts)
        stars.append([
            j for j in range(k)
            if verts & set(trunc.alcoves[j].verts) and j not in dict(panels[k])
        ])
    return panels, stars


def test_a2_rows_satisfy_the_extension_constraints(a2):
    system = a2.system
    table = a2.space.table(3)
    panels, stars = _germ_constraints(a2.space, 3)
    rots = system.root_system.rotations
    for (sigma, *chambers), base in zip(table.rows.tolist(), table.base.tolist()):
        perm = rots[sigma].perm
        assert system.partition((perm[1], perm[2]))[0][chambers[0]] == base
        for k, c in enumerate(chambers):
            for j, lab in panels[k]:
                assert c in system.block_members(perm[lab], chambers[j]) and c != chambers[j]
            assert all(c != chambers[j] for j in stars[k])


def test_rows_match_recursive_enumeration(cases):
    # an independent plain-Python enumeration of the germs, alcove by alcove
    for ctx, top in cases:
        space, system = ctx.space, ctx.system
        n = top if ctx.rank == 1 else 2
        panels, stars = _germ_constraints(space, n)
        rows = []

        def extend(s, perm, assign):
            k = len(assign)
            if k == len(panels):
                rows.append([s] + assign)
                return
            for c in range(system.num_chambers):
                if all(
                    c in system.block_members(perm[lab], assign[j]) and c != assign[j]
                    for j, lab in panels[k]
                ) and all(c != assign[j] for j in stars[k]):
                    extend(s, perm, assign + [c])

        for s, rot in enumerate(system.root_system.rotations):
            extend(s, rot.perm, [])
        assert space.table(n).rows.tolist() == sorted(rows), ctx.name


def test_lookup_is_exact(a2):
    table = a2.space.table(2)
    assert table.lookup(table.rows).tolist() == list(range(len(table)))
    row = table.rows[:1].copy()
    row[0, 2] = row[0, 1]  # two panel-adjacent alcoves on one chamber
    assert row.dtype == table.rows.dtype  # searched as it is
    with pytest.raises(KeyError, match="is not a radius-2 germ"):
        table.lookup(row)
    past = table.rows[-1:].copy()
    past[0, -1] += 1  # sorts after the last key
    with pytest.raises(KeyError, match="is not a radius-2 germ"):
        table.lookup(past)
    negative = table.rows[:1].astype(np.int64)
    negative[0, 1] = -1
    with pytest.raises(KeyError, match="out of range"):
        table.lookup(negative)
    for query in (table.rows[:, :-1], np.hstack((table.rows, table.rows[:, :1]))):
        with pytest.raises(KeyError, match=rf"\(504, {query.shape[1]}\).*width 5"):
            table.lookup(query)
    # radius 0 is keyed by (rotation, base class); a2q2 has one base class
    zero = a2.space.table(0)
    assert zero.lookup([[2, 0], [0, 0]]).tolist() == [2, 0]
    with pytest.raises(KeyError):
        zero.lookup([[1, 1]])
    with pytest.raises(KeyError):  # would wrap to (0, 0) in uint8
        zero.lookup([[0, 256]])
