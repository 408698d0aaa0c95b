"""Sector germs on a chamber system, their ultrametric, and the shifts.

A radius-n germ is the restriction of a locally injective, type-rotating
simplicial morphism from the dominant sector to the radius-n truncation:
concretely a type rotation together with one chamber per truncation alcove,
respecting panel adjacencies and injective around every truncation vertex.

A `GermTable` stores its germs as one integer array `rows` of shape
(N, 1 + alcoves): the rotation index, then the image chamber of each
truncation alcove (`uint8`, or wider when the chambers or rotations need
it), with the base class of each germ in `base`.  Rows are in lexicographic
order, which is the canonical order; radius 0 has no alcoves and is keyed
by (rotation, base class).  A table grows from its parent one ring alcove
at a time, with array masks for the panel constraints and vertex-star
injectivity (`SectorSpace.extend_rows`, which extends any subset of parent
rows, so a caller can walk a larger radius one piece at a time).
`GermTable.lookup` finds rows exactly by binary search over the rows read
as byte strings, so a restriction map is the lookup of a row prefix and a
shift map the lookup of a column gather (`SectorSpace.shift_positions`,
which takes any rows of the source radius).  `Germ` objects are
made only on demand (`germs`, `index`, `position`); `SectorSpace.shift` and
`SectorSpace.restrict` act on them one at a time and are the independent
route the maps are tested against.

Every array of a build is in the row dtype or narrower (the padded block
array in the signed type that holds its -1), so a build step holds the old
and the new row array, and the final sort one int64 index per germ and a
sorted copy: the peak is about 2.5 times the stored rows.  A lookup of a
query in the row dtype adds an int64 position per query row; it searches
the query a block of rows at a time, so its keys, gathered keys and flags
take one block.

Two germs at distance theta^k first disagree at a dominant coweight of norm
k, where "agree at lambda" means the connected component of the base vertex
inside the face-by-face agreement region reaches lambda.  Faces are compared
through their residue classes (a vertex of type t maps to the class of the
complementary relation), which is exactly agreement of lifts through the
covering.  Because agreement components are convex, membership of lambda in
the component is equivalent to agreement of the two germs on the hull of
{0, lambda}, a box of `rootdata` (`TruncatedSector.faces_within`); the
table therefore carries per-radius and per-ray restriction classes which
give all pairwise distances in O(1) after preprocessing.  The explicit
route, `region_distances`, grows the components of many pairs at once as
boolean masks over the faces, and `verify` cross-checks the two routes.

The germs/v1 export (`germs_json_chunks`) renders the rows in chunks of
about _GERM_CHUNK_BYTES of text, so its working set is one text budget and
the table, not its text, sets the peak of an export.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Optional

import numpy as np

from .chamber import ChamberSystem
from .io_utils import stream_canonical
from .rootdata import (
    Coweight,
    RootSystem,
    TruncatedSector,
    embed_shift,
    truncated_sector,
)


@dataclass(frozen=True)
class Germ:
    """A radius-n sector germ: type rotation plus alcove images."""

    radius: int
    sigma_index: int
    chambers: tuple  # image chamber per truncation alcove, truncation order
    base_id: tuple   # face id of the image of the base vertex

    @property
    def canonical_key(self):
        if self.radius == 0:
            return (self.sigma_index, self.base_id)
        return (self.sigma_index, self.chambers)


SENTINEL = None  # distance not resolved within the truncation radius
# template bytes per text chunk of the germs/v1 export
_GERM_CHUNK_BYTES = 1 << 16
_DENSE_RANGE = 3  # key range per key up to which `_ranks` takes a bincount
# block size of `_rows_increase`, `GermTable.lookup`, transfer pieces and power_seminorms
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class DistanceResult:
    k: Optional[int]                 # None: at least radius+1 (same germ)
    k_directional: tuple             # per direction, same sentinel convention
    agreeing_region: frozenset       # face indices of the component of 0


def _face_plan(system: ChamberSystem, trunc: TruncatedSector, perm):
    """For one type rotation: per face, how to read off its image id.

    Returns a list over faces of (anchor, kind, payload) where kind "C"
    means the chamber itself, "B" a single-relation block, and "J" a class
    of a joined partition (payload = (classes, J)).
    """
    rank = system.root_system.rank
    index_set = system.index_set
    plan = []
    for f in trunc.faces:
        img_types = tuple(sorted(perm[t] for t in f.types))
        if len(img_types) == rank + 1:
            plan.append((f.anchor, "C", None))
            continue
        if rank == 1:
            # faces are vertices; the image vertex is the color-t endpoint
            plan.append((f.anchor, "B", perm[f.types[0]]))
            continue
        J = tuple(i for i in index_set if i not in img_types)
        if len(J) == 1:
            plan.append((f.anchor, "B", J[0]))
        else:
            classes, _ = system.partition(J)
            plan.append((f.anchor, "J", (classes, J)))
    return plan


def _face_id(system, plan_entry, chambers):
    anchor, kind, payload = plan_entry
    c = chambers[anchor]
    if kind == "C":
        return ("C", c)
    if kind == "B":
        return ("B", payload, system.block_of[payload][c])
    classes, J = payload
    return ("J", J, classes[c])


def _face_lookup(system: ChamberSystem, plan_entry) -> np.ndarray:
    """A face's image id as an array indexed by its anchor alcove's chamber."""
    _, kind, payload = plan_entry
    if kind == "C":
        return np.arange(system.num_chambers)
    if kind == "B":
        return np.asarray(system.block_of[payload])
    return np.asarray(payload[0])


def _base_classes(system: ChamberSystem, base_type: int):
    """(class per chamber, class count) of the base vertex's image of this type."""
    if system.root_system.rank == 1:
        return system.block_of[base_type], len(system.residues[base_type])
    return system.partition(tuple(i for i in system.index_set if i != base_type))


def byte_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte string per row of an integer array.

    The strings compare like the rows compare lexicographically (the bytes
    are big-endian), so sorted rows give sorted keys for `np.searchsorted`.
    """
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)


def _ranks(key, size):
    """(count, ranks) of int64 keys in [0, size), ranked among the distinct keys; a range of
    at most _DENSE_RANGE per key is ranked in its bincount, in place, which holds less than
    `np.unique`'s argsort and sorted copy (one int64 per value against about five per key)."""
    if size > _DENSE_RANGE * len(key):
        distinct, ranks = np.unique(key, return_inverse=True)
        return len(distinct), ranks
    ranks = np.bincount(key, minlength=size)
    np.minimum(ranks, 1, out=ranks)
    np.cumsum(ranks, out=ranks)
    ranks -= 1
    return int(ranks[-1]) + 1, ranks[key]


def row_groups(columns):
    """(first, labels) of the distinct rows whose key columns are `columns`.

    `columns` holds equal-length arrays of nonnegative integers, such as
    `rows.T[cols]`.  `labels` ranks each row among the distinct rows in
    lexicographic order and `first[label]` is the first row with that label.
    The rows are read as mixed-radix int64 keys, ranked (`_ranks`) only when
    the next digit could overflow, so one ranking usually serves.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    size = 1  # every key is below size
    for col in columns:
        width = int(col.max(initial=0)) + 1
        if size * width > 2**62:
            size, key = _ranks(key, size)
            if size * width > 2**62:  # a column wider than 2^62 / rows: its ranks are the digit
                width, col = _ranks(col, width)
        key = key * width + col
        size *= width
    count, labels = _ranks(key, size)
    first = np.full(count, len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))
    return first, labels


def _rows_increase(rows: np.ndarray) -> bool:
    """Whether every row is lexicographically greater than the row before it.

    One pass over the rows in blocks, so the temporaries stay small.
    """
    for start in range(0, len(rows) - 1, _BLOCK_ROWS):
        b = rows[start + 1 : start + 1 + _BLOCK_ROWS]
        a = rows[start : start + len(b)]
        diff = a != b
        first = diff.argmax(axis=1)  # the first differing column, or 0 if none
        pick = np.arange(len(b))
        if not (diff[pick, first].all() and (b[pick, first] > a[pick, first]).all()):
            return False
    return True


class GermTable:
    """All radius-n germs of one chamber system, canonically ordered."""

    def __init__(self, space: "SectorSpace", radius: int):
        self.space = space
        self.radius = radius
        self.trunc = space.truncation(radius)
        self._restriction: Dict[int, np.ndarray] = {}
        self._region_classes: Dict[tuple, np.ndarray] = {}
        if radius == 0:
            self._build_radius_zero()
        else:
            self._build()
        self._keys = byte_keys(self._key_rows(radius))
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise AssertionError("duplicate canonical germ keys")

    def __len__(self):
        return len(self.rows)

    # -- construction ----------------------------------------------------

    def _build_radius_zero(self):
        space = self.space
        sigma, base = [], []
        for s, perm in enumerate(space._perms):
            count = _base_classes(space.system, int(perm[0]))[1]
            sigma += [s] * count
            base += range(count)
        self.rows = np.array(sigma, dtype=space._dtype).reshape(-1, 1)
        self.base = np.array(base, dtype=space._dtype)

    def _build(self):
        parent = self.space.table(self.radius - 1)
        rows, base, _ = self.space.extend_rows(parent.rows, parent.base, self.radius)
        if not _rows_increase(rows):
            order = np.lexsort(rows.T[::-1])
            rows, base = rows[order], base[order]
        self.rows, self.base = rows, base

    def _key_rows(self, r: int) -> np.ndarray:
        """Each germ's radius-r lookup key: (rotation, base) at 0, else a row prefix."""
        if r == 0:
            return np.column_stack((self.rows[:, 0], self.base))
        return self.rows[:, : 1 + self.trunc.alcove_count(r)]

    def lookup(self, query: np.ndarray) -> np.ndarray:
        """Positions of the query rows in this table; KeyError if one is missing.

        A query row is a full table row, or (rotation, base class) at radius 0.
        A query in the row dtype is searched as it is; any other is first
        converted, and refused if a value does not survive the conversion.
        """
        query = np.asarray(query)
        width = self._key_rows(self.radius).shape[1]
        if query.ndim != 2 or query.shape[1] != width:
            raise KeyError(f"query of shape {query.shape}, radius-{self.radius} keys have width {width}")
        rows = query
        if query.dtype != self.rows.dtype:
            rows = query.astype(self.rows.dtype)
            if not np.array_equal(rows, query):  # a value the row dtype cannot hold
                raise KeyError(f"query out of range for radius-{self.radius} rows")
        pos = np.empty(len(rows), dtype=np.intp)
        for start in range(0, len(rows), _BLOCK_ROWS):
            keys = byte_keys(rows[start : start + _BLOCK_ROWS])
            part = pos[start : start + len(keys)]
            part[:] = np.searchsorted(self._keys, keys)
            # a row past the last key is clipped onto it and then fails to match
            np.minimum(part, len(self._keys) - 1, out=part)
            found = self._keys[part] == keys
            if not found.all():
                bad = query[start + np.flatnonzero(~found)[0]].tolist()
                raise KeyError(f"{bad} is not a radius-{self.radius} germ")
        return pos

    @cached_property
    def germs(self) -> List[Germ]:
        """The rows as `Germ` objects, made on first use."""
        rots = self.space.root_system.rotations
        return [
            Germ(self.radius, s, tuple(chambers), ("base", rots[s].perm[0], b))
            for (s, *chambers), b in zip(self.rows.tolist(), self.base.tolist())
        ]

    @cached_property
    def index(self) -> Dict[tuple, int]:
        return {g.canonical_key: pos for pos, g in enumerate(self.germs)}

    def position(self, germ: Germ) -> int:
        return self.index[germ.canonical_key]

    # -- restriction and classes -----------------------------------------

    def restriction_map(self, r: int) -> np.ndarray:
        """Position in table(r) of each germ's radius-r restriction."""
        if r > self.radius:
            raise ValueError("can only restrict to a smaller radius")
        if r not in self._restriction:
            if r == self.radius:
                arr = np.arange(len(self), dtype=np.int64)
            else:
                arr = self.space.table(r).lookup(self._key_rows(r))
            self._restriction[r] = arr
        return self._restriction[r]

    def ray_classes(self, direction: int, ell: int) -> np.ndarray:
        """Class ids by agreement on the hull of {0, ell * w_direction}."""
        rank = self.space.root_system.rank
        return self.region_classes(Coweight(tuple(ell if i == direction else 0 for i in range(rank))))

    def region_classes(self, mu: Coweight) -> np.ndarray:
        """Class ids by agreement on the hull of {0, mu}."""
        key = tuple(mu.coords)
        if key not in self._region_classes:
            R = self.space.root_system
            self._region_classes[key] = self._classes_for_region(R.coweight_vector(mu))
        return self._region_classes[key]

    def _classes_for_region(self, bound_vec) -> np.ndarray:
        """Distinct (rotation, base class, image id of each face in the hull).

        The class labels are arbitrary; callers compare them for equality.
        """
        system = self.space.system
        faces = self.trunc.faces_within(bound_vec)
        sig = self.rows[:, 0]
        # the base class covers the radius-0 case, where no face exists
        ids = np.empty((2 + len(faces), len(self)), dtype=self.rows.dtype)
        ids[0] = sig
        ids[1] = self.base
        for s in np.flatnonzero(np.bincount(sig)).tolist():
            plan = self.space._cached_plan(self.radius, s)
            sel = np.flatnonzero(sig == s)
            for col, fi in enumerate(faces, start=2):
                anchor = plan[fi][0]
                ids[col, sel] = _face_lookup(system, plan[fi])[self.rows[sel, 1 + anchor]]
        return row_groups(ids)[1]

    def k_matrix(self) -> np.ndarray:
        """Pairwise first-disagreement norms; radius+1 encodes the sentinel."""
        return self._first_disagreement(self.restriction_map)

    def ki_matrix(self, direction: int) -> np.ndarray:
        return self._first_disagreement(lambda ell: self.ray_classes(direction, ell))

    def _first_disagreement(self, classes) -> np.ndarray:
        """The least level m <= radius at which classes(m) differ, per pair; else radius+1."""
        n = self.radius
        out = np.full((len(self), len(self)), n + 1, dtype=np.int16)
        for m in range(n, -1, -1):
            cls = classes(m)
            out[cls[:, None] != cls[None, :]] = m
        return out


class SectorSpace:
    """Bundles a chamber system with cached truncations and germ tables."""

    def __init__(self, system: ChamberSystem, check: bool = True):
        self.system = system
        self.root_system: RootSystem = system.root_system
        if check:
            report = system.validate()
            if not report.passed:
                raise ValueError(
                    "chamber system fails the local checks:\n" + report.summary()
                )
        self._truncations: Dict[int, TruncatedSector] = {}
        self._tables: Dict[int, GermTable] = {}
        self._plans: Dict[int, tuple] = {}
        self._shift_data: Dict[tuple, tuple] = {}
        self._face_plans: Dict[tuple, list] = {}
        self._covers: Dict[int, np.ndarray] = {}
        self._ray_face_lists: Dict[int, List[List[int]]] = {}
        # the region-growing distance's face ids per germ, interned as ints
        self._germ_face_ids: Dict[Germ, np.ndarray] = {}
        self._interned: Dict[tuple, int] = {}
        # per-system lookup arrays for the table builds and maps
        types = system.index_set
        n = system.num_chambers
        # in the narrowest dtype that holds them, as the rows are
        rots = self.root_system.rotations
        self._perms = np.array([rot.perm for rot in rots], dtype=np.min_scalar_type(len(types) - 1))
        self._dtype = np.min_scalar_type(max(n, len(rots)) - 1)
        self._block_of = np.array([system.block_of[t] for t in types], dtype=self._dtype)
        self._base_cls = np.array([_base_classes(system, t)[0] for t in types], dtype=self._dtype)
        # others[t, c]: the rest of the type-t block of c, ascending, -1 padded
        width = max(len(b) for t in types for b in system.residues[t]) - 1
        self._others = np.full((len(types), n, width), -1, dtype=np.min_scalar_type(-n))
        for t in types:
            for block in system.residues[t]:
                for c in block:
                    rest = sorted(x for x in block if x != c)
                    self._others[t, c, : len(rest)] = rest

    def truncation(self, radius: int) -> TruncatedSector:
        if radius not in self._truncations:
            t = truncated_sector(self.root_system, radius)
            if radius >= 1:
                prev = self._truncations.get(radius - 1)
                if prev is not None:
                    same = all(
                        a.key == b.key
                        for a, b in zip(prev.alcoves, t.alcoves[: len(prev.alcoves)])
                    )
                    if not same:
                        raise AssertionError("truncation ordering lost its prefix property")
            self._truncations[radius] = t
        return self._truncations[radius]

    def table(self, radius: int) -> GermTable:
        if radius not in self._tables:
            self._tables[radius] = GermTable(self, radius)
        return self._tables[radius]

    def predicted_size(self, radius: int) -> int:
        """|T_1| (|T_2| / |T_1|)^(radius - 1), from the tables up to radius 2 only.

        The bundled systems' tables grow by one fixed factor from radius 1
        on, so there the prediction is exact.
        """
        if radius <= 2:
            return len(self.table(radius))
        t1, t2 = len(self.table(1)), len(self.table(2))
        return int(t1 * Fraction(t2, t1) ** (radius - 1))

    def extend_rows(self, parent: np.ndarray, base: np.ndarray, radius: int):
        """(rows, base, parents): every radius-`radius` germ extending the given
        radius-(radius - 1) rows and base classes, and its parent's position in `parent`.

        The parent rows may be any subset of their table, in any order.  The
        extensions of each parent row follow one another in the given order,
        but need not be in lexicographic order among themselves.
        """
        perms = self._perms
        rows = np.zeros((len(parent), 1 + self.truncation(radius).alcove_count()), dtype=self._dtype)
        rows[:, : parent.shape[1]] = parent
        parents = np.arange(len(parent), dtype=np.min_scalar_type(len(parent)))
        for k, prop, star in zip(*self._extension_plan(radius)):
            sig = rows[:, 0]
            if k == 0:
                # the first alcove's chamber lies in the parent's base class
                mask = self._base_cls[perms[sig, 0]] == base[:, None]
                cand = np.broadcast_to(np.arange(mask.shape[1], dtype=self._dtype), mask.shape)
            else:
                if not prop:
                    raise AssertionError(f"alcove {k} has no placed panel neighbour")
                (j, lab), *rest = prop
                # the other chambers of the panel shared with alcove j
                cand = self._others[perms[sig, lab], rows[:, 1 + j]]
                mask = cand >= 0
                for j, lab in rest:
                    t = perms[sig, lab]
                    block = self._block_of[t, rows[:, 1 + j]]
                    mask &= self._block_of[t[:, None], cand] == block[:, None]
                    mask &= cand != rows[:, 1 + j][:, None]
            for j in star:
                mask &= cand != rows[:, 1 + j][:, None]
            counts = np.count_nonzero(mask, axis=1)
            rows = np.repeat(rows, counts, axis=0)
            rows[:, 1 + k] = cand[mask]
            base = np.repeat(base, counts)
            parents = np.repeat(parents, counts)
            del sig, cand, mask, counts  # `sig` views the old rows, which go with it
        return rows, base, parents

    def _extension_plan(self, radius: int):
        """How to place the alcoves of the radius ring, one at a time.

        Returns three aligned lists: the ring alcoves in placement order,
        their already placed panel neighbours as (alcove, relation label)
        pairs, and the placed alcoves sharing only a vertex with them (their
        chambers must differ: vertex-star injectivity).  Each step places an
        alcove with the most placed panel neighbours, so the partial tables
        stay small; every constraint is checked once, at its later alcove.
        """
        if radius not in self._plans:
            trunc = self.truncation(radius)
            stop = trunc.alcove_count(radius)
            rank = self.root_system.rank
            panels: Dict[int, list] = {k: [] for k in range(stop)}
            stars: Dict[int, List[int]] = {}
            for k in range(stop):
                for cotype, nb, panel_types in trunc.adjacency[k]:
                    if 0 <= nb < stop:
                        panels[k].append((nb, panel_types[0] if rank == 1 else cotype))
                for v in trunc.alcoves[k].verts:
                    stars.setdefault(trunc.vertex_index[v], []).append(k)
            placed = set(range(trunc.alcove_count(radius - 1)))
            rest = list(range(len(placed), stop))
            plan = ([], [], [])
            while rest:
                k = max(rest, key=lambda a: sum(nb in placed for nb, _ in panels[a]))
                rest.remove(k)
                prop = [(nb, lab) for nb, lab in panels[k] if nb in placed]
                shared = {
                    j for v in trunc.alcoves[k].verts
                    for j in stars[trunc.vertex_index[v]] if j in placed
                }
                shared.difference_update(nb for nb, _ in prop)
                for part, item in zip(plan, (k, prop, sorted(shared))):
                    part.append(item)
                placed.add(k)
            self._plans[radius] = plan
        return self._plans[radius]

    # -- operations -------------------------------------------------------

    def restrict(self, g: Germ, r: int) -> Germ:
        if r > g.radius:
            raise ValueError("can only restrict to a smaller radius")
        if r == 0:
            return Germ(0, g.sigma_index, (), g.base_id)
        count = self.truncation(g.radius).alcove_count(r)
        return Germ(r, g.sigma_index, g.chambers[:count], g.base_id)

    def shift(self, g: Germ, mu: Coweight) -> Germ:
        """Discard the part of the germ before `mu`: precompose with x + mu."""
        if not mu.dominant:
            raise ValueError("shift needs a dominant coweight")
        if mu.norm > g.radius:
            raise ValueError("insufficient radius for this shift")
        sigma_map, emb, at_mu = self._shift_geometry(g.radius, mu)
        new_sigma = int(sigma_map[g.sigma_index])
        if g.radius == mu.norm:
            return Germ(0, new_sigma, (), self._base_of(new_sigma, g.chambers[at_mu]))
        chambers = tuple(g.chambers[e] for e in emb)
        return Germ(g.radius - mu.norm, new_sigma, chambers, self._base_of(new_sigma, chambers[0]))

    def _base_of(self, sigma_index: int, chamber: int) -> tuple:
        base_type = self.root_system.rotations[sigma_index].perm[0]
        return ("base", base_type, int(self._base_cls[base_type, chamber]))

    def _shift_geometry(self, radius: int, mu: Coweight):
        """(rotation index map, alcove embedding, alcove at mu) of one shift.

        Entry s of the map is the rotation of a shifted germ of rotation s;
        the embedding is `embed_shift`; the alcove at mu is the first
        truncation alcove with mu as a vertex, which carries the image of
        the new base vertex when the shift lands at radius 0 (else None).
        """
        key = (radius, tuple(mu.coords))
        if key not in self._shift_data:
            R = self.root_system
            rho = R.rotation_of(mu)
            sigma_map = [
                R.rotation_index(tuple(rot.perm[t] for t in rho.perm)) for rot in R.rotations
            ]
            trunc = self.truncation(radius)
            at_mu = None
            if radius == mu.norm:
                point = R.coweight_vector(mu)
                at_mu = next((k for k, a in enumerate(trunc.alcoves) if point in a.verts), None)
                if at_mu is None:
                    raise ValueError("point is not a vertex of the truncation")
            sigma_map = np.array(sigma_map, dtype=self._dtype)
            self._shift_data[key] = (sigma_map, embed_shift(R, trunc, mu), at_mu)
        return self._shift_data[key]

    def shift_map(self, radius: int, mu: Coweight) -> np.ndarray:
        """table(radius) -> table(radius - |mu|) position map of the shift."""
        return self.shift_positions(self.table(radius).rows, radius, mu)

    def shift_positions(self, rows: np.ndarray, radius: int, mu: Coweight) -> np.ndarray:
        """Positions in table(radius - |mu|) of the shifts of radius-`radius` germ rows.

        The rows need not come from a built table of that radius.
        """
        dst = self.table(radius - mu.norm)
        sigma_map, emb, at_mu = self._shift_geometry(radius, mu)
        # the query is built in the row dtype, so the lookup copies nothing
        cols = [0, 1 + at_mu] if dst.radius == 0 else np.r_[0, 1 + np.asarray(emb)]
        query = np.take(rows, cols, axis=1)  # C order, unlike rows[:, cols]
        query[:, 0] = sigma_map[query[:, 0]]
        if dst.radius == 0:
            query[:, 1] = self._base_cls[self._perms[query[:, 0], 0], query[:, 1]]
        return dst.lookup(query)

    # -- the explicit metric ------------------------------------------------

    def _cached_plan(self, radius: int, sigma_index: int):
        key = (radius, sigma_index)
        if key not in self._face_plans:
            trunc = self.truncation(radius)
            perm = self.root_system.rotations[sigma_index].perm
            self._face_plans[key] = _face_plan(self.system, trunc, perm)
        return self._face_plans[key]

    def _face_ids(self, g: Germ) -> np.ndarray:
        """Per truncation face, an int that two germs share exactly when they
        agree there: the same image type at each vertex type and the same `_face_id`."""
        if g not in self._germ_face_ids:
            perm = self.root_system.rotations[g.sigma_index].perm
            faces = self.truncation(g.radius).faces
            plan = self._cached_plan(g.radius, g.sigma_index)
            keys = [
                (tuple(perm[t] for t in f.types), _face_id(self.system, entry, g.chambers))
                for f, entry in zip(faces, plan)
            ]
            self._germ_face_ids[g] = np.array(
                [self._interned.setdefault(k, len(self._interned)) for k in keys]
            )
        return self._germ_face_ids[g]

    def distance(self, g1: Germ, g2: Germ):
        """Region-growing distance between two germs of equal radius.

        Returns (DistanceResult, value) where the value is (1/2)^k, or
        (1/2)^radius as an upper bound when the germs coincide on the whole
        truncation (the sentinel case): the one pair of `region_distances`.
        """
        n = g1.radius
        levels, region = self.region_distances([g1], [g2])
        k, *kdir = [SENTINEL if v > n else v for v in levels[:, 0, 0].tolist()]
        result = DistanceResult(k, tuple(kdir), frozenset(np.flatnonzero(region[0, 0]).tolist()))
        return result, Fraction(1, 2) ** (n if k is SENTINEL else k)

    def region_distances(self, left: List[Germ], right: List[Germ]):
        """(levels, region) of every pair (left[a], right[b]) of radius-n germs:
        levels[:, a, b] is k then each k_i, with n + 1 for the sentinel, and
        region[a, b] masks the faces of the pair's agreement component.

        The agreement masks compare the interned `_face_ids`, and the
        component grows from the base face over the face cover relation to a
        fixpoint.  k is the norm of the first coweight vertex outside it, and
        k_i the first ell whose ray vertex ell * w_i is; a ray face index past
        the last face counts as outside.
        """
        if len({g.radius for g in left + right}) > 1:
            raise ValueError("germs must have the same radius")
        n, trunc = left[0].radius, self.truncation(left[0].radius)
        ids = [np.array([self._face_ids(g) for g in side]) for side in (left, right)]
        agree = ids[0][:, None] == ids[1][None, :]
        region = np.zeros_like(agree)
        region[..., trunc.base_face] = agree[..., trunc.base_face]
        while not np.array_equal(region, grown := agree & (region | region @ self._cover(trunc))):
            region = grown
        # an appended column outside the region stands for every index past the last face
        outside = np.pad(~region, [(0, 0), (0, 0), (0, 1)], constant_values=True)
        ends = len(trunc.faces)
        norms, verts = zip(*[(norm, trunc.face_index[(v,)]) for _, norm, v in trunc.coweight_vertices])
        return np.array([
            np.r_[values, n + 1][outside[..., np.minimum(np.r_[faces, ends], ends)].argmax(axis=-1)]
            for faces, values in [(verts, norms)] + [(r, range(len(r))) for r in self._ray_faces(n)]
        ]), region

    def _ray_faces(self, radius: int) -> List[List[int]]:
        """Per direction i, the face indices of the vertices ell * w_i inside the truncation."""
        if radius not in self._ray_face_lists:
            R = self.root_system
            trunc = self.truncation(radius)
            rays = []
            for i in range(R.rank):
                ray = []
                for ell in range(radius + 1):
                    v = R.coweight_vector(
                        Coweight(tuple(ell if j == i else 0 for j in range(R.rank)))
                    )
                    if v not in trunc.vertex_index:
                        break
                    ray.append(trunc.face_index[(trunc.vertex_index[v],)])
                rays.append(ray)
            self._ray_face_lists[radius] = rays
        return self._ray_face_lists[radius]

    def _cover(self, trunc: TruncatedSector) -> np.ndarray:
        """(faces, faces) boolean matrix: whether one face is a facet of the other."""
        if trunc.radius not in self._covers:
            cover = np.zeros((len(trunc.faces), len(trunc.faces)), dtype=bool)
            for fi, f in enumerate(trunc.faces):
                for drop in range(len(f.vidx) if len(f.vidx) > 1 else 0):
                    si = trunc.face_index[tuple(v for j, v in enumerate(f.vidx) if j != drop)]
                    cover[fi, si] = cover[si, fi] = True
            self._covers[trunc.radius] = cover
        return self._covers[trunc.radius]


def germs_json_chunks(table: GermTable) -> Iterator[str]:
    """The table as a germs/v1 document, in chunks rendered from its rows.

    The text equals `dumps_canonical` of the document
    {"format", "radius", "count", "germs": [{"sigma", "chambers"}, ...]},
    but no per-germ object is made: each chunk is one `%` format of a fixed
    per-row template over the chunk's integers, chambers first, with as many
    rows as fit _GERM_CHUNK_BYTES of template.  So a chunk's text, integers
    and template stay near that budget, and the table sets the peak.
    """
    width = table.rows.shape[1]
    chambers = ",\n".join(["    %d"] * (width - 1))
    row = '  {\n   "chambers": ' + (f"[\n{chambers}\n   ]" if chambers else "[]")
    row += ',\n   "sigma": %d\n  }'
    columns = list(range(1, width)) + [0]
    step = max(1, min(len(table), _GERM_CHUNK_BYTES // len(row)))
    full = ",\n".join([row] * step)

    def chunks():
        for start in range(0, len(table), step):
            block = table.rows[start : start + step, columns]
            template = full if len(block) == step else ",\n".join([row] * len(block))
            yield template % tuple(block.ravel().tolist())

    head = {"format": "germs/v1", "radius": table.radius, "count": len(table)}
    return stream_canonical(head, "germs", chunks())
