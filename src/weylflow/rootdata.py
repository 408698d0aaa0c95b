"""Exact root-system data for the supported affine types, in Python ints.

Everything here is combinatorial geometry over the rationals: simple and
positive roots, fundamental coweights, the affine reflection arrangement,
alcove walks, truncations of the dominant sector, and the type rotations
induced by coweight translations.  It is computed in integers:

- Every point (the coweights, `coweight_vector`, alcove vertices) is an int
  tuple equal to `RootSystem.scale` = D times its ambient coordinates.  D is
  the lcm of the denominators of the fundamental alcove's vertices (A1~ 1,
  BC1~ 2, A2~ 3, B2~ 2, G2~ 6); every vertex of the arrangement lies in
  (1/D) Z^dim, so the scaled vertices are integers.
- Roots are the integer vectors of the realization, unscaled.  They act as
  linear forms, so <alpha, X> is D times the ambient pairing and the wall
  {<alpha, x> = k} is {<alpha, X> = kD}.
- Every division is exact: it raises ArithmeticError on a remainder, never
  rounds.
- Scaling by D > 0 keeps every order the library relies on: the
  lexicographic vertex order inside an alcove key, and the truncation order,
  whose barycenter tie-break becomes the order of vertex sums (the
  barycenter times the vertex count).

Every region the library cuts from the arrangement is a box: bounds
lo <= <alpha, X> <= hi over the positive roots, hi None for none.  The
truncation hull of Y_n, the hull of {0, lambda}, the translated sector
mu + S_0 and the hull of a minimal walk are boxes; `within` is the one
membership test and `_search` the one breadth-first search of alcoves.

Supported kinds (the exact strings used in file formats and CLI flags):

    "A1~"   rank 1, reduced          (homogeneous trees)
    "BC1~"  rank 1, non-reduced      (biregular trees)
    "A2~"   rank 2                   (triangle buildings)
    "B2~"   rank 2                   (also covers the C2 convention)
    "G2~"   rank 2

The ambient realizations are fixed once and for all: A-type and G2 live in
the sum-zero subspace of Q^3, rank-1 types and B2 in Q^1 / Q^2.  Only the
combinatorics (adjacency, wall crossings, vertex types) feed the rest of
the library, so any other rational realization would give identical
results.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

Vec = tuple  # tuple[int, ...]

KINDS = ("A1~", "BC1~", "A2~", "B2~", "G2~")

#: Sentinel for an infinite entry of the Coxeter matrix.
INFINITE = None

# m_ij from the Cartan product a_ij * a_ji = 4 cos^2(pi / m_ij) of two roots
_COXETER_ORDER = {0: 2, 1: 3, 2: 4, 3: 6, 4: INFINITE}


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not a multiple of {b}")
    return q


@dataclass(frozen=True)
class Coweight:
    """Integer coordinates in the fundamental-coweight basis."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(a) for a in self.coords))

    @property
    def norm(self) -> int:
        return sum(abs(a) for a in self.coords)

    @property
    def dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)

    @property
    def strongly_dominant(self) -> bool:
        return all(a >= 1 for a in self.coords)

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Coweight":
        return Coweight(tuple(-a for a in self.coords))


def fundamental_coweights(rank: int) -> list[Coweight]:
    """The fundamental coweights w_1, ..., w_rank, the default generator family."""
    return [Coweight(tuple(1 if j == i else 0 for j in range(rank))) for i in range(rank)]


class TypeRotation(NamedTuple):
    """Permutation of the type set induced by a coweight translation."""

    perm: tuple
    rep: tuple  # coordinates of a coweight inducing the permutation

    def __call__(self, i: int) -> int:
        return self.perm[i]


class Alcove(NamedTuple):
    """A top-dimensional cell of the affine arrangement.

    Vertices are kept lexicographically sorted, with `types` aligned to
    `verts`, so the vertex tuple is a canonical key.
    """

    verts: tuple  # tuple[Vec, ...], sorted
    types: tuple  # tuple[int, ...], aligned with verts

    @property
    def key(self):
        return self.verts

    def vertex_sum(self) -> Vec:
        """The barycenter times the vertex count: same order, same wall sides."""
        return tuple(map(sum, zip(*self.verts)))


def _make_alcove(pairs) -> Alcove:
    pairs = sorted(pairs, key=lambda p: p[0])
    return Alcove(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


_SIMPLE_DATA = {
    # kind -> (ambient dim, simple roots, positive roots as coefficient tuples)
    "A1~": (1, [(1,)], [(1,)]),
    "BC1~": (1, [(1,)], [(1,), (2,)]),
    "A2~": (3, [(1, -1, 0), (0, 1, -1)], [(1, 0), (0, 1), (1, 1)]),
    "B2~": (2, [(1, -1), (0, 1)], [(1, 0), (0, 1), (1, 1), (1, 2)]),
    "G2~": (
        3,
        [(1, -1, 0), (-1, 2, -1)],
        [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)],
    ),
}


class RootSystem:
    """Exact realization of one irreducible (possibly non-reduced) system.

    The index set is I = {0, ..., rank}; node 0 is the affine node attached
    through the reflection in the wall {<highest_root, x> = 1}.  Points are
    scaled by `scale` (see the module docstring).
    """

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unsupported root system kind: {kind!r}")
        self.kind = kind
        dim, simples, pos_coeffs = _SIMPLE_DATA[kind]
        self.dim = dim
        self.rank = len(simples)
        self.index_set = tuple(range(self.rank + 1))
        self.simple_roots = list(simples)
        self.positive_roots = [
            tuple(sum(c * b[k] for c, b in zip(cs, simples)) for k in range(dim))
            for cs in pos_coeffs
        ]
        hi = max(range(len(pos_coeffs)), key=lambda t: sum(pos_coeffs[t]))
        self.highest_root = self.positive_roots[hi]
        self.marks = tuple(int(c) for c in pos_coeffs[hi])
        self.scale, self.coweights = self._scaled_coweights()
        # vertices of the fundamental alcove, position t holding type t
        self._c0 = [(0,) * dim] + [
            tuple(_exact_div(x, m) for x in w) for w, m in zip(self.coweights, self.marks)
        ]
        self._base = _make_alcove([(v, t) for t, v in enumerate(self._c0)])
        self.coxeter_matrix = self._coxeter_matrix()
        self.rotations = self._type_rotations()

    # ------------------------------------------------------------------
    # construction helpers

    def _scaled_coweights(self):
        """(D, [D w_i]): the basis dual to the simple roots, times the scale D."""
        gram = [[dot(a, b) for b in self.simple_roots] for a in self.simple_roots]
        # w_i = sum_j (gram^-1)_ij alpha_j, and gram^-1 = adj / det in rank <= 2
        if self.rank == 1:
            adj, det = [[1]], gram[0][0]
        else:
            (a, b), (c, d) = gram
            adj, det = [[d, -b], [-c, a]], a * d - b * c
        nums = [
            tuple(sum(c * s[k] for c, s in zip(row, self.simple_roots)) for k in range(self.dim))
            for row in adj
        ]
        # vertex i of the fundamental alcove is nums[i] / (det * m_i)
        scale = math.lcm(*(det * m // math.gcd(det * m, *v) for v, m in zip(nums, self.marks)))
        return scale, [tuple(_exact_div(x * scale, det) for x in v) for v in nums]

    def _coxeter_matrix(self):
        # node 0 reflects in a wall orthogonal to the highest root
        roots = [self.highest_root] + self.simple_roots
        mat = [[1] * len(roots) for _ in roots]
        for i, j in itertools.combinations(range(len(roots)), 2):
            a, b = roots[i], roots[j]
            cartan = _exact_div(4 * dot(a, b) ** 2, dot(a, a) * dot(b, b))
            mat[i][j] = mat[j][i] = _COXETER_ORDER[cartan]
        return tuple(tuple(row) for row in mat)

    def _small_coweight_coords(self):
        rng = range(0, 3)
        return [c for c in itertools.product(rng, repeat=self.rank) if sum(c) <= 2]

    def _type_rotations(self):
        seen = {}
        for coords in self._small_coweight_coords():
            mu = Coweight(coords)
            v = self.coweight_vector(mu)
            perm = tuple(self.vertex_type(vadd(u, v)) for u in self._c0)
            if perm not in seen or sum(coords) < sum(seen[perm]):
                seen[perm] = coords
        rots = [TypeRotation(p, seen[p]) for p in seen]
        rots.sort(key=lambda r: (r.perm != tuple(self.index_set), r.perm))
        perms = {r.perm for r in rots}
        for a in rots:  # the permutations must form a group
            for b in rots:
                comp = tuple(a.perm[b.perm[i]] for i in self.index_set)
                if comp not in perms:
                    raise AssertionError("type rotations do not close under composition")
        # a rotation is recovered from the image of the base type; the germ
        # machinery relies on this to compare germs with unequal rotations
        if len({r.perm[0] for r in rots}) != len(rots):
            raise AssertionError("type rotations not separated by the base type")
        return rots

    def rotation_index(self, perm) -> int:
        for k, r in enumerate(self.rotations):
            if r.perm == tuple(perm):
                return k
        raise KeyError(f"not a type rotation: {perm}")

    def rotation_of(self, mu: Coweight) -> TypeRotation:
        """The type rotation induced by translation by `mu`."""
        v = self.coweight_vector(mu)
        perm = tuple(self.vertex_type(vadd(u, v)) for u in self._c0)
        return self.rotations[self.rotation_index(perm)]

    # ------------------------------------------------------------------
    # coweights and vertex types

    def coweight_vector(self, mu: Coweight) -> Vec:
        """D times the ambient point of `mu`."""
        return tuple(
            sum(a * w[k] for a, w in zip(mu.coords, self.coweights)) for k in range(self.dim)
        )

    def coweight_coords(self, v: Vec):
        """D times the coordinates of `v` in the coweight basis (pairings with simples)."""
        return tuple(dot(v, b) for b in self.simple_roots)

    def coweight_at(self, v: Vec) -> Optional[Coweight]:
        cs = self.coweight_coords(v)
        if any(c % self.scale for c in cs):
            return None
        mu = Coweight(tuple(c // self.scale for c in cs))
        return mu if self.coweight_vector(mu) == v else None

    def fundamental_alcove(self) -> Alcove:
        return self._base

    def wall_through(self, points: Sequence[Vec]):
        """The arrangement hyperplane {<alpha, X> = K} containing all `points`.

        K = <alpha, X> on the wall is D times its integer level.
        """
        for alpha in self.positive_roots:
            k = dot(alpha, points[0])
            if k % self.scale == 0 and all(dot(alpha, p) == k for p in points[1:]):
                return alpha, k
        raise ValueError("points do not span an arrangement wall")

    def reflect_point(self, alpha: Vec, k: int, x: Vec) -> Vec:
        """x - (<alpha, x> - K) 2 alpha / <alpha, alpha>, in exact integers."""
        t = 2 * (dot(alpha, x) - k)
        norm = dot(alpha, alpha)
        return tuple(xi - _exact_div(t * ai, norm) for xi, ai in zip(x, alpha))

    def neighbor(self, a: Alcove, drop: int) -> Alcove:
        """The alcove across the panel obtained by dropping vertex `drop`."""
        panel = [v for j, v in enumerate(a.verts) if j != drop]
        alpha, k = self.wall_through(panel)
        new = self.reflect_point(alpha, k, a.verts[drop])
        pairs = [(v, t) for j, (v, t) in enumerate(zip(a.verts, a.types)) if j != drop]
        pairs.append((new, a.types[drop]))
        return _make_alcove(pairs)

    def vertex_type(self, x: Vec) -> int:
        """Type of an arrangement vertex, found by walking an alcove to it."""
        a = self.fundamental_alcove()
        guard = 0
        while x not in a.verts:
            guard += 1
            if guard > 10000:
                raise RuntimeError("vertex walk did not terminate")
            total, n = a.vertex_sum(), len(a.verts)
            for drop in range(n):
                alpha, k = self.wall_through([v for j, v in enumerate(a.verts) if j != drop])
                # the barycenter total / n lies on the side of <alpha, total> - n K
                if (dot(alpha, total) - n * k) * (dot(alpha, x) - k) < 0:
                    a = self.neighbor(a, drop)
                    break
            else:
                raise ValueError(f"{x} is not a vertex of the arrangement")
        return a.types[a.verts.index(x)]


_ROOT_CACHE = {}


def build_root_system(kind: str) -> RootSystem:
    """Construct (and cache) the root-system data for one supported kind."""
    if kind not in _ROOT_CACHE:
        _ROOT_CACHE[kind] = RootSystem(kind)
    return _ROOT_CACHE[kind]


# ----------------------------------------------------------------------
# parameter systems


class ParameterSystem:
    """Thickness parameters q_i > 0 per type, with the regularity constraints.

    q_i = q_j is forced whenever the Coxeter entry m_ij is odd and finite,
    and q_i = q_{sigma(i)} for every type rotation sigma.
    """

    def __init__(self, R: RootSystem, q):
        self.R = R
        if isinstance(q, int):
            q = {i: q for i in R.index_set}
        self.q = {int(i): int(q[i]) for i in sorted(q)}
        if set(self.q) != set(R.index_set):
            raise ValueError("parameter system must cover every type")
        if any(v < 1 for v in self.q.values()):
            raise ValueError("parameters must be positive")
        M = R.coxeter_matrix
        for i in R.index_set:
            for j in R.index_set:
                m = M[i][j]
                if i != j and m is not INFINITE and m % 2 == 1 and self.q[i] != self.q[j]:
                    raise ValueError(f"odd Coxeter entry m[{i}][{j}]={m} forces q_{i} = q_{j}")
        for rot in R.rotations:
            for i in R.index_set:
                if self.q[i] != self.q[rot(i)]:
                    raise ValueError("parameters must be constant on rotation orbits")

    def __getitem__(self, i: int) -> int:
        return self.q[i]

    def as_dict(self):
        return dict(self.q)


# ----------------------------------------------------------------------
# regions of the arrangement


def within(R: RootSystem, points, box) -> bool:
    """Whether every point X has lo <= <alpha, X> <= hi in the `box`.

    A box is a list of (lo, hi) pairs aligned with `R.positive_roots`, in
    the scaled pairing; hi None means no upper bound.
    """
    for alpha, (lo, hi) in zip(R.positive_roots, box):
        for x in points:
            d = dot(alpha, x)
            if d < lo or (hi is not None and d > hi):
                return False
    return True


def _search(R: RootSystem, box):
    """Breadth-first search of the alcoves in `box` from the fundamental one.

    Returns (the distance of each alcove by key, in search order; the
    alcoves by key; each alcove's neighbours in drop order, those outside
    the box included).  All three are empty if the box misses the
    fundamental alcove.
    """
    start = R.fundamental_alcove()
    if not within(R, start.verts, box):
        return {}, {}, {}
    dist = {start.key: 0}
    alcoves = {start.key: start}
    neighbors = {}
    fringe = deque([start])
    while fringe:
        a = fringe.popleft()
        neighbors[a.key] = [R.neighbor(a, drop) for drop in range(len(a.verts))]
        for b in neighbors[a.key]:
            if b.key not in dist and within(R, b.verts, box):
                dist[b.key] = dist[a.key] + 1
                alcoves[b.key] = b
                fringe.append(b)
    return dist, alcoves, neighbors


# ----------------------------------------------------------------------
# alcove walks and translation parameters


@functools.lru_cache(maxsize=256)
def _minimal_walk_data(R: RootSystem, mu: Coweight):
    """BFS between the base alcove and its translate by `mu`.

    Returns (distance map, predecessor lists with crossing labels, start, goal);
    the distance map lists the alcoves in BFS order.  Minimal galleries
    between the two alcoves stay inside the convex hull of their union, so
    the search is restricted to that finite box.  Results are cached (root
    systems are built once per kind) and callers only read them.
    """
    tv = R.coweight_vector(mu)
    start = R.fundamental_alcove()
    goal = _make_alcove([(vadd(v, tv), t) for v, t in zip(start.verts, start.types)])
    # the hull is bounded by arrangement walls, so its caps round outward
    # to multiples of D
    box = []
    for alpha in R.positive_roots:
        t = dot(alpha, tv)
        lo, hi = min(0, t), max(0, t) + max(dot(alpha, v) for v in R._c0)
        box.append((lo - lo % R.scale, hi + (-hi) % R.scale))
    dist, alcoves, neighbors = _search(R, box)
    if goal.key not in dist:
        raise RuntimeError("translation walk failed to reach its target")
    # in search order, so each list keeps the order the predecessors were met
    preds = {key: [] for key in dist}
    for key, d in dist.items():
        # the label of a crossing is the cotype of the crossed panel
        for b, label in zip(neighbors[key], alcoves[key].types):
            if dist.get(b.key) == d + 1:
                preds[b.key].append((key, label))
    return dist, preds, start, goal


def minimal_walk_types(R: RootSystem, mu: Coweight):
    """Crossing cotypes of one minimal alcove walk to the translated alcove.

    Any coweight works; `translation_parameter` requires a dominant one.
    """
    dist, preds, start, goal = _minimal_walk_data(R, mu)
    labels = []
    cur = goal.key
    while cur != start.key:
        prev, label = preds[cur][0]
        labels.append(label)
        cur = prev
    labels.reverse()
    return labels


def all_minimal_walk_products(R: RootSystem, q: ParameterSystem, mu: Coweight):
    """Set of q-products over *all* minimal walks (should be a singleton)."""
    dist, preds, start, goal = _minimal_walk_data(R, mu)
    products = {start.key: {1}}
    # in BFS order every predecessor, one layer closer, comes first
    for key in itertools.islice(dist, 1, None):
        products[key] = {p * q[label] for prev, label in preds[key] for p in products[prev]}
        if key == goal.key:
            break
    return products[goal.key]


def translation_parameter(R: RootSystem, q: ParameterSystem, mu: Coweight) -> int:
    """q-product along one minimal alcove walk to the mu-translated alcove.

    This is the number of chambers at the corresponding gallery position,
    hence also the preimage count of the shift by `mu` on sectors.
    """
    if not mu.dominant:
        raise ValueError("coweight must be dominant")
    out = 1
    for label in minimal_walk_types(R, mu):
        out *= q[label]
    return out


# ----------------------------------------------------------------------
# truncated sectors


class Face(NamedTuple):
    """A face of the truncation, identified by its sorted vertex indices."""

    vidx: tuple       # vertex indices, sorted
    types: tuple      # aligned vertex types
    anchor: int       # lowest incident alcove index


class TruncatedSector:
    """All alcoves of the dominant sector inside the hull of Y_n.

    Y_n is the set of dominant coweights of norm at most n and the hull is
    cut out by the inequalities 0 <= <alpha, x> <= n * max_i <alpha, w_i>
    over positive roots alpha.  Alcoves are ordered by (entry radius,
    gallery distance from the base alcove, vertex sum), which makes the
    alcove list of a smaller radius a prefix of a larger one; the vertex sum
    orders like the barycenter.
    """

    def __init__(self, R: RootSystem, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.R = R
        self.radius = radius
        self._cstar = [
            max(dot(alpha, w) for w in R.coweights) for alpha in R.positive_roots
        ]
        neighbors = self._enumerate()
        self._index_vertices()
        self._build_adjacency(neighbors)
        self._build_faces()

    # -- enumeration ----------------------------------------------------

    def _entry_radius(self, a: Alcove) -> int:
        """The least radius whose hull holds `a`."""
        return max(
            -(-max(dot(alpha, v) for v in a.verts) // c)  # ceil
            for alpha, c in zip(self.R.positive_roots, self._cstar)
        )

    def _enumerate(self):
        """Order the alcoves; return each one's neighbours across its panels."""
        # radius 0 gives the box 0 <= <alpha, x> <= 0, which holds no alcove
        box = [(0, self.radius * c) for c in self._cstar]
        dist, store, neighbors = _search(self.R, box)
        entry = {key: self._entry_radius(a) for key, a in store.items()}
        self.alcoves = sorted(
            store.values(), key=lambda a: (entry[a.key], dist[a.key], a.vertex_sum())
        )
        self.entry_radius = [entry[a.key] for a in self.alcoves]
        self.count_at_radius = [
            sum(1 for r in self.entry_radius if r <= k) for k in range(self.radius + 1)
        ]
        return neighbors

    # -- vertices and adjacency -----------------------------------------

    def _index_vertices(self):
        self.vertex_index = {}
        self.vertices = []
        for a in self.alcoves:
            for v in a.verts:
                if v not in self.vertex_index:
                    self.vertex_index[v] = len(self.vertices)
                    self.vertices.append(v)
        self.coweight_vertices = []
        for idx, v in enumerate(self.vertices):
            cw = self.R.coweight_at(v)
            if cw is not None and cw.dominant:
                self.coweight_vertices.append((cw, cw.norm, idx))
        self.coweight_vertices.sort(key=lambda t: (t[1], t[0].coords))

    def _build_adjacency(self, neighbors):
        """Per alcove and panel: (cotype, neighbour index or -1 if outside, panel types)."""
        key_to_idx = {a.key: i for i, a in enumerate(self.alcoves)}
        self.adjacency = []
        for a in self.alcoves:
            row = []
            for drop, b in enumerate(neighbors[a.key]):
                panel_types = tuple(t for j, t in enumerate(a.types) if j != drop)
                row.append((a.types[drop], key_to_idx.get(b.key, -1), panel_types))
            self.adjacency.append(tuple(row))

    def _build_faces(self):
        seen = {}
        faces = []
        for ai, a in enumerate(self.alcoves):
            idxs = [self.vertex_index[v] for v in a.verts]
            m = len(idxs)
            for size in range(1, m + 1):
                for sub in itertools.combinations(range(m), size):
                    key = tuple(sorted(idxs[j] for j in sub))
                    if key in seen:
                        continue
                    seen[key] = len(faces)
                    order = sorted(sub, key=lambda j: idxs[j])
                    faces.append(
                        Face(
                            vidx=key,
                            types=tuple(a.types[j] for j in order),
                            anchor=ai,
                        )
                    )
        self.faces = faces
        self.face_index = seen
        # the face of the base vertex, where the distance grows its agreement region
        zero = (0,) * self.R.dim
        self.base_face = seen[(self.vertex_index[zero],)] if self.alcoves else None

    # -- derived data -----------------------------------------------------

    def alcove_count(self, radius: Optional[int] = None) -> int:
        if radius is None:
            return len(self.alcoves)
        if radius > self.radius:
            raise ValueError("radius exceeds the truncation")
        return self.count_at_radius[radius]

    def faces_within(self, bound_vec: Vec):
        """Indices of faces inside the hull of {0, bound_vec}."""
        box = [(0, dot(alpha, bound_vec)) for alpha in self.R.positive_roots]
        return [
            fi for fi, f in enumerate(self.faces)
            if within(self.R, [self.vertices[vi] for vi in f.vidx], box)
        ]

    def alcoves_within(self, corner: Vec):
        """Indices of alcoves inside the translated sector corner + S_0."""
        box = [(dot(alpha, corner), None) for alpha in self.R.positive_roots]
        return [k for k, a in enumerate(self.alcoves) if within(self.R, a.verts, box)]


def truncated_sector(R: RootSystem, radius: int) -> TruncatedSector:
    """Enumerate the radius-n truncation of the dominant sector."""
    return TruncatedSector(R, radius)


def embed_shift(R: RootSystem, trunc: TruncatedSector, mu: Coweight):
    """Index map sending alcoves of the radius-(n-|mu|) truncation into
    `trunc` by translation by `mu`.

    Entry j of the result is the index inside `trunc` of (alcove j) + mu.
    """
    if not mu.dominant:
        raise ValueError("coweight must be dominant")
    small_radius = trunc.radius - mu.norm
    if small_radius < 0:
        raise ValueError("truncation radius too small for this shift")
    tv = R.coweight_vector(mu)
    key_to_idx = {a.key: i for i, a in enumerate(trunc.alcoves)}
    # a translation keeps the vertex order, so the shifted key needs no sort
    return [
        key_to_idx[tuple(vadd(v, tv) for v in a.verts)]
        for a in trunc.alcoves[: trunc.alcove_count(small_radius)]
    ]
