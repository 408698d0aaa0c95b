"""Transfer operators on the finite spaces F_n of germ functions.

F_n is spanned by the indicator functions of radius-n germ classes.  The
operator for a dominant coweight mu averages a function over the M_mu
preimages of the shift by mu; on F_n it becomes an exact rational matrix
whose entries are integer counts divided by M_mu.  The counts are taken
over radius-(n+|mu|) germs, fibered by (shift, restriction):

    entry[h][g] = #{G : shift(G, mu) = h and G|_n = g} / M_mu

Row sums must equal M_mu exactly; a violation aborts, since it would mean
the germ tables are inconsistent with the preimage count.

The Lipschitz seminorm of an F_n function is computed exactly: pairs of
distinct germ classes always resolve their distance within the truncation,
and pairs in the same class contribute nothing.  The kernel works on a whole
integer matrix at once: for each level m it sorts the rows by their
radius-(m-1) class, takes the per-class value range of every column with
integer max/min `reduceat`, and forms one rational spread_m / (denom *
theta^m) per level and column.

Assembly groups the big germs with array operations: group ids from the
rows' plug-alcove columns, group sizes from `bincount` and the nonzero
count vectors from the distinct (group, column) cells, so no dense
(groups x dim) array is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .rootdata import Coweight, translation_parameter
from .sectors import SectorSpace, byte_keys


@dataclass
class TransferMatrix:
    """Exact matrix of one transfer operator on F_n."""

    mu: Coweight
    radius: int
    counts: np.ndarray  # integer preimage counts, shape (dim, dim)
    m_mu: int

    @property
    def dim(self) -> int:
        return self.counts.shape[0]

    def entry(self, h: int, g: int) -> Fraction:
        return Fraction(int(self.counts[h, g]), self.m_mu)

    def dense(self) -> np.ndarray:
        return self.counts.astype(np.float64) / self.m_mu

    def row_sums_ok(self) -> bool:
        return bool(np.all(self.counts.sum(axis=1) == self.m_mu))


def transfer_matrix(
    space: SectorSpace, mu: Coweight, radius: int, depth: Optional[int] = None
) -> TransferMatrix:
    """Assemble the transfer matrix for `mu` on F_radius.

    A preimage of a sector is pinned on the whole translated sector, so
    inside a radius-N truncation (N = radius + |mu| + depth) it is pinned on
    the intersection with mu + S_0.  The radius-N germs are grouped by that
    restriction; each group is a finite disjoint union of preimage-germ sets
    of individual sectors, and every such set carries the same count vector
    because the operator respects the radius-`radius` classes.  The group
    totals must therefore be a single multiple lambda * M_mu across all
    groups, with every group vector divisible by lambda; the preimage counts
    are the quotients.  Any gate failure escalates the depth and ultimately
    aborts, since it would falsify the counting model.
    """
    if radius < 1:
        raise ValueError("transfer matrices need radius >= 1")
    if not mu.dominant:
        raise ValueError("transfer operators are indexed by dominant coweights")
    depths = (depth,) if depth is not None else (0, 1, 2)
    last_error = None
    for d in depths:
        try:
            return _transfer_matrix_at_depth(space, mu, radius, d)
        except CountingError as exc:
            last_error = exc
    raise CountingError(
        f"preimage counting failed for mu={tuple(mu.coords)} on F_{radius}: {last_error}"
    )


class CountingError(RuntimeError):
    """The preimage counts of a transfer operator came out irregular."""


def _transfer_matrix_at_depth(
    space: SectorSpace, mu: Coweight, radius: int, depth: int
) -> TransferMatrix:
    from .rootdata import dot, vsub

    R = space.root_system
    big_radius = radius + mu.norm + depth
    big = space.table(big_radius)
    small = space.table(radius)
    m_mu = translation_parameter(R, space.system.params, mu)
    shifted = space.shift_map(big_radius, mu)  # radius big_radius - |mu|
    rows = space.table(big_radius - mu.norm).restriction_map(radius)[shifted]
    cols = big.restriction_map(radius)
    tv = R.coweight_vector(mu)
    plug_alcoves = [
        k
        for k, a in enumerate(big.trunc.alcoves)
        if all(dot(beta, vsub(v, tv)) >= 0 for v in a.verts for beta in R.simple_roots)
    ]
    dim = len(small)

    # group the big germs by (rotation, chambers on the plug alcoves)
    plug = big.rows[:, [0] + [1 + k for k in plug_alcoves]]
    _, first, gid = np.unique(byte_keys(plug), return_index=True, return_inverse=True)
    group_row = rows[first]
    sizes = np.bincount(gid)
    if sizes.min() != sizes.max():
        raise CountingError(
            f"conditioning groups have mixed sizes {np.unique(sizes).tolist()}"
        )
    total = int(sizes[0])
    if total % m_mu != 0:
        raise CountingError(
            f"group size {total} is not a multiple of M_mu={m_mu}"
        )
    lam = total // m_mu

    # the nonzero entries of every group vector, one (group, column) each
    cells, hits = np.unique(gid * dim + cols, return_counts=True)
    if np.any(hits % lam != 0):
        raise CountingError(
            "group counts are not uniform over the preimage multiplicity"
        )
    group, col, value = cells // dim, cells % dim, hits // lam
    h = group_row[group]
    # the first group of each class fills its row; every other must equal it
    classes, leaders = np.unique(group_row, return_index=True)
    lead = np.zeros(len(first), dtype=bool)
    lead[leaders] = True
    sel = lead[group]
    counts = np.zeros((dim, dim), dtype=np.int64)
    counts[h[sel], col[sel]] = value[sel]
    row_nnz = np.bincount(h[sel], minlength=dim)
    group_nnz = np.bincount(group, minlength=len(first))
    differs = (counts[h, col] != value) | (group_nnz[group] != row_nnz[h])
    if np.any(differs):
        raise CountingError(
            f"preimage counts at class {h[np.argmax(differs)]} depend on the representative"
        )
    if len(classes) != dim:
        raise CountingError("some classes received no conditioning group")
    return TransferMatrix(mu, radius, counts, m_mu)


def apply(tm: TransferMatrix, phi: Sequence) -> List[Fraction]:
    """Exact matrix-vector product for rational (or integer) vectors."""
    if len(phi) != tm.dim:
        raise ValueError("dimension mismatch")
    out = []
    for h in range(tm.dim):
        acc = Fraction(0)
        row = tm.counts[h]
        for g in np.nonzero(row)[0]:
            acc += Fraction(int(row[g])) * Fraction(phi[int(g)])
        out.append(acc / tm.m_mu)
    return out


def pi_projection(space: SectorSpace, phi: Sequence, m: int, n: int) -> List:
    """Project an F_m vector to F_n by sampling canonical representatives.

    The value on a radius-n class is the value of `phi` at the smallest
    radius-m class restricting to it.
    """
    if n >= m:
        raise ValueError("projection goes to a strictly smaller radius")
    big = space.table(m)
    small = space.table(n)
    if len(phi) != len(big):
        raise ValueError("dimension mismatch")
    restr = big.restriction_map(n)
    rep = {}
    for pos in range(len(big)):
        cls = int(restr[pos])
        if cls not in rep:
            rep[cls] = pos
    return [phi[rep[c]] for c in range(len(small))]


def lift_to(space: SectorSpace, phi: Sequence, n: int, m: int) -> List:
    """View an F_n vector inside F_m (constant on restriction fibers)."""
    if m < n:
        raise ValueError("lift goes to a larger radius")
    big = space.table(m)
    restr = big.restriction_map(n)
    return [phi[int(restr[pos])] for pos in range(len(big))]


def sup_norm(phi: Sequence) -> Fraction:
    return max((abs(Fraction(x)) for x in phi), default=Fraction(0))


def lipschitz_seminorms(
    space: SectorSpace, counts: np.ndarray, denom: int, n: int, theta: Fraction
) -> List[Fraction]:
    """Exact Lipschitz seminorm of every column of `counts / denom` on F_n.

    Pairs at first-disagreement norm m contribute |dphi| / theta^m; the
    largest value range inside one radius-(m-1) class realizes the supremum
    over those pairs, because any two of its members disagree at norm >= m
    (level 0 is the whole space).  The ranges come from integer
    `reduceat` over class-sorted rows, so the only rationals are the
    (n+1) * columns final quotients spread_m / (denom * theta^m).
    """
    table = space.table(n)
    theta = Fraction(theta)
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != len(table):
        raise ValueError("dimension mismatch")
    spreads = [counts.max(axis=0) - counts.min(axis=0)]
    for m in range(1, n + 1):
        cls = table.restriction_map(m - 1)
        order = np.argsort(cls, kind="stable")
        ranked = cls[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        rows = counts[order]
        ranges = np.maximum.reduceat(rows, starts, axis=0) - np.minimum.reduceat(
            rows, starts, axis=0
        )
        spreads.append(ranges.max(axis=0))
    scales = [denom * theta**m for m in range(n + 1)]
    return [
        max(Fraction(int(spread[c])) / scale for spread, scale in zip(spreads, scales))
        for c in range(counts.shape[1])
    ]


def lipschitz_seminorm(space: SectorSpace, phi: Sequence, n: int, theta: Fraction) -> Fraction:
    """Exact Lipschitz seminorm of a real rational F_n vector.

    Clears the denominators of `phi` and runs `lipschitz_seminorms` on the
    resulting integer column (object dtype if it would not fit in int64).
    """
    vals = [Fraction(x) for x in phi]
    denom = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * denom) for v in vals]
    dtype = np.int64 if all(abs(x) < 2**62 for x in ints) else object
    column = np.array(ints, dtype=dtype).reshape(-1, 1)
    return lipschitz_seminorms(space, column, denom, n, theta)[0]


@dataclass
class InequalityReport:
    checked: int
    violations: List[str]
    max_slack: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_lasota_yorke(
    space: SectorSpace,
    mu: Coweight,
    n: int,
    theta: Fraction,
    matrix: Optional[TransferMatrix] = None,
) -> InequalityReport:
    """Check the seminorm contraction on every indicator of F_n.

    For strongly dominant mu the bound is theta * |phi| + (2/theta) * |phi|_oo,
    and for merely dominant mu the non-expansive variant |phi| + C |phi|_oo
    with the same constant.  Slack is the smallest margin observed.
    """
    theta = Fraction(theta)
    tm = matrix if matrix is not None else transfer_matrix(space, mu, n)
    factor = theta if mu.strongly_dominant else Fraction(1)
    c_theta = 2 / theta
    images = lipschitz_seminorms(space, tm.counts, tm.m_mu, n, theta)
    own = lipschitz_seminorms(space, np.eye(tm.dim, dtype=np.int64), 1, n, theta)
    violations = []
    max_slack = None
    for g, (lhs, phi_norm) in enumerate(zip(images, own)):
        # an indicator has sup norm 1
        rhs = factor * phi_norm + c_theta
        if lhs > rhs:
            violations.append(f"indicator {g}: |L phi| = {lhs} > {rhs}")
        slack = rhs - lhs
        if max_slack is None or slack < max_slack:
            max_slack = slack
    return InequalityReport(tm.dim, violations, max_slack)


def check_sup_contraction(space: SectorSpace, tm: TransferMatrix) -> bool:
    """Row-stochasticity makes the sup norm non-increasing: check on indicators."""
    col_max = tm.counts.max(axis=0)
    return bool(np.all(col_max <= tm.m_mu))


@dataclass
class FnInvarianceReport:
    compression_exact: bool
    maps_into_smaller: Optional[bool]
    details: List[str]

    @property
    def passed(self) -> bool:
        ok = self.compression_exact
        if self.maps_into_smaller is not None:
            ok = ok and self.maps_into_smaller
        return ok


def check_fn_invariance(space: SectorSpace, mu: Coweight, n: int) -> FnInvarianceReport:
    """Consistency of the matrices across radii.

    (a) The radius-(n+1) matrix, compressed through the restriction maps,
        must equal the radius-n matrix entry for entry.
    (b) For strongly dominant mu and n >= 2, rows belonging to germs with a
        common radius-(n-1) restriction must be identical after the column
        compression, i.e. the operator maps F_n into F_{n-1}.
    """
    details = []
    tm_small = transfer_matrix(space, mu, n)
    tm_big = transfer_matrix(space, mu, n + 1)
    restr = space.table(n + 1).restriction_map(n)
    # compress columns of the big matrix along restriction fibers; rows are
    # sorted and restriction keeps a prefix, so each fiber is one column run
    starts = np.flatnonzero(np.r_[True, restr[1:] != restr[:-1]])
    if np.array_equal(restr[starts], np.arange(tm_small.dim)):
        compressed = np.add.reduceat(tm_big.counts, starts, axis=1)
        bad = np.flatnonzero(np.any(compressed != tm_small.counts[restr], axis=1))
        if len(bad):
            details.append(f"big class {bad[0]}: compressed row differs")
    else:
        details.append(f"F_{n + 1} classes do not restrict onto F_{n} in order")
    compression_exact = not details

    maps_into_smaller = None
    if mu.strongly_dominant and n >= 2:
        down = space.table(n).restriction_map(n - 1)
        _, first, inverse = np.unique(down, return_index=True, return_inverse=True)
        rep = first[inverse]  # the first row of each radius-(n-1) class
        bad = np.flatnonzero(np.any(tm_small.counts != tm_small.counts[rep], axis=1))
        maps_into_smaller = not len(bad)
        if not maps_into_smaller:
            pos = bad[0]
            details.append(
                f"rows {rep[pos]} and {pos} differ inside radius-{n-1} class {down[pos]}"
            )
    return FnInvarianceReport(compression_exact, maps_into_smaller, details)
