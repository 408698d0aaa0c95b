"""Transfer operators on the finite spaces F_n of germ functions.

F_n is spanned by the indicator functions of radius-n germ classes.  The
operator for a dominant coweight mu averages a function over the M_mu
preimages of the shift by mu,

    (L_mu phi)(h) = (1 / M_mu) * sum of phi(g) over the preimages g of h,

and a `TransferMatrix` stores exactly those preimages: `preimages` is an
int32 array of shape (dim, M_mu) whose row h lists the radius-n classes of
the preimages of h, sorted and with repetition.  The exact matrix entry is

    entry[h][g] = #{G : shift(G, mu) = h and G|_n = g} / M_mu,

the multiplicity of g in row h over M_mu, so an operator takes dim * M_mu
integers instead of dim^2 (2 MB rather than 8.3 GB for a2q2 on F_4).  The
counts are taken over radius-(n+|mu|) germs, fibered by (shift,
restriction), and assembly checks that every group's counts are lambda
times a list of M_mu preimages; a violation aborts, since it would mean
the germ tables are inconsistent with the preimage count.  `counts()`
forms the integer matrix M_mu * L_mu and `dense()` the float one, for the
spectral family on F_1.

Composition is a gather: row h of L_1 L_2 is the union of the rows of L_2
at the entries of row h of L_1, `sort(P2[P1].reshape(dim, -1))`, so the
semigroup law and commutation are equalities of sorted integer arrays
(`compose`).

The Lipschitz seminorm of an F_n function is computed exactly: pairs of
distinct germ classes always resolve their distance within the truncation,
and pairs in the same class contribute nothing.  The kernel takes a dense
integer (dim, columns) block.  For each level m it orders the rows by their
radius-(m-1) class and takes each class's value range in every column with
integer max/min `reduceat`.  Each column's maximum of spread_m / (denom *
theta^m) over the levels is taken in integers over a common denominator,
so it forms one rational per column.  An indicator's own seminorm needs no
kernel: it follows from the class sizes (`indicator_levels`).

One routine grows column blocks of L, L^2, ..., L^top from the same
columns of the identity and hands each to the kernel (`power_seminorms`),
for single and iterated powers alike.  The checks take built operators and
read mu and n from them.

Assembly never holds the radius-N table (N = n + |mu|) whole, and one pass
over its germs serves every operator of one N (`transfer_matrices`).  The
germs are made one piece of the parent table at a time
(`SectorSpace.extend_rows`): each rotation block of the parent rows is cut
between its keys on the plug columns that the parent already carries and
every operator of the pass holds, into pieces that extend to at most
`_BLOCK_ROWS` rows unless one key alone holds more (`_pieces`); a block
with no such column is one piece.  Those columns and the rotation are in
every plug key, so no conditioning group spans two pieces.  The plug
alcoves are those of the translated sector mu + S_0
(`TruncatedSector.alcoves_within`).  Each piece is extended once; then,
per operator, group ids come from the mixed-radix keys of the rows'
plug-alcove columns (`row_groups`), only each group's first germ is shifted
(`SectorSpace.shift_positions`), the rows are restricted to F_n by prefix
lookup, and the (group, column) keys are sorted in place.  All groups
have one size lambda * M_mu, so the sorted columns reshape to (groups,
M_mu, lambda): the counts are multiples of lambda exactly when every
lambda-block is constant, and the blocks' first columns are the preimage
lists, one row per group.  The first group of each class sets that
class's row of the (dim, M_mu) result, and every later group, in any
piece, must repeat it.  So the peak is one piece and its temporaries: no
dense (groups x dim) or (dim x dim) array and no byte-key copy of the rows
is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rootdata import Coweight, translation_parameter
from .sectors import _BLOCK_ROWS, SectorSpace, row_groups


@dataclass
class TransferMatrix:
    """Exact matrix of one transfer operator on F_n, as preimage lists."""

    mu: Coweight
    radius: int
    preimages: np.ndarray  # int32 (dim, M_mu): each row's preimage classes, sorted
    m_mu: int

    @property
    def dim(self) -> int:
        return self.preimages.shape[0]

    def counts(self) -> np.ndarray:
        """The int64 count matrix M_mu * L_mu; it has dim^2 cells."""
        dim = self.dim
        flat = np.arange(dim).repeat(self.preimages.shape[1]) * dim + self.preimages.ravel()
        return np.bincount(flat, minlength=dim * dim).reshape(dim, dim)

    def dense(self) -> np.ndarray:
        """The float matrix counts / M_mu."""
        return self.counts() / self.m_mu

    def row_sums_ok(self) -> bool:
        """Every row lists M_mu preimages, each a class of F_n."""
        p = self.preimages
        return bool(
            p.ndim == 2 and p.shape[1] == self.m_mu and p.min() >= 0 and p.max() < self.dim
        )


def cells(preimages: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, count) of every nonzero entry of sorted preimage lists.

    The cells come in row-major order, as from `np.nonzero` of the dense
    count matrix.
    """
    dim, width = preimages.shape
    new = np.ones((dim, width), dtype=bool)
    new[:, 1:] = preimages[:, 1:] != preimages[:, :-1]
    starts = np.flatnonzero(new)
    flat = preimages.reshape(-1)
    return starts // width, flat[starts].astype(np.int64), np.diff(np.r_[starts, flat.size])


def compose(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Preimage lists of the product L_first L_second: a gather, then a row sort in place."""
    g = second[first].reshape(len(first), -1)
    g.sort(axis=1)
    return g


def commute(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two operators given as preimage lists commute exactly."""
    return np.array_equal(compose(first, second), compose(second, first))


def transfer_matrix(space: SectorSpace, mu: Coweight, radius: int) -> TransferMatrix:
    """Assemble the transfer matrix for `mu` on F_radius.

    A preimage of a sector is pinned on the whole translated sector, so
    inside the radius-N truncation (N = radius + |mu|) it is pinned on the
    intersection with mu + S_0.  The radius-N germs are grouped by that
    restriction; each group is a finite disjoint union of preimage-germ sets
    of individual sectors, and every such set carries the same count vector
    because the operator respects the radius-`radius` classes.  The group
    totals must therefore be a single multiple lambda * M_mu across all
    groups, with every group vector divisible by lambda; the preimage counts
    are the quotients.  Radius N is exact: a preimage of a radius-`radius`
    germ, and its own class, are fixed by the radius-N germs.  So a gate
    failure aborts, since it would falsify the counting model.
    """
    return transfer_matrices(space, [(mu, radius)])[0]


def transfer_matrices(space: SectorSpace, requests: Sequence[tuple]) -> List[TransferMatrix]:
    """The `transfer_matrix` of each (mu, radius) request, all of one radius
    N = radius + |mu|, from one pass over the radius-N germs; a CountingError
    names the request whose counting failed first in the pass."""
    for mu, radius in requests:
        if radius < 1:
            raise ValueError("transfer matrices need radius >= 1")
        if not mu.dominant:
            raise ValueError("transfer operators are indexed by dominant coweights")
    if len({radius + mu.norm for mu, radius in requests}) > 1:
        raise ValueError("one pass assembles operators of one radius + |mu|")
    if not requests:
        return []
    jobs = [_assemble(space, mu, radius) for mu, radius in requests]
    plugs = [next(job) for job in jobs]
    big_radius = requests[0][1] + requests[0][0].norm
    parent = space.table(big_radius - 1)
    # a piece holds whole conditioning groups of every request and, at the
    # parent table's own growth, at most _BLOCK_ROWS germs
    held = [c for c in plugs[0][1:] if c < parent.rows.shape[1] and all(c in p for p in plugs)]
    grow = -(-len(parent) // len(space.table(big_radius - 2))) if held else 1
    for piece in _pieces(parent.rows, held, max(1, _BLOCK_ROWS // grow)):
        rows = space.extend_rows(parent.rows[piece], parent.base[piece], big_radius)[0]
        for job in jobs:
            job.send(rows)
    return [job.send(None) for job in jobs]


class InvariantError(RuntimeError):
    """An exact identity of the transfer operators failed on this input."""


class CountingError(InvariantError):
    """The preimage counts of a transfer operator came out irregular."""


def _assemble(space: SectorSpace, mu: Coweight, radius: int):
    """One request of a pass, as a generator: it yields its plug columns, is
    sent each piece's radius-(radius + |mu|) rows, and yields its matrix on None."""
    R = space.root_system
    big_radius = radius + mu.norm
    small = space.table(radius)
    m_mu = translation_parameter(R, space.system.params, mu)
    plug = [0] + [1 + k for k in space.truncation(big_radius).alcoves_within(R.coweight_vector(mu))]
    dim = len(small)
    # each class's preimage list, set by its first conditioning group
    preimages = np.zeros((dim, m_mu), dtype=np.int32)
    seen = np.zeros(dim, dtype=bool)
    sizes = set()  # the conditioning group sizes met so far

    rows = yield plug
    try:
        while rows is not None:
            # group the piece by (rotation, chambers on the plug alcoves)
            first, gid = row_groups(rows.T[plug])
            # each group's class: the F_radius class of its first germ's shift
            group_row = space.shift_positions(rows[first], big_radius, mu)
            restricted = small.lookup(rows[:, : small.rows.shape[1]])
            del rows, first
            counts = np.bincount(gid)
            sizes.update((int(counts.min()), int(counts.max())))
            if len(sizes) > 1:
                raise CountingError(f"conditioning groups have mixed sizes {sorted(sizes)}")
            (total,) = sizes
            if total % m_mu != 0:
                raise CountingError(f"group size {total} is not a multiple of M_mu={m_mu}")
            lam = total // m_mu

            # every group's restricted columns, sorted, one row of `total`:
            # its hit counts are all multiples of lam exactly when each of its
            # M_mu blocks of lam is constant, and then the blocks' columns are
            # its preimage list, whose length M_mu = total / lam needs no check
            cell = gid  # taken over in place: the group ids are not read again
            cell *= dim
            cell += restricted
            del gid, restricted
            cell.sort()
            cell %= dim
            grid = cell.reshape(-1, m_mu, lam)
            if np.any(grid[:, :, 0] != grid[:, :, -1]):
                raise CountingError("group counts are not uniform over the preimage multiplicity")
            packed = grid[:, :, 0].astype(np.int32)
            del cell, grid
            # the first group of each class sets its row; every other group, in
            # this piece or a later one, must repeat it
            classes, leaders = np.unique(group_row, return_index=True)
            new = ~seen[classes]
            preimages[classes[new]] = packed[leaders[new]]
            seen[classes] = True
            differs = np.any(packed != preimages[group_row], axis=1)
            if np.any(differs):
                raise CountingError(
                    f"preimage counts at class {group_row[np.argmax(differs)]} "
                    "depend on the representative"
                )
            rows = yield
        if not seen.all():
            raise CountingError("some classes received no conditioning group")
    except CountingError as exc:
        raise CountingError(
            f"preimage counting failed for mu={tuple(mu.coords)} on F_{radius}: {exc}"
        ) from exc
    yield TransferMatrix(mu, radius, preimages, m_mu)


def _pieces(rows: np.ndarray, cols: List[int], budget: int):
    """Pieces of sorted table rows, as slices or position arrays, that keep
    every key on (rotation, `cols`) whole.  A rotation block with no `cols`
    or of at most `budget` rows is one piece; a larger one is ordered by
    its keys' lexicographic ranks and cut between keys into near-equal
    pieces of at most `budget` rows, unless one key alone holds more."""
    sig = rows[:, 0]
    bounds = np.r_[0, np.flatnonzero(sig[1:] != sig[:-1]) + 1, len(sig)].tolist()
    for start, stop in zip(bounds, bounds[1:]):
        if not cols or stop - start <= budget:
            yield slice(start, stop)
            continue
        labels = row_groups(rows.T[cols, start:stop])[1]
        order = np.argsort(labels, kind="stable")
        cuts = np.r_[0, np.cumsum(np.bincount(labels))]
        order += start
        size = -(-len(order) // -(-len(order) // budget))  # near-equal, as few as fit
        lo = 0
        while lo < len(order):
            i = np.searchsorted(cuts, lo + size, side="right") - 1
            hi = int(cuts[i] if cuts[i] > lo else cuts[i + 1])
            yield order[lo:hi]
            lo = hi


def _level_spreads(space: SectorSpace, block: np.ndarray, n: int) -> np.ndarray:
    """(n + 1, columns) integers: per level m and column of the dense (dim,
    columns) `block`, the largest value range inside one radius-(m-1) class
    (level 0: the whole space), in the block's dtype.

    The rows are ordered by class and each class's range comes from integer
    max/min `reduceat`.
    """
    table = space.table(n)
    if len(block) != len(table):
        raise ValueError("dimension mismatch")
    spreads = []
    for m in range(n + 1):
        cls = table.restriction_map(m - 1) if m else np.zeros(len(table), dtype=np.int64)
        order = np.argsort(cls)
        starts = np.r_[0, np.cumsum(np.bincount(cls))[:-1]]
        rows = block[order]
        ranges = np.maximum.reduceat(rows, starts) - np.minimum.reduceat(rows, starts)
        spreads.append(ranges.max(axis=0))
    return np.array(spreads)


def lipschitz_seminorms(
    space: SectorSpace, block: np.ndarray, denom: int, n: int, theta: Fraction
) -> List[Fraction]:
    """Exact Lipschitz seminorm of every column of an integer (dim, columns)
    matrix / denom on F_n.

    Pairs at first-disagreement norm m contribute |dphi| / theta^m; the
    largest value range inside one radius-(m-1) class realizes the supremum
    over those pairs, because any two of its members disagree at norm >= m
    (`_level_spreads`).  With theta = num/den, spread_m / (denom theta^m) is
    spread_m den^m num^(n-m) over the common denominator denom num^n, so each
    column's maximum over the levels is taken in integers (Python ints where
    int64 could overflow) and the only rationals are the column results.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("theta must be positive")
    spreads = _level_spreads(space, block, n)
    num, den = theta.numerator, theta.denominator
    weights = [den**m * num ** (n - m) for m in range(n + 1)]
    top = max(int(spreads.max(initial=0)), 1) * max(weights)
    dtype = np.int64 if spreads.dtype != object and top < 2**63 else object
    best = (spreads.astype(dtype) * np.array(weights, dtype=dtype)[:, None]).max(axis=0)
    return [Fraction(v, denom * num**n) for v in best.tolist()]


def power_seminorms(
    space: SectorSpace, tm: TransferMatrix, theta: Fraction, top: int
) -> List[List[Fraction]]:
    """Entry l - 1: the exact seminorms of the columns of L^l on F_n, l = 1..top.

    Row h of the count matrix of L^l (over M_mu^l) sums the rows of L^(l-1)
    at the preimages of h.  A column of L^l reads only that column of
    L^(l-1), and its seminorm only itself, so each block of at most
    _BLOCK_ROWS cells of L^1..L^top grows from the same identity columns.
    """
    dtype = np.int32 if tm.m_mu**top < 2**31 else np.int64
    width = max(1, _BLOCK_ROWS // tm.dim)
    images = [[] for _ in range(top)]
    for lo in range(0, tm.dim, width):
        block = np.eye(tm.dim, min(width, tm.dim - lo), -lo, dtype=dtype)
        for ell in range(1, top + 1):
            step = np.zeros_like(block)
            for pre in tm.preimages.T:
                step += block[pre]
            block = step
            images[ell - 1] += lipschitz_seminorms(space, block, tm.m_mu**ell, tm.radius, theta)
    return images


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


def indicator_levels(space: SectorSpace, n: int) -> List[int]:
    """Per F_n class, the level m that sets its indicator's seminorm theta^-m.

    An indicator's level-m spread is 1 when the radius-(m-1) class of its
    germ has another member (at level 0, when F_n has another class) and 0
    otherwise; the level is the largest such m, or -1 (seminorm 0) if none.
    """
    table = space.table(n)
    level = np.full(len(table), 0 if len(table) > 1 else -1)
    for m in range(1, n + 1):
        cls = table.restriction_map(m - 1)
        level[np.bincount(cls)[cls] > 1] = m
    return level.tolist()


def level_seminorms(theta: Fraction, n: int) -> dict:
    """An indicator's seminorm at each level: theta^-m at m = 0..n, 0 at -1."""
    return {m: Fraction(theta) ** -m if m >= 0 else Fraction(0) for m in range(-1, n + 1)}


@dataclass
class InequalityReport:
    checked: int
    violations: List[str]
    max_slack: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_indicator_bound(
    space: SectorSpace, images: List[Fraction], n: int,
    theta: Fraction, factor: Fraction, constant: Fraction,
) -> InequalityReport:
    """Check |L phi| <= factor * |phi| + constant on every indicator phi of F_n.

    `images` holds the seminorm of each column g of L, which is L applied to
    the indicator of class g (`lipschitz_seminorms`); the indicator has sup
    norm 1 and the seminorm of its level.  Slack is the smallest margin
    observed.
    """
    levels = indicator_levels(space, n)
    bound = {m: factor * v + constant for m, v in level_seminorms(theta, n).items()}
    violations = [
        f"indicator {g}: |L phi| = {lhs} > {bound[m]}"
        for g, (lhs, m) in enumerate(zip(images, levels))
        if lhs > bound[m]
    ]
    slack = min((bound[m] - lhs for lhs, m in zip(images, levels)), default=None)
    return InequalityReport(len(images), violations, slack)


def check_lasota_yorke(space: SectorSpace, tm: TransferMatrix, theta: Fraction) -> InequalityReport:
    """Check the seminorm contraction of `tm` on every indicator of F_n.

    mu and n are the operator's own.  For strongly dominant mu the bound is
    theta * |phi| + (2/theta) * |phi|_oo, and for merely dominant mu the
    non-expansive variant |phi| + C |phi|_oo with the same constant.
    """
    theta = Fraction(theta)
    factor = theta if tm.mu.strongly_dominant else Fraction(1)
    (images,) = power_seminorms(space, tm, theta, 1)
    return check_indicator_bound(space, images, tm.radius, theta, factor, 2 / theta)


def check_sup_contraction(tm: TransferMatrix) -> bool:
    """Row-stochasticity makes the sup norm non-increasing: check on indicators."""
    return bool(cells(tm.preimages)[2].max() <= tm.m_mu)


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


def check_fn_invariance(
    space: SectorSpace, small: TransferMatrix, big: TransferMatrix
) -> FnInvarianceReport:
    """Consistency of one mu's operators `small` on F_n and `big` on F_(n+1).

    (a) The radius-(n+1) matrix, compressed through the restriction maps,
        must equal the radius-n matrix entry for entry.
    (b) For strongly dominant mu and n >= 2, rows belonging to germs with a
        common radius-(n-1) restriction must be identical after the column
        compression, i.e. the operator maps F_n into F_{n-1}.
    """
    mu, n = small.mu, small.radius
    if big.mu != mu or big.radius != n + 1:
        raise ValueError("check_fn_invariance needs one mu's operators on F_n and F_(n+1)")
    details = []
    restr = space.table(n + 1).restriction_map(n)
    # compress the columns of the big matrix along the restriction fibers:
    # each big row, restricted entry by entry, must be the small row of its class
    compressed = np.sort(restr[big.preimages], axis=1)
    bad = np.flatnonzero(np.any(compressed != small.preimages[restr], axis=1))
    if len(bad):
        details.append(f"big class {bad[0]}: compressed row differs")
    compression_exact = not details

    maps_into_smaller = None
    if mu.strongly_dominant and n >= 2:
        down = space.table(n).restriction_map(n - 1)
        _, first, inverse = np.unique(down, return_index=True, return_inverse=True)
        rep = first[inverse]  # the first row of each radius-(n-1) class
        rows = small.preimages
        bad = np.flatnonzero(np.any(rows != rows[rep], axis=1))
        maps_into_smaller = not len(bad)
        if not maps_into_smaller:
            pos = bad[0]
            details.append(
                f"rows {rep[pos]} and {pos} differ inside radius-{n-1} class {down[pos]}"
            )
    return FnInvarianceReport(compression_exact, maps_into_smaller, details)
