"""Executable invariant suite over the bundled (or user-supplied) systems.

Each check returns CheckResults and holds the one implementation of its
invariant: the acceptance tests call the checks themselves, and
`run_suite` drives all of them for one system for the CLI `verify`
subcommand.  A line that a loop or a list decides is built from one witness
list (`CheckResult.of`): it fails exactly when the list is non-empty and
then names its first three witnesses; a line decided by one float threshold
keeps its margin.  The largest germ radius the suite reads is
`suite_radius`, which the CLI budgets before any table is built.

The metric checks hold no pair matrix.  A germ's class labels per level
(restriction classes for the distance exponent k, ray classes of
direction i for k_i) are made cumulative, so that k(a, b) > m exactly when
a and b share their level-m label.  A law "k >= k' on the pairs equal on
a gate" is then one partition refinement per level, (gate, level of k')
refines (level of k), tested in O(N log N) by counting the classes of a
meet.  The ultrametric law is the nestedness of the agreement partitions
(on cumulative labels the triple inequality itself would hold for any
input).  The direction formula k = min_i k_i holds only on resolved pairs,
so its violating pairs are counted exactly by inclusion-exclusion, with
sum |class|^2 pairs equal on a partition.  The dense pair matrices
(`k_matrix`, `ki_matrix`) remain only for the radius-2 cross-check against
the explicit region-growing distance.  Operator identities compare sorted
preimage lists (`transfer.compose`).

The spectral checks on F_1 share their float work through the context's
`spectra.Family` (`FixtureContext.f1`), which checks that the generators
commute exactly and holds one joint spectrum, one eigenvalue list per
generator and one Koszul record per character.  The Taylor check reads all
three for its two thetas.

`run_suite` reads `SUITE`, the ordered table of the checks after the local
building checks.  An entry gives its check's half, germ or spectral, and
lines, none where the check does not apply.  It looks the check up by
module-global name when it runs, as tests monkeypatch `verify.check_*` and
`bench/tracing.py` wraps them by name.  Only the local building checks and
the generators' F_1 operators, which both halves read, precede the fork;
then, on two cores at once, the child runs the germ entries, walk
parameters first, and the parent builds the F_1 family and runs the
spectral ones; each half gives one list of lines per entry, merged by table
position.  Neither half reads what the other computes.  The parent keeps the
spectral half because a tracer that wraps functions in its own process then
still sees the spectral layers and the operator assembly.  The child sends
its results, or its exception, as one pickle over a pipe and ends with
`os._exit`, so it flushes no inherited stdio buffer and runs no atexit
handler; its exit frees the germ tables it built.  Lines and errors keep the
sequential order: an exception of the germ half is raised even when the
spectral half failed too, a child that ends without a result raises
`ChildProcessError`, and on KeyboardInterrupt, SystemExit or SIGTERM
(turned into SystemExit while the child runs) the parent kills and reaps
the child.  A child whose parent died otherwise, say by SIGKILL, ends before
its next check.  This needs POSIX `os.fork` and the main thread, which alone
may set a signal handler.  Python >= 3.12 warns of a fork while another
thread runs; none does, as the package sets OPENBLAS_NUM_THREADS=1 before
numpy loads, and CI checks it on 3.12.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List

import numpy as np

from . import oracles, spectra, transfer
from .chamber import ChamberSystem
from .pcg64 import PCG64
from .rootdata import (
    Coweight,
    all_minimal_walk_products,
    fundamental_coweights,
    minimal_walk_types,
    translation_parameter,
)
from .sectors import SENTINEL, SectorSpace, row_groups


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def of(cls, name: str, witnesses: List[str], margin: str = "") -> "CheckResult":
        """The line a witness list decides: it fails exactly when the list is
        non-empty and then names its first three witnesses; a pass shows `margin`."""
        return cls(name, not witnesses, "; ".join(witnesses[:3]) if witnesses else margin)

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


class FixtureContext:
    """Validates one system, once, and caches its germ tables, operators and F_1 family."""

    def __init__(self, name: str, system: ChamberSystem):
        self.name = name
        self.system = system
        self.report = system.validate()
        self.space = SectorSpace(system, check=False)
        self.rank = system.root_system.rank
        self._tms: Dict[tuple, transfer.TransferMatrix] = {}

    @property
    def generators(self) -> List[Coweight]:
        return fundamental_coweights(self.rank)

    @property
    def strong(self) -> Coweight:
        return Coweight(tuple(1 for _ in range(self.rank)))

    def tm(self, mu: Coweight, n: int) -> transfer.TransferMatrix:
        key = (tuple(mu.coords), n)
        if key not in self._tms:
            self._tms[key] = transfer.transfer_matrix(self.space, mu, n)
        return self._tms[key]

    def assemble(self, keys) -> None:
        """Cache the operators of (mu, n) `keys`, of one radius n + |mu|, from one pass;
        if it fails, none is, and `tm` meets the error again in its caller's order."""
        keys = [(mu, n) for mu, n in keys if (tuple(mu.coords), n) not in self._tms]
        try:
            tms = transfer.transfer_matrices(self.space, keys)
        except Exception:
            return
        self._tms.update(((tuple(mu.coords), n), tm) for (mu, n), tm in zip(keys, tms))

    @cached_property
    def f1(self) -> spectra.Family:
        """The generator family on F_1, shared by the spectral checks."""
        return spectra.Family([self.tm(g, 1) for g in self.generators])


# ----------------------------------------------------------------------
# individual checks


def check_walk_parameters(ctx: FixtureContext) -> List[CheckResult]:
    R = ctx.system.root_system
    q = ctx.system.params
    coords = _dominant_coords(ctx.rank, 4)
    unique, mult, inv = [], [], []
    values = {}
    for cs in coords:
        mu = Coweight(cs)
        prods = all_minimal_walk_products(R, q, mu)
        if len(prods) != 1:
            unique.append(f"walk products for {cs}: {sorted(prods)}")
        values[cs] = translation_parameter(R, q, mu)
        if values[cs] != max(prods):
            unique.append(f"q_t({cs}) = {values[cs]} but walks give {max(prods)}")
        back = math.prod(q[label] for label in minimal_walk_types(R, -mu))
        if back != values[cs]:
            inv.append(f"q_t({cs}) = {values[cs]} but reverse walk gives {back}")
    for a in coords:
        for b in coords:
            c = tuple(x + y for x, y in zip(a, b))
            if sum(c) <= 4 and c in values and values[c] != values[a] * values[b]:
                mult.append(f"q_t not multiplicative at {a}+{b}")
    return [
        CheckResult.of("walk q-product independent of the minimal walk", unique),
        CheckResult.of("q_t multiplicative on dominant sums", mult),
        CheckResult.of("q_t symmetric under negation", inv),
    ]


def _dominant_coords(rank: int, bound: int):
    out = []
    for cs in itertools.product(range(bound + 1), repeat=rank):
        if 0 < sum(cs) <= bound:
            out.append(cs)
    return sorted(out, key=lambda c: (sum(c), c))


def check_tables(ctx: FixtureContext, max_radius: int = 3) -> List[CheckResult]:
    space = ctx.space
    sizes = [len(space.table(n)) for n in range(max_radius + 1)]
    missed, uneven = [], []
    for n in range(1, max_radius + 1):
        restr = space.table(n).restriction_map(n - 1)
        counts = np.bincount(restr, minlength=len(space.table(n - 1)))
        if np.any(counts == 0):
            missed.append(f"radius {n}: restriction misses {int(np.sum(counts == 0))} classes")
        if counts.max() != counts.min():
            uneven.append(f"radius {n}: extension counts range {counts.min()}..{counts.max()}")
    return [
        CheckResult("germ tables built", True, f"sizes {sizes}"),
        CheckResult.of("restriction maps surjective", missed),
        CheckResult.of("extension count independent of the germ", uneven),
    ]


def _meet(*labels: np.ndarray) -> np.ndarray:
    """Labels 0..k-1 of the common refinement of partitions given by labels."""
    return row_groups(labels)[1]


def _cumulative(levels: List[np.ndarray]) -> List[np.ndarray]:
    """Entry m labels agreement on every level 0..m."""
    out = [_meet(levels[0])]
    for lab in levels[1:]:
        out.append(_meet(out[-1], lab))
    return out


def _refines(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether every class of the partition p lies inside one class of q."""
    return _meet(p, q).max() == _meet(p).max()


def _pairs(*labels: np.ndarray) -> int:
    """Ordered pairs, a = b included, equal on every partition: sum of |class|^2."""
    sizes = np.bincount(_meet(*labels))
    return int(np.dot(sizes, sizes))


# A list of class labels per level 0..n defines k(a, b): the first level on
# which a and b differ, or n + 1 if none.  With cumulative labels, k > m
# exactly when a and b agree on entry m, so an inequality between two such
# k on the pairs equal on a gate is one partition refinement per level.


def _k_at_least(gate, big, small, shift: int = 0) -> bool:
    """Whether k_big >= k_small + shift on the pairs equal on gate.

    Needs len(small) + shift <= len(big): k_small > m - shift must force
    k_big > m at every level m.
    """
    lower = [gate] * shift + [_meet(gate, c) for c in _cumulative(small)]
    return all(_refines(p, c) for p, c in zip(lower, _cumulative(big)))


def _k_at_most(gate, big, small, shift: int = 0) -> bool:
    """Whether k_big <= k_small + shift on the pairs equal on gate.

    Needs len(small) + shift == len(big): k_big > m must force
    k_small > m - shift at every level m.
    """
    lower = [gate] * shift + _cumulative(small)
    return all(_refines(_meet(gate, c), p) for p, c in zip(lower, _cumulative(big)))


def _direction_violations(levels, rays) -> int:
    """Pairs where k and every k_i resolve but k != min_i k_i, counted exactly.

    `levels` gives k and `rays[i]` gives k_i, each with n + 1 levels.  The
    resolution filter makes this law no refinement, so the count runs by
    inclusion-exclusion over the directions whose k_i does not resolve,
    with A[x] labelling k > x - 1 and B[y] labelling min_i k_i > y - 1.
    """
    n = len(levels) - 1
    zero = np.zeros(len(levels[0]), dtype=np.int64)
    rays = [_cumulative(ray) for ray in rays]
    A = [zero] + _cumulative(levels)
    B = [zero] + [_meet(*(ray[m] for ray in rays)) for m in range(n + 1)]
    violations = 0
    for dirs in itertools.chain.from_iterable(
        itertools.combinations(range(len(rays)), r) for r in range(len(rays) + 1)
    ):
        f = _meet(zero, *(rays[i][n] for i in dirs))
        # pairs with k resolved, minus those with k = min_i k_i = j for each j
        count = _pairs(f) - _pairs(A[n + 1], f)
        for j in range(n + 1):
            count -= (
                _pairs(A[j], B[j], f) - _pairs(A[j + 1], B[j], f)
                - _pairs(A[j], B[j + 1], f) + _pairs(A[j + 1], B[j + 1], f)
            )
        violations += (-1) ** len(dirs) * count
    return violations


def check_metric_suite(ctx: FixtureContext, radius: int = 3) -> List[CheckResult]:
    """The metric laws as refinements of class partitions, in O(N log N) each.

    k comes from the restriction classes and k_i from the ray classes of
    direction i; the shift laws compare them with the classes of the shifted
    pair, read through the shift map.
    """
    space = ctx.space
    table = space.table(radius)
    n = radius
    levels = [table.restriction_map(m) for m in range(n + 1)]

    # the triple inequality is structural once the agreement partitions are
    # nested: a germ's level-(m-1) class is the restriction of its level-m class
    unnested = [
        f"level {m - 1} is not the restriction of level {m}"
        for m in range(1, n + 1)
        if not np.array_equal(levels[m - 1], space.table(m).restriction_map(m - 1)[levels[m]])
    ]
    rays = [[table.ray_classes(i, ell) for ell in range(n + 1)] for i in range(ctx.rank)]
    count = _direction_violations(levels, rays)

    # on pairs equal on the hull of {0, mu}: k >= k(shifted pair), and one
    # more for strongly dominant mu
    mono, key, directional = [], [], []
    for mu in ctx.generators + [ctx.strong]:
        if mu.norm > n:
            continue
        gate = table.region_classes(mu)
        smap = space.shift_map(n, mu)
        small = space.table(n - mu.norm)
        shifted = [small.restriction_map(m)[smap] for m in range(n - mu.norm + 1)]
        if not _k_at_least(gate, levels, shifted):
            mono.append(f"mu={mu.coords}")
        if mu.strongly_dominant and not _k_at_least(gate, levels, shifted, 1):
            key.append(f"mu={mu.coords}")

    # on pairs equal on the first step of ray i: k_i = k_i(shifted pair) + 1,
    # and k_j >= k_j(shifted pair) for j != i
    for i, mu in enumerate(ctx.generators):
        gate = table.ray_classes(i, 1)
        smap = space.shift_map(n, mu)
        small = space.table(n - 1)
        for j in range(ctx.rank):
            shifted = [small.ray_classes(j, ell)[smap] for ell in range(n)]
            if j == i:
                ok = _k_at_least(gate, rays[j], shifted, 1) and _k_at_most(gate, rays[j], shifted, 1)
            else:
                ok = _k_at_least(gate, rays[j], shifted)
            if not ok:
                directional.append(f"k_{j} under the shift by mu={mu.coords}")
    return [
        CheckResult.of(f"ultrametric triple inequality (radius {radius})", unnested,
                       "via nestedness of the agreement partitions"),
        CheckResult.of(f"direction formula k = min_i k_i (radius {radius})",
                       [f"{count} resolved ordered pairs have k != min_i k_i"] if count else []),
        CheckResult.of(f"shift monotonicity (radius {radius})", mono),
        CheckResult.of(f"strong-dominance key inequality (radius {radius})", key),
        CheckResult.of(f"directional shift laws (radius {radius})", directional),
    ]


def check_distance_cross_validation(ctx: FixtureContext, radius: int = 2) -> List[CheckResult]:
    """Region-growing distance must agree with the class-array distance, on all sampled pairs."""
    space = ctx.space
    table = space.table(radius)
    idxs = list(range(0, len(table), max(1, len(table) // 60)))
    # k, then k_i for each direction i; radius + 1 encodes the sentinel
    got = space.region_distances(*[[table.germs[a] for a in idxs]] * 2)[0]
    mats = [table.k_matrix()] + [table.ki_matrix(i) for i in range(ctx.rank)]
    want = np.array([m[np.ix_(idxs, idxs)] for m in mats])
    differs = np.flatnonzero(np.any(got != want, axis=0))  # pairs in row-major order
    witnesses = []
    if len(differs):
        i, j = divmod(int(differs[0]), len(idxs))
        x, y = ([SENTINEL if v == radius + 1 else v for v in m[:, i, j].tolist()] for m in (got, want))
        bad = next(w for w, (u, v) in enumerate(zip(x, y)) if u != v)
        a, b = idxs[i], idxs[j]
        witnesses.append(f"pair ({a},{b}): region gives {x[0]}, classes give {y[0]}" if bad == 0
                         else f"pair ({a},{b}) direction {bad - 1}: {x[bad]} vs {y[bad]}")
    return [CheckResult.of(f"explicit distance matches class distance (radius {radius})", witnesses)]


def check_transfer_exact(ctx: FixtureContext) -> List[CheckResult]:
    mus = [Coweight(cs) for cs in _dominant_coords(ctx.rank, 2)]
    for big in (3, 4):  # the operators on F_1 and F_2 read below, one pass per n + |mu|
        ctx.assemble([(Coweight(cs), big - sum(cs)) for cs in _dominant_coords(ctx.rank, big - 1)
                      if sum(cs) >= big - 2])

    try:
        bad = [(mu, n) for mu in mus for n in (1, 2) if not ctx.tm(mu, n).row_sums_ok()]
    except RuntimeError as exc:
        # the other identities need these operators: fail them too
        return [
            CheckResult.of("row sums equal M_mu on F_1 and F_2", [str(exc)]),
            CheckResult.of("semigroup and commutation exact", ["operators not assembled"]),
            CheckResult.of("sup norm non-expansive", ["operators not assembled"]),
        ]
    rows = [f"first failure at mu={mu.coords}, n={n}" for mu, n in bad[:1]]

    # each ordered pair once: the pair read the other way round checks commutation
    semigroup = []
    for n, m1, m2 in itertools.product((1, 2), mus, mus):
        if n + m1.norm + m2.norm > 4:
            continue
        tm1, tm2, tm12 = ctx.tm(m1, n), ctx.tm(m2, n), ctx.tm(m1 + m2, n)
        if tm12.m_mu != tm1.m_mu * tm2.m_mu or not np.array_equal(
            transfer.compose(tm1.preimages, tm2.preimages), tm12.preimages
        ):
            semigroup.append(f"L_{m1.coords} L_{m2.coords} on F_{n}")
    expanding = [
        f"mu={mu.coords}, n={n}"
        for mu in mus
        for n in (1, 2)
        if not transfer.check_sup_contraction(ctx.tm(mu, n))
    ]
    return [
        CheckResult.of("row sums equal M_mu on F_1 and F_2", rows),
        CheckResult.of("semigroup and commutation exact", semigroup),
        CheckResult.of("sup norm non-expansive", expanding),
    ]


def check_lasota_yorke(ctx: FixtureContext) -> List[CheckResult]:
    out = []
    strong_mus = [ctx.strong] if ctx.rank > 1 else [Coweight((1,)), Coweight((2,))]
    for theta in (Fraction(1, 2), Fraction(1, 4)):
        reps = [transfer.check_lasota_yorke(ctx.space, ctx.tm(mu, 2), theta) for mu in strong_mus]
        worst = min((rep.max_slack for rep in reps if rep.max_slack is not None), default=None)
        large = [f"mu={mu.coords} {v}" for mu, rep in zip(strong_mus, reps) for v in rep.violations]
        out.append(CheckResult.of(f"seminorm contraction, theta = {theta}", large, f"min slack {worst}"))
    # non-expansion for merely dominant shifts
    large = [
        f"mu={mu.coords} {v}"
        for mu in ctx.generators
        for v in transfer.check_lasota_yorke(ctx.space, ctx.tm(mu, 2), Fraction(1, 2)).violations
    ]
    out.append(CheckResult.of("seminorm non-expansion for dominant shifts", large))

    # iterated contraction |L^l phi| <= theta^l |phi| + C |phi|_oo, C = (2/theta)/(1-theta)
    theta = Fraction(1, 2)
    c_iter = (2 / theta) / (1 - theta)
    powers = transfer.power_seminorms(ctx.space, ctx.tm(ctx.strong, 2), theta, 3)
    large = [
        f"L^{ell} too large on {v}"
        for ell, columns in enumerate(powers, 1)
        for v in transfer.check_indicator_bound(
            ctx.space, columns, 2, theta, theta**ell, c_iter
        ).violations
    ]
    out.append(CheckResult.of("iterated contraction up to the third power", large))
    return out


def check_fn_invariance(ctx: FixtureContext) -> List[CheckResult]:
    """F_n consistency on the context's operators, at F_1 and, for the
    strongly dominant coweight, at F_2."""
    reps = [
        transfer.check_fn_invariance(ctx.space, ctx.tm(mu, 1), ctx.tm(mu, 2))
        for mu in ctx.generators + ([ctx.strong] if ctx.strong.norm > 1 else [])
    ]
    # the F_3 operator is read only here, so it is not cached
    big = transfer.transfer_matrix(ctx.space, ctx.strong, 3)
    reps.append(transfer.check_fn_invariance(ctx.space, ctx.tm(ctx.strong, 2), big))
    return [
        CheckResult.of("matrix compression consistent across radii",
                       [w for rep in reps for w in rep.compression]),
        CheckResult.of("strongly dominant shift maps F_2 into F_1", reps[-1].maps_into or []),
    ]


def check_joint_trivial(ctx: FixtureContext) -> List[CheckResult]:
    out = []
    mats = ctx.f1.mats
    dim = mats[0].shape[0]
    ones = np.ones(dim) / np.sqrt(dim)
    res = max(float(np.linalg.norm(m @ ones - ones)) for m in mats)
    joint = ctx.f1.joint
    has_one = any(
        max(abs(c - 1) for c in j.chi) < 1e-9 for j in joint
    )
    out.append(
        CheckResult(
            "constant function is a joint eigenvector",
            res <= 1e-10 and has_one,
            f"residual {res:.2e}",
        )
    )
    if ctx.rank == 1 and ctx.system.kind == "A1~":
        has_minus = any(abs(j.chi[0] + 1) < 1e-9 for j in joint)
        out.append(CheckResult("parity eigenvalue -1 present", has_minus))
    return out


def check_koszul_suite(ctx: FixtureContext, seed: int = 7) -> List[CheckResult]:
    family = ctx.f1
    r = len(family.mats)
    rng = PCG64(seed)
    joint = family.joint
    chars = [j.chi for j in joint]
    randoms = [
        tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(r))
        for _ in range(100)
    ]

    euler, far = [], []
    for chi in chars + randoms:
        rec = family.koszul(chi)
        if sum((-1) ** p * h for p, h in enumerate(rec.cohomology)) != 0:
            euler.append(f"chi={chi}: cohomology {rec.cohomology}")
        if max(family.distances(chi)) > 1e-3 and any(h != 0 for h in rec.cohomology):
            far.append(f"chi={chi}: cohomology {rec.cohomology}")
    h0 = [
        f"chi={j.chi}: dim H^0 = {family.koszul(j.chi).cohomology[0]}, multiplicity {j.multiplicity}"
        for j in joint
        if family.koszul(j.chi).cohomology[0] != j.multiplicity
    ]
    # decided once for every character; a failure names its cube character
    _, square, hodge = family.identities
    return [
        CheckResult.of("Koszul differentials square to zero", [square] if square else []),
        CheckResult.of("Euler characteristic of cohomology vanishes", euler),
        CheckResult.of("cohomology vanishes away from the spectra", far),
        CheckResult.of("chain/cochain duality dim H_p = dim H^(r-p)", [hodge] if hodge else []),
        CheckResult.of("dim H^0 equals the joint eigenspace dimension", h0),
    ]


def check_parametrix(ctx: FixtureContext, seed: int = 11) -> List[CheckResult]:
    mats = ctx.f1.mats
    r = len(mats)
    rng = PCG64(seed)
    exps = [e for e in itertools.product(range(5), repeat=r) if 0 < sum(e) <= 4]
    chis = [
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r))
        for _ in range(20)
    ]
    # one exponent at a time, its chi-free product shared by the characters;
    # neither the powers nor any B_i outlive the loop, since the homotopy
    # checks below do not read them
    powers = spectra.matrix_powers(mats, 4)
    worst = 0.0
    for e in exps:
        target = spectra.power_product(powers, e)
        for chi in chis:
            bs = spectra.parametrix(mats, e, chi, powers=powers)
            worst = spectra.parametrix_residual(mats, e, chi, bs, floor=worst, target=target)
            del bs
    del powers, target
    chis = [tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r)) for _ in range(5)]
    nonzero = [
        f"chi={chi}"
        for chi in chis + [j.chi for j in ctx.f1.joint[:5]]
        if not spectra.homotopy_zero_check(mats, chi)[1]
    ]
    return [
        CheckResult("parametrix identity to 1e-12", worst <= 1e-12, f"worst residual {worst:.2e}"),
        CheckResult.of("homotopy operator is zero on cohomology", nonzero),
    ]


def check_taylor_main(ctx: FixtureContext) -> List[CheckResult]:
    """Gated Taylor members are the joint eigenvalues; unlike `taylor_report`'s
    mismatch list, a mismatch fails here even at an ambiguous character."""
    out = []
    family = ctx.f1
    for theta in (0.25, 0.5):
        report = spectra.taylor_report(family, theta)
        wrong = [
            f"chi={chi}: {'a Taylor member, not joint' if member else 'joint, not a Taylor member'}"
            for chi, member in report.taylor.items()
            if member != family.is_joint(chi)
        ]
        detail = f"{len(report.taylor)} gated characters, {len(report.joint)} joint eigenvalues"
        out.append(CheckResult.of(f"Taylor members = joint eigenvalues (theta={theta})", wrong, detail))
    return out


def check_rank1_oracle(ctx: FixtureContext, edges) -> List[CheckResult]:
    out = []
    vals, residual, des, q = oracles.ihara_spectrum(edges)
    out.append(
        CheckResult("determinant identity residual <= 1e-10", residual <= 1e-10, f"{residual:.2e}")
    )
    tm = ctx.tm(Coweight((1,)), 1)
    b, _ = oracles.non_backtracking_matrix(edges)
    perm = oracles.germ_edge_positions(ctx.system, ctx.space.table(1), des)
    halved = b.T[np.ix_(perm, perm)]
    nonzero = np.nonzero(halved)
    unequal = [f"M_mu = {tm.m_mu} but q = {q}"] if tm.m_mu != q else []
    unequal += [
        f"the nonzero {what} differ"
        for what, x, y in zip(("rows", "columns", "entries"), transfer.cells(tm.preimages),
                              nonzero + (halved[nonzero],))
        if not np.array_equal(x, y)
    ]
    out.append(CheckResult.of("transfer matrix equals the halved edge operator", unequal))
    mine = np.linalg.eigvals(tm.dense())
    ok = oracles.multiset_close(np.sort_complex(mine), np.sort_complex(vals / q), 1e-8)
    out.append(CheckResult("spectrum matches the edge-operator oracle", ok))
    return out


def check_a2_health(ctx: FixtureContext) -> List[CheckResult]:
    out = []
    n_ch = ctx.system.num_chambers
    dim = len(ctx.space.table(1))
    out.append(CheckResult("dim F_1 = 3 N", dim == 3 * n_ch, f"N={n_ch}, dim={dim}"))
    q = ctx.system.params[0]
    t1 = ctx.tm(Coweight((1, 0)), 1)
    m1 = t1.m_mu
    out.append(CheckResult("M_w1 = q^2", m1 == q * q and t1.row_sums_ok(), f"M={m1}"))
    w1, w2 = ctx.generators
    apart = [
        f"F_{n}" for n in (1, 2) if not transfer.commute(ctx.tm(w1, n).preimages, ctx.tm(w2, n).preimages)
    ]
    out.append(CheckResult.of("generators commute exactly on F_1 and F_2", apart))
    return out


# ----------------------------------------------------------------------
# the full suite


def suite_radius(ctx: FixtureContext, metric_radius: int) -> int:
    """The largest germ radius `run_suite` reads: the metric radius, or the
    3 + |strong| of the strongly dominant operator on F_3 if that is larger."""
    return max(metric_radius, 3 + ctx.strong.norm)


SUITE = (  # (half, lines) of each check after the local building checks, in CLI order
    ("germ", lambda ctx, radius, edges: check_walk_parameters(ctx)),
    ("germ", lambda ctx, radius, edges: check_tables(ctx, max_radius=radius)),
    ("germ", lambda ctx, radius, edges: check_metric_suite(ctx, radius=radius)),
    ("germ", lambda ctx, radius, edges: check_distance_cross_validation(ctx, radius=min(2, radius))),
    ("germ", lambda ctx, radius, edges: check_transfer_exact(ctx)),
    ("germ", lambda ctx, radius, edges: check_lasota_yorke(ctx)),
    ("germ", lambda ctx, radius, edges: check_fn_invariance(ctx)),
    ("spectral", lambda ctx, radius, edges: check_joint_trivial(ctx)),
    ("spectral", lambda ctx, radius, edges: check_koszul_suite(ctx)),
    ("spectral", lambda ctx, radius, edges: check_parametrix(ctx)),
    ("spectral", lambda ctx, radius, edges: check_taylor_main(ctx)),
    ("spectral", lambda ctx, radius, edges: check_rank1_oracle(ctx, edges)
     if edges is not None and ctx.system.kind == "A1~" else []),
    ("germ", lambda ctx, radius, edges: check_a2_health(ctx) if ctx.system.kind == "A2~" else []),
)


def _run_half(half: str, ctx: FixtureContext, metric_radius: int, edges, parent=None) -> list:
    """One list of lines per `SUITE` entry, [] for one `half` does not run; given the pid
    `parent` (in the forked child), it ends between two checks once that process is gone."""
    lines = []
    for which, check in SUITE:
        if which == half and parent is not None and os.getppid() != parent:
            os._exit(1)
        lines.append(check(ctx, metric_radius, edges) if which == half else [])
    return lines


def _fork(fn, *args) -> tuple:
    """(pid, read end of a pipe) of a forked child that sends the pickle of
    (fn(*args), None, None), or of (None, the exception it raised, the
    child's traceback).  The child takes SIGTERM's default action."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read)
            try:
                payload = pickle.dumps((fn(*args), None, None))
            except BaseException as exc:
                payload = pickle.dumps((None, exc, traceback.format_exc().rstrip()))
            with open(write, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    return pid, read


def _reap(pid: int, pipe: int, kill: bool) -> tuple:
    """(wait status, bytes sent) of a `_fork` child, which is killed first if
    `kill`, or if this process is interrupted while it waits."""
    try:
        if kill:
            os.kill(pid, signal.SIGKILL)
        with open(pipe, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    return status, data


def _join(pid: int, pipe: int):
    """The result of a `_fork` child, once it is reaped; its exception is
    raised here, with the child's traceback as a note, and a child that sent
    none raises ChildProcessError."""
    status, data = _reap(pid, pipe, kill=False)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"the germ-layer checks ended without a result ({how})")
    result, exc, child_traceback = pickle.loads(data)
    if exc is not None:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), child_traceback]  # add_note is 3.11+
        raise exc
    return result


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def run_suite(ctx: FixtureContext, metric_radius: int = 3, edges=None) -> List[CheckResult]:
    """Every check on one system, in the order of the CLI's lines; the germ
    half runs in a forked child (see the module docstring)."""
    failures = ["{}: {}".format(*failure) for failure in ctx.report.failures]
    results = [CheckResult.of("local building checks", failures)]
    if not results[0].passed:
        return results  # no germ table is built for a system that fails them
    try:
        for g in ctx.generators:
            ctx.tm(g, 1)
    except Exception:
        pass  # nothing is cached: each half meets the failure again in its own order
    # SIGTERM becomes SystemExit while the child runs, so that it is killed
    # and reaped; a child whose parent dies otherwise ends at its next check
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        pid, pipe = _fork(_run_half, "germ", ctx, metric_radius, edges, os.getpid())
        try:
            spectral = _run_half("spectral", ctx, metric_radius, edges)
        except Exception:
            _join(pid, pipe)  # the germ half ran first: its exception wins
            raise
        except BaseException:  # KeyboardInterrupt, SystemExit or SIGTERM
            _reap(pid, pipe, kill=True)
            raise
        germ = _join(pid, pipe)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return results + [line for g, s in zip(germ, spectral) for line in g + s]
