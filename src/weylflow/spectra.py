"""Joint spectra of the commuting transfer family and Koszul complexes.

A `Family` is the generator family on F_1 (one operator per fundamental
coweight, or a custom set), built from assembled transfer matrices.  It
checks on construction that their preimage lists commute exactly, so no
spectral function here sees an unchecked family, and it owns the data
that the spectral checks share: each generator's eigenvalues, one joint
spectrum and one Koszul record per character, under one seed and one set
of tolerances.  Cohomology does not depend on theta; only the magnitude
gate of `taylor_report` does, so both thetas of the Taylor check read the
same records.  The gate (`passes_gate`) admits a character when its
modulus exceeds theta at w_1 + ... + w_r or at twice that sum.

Joint eigenvalues are found from a seeded random linear combination and
certified through the singular values of the stacked system; Koszul
cochain and chain complexes give the cohomological picture, with
parametrices realizing the Nullstellensatz identity
sum_i (A_i - chi_i) B_i(chi) = A_mu - chi(mu).  Seeded draws come from
`pcg64.PCG64`, numpy's `default_rng` stream without numpy.random.

Every rank decision is one rule (`_rank_rule`): a relative singular-value
threshold with an explicit ambiguity band; characters with singular values
inside the band are reported as ambiguous rather than classified.  Per
character only the r cochain differentials are built, for their rank SVDs.
At a joint eigenvalue d_0 needs none: it is the stacked matrix whose
singular values `joint_spectrum` keeps.  For r >= 2 the end differentials
d_0 and d_(r-1) hold each B_i = A_i - chi_i as a d x d block, so their d-th
singular value is >= sigma_min(B_i) (interlacing), and s_max <= ||d_p||_F:
one Cholesky factorization (`_clears`) for the B_i farthest from its spectrum
may show both of full rank, clear of the band, or leave them to their SVDs.
Since sigma_min(B_i) <= dist(chi_i, spec A_i), it is not tried near the spectra.
d o d = 0 in both complexes, and the chain complex, built on its own, being
the Hodge conjugate of the cochain one (so dim H_p = dim H^(r-p)), hold for
every character or none: `Family.identities` decides them once, exactly.

`parametrix` and `parametrix_residual` take one character at a time, so
a caller holds one character's d x d blocks; a table of generator powers
(`matrix_powers`) can be shared across characters and exponents.  The
worst residual over many characters is a pruned running maximum
(`worst_norm`), which takes an SVD only of a block whose Frobenius norm
can beat it.  `homotopy_zero_check` tests the parametrix of exponents
(1, ..., 1), at the rank tolerance `TOL_RANK` and a residual bound of
1e-8 relative; it reads kernel and image of each cochain differential off
one SVD, and applies the homotopy to each d-row block of a kernel instead
of forming it on the whole cochain space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .pcg64 import PCG64
from .transfer import InvariantError, commute

DEFAULT_SEED = 0xC0FFEE
TOL_RES = 1e-8
TOL_RANK = 1e-9
TOL_MERGE = 1e-6
AMBIGUITY_BAND = 10.0


def eigen(a: np.ndarray, tol_res: float = TOL_RES):
    """Eigenvalues with eigenvectors and residuals, deterministically ordered.

    Pairs are sorted by (real, imaginary); each vector is normalized with
    its largest-magnitude entry rotated to the positive real axis.  A pair
    whose residual ||A v - w v|| exceeds tol_res * ||A|| is reported as
    non-converged by raising, never returned silently.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("eigen expects a nonempty square matrix")
    vals, vecs = np.linalg.eig(a)
    scale = max(np.linalg.norm(a, 2), 1e-300)
    order = np.lexsort((vals.imag, vals.real))
    out = []
    for idx in order:
        v = vecs[:, idx]
        v = v / np.linalg.norm(v)
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        v = v / phase
        res = float(np.linalg.norm(a @ v - vals[idx] * v))
        if res > tol_res * scale:
            raise RuntimeError(
                f"eigen pair residual {res:.3e} exceeds {tol_res:.1e} * ||A||"
            )
        out.append((complex(vals[idx]), v, res))
    return out


def passes_gate(chi, theta: float) -> bool:
    """Whether |chi(w_1 + ... + w_r)| or |chi(2 w_1 + ... + 2 w_r)| exceeds theta."""
    return max(abs(math.prod((v ** k for v in chi), start=1 + 0j)) for k in (1, 2)) > theta


@dataclass
class JointEigenvalue:
    chi: tuple
    multiplicity: int
    residual: float
    vector: np.ndarray
    singular_values: np.ndarray  # of the stacked [A_i - chi_i], the Koszul d_0 at chi


@dataclass
class SpectrumReport:
    theta: float
    dim: int
    joint: List[JointEigenvalue]
    taylor: Dict[tuple, bool] = field(default_factory=dict)
    cohomology: Dict[tuple, tuple] = field(default_factory=dict)
    offspectrum: List[tuple] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)


class Family:
    """The generator family on F_1, checked to commute, with its shared spectral data.

    `tms` are assembled `transfer.TransferMatrix`es on F_1.  Construction
    raises `InvariantError` unless their preimage lists commute exactly.
    `counts` are their integer matrices C_i = M_i A_i and `mats` the float
    A_i; `eigenvalues`, `joint`, `identities` and `koszul` (by
    `koszul_complexes`) are computed once, under its seed and tolerances.
    """

    def __init__(self, tms, seed: int = DEFAULT_SEED, tol_res: float = TOL_RES,
                 tol_rank: float = TOL_RANK, tol_merge: float = TOL_MERGE):
        for a, b in itertools.combinations([tm.preimages for tm in tms], 2):
            if not commute(a, b):
                raise InvariantError("the operator family does not commute exactly")
        self.counts = [tm.counts() for tm in tms]
        self.mats = [c / tm.m_mu for c, tm in zip(self.counts, tms)]
        self.seed, self.tol_res, self.tol_rank, self.tol_merge = seed, tol_res, tol_rank, tol_merge
        self._koszul: Dict[tuple, KoszulComplexRec] = {}

    @functools.cached_property
    def eigenvalues(self) -> List[List[complex]]:
        """Each generator's eigenvalues, in `eigen` order."""
        return [[val for val, _, _ in eigen(m, tol_res=max(self.tol_res, 1e-6))] for m in self.mats]

    @functools.cached_property
    def joint(self) -> List[JointEigenvalue]:
        return joint_spectrum(self)

    @functools.cached_property
    def identities(self):
        """(max_defect, square, hodge): the Koszul identities, decided exactly for every chi.

        max_defect is the largest |entry| of every d_(p+1) d_p of both
        complexes and square names the first (chi, degree) where one is not
        zero; hodge names the first (chi, chain degree) at which
        `koszul_chain` is not the `hodge_conjugate` of `koszul_cochain`
        (`chain_mismatch`); each is None if there is none.  They are taken
        over `counts` on the cube {0, 1}^r.  Each block of either difference
        has degree <= 1 in each chi_i, so if it vanishes on the cube it
        vanishes for every chi.  Its entries are integers of size at most
        2 dim (M + 1)^2, far below 2^53, so complex128 arithmetic is exact.
        Both complexes are fixed signed blocks of the A_i - chi_i, so the
        scaling A_i = C_i / M_i carries the result over to the float family.
        """
        defect, square, hodge = 0.0, None, None
        for chi in itertools.product((0, 1), repeat=len(self.counts)):
            co, ch = koszul_cochain(self.counts, chi), koszul_chain(self.counts, chi)
            products = [(f"cochain degree {p}", b @ a) for p, (a, b) in enumerate(zip(co, co[1:]))]
            products += [(f"chain degree {q + 2}", a @ b) for q, (a, b) in enumerate(zip(ch, ch[1:]))]
            for where, m in products:
                defect = max(defect, float(np.abs(m).max()))
                square = square or (f"chi={chi} at {where}" if defect else None)
            q = chain_mismatch(co, ch)
            hodge = hodge or (None if q is None else f"chi={chi} at chain degree {q}")
        return defect, square, hodge

    def koszul(self, chi) -> KoszulComplexRec:
        if chi not in self._koszul:
            self._koszul[chi] = koszul_complexes(self, chi)
        return self._koszul[chi]

    def is_joint(self, chi) -> bool:
        """Whether chi matches a joint eigenvalue within tol_merge in every coordinate."""
        return any(
            max(abs(a - b) for a, b in zip(chi, j.chi)) < self.tol_merge for j in self.joint
        )

    def distances(self, chi) -> List[float]:
        """The distance of each chi_i from the spectrum of generator i."""
        return [min(abs(c - v) for v in vals) for c, vals in zip(chi, self.eigenvalues)]


def joint_spectrum(family: Family) -> List[JointEigenvalue]:
    """Joint eigenvalues of a checked commuting family.

    Candidates come from the eigenvectors of a random complex combination,
    with phases drawn from `PCG64(family.seed)` (the `default_rng` stream);
    each candidate tuple is certified by the null space of the stacked
    matrix [A_i - chi_i], and candidates closer than tol_merge are merged.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in family.mats]
    tol_res, tol_merge = family.tol_res, family.tol_merge
    rng = PCG64(family.seed)
    phases = rng.uniform(0.0, 2 * np.pi, size=len(mats))
    combo = sum(np.exp(1j * p) * m for p, m in zip(phases, mats))
    pairs = eigen(combo, tol_res=max(tol_res, 1e-6))
    candidates = []
    for _, v, _ in pairs:
        chi = tuple(complex(np.vdot(v, m @ v) / np.vdot(v, v)) for m in mats)
        candidates.append(chi)
    merged: List[tuple] = []
    for chi in candidates:
        if not any(
            max(abs(a - b) for a, b in zip(chi, other)) < tol_merge for other in merged
        ):
            merged.append(chi)
    scale = max(np.linalg.norm(m, 2) for m in mats)
    dim = mats[0].shape[0]
    out = []
    for chi in merged:
        # the null space of the stacked matrix [A_i - chi_i], which is d_0 at chi
        stacked = np.vstack([m - c * np.eye(dim) for m, c in zip(mats, chi)])
        _, s, vh = np.linalg.svd(stacked, full_matrices=False)
        null_dim = dim - _rank_rule(s, dim, family.tol_rank)[0]
        if null_dim == 0:
            continue
        v = vh[dim - null_dim].conj()  # a new array: a view would pin the whole SVD factor
        res = max(float(np.linalg.norm(m @ v - c * v)) for m, c in zip(mats, chi))
        if res > tol_res * scale:
            continue
        out.append(JointEigenvalue(chi, null_dim, res, v, s))
    out.sort(key=lambda j: tuple((c.real, c.imag) for c in j.chi))
    return out


def _rank_rule(s: np.ndarray, size: int, tol_rank: float):
    """(rank, ambiguous) from descending singular values: the count above tol_rank * s_max * size,
    and whether any value lies within a factor AMBIGUITY_BAND of that threshold."""
    thresh = tol_rank * (s[0] if len(s) and s[0] > 0 else 1.0) * size
    band = np.any((s > thresh / AMBIGUITY_BAND) & (s < thresh * AMBIGUITY_BAND))
    return int(np.sum(s > thresh)), bool(band)


# ----------------------------------------------------------------------
# Koszul complexes


def _wedge_basis(r: int, p: int):
    return list(itertools.combinations(range(r), p))


def koszul_cochain(mats: Sequence[np.ndarray], chi: Sequence[complex]):
    """Matrices of the cochain differentials wedge(e_i) x (A_i - chi_i)."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    r = len(mats)
    d = mats[0].shape[0]
    shifted = [m - c * np.eye(d) for m, c in zip(mats, chi)]
    diffs = []
    for p in range(r):
        src = _wedge_basis(r, p)
        dst = _wedge_basis(r, p + 1)
        dst_pos = {c: k for k, c in enumerate(dst)}
        mat = np.zeros((len(dst) * d, len(src) * d), dtype=np.complex128)
        for sc, combo in enumerate(src):
            for i in range(r):
                if i in combo:
                    continue
                tgt = tuple(sorted(combo + (i,)))
                sign = (-1) ** tgt.index(i)
                tc = dst_pos[tgt]
                mat[tc * d:(tc + 1) * d, sc * d:(sc + 1) * d] += sign * shifted[i]
        diffs.append(mat)
    return diffs


def koszul_chain(mats: Sequence[np.ndarray], chi: Sequence[complex]):
    """Matrices of the chain differentials contraction(e_i) x (A_i - chi_i)."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    r = len(mats)
    d = mats[0].shape[0]
    shifted = [m - c * np.eye(d) for m, c in zip(mats, chi)]
    diffs = []
    for p in range(1, r + 1):
        src = _wedge_basis(r, p)
        dst = _wedge_basis(r, p - 1)
        dst_pos = {c: k for k, c in enumerate(dst)}
        mat = np.zeros((len(dst) * d, len(src) * d), dtype=np.complex128)
        for sc, combo in enumerate(src):
            for pos, i in enumerate(combo):
                tgt = tuple(x for x in combo if x != i)
                sign = (-1) ** pos
                tc = dst_pos[tgt]
                mat[tc * d:(tc + 1) * d, sc * d:(sc + 1) * d] += sign * shifted[i]
        diffs.append(mat)
    return diffs


def _rank(mat: np.ndarray, tol_rank: float):
    # M and M^T share their singular values; LAPACK is faster on the tall one
    s = np.linalg.svd(mat if mat.shape[0] >= mat.shape[1] else mat.T, compute_uv=False)
    return _rank_rule(s, max(mat.shape), tol_rank)


def _clears(b: np.ndarray, clear: float) -> bool:
    """Whether sigma_min(b) > clear, by a Cholesky factorization of b^H b - clear^2 I:
    where its rounding, at most about 2 d^2 eps ||b||_F^2, is below clear^2 / 2, a
    success proves sigma_min(b) > clear / sqrt(2); elsewhere b's singular values decide."""
    if clear * clear <= 4 * len(b) ** 2 * np.finfo(float).eps * np.linalg.norm(b) ** 2:
        return np.linalg.svd(b, compute_uv=False)[-1] > clear
    try:
        return np.linalg.cholesky(b.conj().T @ b - clear * clear * np.eye(len(b))) is not None
    except np.linalg.LinAlgError:
        return False


def hodge_conjugate(d: np.ndarray, r: int, p: int) -> np.ndarray:
    """The chain differential that the Hodge star makes of the cochain d_p.

    Block (T, U) of the result, the boundary from degree r - p to r - p - 1,
    is sgn(T^c T) * sgn(U^c U) * (-1)^p times block (T^c, U^c) of d_p, where
    sgn(S T) is the sign of the permutation that sorts S followed by T.
    Complements list the wedge basis in reverse, hence the reversed blocks.
    """
    def signs(k):
        comps = [(tuple(x for x in range(r) if x not in t), t) for t in _wedge_basis(r, k)]
        return np.array([(-1) ** sum(a > b for a in c for b in t) for c, t in comps])

    rows, cols = signs(r - p - 1), signs(r - p)
    blocks = d.reshape(len(rows), -1, len(cols), d.shape[1] // len(cols))[::-1, :, ::-1]
    return (blocks * ((-1) ** p * rows[:, None, None, None] * cols[:, None])).reshape(d.shape)


def chain_mismatch(co: Sequence[np.ndarray], ch: Sequence[np.ndarray]) -> Optional[int]:
    """Least q for which the chain boundary ch[q - 1] is not, bit for bit, the
    `hodge_conjugate` of the cochain differential d_(r-q); None if there is none."""
    r = len(co)
    return next((q for q in range(1, r + 1)
                 if not np.array_equal(ch[q - 1], hodge_conjugate(co[r - q], r, r - q))), None)


@dataclass
class KoszulComplexRec:
    """Cohomology data of one character against the operator family."""

    chi: tuple
    cochain_dims: tuple       # dimensions of the cochain spaces
    cohomology: tuple         # dim H^p for p = 0..r
    homology: Optional[tuple]  # dim H_p = dim H^(r-p); None if the Hodge identity fails
    max_defect: float         # the family's exact largest |entry| of delta o delta
    ambiguous: bool


def koszul_complexes(family: Family, chi: Sequence[complex]) -> KoszulComplexRec:
    """Cohomology at chi from the ranks of the r cochain differentials; homology is
    the reversed cohomology, or None if `family.identities` finds no Hodge identity."""
    chi, tol = tuple(chi), family.tol_rank
    co = koszul_cochain(family.mats, chi)
    r, d = len(co), family.mats[0].shape[0]
    dims = tuple(math.comb(r, p) * d for p in range(r + 1))
    # d_0's singular values, if a joint spectrum computed already holds chi
    known = next((j.singular_values for j in vars(family).get("joint", ()) if j.chi == chi), None)
    dist = family.distances(chi) if r > 1 and known is None else [0.0]
    i = int(np.argmax(dist))
    # twice the band's top, AMBIGUITY_BAND * tol * s_max * max(shape), where s_max <=
    # ||d_p||_F = ||d_0||_F; the (r d)^2 eps floor keeps the margin above rounding.
    # A `_clears` success proves sigma_min > clear / sqrt(2), above the band top clear / 2
    clear = 2 * r * d * max(AMBIGUITY_BAND * tol, r * d * np.finfo(float).eps)
    clear *= np.linalg.norm(co[0])
    full = dist[i] > clear and _clears(co[0][i * d:(i + 1) * d], clear)
    ranks, bands = zip(*(
        (d, False) if full and p in (0, r - 1) else _rank(mat, tol) if p or known is None
        else _rank_rule(known, r * d, tol) for p, mat in enumerate(co)
    ))
    padded = (0,) + ranks + (0,)  # padded[p] = rank d_(p-1), padded[p + 1] = rank d_p
    coh = tuple(dims[p] - padded[p] - padded[p + 1] for p in range(r + 1))
    defect, _, hodge = family.identities
    return KoszulComplexRec(chi, dims, coh, None if hodge else coh[::-1], defect, any(bands))


# ----------------------------------------------------------------------
# parametrix and homotopy


def matrix_powers(mats: Sequence[np.ndarray], top: int):
    """[A_i^0, ..., A_i^top] for each generator, as `np.linalg.matrix_power` forms them."""
    return [
        [np.linalg.matrix_power(np.asarray(m, dtype=np.complex128), k) for k in range(top + 1)]
        for m in mats
    ]


def parametrix(mats: Sequence[np.ndarray], exponents: Sequence[int], chi, powers=None):
    """Telescoping solution of the ideal-membership identity.

    Returns B_1..B_r with sum_i (A_i - chi_i) B_i = prod A_i^{l_i} - prod chi_i^{l_i},
    using prod x - prod b = sum_i (prod_{j<i} x_j)(x_i^{l_i} - b_i^{l_i})(prod_{j>i} b_j)
    and the geometric factorization of x^l - b^l.

    `chi` is one character; the powers of chi are Python complex
    arithmetic.  `powers` is a `matrix_powers` table of the family, which a
    caller can share across characters and exponents.
    """
    if powers is None:
        powers = matrix_powers(mats, max(exponents))
    d = powers[0][0].shape[0]
    out = []
    prefix = None  # prod_{j<i} A_j^{l_j}
    for i, li in enumerate(exponents):
        geom = np.zeros((d, d), dtype=np.complex128)
        for m in range(li):
            geom += powers[i][m] * chi[i] ** (li - 1 - m)
        suffix = math.prod((chi[j] ** exponents[j] for j in range(i + 1, len(chi))), start=1 + 0j)
        out.append((geom if prefix is None else prefix @ geom) * suffix)
        if i + 1 < len(exponents):  # no B_i reads the last prefix
            prefix = powers[i][li] if prefix is None else prefix @ powers[i][li]
    return out


def worst_norm(blocks: np.ndarray, floor: float = 0.0) -> float:
    """max(floor, largest 2-norm of the (k, d, d) blocks), exactly.

    Since ||R||_2 <= ||R||_F, a block whose Frobenius norm cannot beat the
    running maximum gets no SVD; the factor 1 + 1e-8 covers the rounding of
    both norms, so pruning never drops a block that would raise it.
    """
    worst = floor
    for block, fro in zip(blocks, np.linalg.norm(blocks, axis=(1, 2)).tolist()):
        if fro * (1 + 1e-8) > worst:
            worst = max(worst, float(np.linalg.norm(block, 2)))
    return worst


def _ideal_sum(mats, chi, bs) -> np.ndarray:
    """sum_i (A_i - chi_i) B_i over complex matrices, the left side of the parametrix identity."""
    eye = np.eye(mats[0].shape[0], dtype=np.complex128)
    out = np.zeros_like(eye)
    for a, c, b in zip(mats, chi, bs):
        out += (a - c * eye) @ b
    return out


def power_product(powers, exponents) -> np.ndarray:
    """prod_i A_i^{l_i} from a `matrix_powers` table; a zero exponent needs no product."""
    factors = [p[l] for p, l in zip(powers, exponents) if l]
    return functools.reduce(np.matmul, factors or [powers[0][0]])


def parametrix_residual(mats, exponents, chi, bs, floor: float = 0.0, target=None) -> float:
    """max(floor, ||sum_i (A_i - chi_i) B_i - (prod A_i^{l_i} - prod chi_i^{l_i})||_2).

    `chi` is one character and `bs` its B_i from `parametrix`; a caller
    that passes the running maximum as `floor` gets the maximum over many
    characters, with an SVD only where one can raise it (see `worst_norm`).
    `target` is prod A_i^{l_i} (`power_product`), which a caller can share across characters.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if target is None:
        target = power_product(matrix_powers(mats, max(exponents)), exponents)
    lhs = _ideal_sum(mats, chi, bs)
    eye = np.eye(mats[0].shape[0], dtype=np.complex128)
    scalar = math.prod((v ** l for v, l in zip(chi, exponents)), start=1 + 0j)
    lhs -= target - scalar * eye
    return worst_norm(lhs[None], floor)


def homotopy_zero_check(mats: Sequence[np.ndarray], chi: Sequence[complex]):
    """Verify that sum (A_i - chi_i) B_i kills every cohomology class.

    The B_i are the parametrix of exponents (1, ..., 1).  For each degree p,
    vectors in the kernel of the cochain differential are mapped by the
    blockwise operator and the component orthogonal to the image of the
    previous differential must vanish to 1e-8 times the operator's norm.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    r = len(mats)
    d = mats[0].shape[0]
    f = _ideal_sum(mats, chi, parametrix(mats, (1,) * r, chi))
    scale = max(float(np.linalg.norm(f, 2)), 1.0)
    co = koszul_cochain(mats, chi)
    # one SVD per differential serves as kernel at p and as image at p + 1;
    # a differential is dropped once it is factored
    kernels, images = [], []
    while co:
        mat = co.pop(0)
        # LAPACK is faster on tall matrices: for a wide M, factor M^H = V S U^H;
        # a tall M needs no more of U than its first columns
        tall, size = mat.shape[0] >= mat.shape[1], max(mat.shape)
        x, s, yh = np.linalg.svd(mat if tall else mat.conj().T, full_matrices=not tall)
        del mat
        u, v = (x, yh.conj().T) if tall else (yh.conj().T, x)
        rank = _rank_rule(s, size, TOL_RANK)[0]
        kernels.append(v[:, rank:])
        images.append(u[:, :rank])
    kernels.append(np.eye(len(_wedge_basis(r, r)) * d, dtype=np.complex128))
    worst = 0.0
    for p in range(r + 1):
        kernel = kernels[p]
        if kernel.shape[1] == 0:
            continue
        # the homotopy acts as f on each d-row block of the degree-p cochains
        moved = (f @ kernel.reshape(-1, d, kernel.shape[1])).reshape(kernel.shape)
        if p >= 1:
            img = images[p - 1]
            moved = moved - img @ (img.conj().T @ moved)
        worst = max(worst, float(np.linalg.norm(moved, 2)))
    return worst, worst <= 1e-8 * scale


# ----------------------------------------------------------------------
# full report


def taylor_report(family: Family, theta: float) -> SpectrumReport:
    """Classify characters as joint eigenvalues and by Koszul cohomology.

    Tested characters are the family's joint eigenvalues and eight random
    samples away from the generators' spectra.  A character passing the
    magnitude gate (`passes_gate`) must be a Taylor member
    (nonzero cohomology) exactly when it matches a joint eigenvalue; a
    mismatch at an ambiguous character is not reported.  Only the gate
    depends on theta.
    """
    r = len(family.mats)
    rng = PCG64(family.seed ^ 0x5EED)
    off = []
    guard = 0
    while len(off) < 8 and guard < 800:
        guard += 1
        cand = tuple(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(r)
        )
        if max(family.distances(cand)) > 1e-2:
            off.append(cand)
    joint = family.joint
    report = SpectrumReport(
        theta=float(theta), dim=family.mats[0].shape[0], joint=joint, offspectrum=off
    )
    for chi in [j.chi for j in joint] + off:
        rec = family.koszul(chi)
        member = any(h != 0 for h in rec.cohomology)
        report.cohomology[chi] = rec.cohomology
        if not passes_gate(chi, theta):
            continue
        report.taylor[chi] = member
        is_joint = family.is_joint(chi)
        if member != is_joint and not rec.ambiguous:
            report.mismatches.append(
                f"character {chi}: Taylor membership {member} but joint-eigenvalue "
                f"status {is_joint}"
            )
    return report
