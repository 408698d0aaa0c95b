"""Exact rational structure of the transfer family on the triangle quotient.

Matrices are integer counts over a common denominator, stored as each
row's list of preimages, so the semigroup law (a gather), commutation and
the seminorm inequality can be checked with no floating point at all.
"""

from fractions import Fraction

import numpy as np

from weylflow import fixtures, transfer
from weylflow.rootdata import Coweight
from weylflow.sectors import SectorSpace

space = SectorSpace(fixtures.load_fixture("a2q2"))

t1 = transfer.transfer_matrix(space, Coweight((1, 0)), 1)
t2 = transfer.transfer_matrix(space, Coweight((0, 1)), 1)
t12 = transfer.transfer_matrix(space, Coweight((1, 1)), 1)

print(f"dim F_1 = {t1.dim};  M_(1,0) = {t1.m_mu}, M_(0,1) = {t2.m_mu}, M_(1,1) = {t12.m_mu}")
p1, p2 = t1.preimages, t2.preimages
print("semigroup law as integer matrices:",
      np.array_equal(transfer.compose(p1, p2), t12.preimages))
print("generators commute exactly:",
      np.array_equal(transfer.compose(p1, p2), transfer.compose(p2, p1)))

theta = Fraction(1, 2)
s2, s3 = (transfer.transfer_matrix(space, Coweight((1, 1)), n) for n in (2, 3))
rep = transfer.check_lasota_yorke(space, s2, theta)
print(f"\nseminorm contraction on all {rep.checked} indicators of F_2 at theta = {theta}:")
print("  passed:", rep.passed, "  smallest slack:", rep.max_slack)

inv = transfer.check_fn_invariance(space, s2, s3)
print("matrices consistent across radii:", inv.compression_exact)
print("strongly dominant shift maps F_2 into F_1:", inv.maps_into_smaller)

# projection to a coarser resolution never increases the seminorm
import random

rng = random.Random(0)
phi = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(len(space.table(2)))]
# sample phi at the first germ of each radius-1 class, then read it back on F_2
restr = space.table(2).restriction_map(1)
first = np.unique(restr, return_index=True)[1]
proj = [phi[first[c]] for c in restr]
a = transfer.lipschitz_seminorm(space, proj, 2, theta)
b = transfer.lipschitz_seminorm(space, phi, 2, theta)
print(f"\n|projection|_theta = {a}  <=  |phi|_theta = {b}")
