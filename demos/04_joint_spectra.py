"""Joint spectra of the commuting transfer family through Koszul complexes.

On the finite space F_1 the Taylor-style classification by cohomology of
the Koszul complex coincides with the joint eigenvalue spectrum; the demo
computes both on the triangle quotient, shows the parametrix identity that
drives the reduction, and classifies a few test characters.
"""

import numpy as np

from weylflow import fixtures, spectra, transfer
from weylflow.rootdata import Coweight
from weylflow.sectors import SectorSpace

space = SectorSpace(fixtures.load_fixture("a2q2"))
mats, exact = [], []
for coords in ((1, 0), (0, 1)):
    tm = transfer.transfer_matrix(space, Coweight(coords), 1)
    mats.append(tm.dense())
    exact.append(tm.preimages)

joint = spectra.joint_spectrum(mats, exact=exact)
print(f"joint eigenvalues of (L_w1, L_w2) on the {mats[0].shape[0]}-dim space F_1:")
for j in joint:
    c1, c2 = j.chi
    print(f"  chi = ({c1.real:+.4f}{c1.imag:+.4f}i, {c2.real:+.4f}{c2.imag:+.4f}i)"
          f"   multiplicity {j.multiplicity}, residual {j.residual:.1e}")

print("\nKoszul cohomology at the trivial character (1, 1):")
rec = spectra.koszul_complexes(mats, (1.0, 1.0))
print("  dim H^p =", rec.cohomology, " (chain side:", rec.homology, ")")

print("Koszul cohomology far from both spectra, chi = (10, 10):")
rec = spectra.koszul_complexes(mats, (10.0, 10.0))
print("  dim H^p =", rec.cohomology)

chi = (0.3 + 0.2j, -0.7 + 0.1j)
bs = spectra.parametrix(mats, (2, 1), chi)
res = spectra.parametrix_residual(mats, (2, 1), chi, bs)
print(f"\nparametrix identity for exponents (2,1): residual {res:.1e}")

report = spectra.taylor_report(mats, theta=0.5, exact=exact)
members = sum(1 for v in report.taylor.values() if v)
print(f"\ntheta = 0.5 gate: {len(report.taylor)} characters tested, "
      f"{members} are cohomology members, mismatches: {len(report.mismatches)}")
