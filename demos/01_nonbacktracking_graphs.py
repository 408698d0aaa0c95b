"""Rank one in pictures: sectors on a 3-regular graph are non-backtracking
paths, and the shift's transfer operator is the halved edge-adjacency
(non-backtracking) matrix of the graph.

The demo builds everything from the complete bipartite graph K_{3,3} and
checks the result against an operator constructed straight from the graph.
"""

import numpy as np

from weylflow import fixtures, oracles, transfer
from weylflow.rootdata import Coweight
from weylflow.sectors import SectorSpace

system = fixtures.load_fixture("k33")
print(f"K33 as a chamber system: {system.num_chambers} chambers (edges), q = ",
      system.params.as_dict())

space = SectorSpace(system)
table = space.table(1)
print(f"radius-1 germs: {len(table)}  (= one per directed edge: 9 edges x 2 directions)")
table2 = space.table(2)
print(f"radius-2 germs: {len(table2)}  (each germ extends in q = 2 ways)")

tm = transfer.transfer_matrix(space, Coweight((1,)), 1)
print(f"\ntransfer matrix on F_1: {tm.dim} x {tm.dim}, entries in {{0, 1/{tm.m_mu}}}")
print("row sums are exactly 1:", tm.row_sums_ok())

vals = np.linalg.eigvals(tm.dense())
vals = vals[np.lexsort((vals.imag, vals.real))]
print("\neigenvalues of the normalized operator:")
for v in vals:
    print(f"  {v.real:+.6f} {v.imag:+.6f}i")

oracle_vals, residual, _, q = oracles.ihara_spectrum(fixtures.document("k33")["edges"])
print(f"\nindependent oracle (edge matrix built from the graph, divided by q={q}):")
print("  determinant identity residual:", f"{residual:.2e}")
print("  spectra agree within 1e-8:",
      oracles.multiset_close(vals, oracle_vals / q, 1e-8))
