"""Time, peak RSS and preimage SHA-256 of a2q2's L_(1,1) on F_n, in-process.

Usage: PYTHONPATH=src python scripts/operator_scale.py N

Run it once per N, in a fresh process, since the peak RSS (the process's
`ru_maxrss`, imports and fixture included) is a maximum over its whole life.
The time covers `transfer_matrix` alone, with every table it needs built
inside it.  The SHA-256 of the (dim, M_mu) int32 preimage lists compares two
trees' operators without storing them.
"""

import hashlib
import resource
import sys
import time

from weylflow import fixtures, transfer
from weylflow.rootdata import Coweight
from weylflow.sectors import SectorSpace

n = int(sys.argv[1])
space = SectorSpace(fixtures.load_fixture("a2q2"))
start = time.perf_counter()
tm = transfer.transfer_matrix(space, Coweight((1, 1)), n)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"F_{n}: {seconds:.2f} s, peak RSS {peak_mb:.1f} MB, tables {sorted(space._tables)}, "
      f"preimages {tm.preimages.shape} sha256 {hashlib.sha256(tm.preimages.tobytes()).hexdigest()}")
