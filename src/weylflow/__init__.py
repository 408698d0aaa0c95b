"""Shift dynamics and transfer-operator spectra on compact quotients of
affine buildings: exact root-system combinatorics, sector-germ enumeration,
ultrametrics, rational transfer matrices, and Koszul joint spectra."""

import os

# The only float LAPACK work is on small F_1 blocks, which threaded OpenBLAS
# runs slower; this takes effect if numpy is not imported yet, and a value
# set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .rootdata import (
    Coweight,
    ParameterSystem,
    RootSystem,
    build_root_system,
    coweight_norm,
    embed_shift,
    translation_parameter,
    truncated_sector,
    type_rotations,
)
from .chamber import (
    ChamberSystem,
    ValidationReport,
    from_bipartite_graph,
    from_triangle_presentation,
    load,
    save,
    validate,
)
from .sectors import Germ, GermTable, SectorSpace, enumerate_germs
from .transfer import (
    TransferMatrix,
    check_fn_invariance,
    check_lasota_yorke,
    lipschitz_seminorm,
    transfer_matrix,
)
from .spectra import (
    Character,
    eigen,
    homotopy_zero_check,
    joint_spectrum,
    koszul_complexes,
    parametrix,
    taylor_report,
)

__version__ = "0.1.0"

__all__ = [
    "Coweight",
    "ParameterSystem",
    "RootSystem",
    "build_root_system",
    "coweight_norm",
    "embed_shift",
    "translation_parameter",
    "truncated_sector",
    "type_rotations",
    "ChamberSystem",
    "ValidationReport",
    "from_bipartite_graph",
    "from_triangle_presentation",
    "load",
    "save",
    "validate",
    "Germ",
    "GermTable",
    "SectorSpace",
    "enumerate_germs",
    "TransferMatrix",
    "check_fn_invariance",
    "check_lasota_yorke",
    "lipschitz_seminorm",
    "transfer_matrix",
    "Character",
    "eigen",
    "homotopy_zero_check",
    "joint_spectrum",
    "koszul_complexes",
    "parametrix",
    "taylor_report",
    "__version__",
]
