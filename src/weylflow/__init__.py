"""Shift dynamics and transfer-operator spectra on compact quotients of
affine buildings: exact root-system combinatorics, sector-germ enumeration,
ultrametrics, rational transfer matrices, and Koszul joint spectra.

The names below are re-exported from their modules on first use (PEP 562),
so `import weylflow` loads neither numpy nor a module that no caller needs.
"""

import importlib
import os

# The only float LAPACK work is on small F_1 blocks, which threaded OpenBLAS
# runs slower; this takes effect if numpy is not imported yet, and a value
# set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "rootdata": (
        "Coweight", "ParameterSystem", "RootSystem", "build_root_system", "embed_shift",
        "translation_parameter", "truncated_sector",
    ),
    "chamber": (
        "ChamberSystem", "ValidationReport", "from_bipartite_graph",
        "from_triangle_presentation", "load", "save",
    ),
    "sectors": ("Germ", "GermTable", "SectorSpace"),
    "transfer": (
        "TransferMatrix", "check_fn_invariance", "check_lasota_yorke", "lipschitz_seminorm",
        "transfer_matrix",
    ),
    "spectra": (
        "Character", "Family", "eigen", "homotopy_zero_check", "joint_spectrum",
        "koszul_complexes", "parametrix", "taylor_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
