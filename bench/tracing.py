"""Layer spans for a traced weylflow CLI run.

Run as `python3 bench/tracing.py SPANS_FILE ARGS...` with the program's
sources on PYTHONPATH.  It wraps the public functions of each weylflow
module, runs `weylflow ARGS...` in this process, keeps the spans in memory
and writes them to SPANS_FILE when the command ends.  `layer_metrics`
turns that file into the benchmark's per-layer metrics.

Per-entry helpers (`rational_str`, `TransferMatrix.entry`) are not wrapped,
so the tracing overhead stays small.  A function that no longer exists is
reported as absent, and its metrics read 0.

trace.overhead_s is what tracing adds to the run, measured in the traced
process: installing the wrappers, the span count times the cost of one
wrapper call (timed on a no-op), and serialising the spans.  Subtracting an
untraced run's wall time instead would measure the drift of CPU speed
between the two runs, which on a shared machine is far larger.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _table_before(args, kwargs):
    return {"rss0": _rss_bytes()}


# The hooks read only what the program exposes today and must not raise
# into it, so they fall back to defaults when an attribute goes away.
def _table_after(extra, args, result):
    extra["rss1"] = _rss_bytes()
    try:
        extra["germs"] = len(args[0])
    except TypeError:
        extra["germs"] = 0


def _pair_key(args, kwargs):
    return (getattr(args[0], "radius", None),) + args[1:]


def _transfer_key(args, kwargs):
    return (args[1:], sorted(kwargs.items()))  # all but the SectorSpace


def _koszul_after(extra, args, result):
    extra["ambiguous"] = bool(getattr(result, "ambiguous", False))


# (layer, module, attribute path, before, after, key): `before` returns the
# span's extra fields, `after` adds to them, `key` names the arguments whose
# repetition distinct_ratio measures.
SPECS = [
    ("rootdata.truncated_sector", "rootdata", "truncated_sector", None, None, None),
    ("rootdata.walks", "rootdata", "all_minimal_walk_products", None, None, None),
    ("rootdata.walks", "rootdata", "minimal_walk_types", None, None, None),
    ("rootdata.walks", "rootdata", "_minimal_walk_data", None, None, None),
    ("rootdata.walks", "rootdata", "translation_parameter", None, None, None),
    ("chamber.load", "chamber", "load", None, None, None),
    ("chamber.validate", "chamber", "ChamberSystem.validate", None, None, None),
    ("sectors.table", "sectors", "GermTable.__init__", _table_before, _table_after, None),
    ("sectors.restriction_map", "sectors", "GermTable.restriction_map", None, None, None),
    ("sectors.class_arrays", "sectors", "GermTable.ray_classes", None, None, None),
    ("sectors.class_arrays", "sectors", "GermTable.region_classes", None, None, None),
    ("sectors.pair_matrices", "sectors", "GermTable.k_matrix", None, None, _pair_key),
    ("sectors.pair_matrices", "sectors", "GermTable.ki_matrix", None, None, _pair_key),
    ("sectors.shift_map", "sectors", "SectorSpace.shift_map", None, None, None),
    ("sectors.distance", "sectors", "SectorSpace.distance", None, None, None),
    ("transfer.transfer_matrix", "transfer", "transfer_matrix", None, None, _transfer_key),
    ("transfer.lipschitz_seminorm", "transfer", "lipschitz_seminorm", None, None, None),
    ("transfer.check_lasota_yorke", "transfer", "check_lasota_yorke", None, None, None),
    ("transfer.check_fn_invariance", "transfer", "check_fn_invariance", None, None, None),
    ("spectra.eigen", "spectra", "eigen", None, None, None),
    ("spectra.joint_spectrum", "spectra", "joint_spectrum", None, None, None),
    ("spectra.taylor_report", "spectra", "taylor_report", None, None, None),
    ("spectra.parametrix", "spectra", "parametrix", None, None, None),
    ("spectra.koszul_complexes", "spectra", "koszul_complexes", None, _koszul_after, None),
    ("io_utils.dumps_canonical", "io_utils", "dumps_canonical", None, None, None),
    # cli.export is the self time of the exporting commands: what is left
    # after their traced children (load, validate, tables, operators,
    # dumps_canonical) is building and formatting the output.
    ("cli.export", "cli", "cmd_germs", None, None, None),
    ("cli.export", "cli", "cmd_transfer", None, None, None),
]

# One incl_s metric per verify.check_* function of the reference commit.
VERIFY_CHECKS = [
    "check_walk_parameters",
    "check_tables",
    "check_metric_suite",
    "check_distance_cross_validation",
    "check_transfer_exact",
    "check_lasota_yorke",
    "check_fn_invariance",
    "check_joint_trivial",
    "check_koszul_suite",
    "check_parametrix",
    "check_taylor_main",
    "check_rank1_oracle",
    "check_a2_health",
]

# span: [layer, start, end, parent span index or -1, extra fields]
SPANS: list = []
_local = threading.local()  # each thread's stack of open spans
_lock = threading.Lock()


def _wrap(layer, fn, before, after, key):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        with _lock:
            idx = len(SPANS)
            SPANS.append(None)
        extra = before(args, kwargs) if before else {}
        if key:
            extra["key"] = repr(key(args, kwargs))
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            SPANS[idx] = [layer, start, end, parent, extra]
        if after:
            after(extra, args, result)
        return result

    return traced


def _module(name):
    try:
        return importlib.import_module(f"weylflow.{name}")
    except ImportError:
        return None


def install() -> list:
    """Wrap every spec in every weylflow namespace; return the absent ones."""
    absent = []
    modules = [
        m for name, m in sys.modules.items()
        if name == "weylflow" or name.startswith("weylflow.")
    ]
    verify = _module("verify")
    specs = SPECS + [
        (f"verify.{name}", "verify", name, None, None, None)
        for name in sorted(vars(verify) if verify else ())
        if name.startswith("check_") and callable(getattr(verify, name))
    ]
    absent += [f"verify.{name}" for name in VERIFY_CHECKS
               if not callable(getattr(verify, name, None))]
    for layer, module, path, before, after, key in specs:
        *owner_path, attr = path.split(".")
        owner = _module(module)
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            absent.append(f"{module}.{path}")
            continue
        wrapper = _wrap(layer, original, before, after, key)
        if owner_path:
            setattr(owner, attr, wrapper)
            continue
        # a module-level function may be held under its name by other
        # modules too (transfer and verify import translation_parameter,
        # cli imports dumps_canonical): patch every copy
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
    return absent


def layer_metrics(spans_path, export_bytes: int) -> tuple:
    """Read a spans file: ({metric: (value, unit)}, absent names, self_s per layer)."""
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for layer, start, end, parent, extra in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    keys = defaultdict(set)
    ambiguous = 0
    # germs and RSS growth of each outermost table build, nested builds included
    top_table = {}
    for i, (layer, start, end, parent, extra) in enumerate(spans):
        self_s[layer] += end - start - child_s[i]
        incl_s[layer] += end - start
        calls[layer] += 1
        if "key" in extra:
            keys[layer].add(extra["key"])
        ambiguous += extra.get("ambiguous", False)
        if layer == "sectors.table":
            top, p = i, parent
            while p >= 0:
                if spans[p][0] == "sectors.table":
                    top = p
                p = spans[p][3]
            germs, growth = top_table.get(top, (0, 0))
            if top == i:
                growth = extra.get("rss1", 0) - extra["rss0"]
            top_table[top] = (germs + extra.get("germs", 0), growth)

    def ratio(layer):
        return len(keys[layer]) / calls[layer] if calls[layer] else 0.0

    table_germs = sum(germs for germs, _ in top_table.values())
    biggest = max(top_table.values(), default=(0, 0))
    m = {
        "transfer.lipschitz_seminorm.self_s": (self_s["transfer.lipschitz_seminorm"], "s"),
        "transfer.lipschitz_seminorm.calls": (calls["transfer.lipschitz_seminorm"], "count"),
        "transfer.check_lasota_yorke.self_s": (self_s["transfer.check_lasota_yorke"], "s"),
        "sectors.pair_matrices.self_s": (self_s["sectors.pair_matrices"], "s"),
        "sectors.pair_matrices.calls": (calls["sectors.pair_matrices"], "count"),
        "sectors.pair_matrices.distinct_ratio": (ratio("sectors.pair_matrices"), "ratio"),
        "sectors.distance.self_s": (self_s["sectors.distance"], "s"),
        "sectors.distance.calls": (calls["sectors.distance"], "count"),
        "sectors.class_arrays.self_s": (self_s["sectors.class_arrays"], "s"),
        "sectors.table.self_s": (self_s["sectors.table"], "s"),
        "sectors.table.germs": (table_germs, "count"),
        "sectors.table.germs_per_s": (
            table_germs / self_s["sectors.table"] if self_s["sectors.table"] else 0.0, "1/s"),
        # RSS growth across the largest outermost table build, per germ built
        "sectors.table.bytes_per_germ": (
            biggest[1] / biggest[0] if biggest[0] else 0.0, "B"),
        "sectors.restriction_map.self_s": (self_s["sectors.restriction_map"], "s"),
        "sectors.restriction_map.calls": (calls["sectors.restriction_map"], "count"),
        "sectors.shift_map.self_s": (self_s["sectors.shift_map"], "s"),
        "sectors.shift_map.calls": (calls["sectors.shift_map"], "count"),
        "transfer.transfer_matrix.self_s": (self_s["transfer.transfer_matrix"], "s"),
        "transfer.transfer_matrix.calls": (calls["transfer.transfer_matrix"], "count"),
        "transfer.transfer_matrix.distinct_ratio": (ratio("transfer.transfer_matrix"), "ratio"),
        "transfer.check_fn_invariance.self_s": (self_s["transfer.check_fn_invariance"], "s"),
        "cli.export.self_s": (self_s["cli.export"], "s"),
        "cli.export.bytes": (export_bytes, "B"),
        "io_utils.dumps_canonical.self_s": (self_s["io_utils.dumps_canonical"], "s"),
        "spectra.eigen.self_s": (self_s["spectra.eigen"], "s"),
        "spectra.joint_spectrum.self_s": (self_s["spectra.joint_spectrum"], "s"),
        "spectra.taylor_report.self_s": (self_s["spectra.taylor_report"], "s"),
        "spectra.parametrix.self_s": (self_s["spectra.parametrix"], "s"),
        "spectra.koszul_complexes.self_s": (self_s["spectra.koszul_complexes"], "s"),
        "spectra.koszul_complexes.calls": (calls["spectra.koszul_complexes"], "count"),
        "spectra.koszul_complexes.ambiguous": (ambiguous, "count"),
        "rootdata.truncated_sector.self_s": (self_s["rootdata.truncated_sector"], "s"),
        "rootdata.walks.self_s": (self_s["rootdata.walks"], "s"),
        "chamber.load.self_s": (self_s["chamber.load"], "s"),
        "chamber.validate.self_s": (self_s["chamber.validate"], "s"),
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.incl_s"] = (incl_s[f"verify.{name}"], "s")
    m["trace.overhead_s"] = (doc["overhead_s"], "s")
    return m, doc["absent"], dict(self_s)


def _span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    wrapped = _wrap("trace.calibration", noop, None, None, None)
    first = len(SPANS)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1 - (t1 - t0)) / calls)
    del SPANS[first:]
    return max(best, 0.0)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("weylflow.cli")
    start = time.perf_counter()
    absent = install()
    install_s = time.perf_counter() - start
    try:
        return cli.main(cli_args)
    finally:
        # what tracing adds to the run: installing the wrappers, the wrappers
        # themselves, this calibration and serialising the spans
        start = time.perf_counter()
        spans_s = len(SPANS) * _span_cost()
        payload = json.dumps(SPANS)
        overhead_s = install_s + spans_s + time.perf_counter() - start
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"absent": {json.dumps(absent)}, "overhead_s": {overhead_s!r}, '
                     f'"spans": {payload}}}')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
