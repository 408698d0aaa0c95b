"""Command-line interface.

Exit codes: 0 on success, 1 on a semantic failure (failed validation or a
failed check), 2 on usage or I/O errors, a reader that closes stdout early
and running out of memory included.  All outputs are deterministic for a
fixed input and flag set; JSON is emitted with sorted keys and floats at
17 significant digits.  The germ and transfer exports are rendered from
their integer arrays and written in chunks; the small documents go through
`dumps_canonical`.

An input is a bundled fixture name or a path to a document.  Every command
reads it with `_read_input` and builds it with `chamber.from_document`, so
it fails as `chamber.load` would.  `verify` reads each document once and
hands the edges of every graph/v1 input to the rank-1 oracle.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib.util
import itertools
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import chamber, fixtures
from .io_utils import dumps_canonical, rational_str, stream_canonical
from .rootdata import Coweight, fundamental_coweights


def _lazy(name: str):
    """weylflow.<name>, executed when one of its attributes is first read.

    The `importlib.util.LazyLoader` recipe: the module object is in
    sys.modules and on the package from the start, as after a normal import,
    so `validate` loads neither numpy nor a module it does not run.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


oracles, sectors, spectra, transfer, verify = map(
    _lazy, ("oracles", "sectors", "spectra", "transfer", "verify")
)

USAGE_ERROR = 2
CHECK_ERROR = 1
# `transfer` writes every entry of the matrix: a2q2 on F_3 (1.6e7 cells)
# still exports, F_4 (1.04e9) does not
DENSE_EXPORT_CELLS = 10**8
# the largest germ table a command builds on request: a2q2 at radius 6
# (2,064,384 germs) is built, radius 7 (eight times as many) is refused
GERM_BUDGET = 2**22
# larger radii are refused before the prediction, a power with the radius
# as its exponent, is computed
MAX_RADIUS = 64


def _input_file(token: str) -> str:
    if not Path(token).exists():
        # a control character, quoted, cannot split the one error line
        raise FileNotFoundError(f"no such input: {token if token.isprintable() else repr(token)}")
    return token


def _read_input(token: str) -> dict:
    """The JSON document of a bundled fixture name or of an input file."""
    if token in fixtures.FIXTURES:
        return fixtures.document(token)
    return chamber.read_document(_input_file(token))


def _parse_mu(text: str, rank: int) -> Coweight:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != rank:
        raise ValueError(f"--mu needs {rank} comma-separated integers")
    coords = tuple(int(p) for p in parts)
    mu = Coweight(coords)
    if not mu.dominant:
        raise ValueError("--mu must be dominant (nonnegative coordinates)")
    return mu


# the digits of a trailing decimal exponent, in the grammar `Fraction` reads
_EXPONENT = re.compile(r"(?<=e)[-+]?\d+(?:_\d+)*(?=\s*\Z)", re.IGNORECASE)


def _parse_theta(text: str) -> Fraction:
    # Fraction computes 10**|exponent|; a nonzero mantissa lies within 10^±len(text),
    # so the exponent clamped to [-len(text) - 400, len(text) + 1] decides alike
    def clamp(exponent):
        return str(min(max(int(exponent[0]), -len(text) - 400), len(text) + 1))

    try:
        theta = Fraction(_EXPONENT.sub(clamp, text))
    except (ValueError, ZeroDivisionError):  # "x", "1/0"
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if not (0 < theta < 1):
        raise argparse.ArgumentTypeError("must lie strictly between 0 and 1")
    if not (0 < float(theta) < 1):
        raise argparse.ArgumentTypeError("must lie strictly between 0 and 1 as a float")
    return theta


def _check_germ_budget(space: sectors.SectorSpace, radius: int):
    """Refuse a germ table predicted above GERM_BUDGET, before it is built."""
    if radius > MAX_RADIUS:
        raise ValueError(f"radius {radius} is above the largest supported radius {MAX_RADIUS}")
    size = space.predicted_size(radius)
    if size > GERM_BUDGET:
        raise ValueError(
            f"a radius-{radius} germ table would hold {size} germs, "
            f"more than the budget of {GERM_BUDGET}"
        )


def _emit(chunks, out: str | None):
    """Write an iterable of text chunks to --out or stdout (left open on exit)."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def cmd_validate(args) -> int:
    system = chamber.from_document(_read_input(args.input))
    report = system.validate()
    print(report.summary())
    return 0 if report.passed else CHECK_ERROR


def cmd_germs(args) -> int:
    system = chamber.from_document(_read_input(args.input))
    space = sectors.SectorSpace(system, check=not args.force)
    _check_germ_budget(space, args.radius)
    table = space.table(args.radius)
    _emit(sectors.germs_json_chunks(table), args.out)
    return 0


def cmd_transfer(args) -> int:
    import numpy as np

    system = chamber.from_document(_read_input(args.input))
    space = sectors.SectorSpace(system, check=not args.force)
    mu = _parse_mu(args.mu, system.root_system.rank)
    n = args.radius - mu.norm
    if n < 1:
        raise ValueError(
            f"germ budget {args.radius} cannot hold the operator for "
            f"mu={','.join(map(str, mu.coords))}: building it on F_n consumes "
            f"germ radius n + {mu.norm}; need --radius >= {mu.norm + 1}"
        )
    _check_germ_budget(space, args.radius)
    dim = len(space.table(n))
    if dim * dim > DENSE_EXPORT_CELLS:
        raise ValueError(
            f"a dense export of F_{n} has {dim * dim} cells, "
            f"more than the budget of {DENSE_EXPORT_CELLS}"
        )
    tm = transfer.transfer_matrix(space, mu, n)
    header = {
        "mu": list(mu.coords),
        "radius": n,
        "M_mu": tm.m_mu,
        "dim": tm.dim,
    }
    # format each possible count once; each row's counts come from its
    # preimages, and the rows are rendered and written one at a time
    text = [rational_str(Fraction(v, tm.m_mu)) for v in range(tm.m_mu + 1)]
    counts = (np.bincount(row, minlength=tm.dim).tolist() for row in tm.preimages)
    if args.format == "csv":
        import json

        rows = (",".join([text[v] for v in c]) + "\n" for c in counts)
        _emit(itertools.chain([json.dumps(header, sort_keys=True) + "\n"], rows), args.out)
    else:
        quoted = [f'   "{t}"' for t in text]
        rows = ("  [\n" + ",\n".join([quoted[v] for v in c]) + "\n  ]" for c in counts)
        _emit(stream_canonical(header, "entries", rows), args.out)
    return 0


def _generators(args, generators: str | None = None):
    """(space, generators) of the input, with the germs their F_1 operators read budgeted.

    The generators are the fundamental coweights unless `generators` names
    others, as `spectrum --generators` does.
    """
    system = chamber.from_document(_read_input(args.input))
    space = sectors.SectorSpace(system, check=not args.force)
    rank = system.root_system.rank
    gens = _parse_generators(generators, rank) if generators else fundamental_coweights(rank)
    # the operator of mu on F_1 reads the germs of radius 1 + |mu|
    _check_germ_budget(space, 1 + max(g.norm for g in gens))
    return space, gens


def _family(space, gens, **options) -> spectra.Family:
    """The `spectra.Family` of the generators' F_1 operators; `options` go to the family."""
    return spectra.Family([transfer.transfer_matrix(space, g, 1) for g in gens], **options)


def _parse_generators(text: str, rank: int):
    gens = []
    for part in text.split(";"):
        coords = tuple(int(x) for x in part.split(","))
        if len(coords) != rank:
            raise ValueError(f"each generator needs {rank} coordinates")
        mu = Coweight(coords)
        if not mu.dominant or mu.norm == 0:
            raise ValueError("generators must be nonzero dominant coweights")
        gens.append(mu)
    return gens


def _given(args, *names) -> dict:
    """The options among `names` given on the command line; the others keep their defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_spectrum(args) -> int:
    space, gens = _generators(args, args.generators)
    family = _family(space, gens, **_given(args, "seed", "tol_res", "tol_rank", "tol_merge"))
    report = spectra.taylor_report(family, float(args.theta))
    doc = {
        "format": "spectrum/v1",
        "theta": float(args.theta),
        "generators": [list(g.coords) for g in gens],
        "dimF1": report.dim,
        "joint": [
            {
                "chi": [complex(c) for c in j.chi],
                "mult": j.multiplicity,
                "residual": j.residual,
                "taylor": bool(report.taylor.get(j.chi, False)),
                "cohomology": list(report.cohomology.get(j.chi, ())),
            }
            for j in report.joint
        ],
        "offspectrum_samples": [
            {
                "chi": [complex(c) for c in chi],
                "cohomology": list(report.cohomology.get(chi, ())),
            }
            for chi in report.offspectrum
        ],
    }
    _emit([dumps_canonical(doc)], args.out)
    if report.mismatches:
        print("Taylor/joint mismatch: " + "; ".join(report.mismatches), file=sys.stderr)
        return CHECK_ERROR
    return 0


def _parse_chi(text: str, rank: int):
    parts = text.split(";") if ";" in text else text.split(",")
    vals = tuple(complex(p) for p in parts)
    if len(vals) != rank:
        raise ValueError(f"--chi needs {rank} complex entries")
    if not all(cmath.isfinite(v) for v in vals):
        raise ValueError("--chi entries must be finite")
    return vals


def cmd_koszul(args) -> int:
    space, gens = _generators(args)
    # a malformed --chi is a usage error, found before any operator is assembled
    chi = _parse_chi(args.chi, len(gens)) if args.chi else tuple(1.0 for _ in gens)
    rec = _family(space, gens, **_given(args, "tol_rank")).koszul(chi)
    doc = {
        "format": "koszul/v1",
        "chi": [complex(c) for c in rec.chi],
        "space_dims": list(rec.cochain_dims),
        "cohomology": list(rec.cohomology),
        "homology": None if rec.homology is None else list(rec.homology),
        "max_defect": rec.max_defect,
        "ambiguous": rec.ambiguous,
    }
    _emit([dumps_canonical(doc)], args.out)
    return 0


def cmd_verify(args) -> int:
    names = list(fixtures.FIXTURES) if args.input == "all" else [args.input]
    # every input is read, loaded and validated once, and a valid one's suite radius
    # budgeted, before any output; the rank-1 oracle gets a graph's raw edges
    inputs = []
    for name in names:
        doc = _read_input(name)
        ctx = verify.FixtureContext(name, chamber.from_document(doc))
        inputs.append((ctx, doc["edges"] if doc["format"] == chamber.GRAPH_FORMAT else None))
    for ctx, _ in inputs:
        if ctx.report.passed:
            _check_germ_budget(ctx.space, verify.suite_radius(ctx, args.radius))
    all_ok = True
    while inputs:  # each context, with its tables and operators, goes once its suite has run
        ctx, edges = inputs.pop(0)
        print(f"== {ctx.name} ==")
        results = verify.run_suite(ctx, metric_radius=args.radius, edges=edges)
        for res in results:
            print(res.line())
            all_ok = all_ok and res.passed
    return 0 if all_ok else CHECK_ERROR


def cmd_ihara(args) -> int:
    doc = _read_input(args.input)
    if doc.get("format") != chamber.GRAPH_FORMAT:
        raise ValueError("ihara needs a graph/v1 input")
    vals, residual, des, q = oracles.ihara_spectrum(doc["edges"])
    doc = {
        "format": "ihara/v1",
        "directed_edges": len(des),
        "q": q,
        "identity_residual": residual,
        "eigenvalues": [complex(v) for v in vals],
    }
    _emit([dumps_canonical(doc)], args.out)
    return 0


def cmd_gen_graph(args) -> int:
    _emit([dumps_canonical(fixtures.document(args.kind))], args.out)
    return 0


def cmd_gen_a2(args) -> int:
    if args.q != 2:
        raise ValueError("only the order-2 presentation is bundled")
    _emit([dumps_canonical(fixtures.document("a2q2"))], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylflow",
        description="Shift dynamics and transfer-operator spectra on compact "
        "quotients of affine buildings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True, out=True, force=True):
        """Add the arguments shared by subcommands: only those the command honours."""
        if with_input:
            sp.add_argument(
                "input",
                help="path to an input file, a bundled fixture name "
                f"({', '.join(fixtures.FIXTURES)}), or 'all' for verify",
            )
        if out:
            sp.add_argument("--out", help="write output to a file instead of stdout")
        if force:
            sp.add_argument("--force", action="store_true",
                            help="proceed even if the local-building checks fail")

    sp = sub.add_parser("validate", help="run the local-building checks")
    common(sp, out=False, force=False)
    sp.set_defaults(func=cmd_validate)

    def positive_int(text):
        v = int(text)
        if v < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return v

    def positive_float(text):
        v = float(text)
        if not v > 0:  # also rejects nan
            raise argparse.ArgumentTypeError("must be positive")
        return v

    sp = sub.add_parser("germs", help="enumerate sector germs")
    common(sp)
    sp.add_argument("--radius", type=positive_int, default=1)
    sp.set_defaults(func=cmd_germs)

    sp = sub.add_parser("transfer", help="assemble a transfer matrix")
    common(sp)
    sp.add_argument("--mu", required=True, help="comma-separated generator exponents")
    sp.add_argument("--radius", type=int, default=2,
                    help="germ radius budget; the operator acts on F_(radius - |mu|)")
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=cmd_transfer)

    sp = sub.add_parser("spectrum", help="joint spectra and Taylor classification on F_1")
    common(sp)
    sp.add_argument("--theta", type=_parse_theta, default=Fraction(1, 2))
    sp.add_argument("--seed", type=lambda s: int(s, 0))
    sp.add_argument("--tol-res", type=positive_float)
    sp.add_argument("--tol-rank", type=positive_float)
    sp.add_argument("--tol-merge", type=positive_float)
    sp.add_argument("--generators", help="semicolon-separated coweights, e.g. '1,0;0,1'")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("koszul", help="Koszul cohomology of one character")
    common(sp)
    sp.add_argument("--chi", help="complex values per generator, e.g. '1+0j,0.5j'")
    sp.add_argument("--tol-rank", type=positive_float)
    sp.set_defaults(func=cmd_koszul)

    sp = sub.add_parser("verify", help="run the full invariant suite")
    common(sp, out=False, force=False)
    sp.add_argument("--radius", type=positive_int, default=3,
                    help="metric-suite germ radius (default 3)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ihara", help="independent edge-operator oracle for graphs")
    common(sp, force=False)
    sp.set_defaults(func=cmd_ihara)

    sp = sub.add_parser("gen-graph", help="emit a bundled graph input file")
    common(sp, with_input=False, force=False)
    sp.add_argument("--kind", choices=("k33", "q3", "biregular"), required=True)
    sp.set_defaults(func=cmd_gen_graph)

    sp = sub.add_parser("gen-a2", help="emit the bundled triangle presentation")
    common(sp, with_input=False, force=False)
    sp.add_argument("--q", type=int, default=2)
    sp.set_defaults(func=cmd_gen_a2)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse before 3.12 reads `--mu=--` as []
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`| head`): stop quietly; stdout
        # goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was written", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return USAGE_ERROR
    except transfer.InvariantError as exc:  # an exact operator identity failed on this input
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
