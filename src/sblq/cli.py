"""Command line interface.

Subcommands: validate, classify, decompose, fixtures, rotations
(eigen/verify), numcheck (eval/equiv/mikhlin/delta).  Reports go to
standard output (text or JSON with a fixed field order), diagnostics to
standard error.  `-` reads the datum from standard input.

Exit codes: 0 success, 1 invalid input, 2 unclassified (for an in-taxonomy
datum, with probability below 2^-192), 3 numeric tolerance failure.

The exact commands (validate, classify, decompose, fixtures) need only the
standard library; numpy loads on demand for integer systems of 256 cells
or more.  numpy and the `rotations` and `numcheck` modules load only inside
the handlers of the numeric commands, and nothing loads scipy.  A numeric
check passes only on finite values: `numcheck eval` exits 3 on a value or
error estimate that is not finite, and a kernel scale or width that is not
finite, or a width w whose w^-dim or w^-2 overflows, exits 1.  So does a
divergent form, and one whose Gaussian weight rounds to a quadratic form
that is not positive definite.  `numcheck eval`, `equiv` and `delta`
evaluate their Gaussian forms in closed form and take no quadrature
settings.  Each numcheck mode takes only the flags it reads:
`--kernel-width` is eval's and equiv's (delta's widths are fixed at 0.25,
0.125 and 0.0625), `--seed` equiv's alone, `--kernel-scale` and `--order`
mikhlin's.  `fixtures` refuses a size above 32, given by `--n` or as the n
of a `<family>_<n>` spec, with exit 1 before anything is built.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import isfinite
from typing import Dict, Optional

from .classify import FACT_DESCRIPTIONS, classify
from .core import (
    DatumFormatError, SBLDatum, datum_from_dict, datum_to_dict,
    random_equivalence, validate_datum,
)
from .decompose import _DRAWS, decompose
from .fixtures import FIXTURE_NAMES, fixture_datum
from .polynomials import format_poly
from .tolerances import CIRCLE_MEAN_TOLERANCE, TOLERANCES, TRANSFORM_CROSS_CHECK_TOLERANCE

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCLASSIFIED = 2
EXIT_TOLERANCE = 3


def _read_datum(path: str) -> SBLDatum:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    return datum_from_dict(data)


def _report(args, payload: Dict, started: float,
            certificates: Optional[Dict] = None) -> Dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": list(args.argv),
        # classify and decompose print their fixed certificate draws
        "seeds": {"seed": getattr(args, "seed", None),
                  "trials": getattr(args, "trials", None)},
        "tolerances": dict(TOLERANCES),
        "result": payload,
    }
    if certificates is not None:
        out["certificates"] = certificates
    out["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return out


def _emit(args, report: Dict) -> None:
    if getattr(args, "report", "text") == "json":
        json.dump(report, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return
    _emit_text(report["result"])


def _emit_text(payload: Dict, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                parts = ", ".join(f"{k}={v}" for k, v in item.items())
                print(f"{indent}  - {parts}")
        else:
            print(f"{indent}{key}: {value}")


def _matrix_rows(m) -> list:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _certificates(dec, with_pencil: bool) -> Dict:
    """The module isomorphism and the pencil base change of a decomposition;
    with_pencil nests the base change with the pencil it maps the datum
    onto, the one the Kronecker blocks were read from, under "pencil"."""
    out = {}
    if dec.certificate is not None:
        out["module_isomorphism"] = _matrix_rows(dec.certificate)
    form = dec.pencil
    if form is not None:
        phi = _matrix_rows(form.base_change.phi)
        if with_pencil:
            out["pencil"] = {"a": form.a, "b": form.b,
                             "a2": _matrix_rows(form.a2), "a3": _matrix_rows(form.a3),
                             "base_change_phi": phi}
        else:
            out["pencil_base_change_phi"] = phi
    return out


def _summand_payload(s) -> Dict:
    out = {"family": s.tag.family, "n": s.tag.n,
           "multiplicity": s.multiplicity, "note": s.note,
           "display": s.render()}
    if s.tag.regular_poly is not None:
        out["regular_poly"] = format_poly(s.tag.regular_poly)
    return out


def cmd_validate(args) -> int:
    started = time.perf_counter()
    d = _read_datum(args.file)
    rep = validate_datum(d)
    payload = {
        "dim_H": d.dim_H,
        "dims": list(d.dims),
        "surjective": list(rep.surjective),
        "warnings": rep.warnings,
        "valid": rep.valid,
    }
    _emit(args, _report(args, payload, started))
    return EXIT_OK if rep.valid else EXIT_INVALID


def _verdict_payload(verdict) -> Dict:
    payload = {
        "cases": [{"tag": c.tag, "constraint": c.constraint} for c in verdict.cases],
        "summands": [_summand_payload(s) for s in verdict.summands],
        "status": {
            "kind": verdict.status.kind,
            "citation": verdict.status.citation,
            "exponent_range": verdict.status.exponent_range,
            "chain": list(verdict.status.chain),
            "witness": verdict.status.witness,
            "display": verdict.status.render(),
        },
        "witnesses": verdict.witnesses,
        "warnings": verdict.warnings,
    }
    if verdict.status.citation:
        payload["status"]["citation_note"] = FACT_DESCRIPTIONS.get(
            verdict.status.citation, "")
    return payload


def cmd_classify(args) -> int:
    started = time.perf_counter()
    d = _read_datum(args.file)
    verdict = classify(d)
    payload = _verdict_payload(verdict)
    certificates = None
    if args.certificates and verdict.decomposition is not None:
        certificates = _certificates(verdict.decomposition, with_pencil=True)
    _emit(args, _report(args, payload, started, certificates))
    return EXIT_OK if verdict.status.kind != "Unclassified" else EXIT_UNCLASSIFIED


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    d = _read_datum(args.file)
    dec = decompose(d)
    eqc = dec.equality_constraint
    payload = {
        "status": dec.status,
        "path": dec.path,
        "summands": [_summand_payload(s) for s in dec.summands],
        "equality_constraint": {
            "coefficients": list(eqc[:3]),
            "rhs": eqc[3],
        },
        "diagnostics": dec.diagnostics,
    }
    if dec.real_root_refinements:
        payload["real_roots"] = {
            key: [[str(lo), str(hi)] for lo, hi in ivs]
            for key, ivs in dec.real_root_refinements.items()}
    certificates = _certificates(dec, with_pencil=False) if args.certificates else None
    _emit(args, _report(args, payload, started, certificates))
    return EXIT_OK if dec.classified else EXIT_UNCLASSIFIED


def cmd_fixtures(args) -> int:
    started = time.perf_counter()
    if args.list:
        _emit(args, _report(args, {"fixtures": sorted(FIXTURE_NAMES)}, started))
        return EXIT_OK
    if not args.name:
        print("fixture name required (or --list)", file=sys.stderr)
        return EXIT_INVALID
    params = {}
    if args.n is not None:
        params["n"] = args.n
    try:
        if args.alpha is not None:
            params["alpha"] = Fraction(args.alpha)
        d = fixture_datum(args.name, **params)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        print(f"cannot build fixture: {exc}", file=sys.stderr)
        return EXIT_INVALID
    json.dump(datum_to_dict(d), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_rotations_eigen(args) -> int:
    from . import rotations

    started = time.perf_counter()
    spectrum = rotations.funk_spectrum(args.dim, args.max_degree)
    payload = {
        "dim": args.dim,
        "max_degree": args.max_degree,
        "eigenvalues": [{"n": n, "lambda": float(spectrum.lam[n])}
                        for n in range(args.max_degree + 1)],
    }
    _emit(args, _report(args, payload, started))
    return EXIT_OK


def cmd_rotations_verify(args) -> int:
    import numpy as np

    from . import rotations

    started = time.perf_counter()
    band, grid_band = args.band, args.grid
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    rng = np.random.default_rng(args.seed)
    spectrum = rotations.funk_spectrum(3, max(band, 2))
    omega = rng.normal(size=rotations.basis_size(band))
    omega[0] = 0.0
    dec = rotations.neumann_solve(omega, spectrum)
    grid = rotations.SphereGrid.build(grid_band)
    tests = [rng.normal(size=rotations.basis_size(band)) for _ in range(5)]
    residuals = rotations.verify_repr(dec, omega, tests, grid)
    means = [abs(dec.circle_mean(nu)) for nu in grid.points[::7]]
    direct = rotations.funk_apply_direct(omega, grid.points[::5])
    spectral = rotations.synthesize_at(
        grid.points[::5], rotations.funk_apply(omega, spectrum))
    cross = float(np.max(np.abs(direct - spectral)))
    payload = {
        "band": band,
        "grid_band": grid_band,
        "repr_residuals": [float(r) for r in residuals],
        "max_circle_mean": max(means),
        "transform_cross_check": cross,
        "pass": bool(max(residuals) < TOLERANCES["quadrature"]
                     and max(means) < CIRCLE_MEAN_TOLERANCE
                     and cross < TRANSFORM_CROSS_CHECK_TOLERANCE),
    }
    _emit(args, _report(args, payload, started))
    return EXIT_OK if payload["pass"] else EXIT_TOLERANCE


def cmd_numcheck(args) -> int:
    from . import numcheck

    started = time.perf_counter()
    if args.mode == "mikhlin":
        kinds = {
            "gaussian": lambda: numcheck.normalized_kernel(numcheck.NarrowGaussian(1, 1.0)),
            "bump": lambda: numcheck.normalized_kernel(numcheck.MultiplierBump(1, 0.5, 2.0)),
            "odd": lambda: numcheck.normalized_kernel(numcheck.TruncatedOdd()),
            "extended": lambda: numcheck.extend_kernel(numcheck.TruncatedOdd(), 1),
        }
        if not isfinite(args.kernel_scale):
            raise ValueError(f"kernel scale must be finite, got {args.kernel_scale}")
        kernel = kinds[args.kind]()
        if args.kernel_scale != 1.0:
            kernel = kernel.scaled(args.kernel_scale)
        report = numcheck.verify_mikhlin(kernel, max_order=args.order)
        payload = {
            "kernel": args.kind,
            "scale": args.kernel_scale,
            "max_order": args.order,
            "worst_constant": report.worst_constant,
            "per_order": [{"alpha": list(a), "bound": b} for a, b in report.table],
            "pass": report.passed,
        }
        _emit(args, _report(args, payload, started))
        return EXIT_OK if report.passed else EXIT_TOLERANCE

    d = _read_datum(args.file)
    funcs = tuple(numcheck.GaussianFunction.tensor([0] * k, [1] * k) for k in d.dims[1:])
    if args.mode == "delta":
        residuals, reference = numcheck.delta_limit_check(d, funcs)
        decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
        payload = {"residuals": residuals, "reference": reference,
                   "pass": bool(decreasing or all(r == 0 for r in residuals))}
        _emit(args, _report(args, payload, started))
        return EXIT_OK if payload["pass"] else EXIT_TOLERANCE
    kernel = numcheck.NarrowGaussian(d.dims[0], args.kernel_width) if d.dims[0] else None
    spec = numcheck.FormSpec(d, kernel, funcs)
    if args.mode == "eval":
        value, err = numcheck.eval_form(spec)
        payload = {"value": value, "error_estimate": err,
                   "pass": isfinite(value) and isfinite(err)}
        _emit(args, _report(args, payload, started))
        return EXIT_OK if payload["pass"] else EXIT_TOLERANCE
    e = random_equivalence(d, args.seed)
    residual, tol = numcheck.check_equivalence_invariance(spec, e)
    payload = {"residual": residual, "tolerance": tol,
               "pass": bool(residual <= tol)}
    _emit(args, _report(args, payload, started))
    return EXIT_OK if payload["pass"] else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sblq",
        description="exact classification and numerical verification of "
                    "trilinear singular Brascamp-Lieb data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check datum shapes and surjectivity")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="full verdict for a datum")
    p.add_argument("file")
    common(p)
    p.add_argument("--certificates", action="store_true")
    p.set_defaults(func=cmd_classify, seed=0, trials=_DRAWS)

    p = sub.add_parser("decompose", help="summand decomposition only")
    p.add_argument("file")
    common(p)
    p.add_argument("--certificates", action="store_true")
    p.set_defaults(func=cmd_decompose, seed=0, trials=_DRAWS)

    p = sub.add_parser("fixtures", help="emit a canonical datum")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--alpha", help="parameter for bht / n1_j1")
    p.add_argument("--n", type=int, help="parameter for coifman_meyer")
    common(p)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("rotations", help="sphere spectral checks")
    rsub = p.add_subparsers(dest="mode", required=True)
    pe = rsub.add_parser("eigen", help="eigenvalue table")
    pe.add_argument("--dim", type=int, default=3)
    pe.add_argument("--max-degree", type=int, default=16)
    common(pe)
    pe.set_defaults(func=cmd_rotations_eigen)
    pv = rsub.add_parser("verify", help="slice decomposition residuals")
    pv.add_argument("--band", type=int, default=8)
    pv.add_argument("--grid", type=int, default=32)
    common(pv)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_rotations_verify)

    p = sub.add_parser("numcheck", help="numerical checks of forms and kernels")
    nsub = p.add_subparsers(dest="mode", required=True)
    for mode, what in (("eval", "form value"), ("equiv", "equivalence invariance"),
                       ("delta", "narrow-kernel limit")):
        pn = nsub.add_parser(mode, help=what)
        pn.add_argument("file", help="datum file")
        if mode != "delta":
            pn.add_argument("--kernel-width", type=float, default=0.8)
        common(pn)
        if mode == "equiv":
            pn.add_argument("--seed", type=int, default=0)
        pn.set_defaults(func=cmd_numcheck)
    pm = nsub.add_parser("mikhlin", help="sampled Mikhlin bounds of a shipped kernel")
    pm.add_argument("kind", choices=("gaussian", "bump", "odd", "extended"))
    pm.add_argument("--kernel-scale", type=float, default=1.0)
    pm.add_argument("--order", type=int, default=2)
    common(pm)
    pm.set_defaults(func=cmd_numcheck)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    args.argv = argv
    try:
        return args.func(args)
    except DatumFormatError as exc:
        print(f"datum error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:   # a ValueError too
        print(f"not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
