"""Command line front end: identity suites, sheaf dumps, primitives.

Exit codes: 0 success, 1 identity/residual failure, 2 input validation
failure.  One home per concept: the commands return 0 or 1 and raise every
other failure, and `main` alone maps it to its stderr line and code
(`ExactnessError` to 1, `ValidationError` and `MeshError` to 2).  All
outputs are JSON and deterministic given inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .forms import Form, FormError
from .io import (ValidationError, complex_from_dict, dump_json, forms_file_to_inputs,
                 load_json, morphism_from_dict)
from .mesh import MeshError
from .primitive import ExactnessError, PrimitiveError, build_relative_primitive, oracle_A
from .sheaf import (build_Pf, build_Sf, check_Pf_characterization,
                    check_Sf_characterization, sheaf_to_dict)
from .verify import SUITES, run_suite

OPERATION_MAP_VERSION = "identity-map v1: " + ", ".join(SUITES)


def cmd_check(args) -> int:
    if args.max_dim < 1:
        raise ValidationError(f"--max-dim must be at least 1, got {args.max_dim}")
    names = SUITES if args.suite == "all" else (args.suite,)
    reports = [r for name in names for r in run_suite(name, args.max_dim, args.seed)]
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.identity} [{r.case}] residual={r.residual}")
    print(f"{len(reports) - len(failed)}/{len(reports)} identity cases passed")
    if args.json:
        dump_json(args.json, {"suite": args.suite, "max_dim": args.max_dim,
                              "seed": args.seed, "reports": [r.as_dict() for r in reports]})
    return 1 if failed else 0


def _load_morphism(args):
    cx = complex_from_dict(load_json(args.complex))
    morph_data = load_json(args.morphism)
    if isinstance(morph_data, dict) and "target" in morph_data:
        target = complex_from_dict(morph_data["target"])
    elif args.target:
        target = complex_from_dict(load_json(args.target))
    else:
        raise ValidationError(
            "morphism file needs a 'target' complex (or pass --target)")
    return morphism_from_dict(morph_data, cx, target)


def cmd_sheaf(args) -> int:
    f = _load_morphism(args)
    sf, pf = build_Sf(f), build_Pf(f)
    ok_s, wit_s = check_Sf_characterization(sf)
    ok_p, wit_p = check_Pf_characterization(pf)
    print(f"raw-preimage sheaf characterization: {'pass' if ok_s else 'FAIL: ' + str(wit_s)}")
    print(f"trivialized sheaf characterization: {'pass' if ok_p else 'FAIL: ' + str(wit_p)}")
    if args.dump_sheaf:
        dump_json(args.dump_sheaf, {"S": sheaf_to_dict(sf), "P": sheaf_to_dict(pf)})
        print(f"sheaf dump written to {args.dump_sheaf}")
    return 0 if (ok_s and ok_p) else 1


def cmd_primitive(args) -> int:
    eps = args.oracle_eps
    if eps is not None:
        try:  # "1e-4" reads as 1/10000; a 5-digit exponent is refused, not expanded
            eps = Fraction(eps) if len(eps.lower().partition("e")[2].lstrip("+-")) < 5 else 0
        except (ValueError, ZeroDivisionError):
            eps = 0
        if not 0 < eps <= 1:
            raise ValidationError(
                f"--oracle-eps must be a rational in (0, 1], got {args.oracle_eps}")
    f = _load_morphism(args)
    omega = forms_file_to_inputs(load_json(args.form), f.source)
    degrees = {deg for form in omega.values() for deg in form.degrees()}
    if args.degree is None and len(degrees) > 1:
        raise ValidationError(
            f"input forms have mixed degrees {sorted(degrees)}; pass --degree")
    r = args.degree if args.degree is not None else (degrees.pop() if degrees else 1)
    # Python refuses to convert an int past 4300 digits to str: a guard for
    # parsing, under which the input was read.  A result may pass it, as a
    # sum of fractions multiplies their denominators, so it is written whole.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _build_and_write(args, f, omega, r, eps)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _build_and_write(args, f, omega, r, eps) -> int:
    try:
        result = build_relative_primitive(f, omega, r=r)
    except (PrimitiveError, FormError) as exc:  # bad input, unless not fiberwise exact
        if isinstance(exc, ExactnessError):
            raise
        raise ValidationError(str(exc)) from exc

    out = {"degree": r, "base_cells": {}, "horizontal": [], "oracle": []}
    residual_failures = descent_failures = 0
    for tau, prim in result.primitives.items():
        cell_out = {"prisms": {}, "H_S": {}}
        for sigma, pd in prim.prisms.items():
            key = ",".join(map(str, sigma.vertices))
            cdict = {}
            for drop, poly in pd.C.items():
                label = (f"phi={','.join(map(str, drop.phi.vertices))}"
                         f";gamma={','.join(map(str, drop.gamma_vertices()))}")
                cdict[label] = Form.from_poly(poly)
            cell_out["prisms"][key] = {
                "C": cdict,
                "D": pd.correction,
                "H": pd.H,
                "residual_zero": pd.residual is None,
            }
            if pd.residual is not None:
                residual_failures += 1
                n_terms = sum(len(p.terms) for p in pd.residual.terms.values())
                print(f"closing residual nonzero over {tau} on {sigma}: {n_terms} terms",
                      file=sys.stderr)
            if not pd.descent_ok:
                descent_failures += 1
                print(f"descent check failed over {tau} on {sigma}", file=sys.stderr)
            N, m = pd.descended
            cell_out["H_S"][key] = {"numerator": N,
                                    "denominator_exponents": list(m),
                                    "descent_verified": pd.descent_ok}
        out["base_cells"][",".join(map(str, tau.vertices))] = cell_out
    horizontal_failures = 0
    for rep in result.horizontal:
        entry = {"tau": list(rep.tau.vertices), "face": list(rep.tau_face.vertices),
                 "vanished_terms": rep.vanished_terms,
                 "surviving_terms": rep.surviving_terms, "ok": rep.ok}
        if not rep.ok:
            horizontal_failures += 1
            bad = [sigma for sigma, ok in rep.matches.items() if not ok]
            entry["mismatched"] = [list(sigma.vertices) for sigma in bad]
            print(f"horizontal mismatch over {rep.tau} at face {rep.tau_face}: prisms "
                  + ", ".join(map(str, bad)), file=sys.stderr)
        if args.check_horizontal:
            out["horizontal"].append(entry)

    if eps is not None:
        worst = Fraction(0)
        for tau, prim in result.primitives.items():
            for sigma, pd in prim.prisms.items():
                for phi in pd.A:
                    est, exact = oracle_A(pd.eta, phi, eps)
                    err = abs(est - exact)
                    worst = max(worst, err)
                    out["oracle"].append({
                        "sigma": list(sigma.vertices),
                        "phi": list(phi.vertices),
                        "estimate": str(est), "exact": str(exact), "abs_error": str(err)})
        print(f"oracle worst absolute error: {worst}")

    dump_json(args.out, out)
    ok = residual_failures == horizontal_failures == descent_failures == 0
    print(f"residual check: {len(out['base_cells'])} base cells, "
          f"{residual_failures} failures; horizontal: {horizontal_failures} failures")
    print(f"primitive written to {args.out}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prismal",
        description="Exact barycentric exterior calculus and relative primitives")
    ap.add_argument("--version", action="version",
                    version=f"prismal {__version__} ({OPERATION_MAP_VERSION})")
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run identity suites on built-in universes")
    chk.add_argument("--suite", default="all", choices=("all", *SUITES))
    chk.add_argument("--max-dim", type=int, default=4)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--json", default=None, help="write a JSON report")
    chk.set_defaults(fn=cmd_check)

    sh = sub.add_parser("sheaf", help="build both sheaves of a morphism")
    sh.add_argument("--complex", required=True)
    sh.add_argument("--morphism", required=True)
    sh.add_argument("--target", default=None)
    sh.add_argument("--dump-sheaf", default=None)
    sh.set_defaults(fn=cmd_sheaf)

    pr = sub.add_parser("primitive", help="build a relative primitive")
    pr.add_argument("--complex", required=True)
    pr.add_argument("--morphism", required=True)
    pr.add_argument("--target", default=None)
    pr.add_argument("--form", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--degree", type=int, default=None)
    pr.add_argument("--check-horizontal", action="store_true",
                    help="write the horizontal reports; a mismatch fails either way")
    pr.add_argument("--oracle-eps", default=None,
                    help="exact rational in (0, 1], such as 1/10000 or 1e-4")
    pr.set_defaults(fn=cmd_primitive)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ExactnessError as exc:
        print(f"exactness error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, MeshError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
