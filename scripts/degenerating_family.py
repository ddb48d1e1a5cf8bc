#!/usr/bin/env python3
"""Walk the triangle-fan family end to end.

Builds both sheaves of the five-triangle fixture, prints the fiber types
over every base cell, then feeds a globally exact polynomial 1-form into
the primitive pipeline and reports each prism's residual and descent
verdicts, its gluing correction and the horizontal specialization behavior.

Usage: python scripts/degenerating_family.py [--out primitive.json]
"""

import argparse

from prismal.fixtures import triangle_fan
from prismal.forms import Form, Poly, d, simplex_context
from prismal.io import dump_json
from prismal.mesh import Prism
from prismal.primitive import build_relative_primitive
from prismal.sheaf import (build_Pf, build_Sf, check_Pf_characterization,
                           check_Sf_characterization)


def exact_input(f, pairs):
    omega = {}
    for s in f.source.maximal:
        sc = simplex_context(s)
        poly = Poly.zero(sc)
        for vs in pairs:
            if all(v in s.vertices for v in vs):
                term = Poly.const(sc, 1)
                for v in vs:
                    term = term * Poly.variable(sc, sc.var("l", v))
                poly = poly + term
        omega[s] = d(Form.from_poly(poly))
    return omega


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    f = triangle_fan()
    sf, pf = build_Sf(f), build_Pf(f)
    print("raw-preimage characterization:", check_Sf_characterization(sf)[0])
    print("trivialized characterization: ", check_Pf_characterization(pf)[0])
    for tau in sorted(f.target.cells):
        pieces = sorted({Prism(f.fibers(s)) for s in f.maximal_over(tau)})
        print(f"fiber type over {tau}: {pieces}")

    omega = exact_input(f, [(2, 3), (3, 4), (0, 3), (3, 5)])
    result = build_relative_primitive(f, omega, r=1)
    print("\nprimitive pipeline:")
    for tau, prim in sorted(result.primitives.items()):
        for sigma, pd in sorted(prim.prisms.items()):
            tag = "corrected" if not pd.correction.is_zero else "direct"
            print(f"  over {tau}, cell {sigma}: residual {pd.residual or 'ZERO'} ({tag}), "
                  f"descent {'verified' if pd.descent_ok else 'FAILED'}")
    for rep in result.horizontal:
        print(f"  specialize {rep.tau} -> {rep.tau_face}: "
              f"{rep.vanished_terms} terms vanish, {rep.surviving_terms} survive, "
              f"match={'yes' if rep.ok else 'NO'}")

    if args.out:
        payload = {}
        for tau, prim in result.primitives.items():
            for sigma, pd in prim.prisms.items():
                payload[f"{tau}:{sigma}"] = pd.H
        dump_json(args.out, payload)
        print(f"\nprimitive forms written to {args.out}")


if __name__ == "__main__":
    main()
