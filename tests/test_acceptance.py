"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line; all identities are checked in exact
rational arithmetic (zero canonical residual), the shrinking-average
criterion too, at the stated epsilon and tolerance.  Runtime bounds are asserted where
stated.
"""

import random
import time
from fractions import Fraction as Q

from prismal.fixtures import (triangle_fan, five_over_two, square_over_edge,
                              tetra_pair_over_triangle)
from prismal.forms import (Form, Poly, d, equal_mod_relations,
                           integrate_fiber, pi_context, simplex_context,
                           whitney_form)
from prismal.mesh import Simplex, boundary_chain, prism_boundary
from prismal.primitive import (build_relative_primitive, extract_A,
                               homothety_operator, oracle_A, ode_solve)
from prismal.sheaf import (build_Pf, build_Sf, check_Pf_characterization,
                           check_Sf_characterization, psi_coordinate_map)
from prismal.verify import (basis_universe, prism_universe, simplex_universe,
                            verify_bord_suite, verify_faceface_suite,
                            verify_iminve_suite, verify_lemcod_basis,
                            verify_lemcod_prism, verify_lemcod_simplex,
                            verify_satrap_suite, verify_satrapaz_suite)
from _support import chain_boundary, oracle_eps_terms
from test_primitive import global_input, residuals_zero

UCTX_NAMES = tuple(range(6))


def _announce(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_extension_differentials_runtime():
    t0 = time.time()
    reports = [verify_lemcod_simplex(s, face) for s in simplex_universe(4)
               for face in boundary_chain(s)]
    reports += [verify_lemcod_prism(p, q) for p in prism_universe()
                for q in prism_boundary(p)]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 30
    _announce(1, ok, f"d w(face;cell) = [cell;face] w(cell) on the full universe "
                     f"({len(reports)} cases, {elapsed:.1f}s < 30s)")


def test_criterion_02_extended_forms_basis():
    reports = [verify_lemcod_basis(p) for p in basis_universe(4)]
    ok = all(r.passed for r in reports)
    _announce(2, ok, f"extended codim-1 forms span with exact rank == face count "
                     f"({len(reports)} cells incl. simplices to dim 4)")


def test_criterion_03_antiboundary():
    reports = verify_bord_suite(4, 0)
    ok = all(r.passed for r in reports)
    _announce(3, ok, "d(antiboundary) = whitney for p = 1..4")


def test_criterion_04_pullback_identity():
    reports = verify_iminve_suite(4, 0)
    ok = all(r.passed for r in reports) and len(reports) > 100
    _announce(4, ok, f"blow-down pullback identity with signs, all vertex maps "
                     f"onto bases of dim <= 2 ({len(reports)} cases)")


def test_criterion_05_star_sums():
    reports = verify_satrap_suite(4, 0) + verify_satrapaz_suite(4, 0)
    ok = all(r.passed for r in reports)
    _announce(5, ok, f"star sums and multiplier differentials, (p,l) <= (4,2) "
                     f"plus 20 seeded polynomials ({len(reports)} cases)")


def test_criterion_06_face_factorizations():
    reports = verify_faceface_suite(4, 0)
    ok = all(r.passed for r in reports)
    _announce(6, ok, f"opposite-face factorizations after denominator clearing "
                     f"({len(reports)} cases)")


def test_criterion_07_fiber_integral_one():
    ok = True
    count = 0
    for f in [triangle_fan(), square_over_edge(), five_over_two(),
              tetra_pair_over_triangle()]:
        for tau in sorted(f.target.cells):
            for sigma in f.preimage_cells(tau):
                if f.image(sigma) != tau:
                    continue
                ctx = pi_context(tau, f.fibers(sigma))
                wrel = whitney_form(ctx, {g: ctx.groups[g][1] for g in ctx.fiber_groups})
                val = integrate_fiber(wrel)
                ok = ok and equal_mod_relations(Form.from_poly(val),
                                                Form.const(ctx, 1))
                count += 1
    _announce(7, ok, f"fiber integral of the relative volume form is one, "
                     f"independent of the base point ({count} prisms)")


def test_criterion_08_homothety_ode():
    from prismal.forms import CoordSystem
    ctx = CoordSystem((("u", tuple(range(6))),))
    rng = random.Random(0)
    ok = True
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = [0] * 6
            for _ in range(rng.randint(0, 5)):
                e[rng.randrange(6)] += 1
            terms[tuple(e)] = Q(rng.randint(-9, 9), rng.randint(1, 5))
        B = Poly(ctx, terms)
        r = rng.randint(1, 4)
        ok = ok and not homothety_operator(ode_solve(B, r), r) - B
    ok = ok and ode_solve(Poly.zero(ctx), 2) == Poly.zero(ctx)
    # uniqueness on polynomials: nonzero candidates fail the homogeneous test
    for _ in range(10):
        e = [0] * 6
        e[rng.randrange(6)] += rng.randint(0, 4)
        E = Poly(ctx, {tuple(e): Q(rng.randint(1, 5))})
        ok = ok and bool(homothety_operator(E, 3))
    _announce(8, ok, "homothety ODE: zero residual on 50 seeded inputs, "
                     "zero is the only homogeneous solution")


def test_criterion_09_end_to_end_primitive():
    t0 = time.time()
    f1 = triangle_fan()
    omega1 = global_input(f1, [(2, 3), (3, 4), (0, 3), (3, 5)])
    res1 = build_relative_primitive(f1, omega1, r=1)
    f2 = tetra_pair_over_triangle()
    omega2 = global_input(f2, [(1, 2), (2, 3), (2, 4)])
    res2 = build_relative_primitive(f2, omega2, r=1)
    ok = all(residuals_zero(res) and all(rep.ok for rep in res.horizontal)
             for res in (res1, res2))
    # face chains over the two-dimensional base were exercised
    chains = {(rep.tau, rep.tau_face) for rep in res2.horizontal}
    ok = ok and any(tau.dim == 2 and face.dim == 0 for tau, face in chains)
    ok = ok and any(tau.dim == 2 and face.dim == 1 for tau, face in chains)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _announce(9, ok, f"end-to-end relative primitive with zero residual and "
                     f"horizontal gluing on both fixtures ({elapsed:.1f}s < 60s)")


def _oracle_holds(eta, phi) -> bool:
    """Criterion 10 on one relative face: at eps = 1/10^4 the average is
    within 1/10^6 of the exact value, and as a polynomial in eps its eps^0
    term is that value and its eps^1 term is zero."""
    est, exact = oracle_A(eta, phi, Q(1, 10 ** 4))
    terms = oracle_eps_terms(eta, phi)
    return abs(est - exact) < Q(1, 10 ** 6) and terms[0] == exact and terms[1] == 0


def test_criterion_10_numeric_oracle():
    f = triangle_fan()
    sigma = Simplex((0, 2, 3))
    sc = simplex_context(sigma)
    psi = psi_coordinate_map(f, sigma)
    rng = random.Random(0)
    ok = True
    checked = 0
    for k in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * sc.nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(sc.nvars)] += 1
            terms[tuple(e)] = Q(rng.randint(-6, 6))
        coeff = Poly(sc, terms)
        which = rng.randrange(2)
        eta = Form(sc, {(sc.var("l", 2 if which else 3),): coeff})
        for phi in extract_A(eta, psi, 1):
            checked += 1
            ok = ok and _oracle_holds(eta, phi)
    # every relative face of the cube fiber at r = 2
    f = five_over_two()
    sigma = Simplex(tuple(range(6)))
    sc = simplex_context(sigma)
    l = lambda v: Poly.variable(sc, sc.var("l", v))
    eta = d(Form(sc, {(sc.var("l", 5),): l(1) * l(3), (sc.var("l", 3),): l(1) * l(5) * l(5)}))
    for phi in extract_A(eta, psi_coordinate_map(f, sigma), 2):
        checked += 1
        ok = ok and _oracle_holds(eta, phi)
    _announce(10, ok, f"exact shrinking-average oracle at eps=1/10^4 matches the exact "
                      f"extraction within 1/10^6, with eps^0 term the exact value and "
                      f"eps^1 term 0 ({checked} evaluations)")


def test_criterion_11_structural():
    ok = True
    for f in [triangle_fan(), square_over_edge(), five_over_two(),
              tetra_pair_over_triangle()]:
        ok = ok and check_Sf_characterization(build_Sf(f))[0]
        ok = ok and check_Pf_characterization(build_Pf(f))[0]
    for s in simplex_universe(4):
        if s.dim >= 2:
            ok = ok and chain_boundary(boundary_chain(s), boundary_chain) == {}
    for p in prism_universe():
        if p.dim >= 2:
            ok = ok and chain_boundary(prism_boundary(p), prism_boundary) == {}
    _announce(11, ok, "sheaf characterizations on all fixtures; "
                      "boundary squared vanishes on the full universes")
