"""Executable identity checks over generated small universes.

Every check canonicalizes a difference of forms and reports the residual;
a pass means the residual is literally zero in exact arithmetic.  Case
generation is exhaustive within the stated bounds; the one randomized
family (polynomial multipliers) uses a seeded generator so reports are
reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .mesh import (Prism, Simplex, SimplicialComplex, SimplicialMorphism,
                   boundary_chain, incidence_number, prism_boundary,
                   prism_incidence)
from .forms import (CoordSystem, Form, Poly, canonicalize, d, eliminate_poly,
                    elimination_chart, integrate_fiber, is_fiberwise_zero,
                    pi_context, prism_context, pullback, relative_d,
                    restrict_to_face, simplex_context, wedge,
                    whitney_antiboundary, whitney_form)
from .primitive import homothety_operator, specialization_chart, t_monomial
from .sheaf import psi_coordinate_map
from . import fixtures as fixture_mod

Q = Fraction


@dataclass
class IdentityReport:
    """Outcome of one identity check on one generated case."""

    identity: str
    case: str
    passed: bool
    residual: str | None

    def as_dict(self):
        out = {"identity": self.identity, "case": self.case,
               "status": "pass" if self.passed else "fail"}
        if self.residual is not None:
            out["residual"] = self.residual
        return out


def _report(identity: str, case: str, delta: Form) -> IdentityReport:
    zero = delta.is_zero
    return IdentityReport(identity, case, zero, None if zero else repr(delta))


def _canonical_simplex(p: int) -> Simplex:
    return Simplex(tuple(range(p + 1)))


def _canonical_prism(dims: tuple[int, ...]) -> Prism:
    factors, v = [], 0
    for dd in dims:
        factors.append(Simplex(tuple(range(v, v + dd + 1))))
        v += dd + 1
    return Prism(tuple(factors))


def simplex_universe(max_dim: int):
    return [_canonical_simplex(p) for p in range(1, max_dim + 1)]


def prism_universe():
    """Prisms of 1 to 3 factors, each of dimension 1 or 2."""
    return [_canonical_prism(dims) for k in (1, 2, 3)
            for dims in itertools.product((1, 2), repeat=k)]


# ---------------------------------------------------------------------------
# Extension differentials
# ---------------------------------------------------------------------------

def verify_lemcod_simplex(s: Simplex, face: Simplex) -> IdentityReport:
    """d of the extended facet form equals the incidence-signed cell form."""
    ctx = simplex_context(s)
    delta = canonicalize(d(whitney_form(ctx, {0: face.vertices}))
                         - whitney_form(ctx) * Q(incidence_number(s, face)))
    return _report("lemcod.a", f"{s} face {face}", delta)


def verify_lemcod_prism(p: Prism, q: Prism) -> IdentityReport:
    ctx = prism_context(p)
    ext = whitney_form(ctx, dict(enumerate(f.vertices for f in q.factors)))
    delta = canonicalize(d(ext) - whitney_form(ctx) * Q(prism_incidence(p, q)))
    return _report("lemcod.b", f"{p} face {q}", delta)


def _affine_coeff_forms(ctx: CoordSystem, degree: int):
    """Basis of forms of the given degree with affine coefficients, in the
    canonical chart (last variable of each group eliminated)."""
    reduced = [i for gvars in ctx.group_vars for i in gvars[:-1]]
    coeffs = [Poly.const(ctx, 1)] + [Poly.variable(ctx, i) for i in reduced]
    return [Form(ctx, {dv: c}) for dv in itertools.combinations(reduced, degree)
            for c in coeffs]


def _coefficients(form: Form, tag: int = 0) -> dict:
    """The nonzero coefficients of a form, by column (tag, wedge, packed key)."""
    return {(tag, dv, e): Q(c, form.den) for dv, num in form.num.items() for e, c in num.items()}


def _rank(rows) -> int:
    """The rank over Q of sparse rows {column: rational}, fraction-free: each
    row is cleared to ints by the lcm of its denominators, then reduced at its
    lowest column against the pivot row there (row <- a row - b pivot, divided
    by the gcd of its entries) until it is zero or opens a new pivot."""
    pivots: dict = {}
    for r in rows:
        den = math.lcm(1, *(x.denominator for x in r.values()))
        row = {k: x.numerator * (den // x.denominator) for k, x in r.items() if x}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            row = {k: x for k in row.keys() | pivot.keys()
                   if (x := a * row.get(k, 0) - b * pivot.get(k, 0))}
            g = math.gcd(*row.values())
            if g > 1:
                row = {k: x // g for k, x in row.items()}
    return len(pivots)


def verify_lemcod_basis(p: Prism) -> IdentityReport:
    """The extended codim-1 forms are a basis of the space of forms one
    degree below the top whose coefficients are affine and whose facet
    restrictions are multiples of the facet volume forms."""
    ctx = prism_context(p)
    fcs = list(prism_boundary(p))
    rank = _rank(_coefficients(canonicalize(
                 whitney_form(ctx, dict(enumerate(f.vertices for f in q.factors)))))
                 for q in fcs)
    if rank != len(fcs):
        return IdentityReport("lemcod.c", f"{p} independence", False,
                              f"rank {rank} != {len(fcs)}")
    # dimension of the constrained space, one row per unknown: each affine
    # form b with its restrictions to every facet, and each multiplier of a
    # facet volume form w_q with -w_q on its facet
    qctxs = [prism_context(q) for q in fcs]
    unknowns = [{k: c for fi, qctx in enumerate(qctxs) for k, c in
                 _coefficients(canonicalize(restrict_to_face(b, qctx)), fi).items()}
                for b in _affine_coeff_forms(ctx, p.dim - 1)]
    unknowns += [{k: -c for k, c in _coefficients(canonicalize(whitney_form(qctx)), fi).items()}
                 for fi, qctx in enumerate(qctxs)]
    sol_dim = len(unknowns) - _rank(unknowns)
    # forms with zero coefficients force zero multipliers, so the solution
    # space projects injectively onto the form part
    if sol_dim != len(fcs):
        return IdentityReport("lemcod.c", f"{p} span", False,
                              f"solution dim {sol_dim} != {len(fcs)}")
    return IdentityReport("lemcod.c", f"{p}", True, None)


def basis_universe(max_dim: int):
    """Cells for the basis check: simplices as one-factor prisms, plus the
    multi-factor prism universe."""
    return ([Prism((s,)) for s in simplex_universe(max_dim)]
            + [p for p in prism_universe() if len(p.factors) > 1])


def verify_lemcod(max_dim: int, seed: int):
    reports = [verify_lemcod_simplex(s, face) for s in simplex_universe(max_dim)
               for face in boundary_chain(s)]
    reports += [verify_lemcod_prism(p, q) for p in prism_universe()
                for q in prism_boundary(p)]
    return reports + [verify_lemcod_basis(p) for p in basis_universe(max_dim)]


# ---------------------------------------------------------------------------
# Boundary antiderivative
# ---------------------------------------------------------------------------

def verify_bord(s: Simplex) -> IdentityReport:
    delta = canonicalize(d(whitney_antiboundary(s)) - whitney_form(simplex_context(s)))
    return _report("bord", f"{s}", delta)


def verify_bord_suite(max_dim: int, seed: int):
    return [verify_bord(s) for s in simplex_universe(max_dim)]


# ---------------------------------------------------------------------------
# Star sums and multiplier differentials
# ---------------------------------------------------------------------------

def verify_satrap(p: int, ell: int) -> IdentityReport:
    """Sum of one-vertex extensions of a face collapses to a constant
    multiple of the face's coordinate wedge."""
    s = _canonical_simplex(p)
    ctx = simplex_context(s)
    total = Form.zero(ctx)
    for h in range(ell + 1, p + 1):
        total = total + whitney_form(ctx, {0: tuple(range(ell + 1)) + (h,)})
    fact = math.factorial(ell + 1)
    rhs = Form(ctx, {tuple(range(ell + 1)): Poly.const(ctx, Q((-1) ** (ell + 1) * fact))})
    return _report("satrap", f"p={p} l={ell}",
                   canonicalize(total - rhs))


def _satrapaz_rhs(ctx: CoordSystem, p: int, ell: int, E: Poly) -> Form:
    rhs = Form.zero(ctx)
    for h in range(ell + 1, p + 1):
        # substitute the h-th coordinate by 1 - sum(others)
        Eh = eliminate_poly(E, elimination_chart(ctx, (h,)))
        coeff = homothety_operator(Eh, ell + 1, (i for i in range(p + 1) if i != h))
        w = whitney_form(ctx, {0: tuple(range(ell + 1)) + (h,)})
        rhs = rhs + w * (coeff * Q((-1) ** (ell + 1)))
    return rhs


def verify_satrapaz(p: int, ell: int, E: Poly) -> IdentityReport:
    """Distribution-style differential of a multiplied extension form."""
    s = _canonical_simplex(p)
    ctx = simplex_context(s)
    assert E.ctx == ctx
    lhs = d(wedge(Form.from_poly(E),
                  whitney_form(ctx, {0: tuple(range(ell + 1))})))
    rhs = _satrapaz_rhs(ctx, p, ell, E)
    return _report("satrapaz", f"p={p} l={ell} E={E}", canonicalize(lhs - rhs))


def random_poly(ctx: CoordSystem, rng: random.Random) -> Poly:
    """A seeded multiplier: 1 to 4 terms, each of degree at most 3."""
    terms = {}
    nv = ctx.nvars
    for _ in range(rng.randint(1, 4)):
        e = [0] * nv
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(nv)] += 1
        terms[tuple(e)] = Q(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(ctx, terms)


def _star_cases(max_dim: int) -> list[tuple[int, int]]:
    """(p, l) for the star sums: 1 <= p <= max_dim and l <= min(2, p - 1)."""
    return [(p, ell) for p in range(1, max_dim + 1) for ell in range(min(2, p - 1) + 1)]


def verify_satrap_suite(max_dim: int, seed: int):
    return [verify_satrap(p, ell) for p, ell in _star_cases(max_dim)]


def verify_satrapaz_suite(max_dim: int, seed: int):
    """The multipliers 1 and the first coordinate on every case, then 20
    seeded random multipliers on seeded cases."""
    reports = []
    cases = _star_cases(max_dim)
    for p, ell in cases:
        ctx = simplex_context(_canonical_simplex(p))
        reports.append(verify_satrapaz(p, ell, Poly.const(ctx, 1)))
        reports.append(verify_satrapaz(p, ell, Poly.variable(ctx, 0)))
    rng = random.Random(seed)
    for _ in range(20):
        p, ell = cases[rng.randrange(len(cases))]
        ctx = simplex_context(_canonical_simplex(p))
        reports.append(verify_satrapaz(p, ell, random_poly(ctx, rng)))
    return reports


# ---------------------------------------------------------------------------
# Pullback of the volume form through the blow-down chart
# ---------------------------------------------------------------------------

def verify_iminve(f: SimplicialMorphism, sigma: Simplex) -> IdentityReport:
    """psi-pullback of the cell volume form against the weighted product
    volume form, with the permutation sign from the stored orders."""
    tau = f.image(sigma)
    psi = psi_coordinate_map(f, sigma)
    pctx = psi.source
    p, s = sigma.dim, tau.dim
    lhs = pullback(psi, whitney_form(simplex_context(sigma)))
    dims = [fib.dim for fib in f.fibers(sigma)]
    alpha = sum((s - j) * dims[j] for j in range(s)) + (
        0 if f.grouping_sign(sigma) == 1 else 1)
    den = math.factorial(s) * math.prod(map(math.factorial, dims))
    coeff = Q((-1) ** alpha * math.factorial(p), den)
    rhs = whitney_form(pctx) * (t_monomial(pctx, dims) * coeff)
    return _report("iminve", f"{sigma}->{tau} dims={tuple(dims)}",
                   canonicalize(lhs - rhs))


def verify_iminve_suite(max_dim: int, seed: int):
    """Every vertex map of a simplex of dimension <= max_dim onto a base
    simplex of dimension <= 2."""
    reports = []
    for p in range(1, max_dim + 1):
        sigma = _canonical_simplex(p)
        delta = SimplicialComplex([sigma])
        for s in range(min(2, p) + 1):
            base = SimplicialComplex([Simplex(tuple(range(100, 101 + s)))])
            for assignment in itertools.product(range(s + 1), repeat=p + 1):
                if set(assignment) != set(range(s + 1)):
                    continue
                vmap = {v: 100 + assignment[v] for v in range(p + 1)}
                f = SimplicialMorphism(delta, base, vmap)
                reports.append(verify_iminve(f, sigma))
    return reports


# ---------------------------------------------------------------------------
# Opposite-face factorizations
# ---------------------------------------------------------------------------

def verify_faceface(p: int, q: int) -> IdentityReport:
    """Volume form as the product of two opposite face forms and a signed
    logarithmic segment form, after clearing the denominator."""
    s = _canonical_simplex(p)
    ctx = simplex_context(s)
    face1 = tuple(range(q + 1))
    face2 = tuple(range(q + 1, p + 1))
    u = Poly.zero(ctx)
    for i in face1:
        u = u + Poly.variable(ctx, i)
    du = Form.zero(ctx)
    for i in face1:
        du = du + Form.d_var(ctx, i)
    # (-1)^(p+q) p! / (q! (p-q-1)!): sign and magnitude pinned by the
    # exact-multiple fit over all (p, q) up to 5 with subsequence orientations
    coeff = Q((-1) ** (p + q) * math.factorial(p),
              math.factorial(q) * math.factorial(p - q - 1))
    rhs = wedge(wedge(whitney_form(ctx, {0: face1}),
                      whitney_form(ctx, {0: face2})), du) * coeff
    lhs = whitney_form(ctx) * (u * (Poly.const(ctx, 1) - u))
    return _report("faceface", f"p={p} q={q}", canonicalize(lhs - rhs))


def verify_facepri(p: int) -> IdentityReport:
    """Codimension-1 version: w(cell) * (1 - last coord) against the
    extended facet form wedged with the last differential."""
    s = _canonical_simplex(p)
    ctx = simplex_context(s)
    face = tuple(range(p))
    lhs = whitney_form(ctx) * (Poly.const(ctx, 1) - Poly.variable(ctx, p))
    rhs = wedge(whitney_form(ctx, {0: face}), Form.d_var(ctx, p)) * Q(p)
    return _report("facepri", f"p={p}", canonicalize(lhs - rhs))


def verify_facepro(dims: tuple[int, ...]) -> IdentityReport:
    """Prism version assembled factor-wise, with facet/point opposite pairs
    in every factor; denominators cleared so both sides are polynomial."""
    p = _canonical_prism(dims)
    ctx = prism_context(p)
    lhs = whitney_form(ctx)
    rhs = Form.const(ctx, 1)
    for j, fj in enumerate(p.factors):
        pj = fj.dim
        face1 = fj.vertices[:pj]
        last = fj.vertices[pj]
        block = wedge(whitney_form(ctx, {j: face1}),
                      Form.d_var(ctx, ctx.var(f"m:{j}", last))) * Q(pj)
        rhs = wedge(rhs, block)
        lhs = lhs * (Poly.const(ctx, 1) - Poly.variable(ctx, ctx.var(f"m:{j}", last)))
    return _report("facepro", f"dims={dims}", canonicalize(lhs - rhs))


def verify_faceface_suite(max_dim: int, seed: int):
    """Faces of dimension q <= 2 against their opposite faces, the facet
    version in every dimension, and the four products of two factors of
    dimension 1 or 2."""
    reports = [verify_faceface(p, q) for p in range(2, max_dim + 1)
               for q in range(min(2, p - 1) + 1)]
    reports += [verify_facepri(p) for p in range(1, max_dim + 1)]
    return reports + [verify_facepro(dims) for dims in ((1, 1), (1, 2), (2, 1), (2, 2))]


# ---------------------------------------------------------------------------
# Relative form identities on the trivialized sheaves
# ---------------------------------------------------------------------------

def verify_relative_suite(max_dim: int, seed: int):
    """On the four built-in fixtures, whatever max_dim and seed."""
    reports = []
    for f in (fixture_mod.triangle_fan(), fixture_mod.square_over_edge(),
              fixture_mod.five_over_two(), fixture_mod.tetra_pair_over_triangle()):
        for tau in sorted(f.target.cells):
            for sigma in f.cells_over(tau):
                ctx = pi_context(tau, f.fibers(sigma))
                wrel = whitney_form(ctx, {g: ctx.groups[g][1] for g in ctx.fiber_groups})
                # fiber integral is identically one
                integral = integrate_fiber(wrel)
                delta = canonicalize(Form.from_poly(integral) - Form.const(ctx, 1))
                reports.append(_report("relative.integral",
                                       f"{sigma} over {tau}", delta))
                # weighted relative volume form specializes coherently
                for tau_f in sorted(f.target.cells):
                    if not tau_f.vset < tau.vset:
                        continue
                    reports.append(_opicsh_case(f, sigma, tau, tau_f, wrel))
                # the relative differential of the extended forms: one-step
                # fiber facets give incidence-signed volume forms
                reports.extend(_lemrol_cases(f, sigma, tau, wrel))
                # the fiberwise-vanishing criterion: base multiples die,
                # the relative volume form survives
                reports.append(_lecare_case(f, sigma, tau, wrel))
    return reports


def _lecare_case(f, sigma, tau, wrel) -> IdentityReport:
    ok = True
    if tau.dim >= 1:
        # multiples of the base volume form restrict to zero on fibers: the
        # cell's Whitney form is de ^ wrel, base group first
        ok = is_fiberwise_zero(whitney_form(wrel.ctx))
    if f.rel_dim(sigma) >= 1:
        ok = ok and not is_fiberwise_zero(wrel)
    return IdentityReport("relative.fiberwise_zero", f"{sigma} over {tau}", ok,
                          None if ok else "criterion misclassified a form")


def _opicsh_case(f, sigma, tau, tau_f, wrel) -> IdentityReport:
    dims = [fib.dim for fib in f.fibers(sigma)]
    weighted = wrel * t_monomial(wrel.ctx, dims)
    chart = specialization_chart(wrel.ctx, tau_f)
    specialized = pullback(chart, weighted)
    lost = [dims[j] for j, y in enumerate(tau.vertices) if y not in tau_f.vset]
    if any(dd > 0 for dd in lost):
        delta = canonicalize(specialized)
        return _report("relative.weights",
                       f"{sigma} over {tau} -> {tau_f} (drops)", delta)
    sub = chart.source
    dims_f = [dd for dd, y in zip(dims, tau.vertices) if y in tau_f.vset]
    direct = (whitney_form(sub, {g: sub.groups[g][1] for g in sub.fiber_groups})
              * t_monomial(sub, dims_f))
    delta = canonicalize(specialized - direct)
    return _report("relative.weights",
                   f"{sigma} over {tau} -> {tau_f} (equidim)", delta)


def _lemrol_cases(f, sigma, tau, wrel):
    reports = []
    ctx = wrel.ctx
    fibers = f.fibers(sigma)
    fiber_prism = Prism(fibers)
    for j, fib in enumerate(fibers):
        if fib.dim < 1:
            continue
        for i in range(len(fib.vertices)):
            sub = list(fibers)
            sub[j] = fib.facet_omitting(i)
            ext = whitney_form(ctx, dict(zip(ctx.fiber_groups, (b.vertices for b in sub))))
            lhs = relative_d(ext)
            sign = prism_incidence(fiber_prism, Prism(tuple(sub)))
            rhs = wrel * Q(sign)
            delta = canonicalize(lhs - rhs)
            reports.append(_report(
                "relative.facet_differential",
                f"{sigma} over {tau}, block {j} facet {i}", delta))
    # second case: same fibers over a base facet extend with zero d_e
    lhs2 = relative_d(wrel)
    reports.append(_report("relative.flat_extension",
                           f"{sigma} over {tau}", canonicalize(lhs2)))
    return reports


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

# name -> runner(max_dim, seed), in report order
SUITES = {"lemcod": verify_lemcod, "bord": verify_bord_suite,
          "satrap": verify_satrap_suite, "satrapaz": verify_satrapaz_suite,
          "iminve": verify_iminve_suite, "faceface": verify_faceface_suite,
          "relative": verify_relative_suite}


def run_suite(name: str, max_dim: int, seed: int):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](max_dim, seed)
