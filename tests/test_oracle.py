"""Differential oracle: the exact kernel against sympy's rational arithmetic.

Every kernel result is recomputed with an independent sympy implementation
(its own substitution, exterior derivative, wedge sign and iterated
integrals) and must agree exactly.  Every output coefficient must also obey
the kernel's invariant: an int when integral, otherwise a Fraction; and
every output form its layout: int numerators over one denominator, in
lowest terms, with `.terms` their per-wedge view.
"""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation  # noqa: E402

from prismal.fixtures import (five_over_two, square_over_edge,  # noqa: E402
                              tetra_pair_over_triangle, triangle_fan)
from prismal.forms import (CoordMap, CoordSystem, Form, Poly,  # noqa: E402
                           _chart_rows, _exterior_minors, _frame, _sort_wedge,
                           _wedge_of_mask, canonicalize, d, eliminate, eliminate_poly,
                           integrate_fiber, integrate_top_form, pi_context, poincare_primitive,
                           prism_context, pullback, restrict_to_face,
                           simplex_context, vertical_part, wedge)
from prismal.mesh import Prism, Simplex  # noqa: E402
from prismal.primitive import (oracle_A, pair_with_face, relative_faces,  # noqa: E402
                               specialization_chart)
from prismal.sheaf import psi_coordinate_map  # noqa: E402
from _support import restriction_map  # noqa: E402
from test_forms import monomial_maps  # noqa: E402
from test_primitive import triangle_block_over_edge  # noqa: E402

ORACLE = settings(max_examples=30, deadline=None, derandomize=True)
MIXED_DENS = st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10))

CTX3 = simplex_context(Simplex((0, 1, 2)))
CTX4 = simplex_context(Simplex((0, 1, 2, 3)))
PCTX = pi_context(Simplex((100, 101)), (Simplex((0,)), Simplex((1, 2))))
PRISM = prism_context(Prism((Simplex((0, 1)), Simplex((2, 3, 4)))))


def symbols(ctx):
    return sympy.symbols([f"x{i}" for i in range(ctx.nvars)])


def to_sym(p: Poly):
    xs = symbols(p.ctx)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** n for x, n in zip(xs, e)))
                       for e, c in p.terms.items()))


def form_to_sym(a: Form) -> dict:
    return {dv: to_sym(p) for dv, p in a.terms.items()}


def sym_equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(sympy.expand(a.get(k, 0) - b.get(k, 0)) == 0 for k in keys)


def assert_invariant(obj):
    if isinstance(obj, Form):
        # no empty wedge, no zero numerator, one den prime to every numerator
        assert type(obj.den) is int and obj.den > 0
        assert all(t and 0 not in t.values() for t in obj.num.values())
        assert math.gcd(obj.den, *(c for t in obj.num.values() for c in t.values())) == 1
        # `.terms` is each wedge's numerators over den, in lowest terms
        assert obj.terms.keys() == obj.num.keys()
        for dv, t in obj.num.items():
            g = math.gcd(obj.den, *t.values())
            assert obj.terms[dv].den == obj.den // g
            assert obj.terms[dv].num == {e: c // g for e, c in t.items()}
    polys = obj.terms.values() if isinstance(obj, Form) else [obj]
    for p in polys:
        for e, c in p.terms.items():
            assert all(type(n) is int and n >= 0 for n in e)
            assert c != 0
            assert type(c) is int or (type(c) is Q and c.denominator != 1), repr(c)


def sym_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, p), (j, q) in itertools.product(a.items(), b.items()):
        k = i + j
        if len(set(k)) < len(k):
            continue
        order = sorted(range(len(k)), key=k.__getitem__)
        sign = Permutation(order).signature() if len(k) > 1 else 1
        key = tuple(sorted(k))
        out[key] = out.get(key, 0) + sign * p * q
    return out


def sym_d(a: dict, xs: list) -> dict:
    out: dict = {}
    for j, x in enumerate(xs):
        for k, v in sym_wedge({(j,): 1}, {dv: sympy.diff(c, x) for dv, c in a.items()}).items():
            out[k] = out.get(k, 0) + v
    return out


def sym_pullback(images: list, source_vars: list, target_vars: list, a: dict) -> dict:
    """Pull back {wedge: coefficient} along target_var[i] = images[i]."""
    subs = dict(zip(target_vars, images))
    out: dict = {}
    for dv, coeff in a.items():
        term = {(): coeff.subs(subs, simultaneous=True)}
        for i in dv:
            term = sym_wedge(term, {(j,): sympy.diff(images[i], x)
                                    for j, x in enumerate(source_vars)})
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return out


def polys(ctx, max_degree=3, max_terms=4, dens=st.integers(1, 4)):
    def build(items):
        terms: dict = {}
        for idxs, num, den in items:
            e = [0] * ctx.nvars
            for i in idxs:
                e[i] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + Q(num, den)
        return Poly(ctx, terms)
    monomial = st.lists(st.integers(0, ctx.nvars - 1), max_size=max_degree)
    return st.lists(st.tuples(monomial, st.integers(-6, 6), dens),
                    min_size=1, max_size=max_terms).map(build)


def forms(ctx, degree, max_degree=2, dens=st.integers(1, 4)):
    combos = list(itertools.combinations(range(ctx.nvars), degree))
    return st.lists(st.tuples(st.sampled_from(combos), polys(ctx, max_degree, 3, dens)),
                    min_size=1, max_size=3).map(lambda items: Form(ctx, dict(items)))


@ORACLE
@given(polys(PCTX), polys(PCTX))
def test_poly_ring_operations(p, q):
    for got, want in ((p * q, to_sym(p) * to_sym(q)),
                      (p + q, to_sym(p) + to_sym(q)),
                      (p - q, to_sym(p) - to_sym(q)),
                      (p * Q(2, 3), to_sym(p) * sympy.Rational(2, 3)),
                      (p ** 2, to_sym(p) ** 2)):
        assert_invariant(got)
        assert sympy.expand(to_sym(got) - want) == 0


@ORACLE
@given(polys(CTX3, 3, 4, MIXED_DENS),
       st.lists(st.just(None) | polys(PCTX, 2, 1, MIXED_DENS), min_size=3, max_size=3))
def test_poly_substitute_single_term_images(p, images):
    # a monomial map: each image one term, coefficient not 1, or zero
    images = [Poly.zero(PCTX) if q is None else q for q in images]
    got = p.substitute(CoordMap.build(PCTX, CTX3, dict(zip(CTX3.names, images))))
    assert_invariant(got)
    subs = dict(zip(symbols(CTX3), map(to_sym, images)))
    want = to_sym(p).subs(subs, simultaneous=True)
    assert sympy.expand(to_sym(got) - want) == 0


def _elimination_images(ctx):
    xs = symbols(ctx)
    images = list(xs)
    for gvars in ctx.group_vars:
        images[gvars[-1]] = 1 - sum(xs[i] for i in gvars[:-1])
    return images


@ORACLE
@given(st.integers(0, 3).flatmap(lambda r: forms(PCTX, r)).filter(bool))
def test_canonicalize(a):
    got = canonicalize(a)
    assert_invariant(got)
    xs = symbols(PCTX)
    want = sym_pullback(_elimination_images(PCTX), xs, xs, form_to_sym(a))
    assert sym_equal(form_to_sym(got), want)


@st.composite
def charted_forms(draw):
    """A context of one to three groups (one-vertex groups included), a chart
    dropping one variable or none per group, and a 0-, 1- or 2-form whose
    coefficients mix several denominators."""
    groups, start = [], 0
    for g, size in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))):
        tag = "t" if g == 0 and draw(st.booleans()) else f"m:{g}"
        groups.append((tag, tuple(range(start, start + size))))
        start += size
    ctx = CoordSystem(tuple(groups))
    chart = tuple(draw(st.none() | st.sampled_from(gvars)) for gvars in ctx.group_vars)
    degree = draw(st.integers(0, min(2, ctx.nvars)))
    a = draw(forms(ctx, degree, 4, st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10))))
    return chart, a


@ORACLE
@given(charted_forms())
def test_elimination_kernel(case):
    chart, a = case
    xs = symbols(a.ctx)
    images = list(xs)
    for gvars, drop in zip(a.ctx.group_vars, chart):
        if drop is not None:
            images[drop] = 1 - sum(xs[i] for i in gvars if i != drop)
    got = eliminate(a, chart)
    assert_invariant(got)
    assert sym_equal(form_to_sym(got), sym_pullback(images, xs, xs, form_to_sym(a)))
    for p in a.terms.values():
        got = eliminate_poly(p, chart)
        assert_invariant(got)
        want = to_sym(p).subs(dict(zip(xs, images)), simultaneous=True)
        assert sympy.expand(to_sym(got) - want) == 0


@pytest.mark.parametrize("f, sigma", [(triangle_fan(), Simplex((0, 2, 3))),
                                      (five_over_two(), Simplex((0, 1, 2, 3, 4, 5)))],
                         ids=["fan", "cube"])
@ORACLE
@given(data=st.data())
def test_pullback_through_psi(f, sigma, data):
    psi = psi_coordinate_map(f, sigma)
    r = data.draw(st.integers(0, min(2, sigma.dim)))
    a = data.draw(forms(psi.target, r))
    got = pullback(psi, a)
    assert_invariant(got)
    images = [to_sym(p) for p in psi.images]
    want = sym_pullback(images, symbols(psi.source), symbols(psi.target), form_to_sym(a))
    assert sym_equal(form_to_sym(got), want)


def sym_integrate(ctx, a: dict, groups=None):
    """Integral over the product of the standard simplices of `groups` (all
    groups by default), in the chart that drops each one's first variable
    (vertex order gives the orientation); the other groups' variables stay
    free."""
    group_vars = ctx.group_vars if groups is None else [ctx.group_vars[g] for g in groups]
    xs = symbols(ctx)
    images = list(xs)
    for gvars in group_vars:
        images[gvars[0]] = 1 - sum(xs[i] for i in gvars[1:])
    reduced = sym_pullback(images, xs, xs, a)
    full = tuple(i for gvars in group_vars for i in gvars[1:])
    integrand = sympy.expand(reduced.get(full, 0))
    for gvars in group_vars:
        free = [xs[i] for i in gvars[1:]]
        for k in reversed(range(len(free))):
            upper = 1 - sum(free[:k])
            integrand = sympy.integrate(integrand, (free[k], 0, upper))
    return integrand


@pytest.mark.parametrize("ctx", [CTX3, PRISM], ids=["simplex", "prism"])
@ORACLE
@given(data=st.data())
def test_integrate_top_form_dirichlet(ctx, data):
    a = data.draw(forms(ctx, ctx.nvars - len(ctx.groups)))
    got = integrate_top_form(a)
    assert type(got) in (int, Q)
    assert sympy.Rational(got.numerator, got.denominator) == sym_integrate(ctx, form_to_sym(a))


def vertical_top_forms(ctx):
    """Forms of the fiber dimension in the fiber differentials, whose
    coefficients range over every variable, base variables included."""
    fiber_vars = [i for g in ctx.fiber_groups for i in ctx.group_vars[g]]
    degree = sum(len(ctx.group_vars[g]) - 1 for g in ctx.fiber_groups)
    combos = list(itertools.combinations(fiber_vars, degree))
    return st.lists(st.tuples(st.sampled_from(combos), polys(ctx, 2, 3, MIXED_DENS)),
                    min_size=1, max_size=3).map(lambda items: Form(ctx, dict(items)))


@pytest.mark.parametrize("ctx", [
    PCTX, pi_context(Simplex((100, 101)), (Simplex((0, 1)), Simplex((2, 3, 4))))],
    ids=["point-and-edge", "edge-and-triangle"])
@ORACLE
@given(data=st.data())
def test_integrate_fiber_dirichlet(ctx, data):
    a = data.draw(vertical_top_forms(ctx))
    got = integrate_fiber(a)
    assert_invariant(got)
    base_vars = {i for g in ctx.base_groups for i in ctx.group_vars[g]}
    assert all(i in base_vars for e in got.terms for i, n in enumerate(e) if n)
    want = sym_integrate(ctx, form_to_sym(a), ctx.fiber_groups)
    assert sympy.expand(to_sym(got) - want) == 0


def sym_slice_average(g: Poly, phi, eps):
    """The average of g over the eps-slice of phi, by iterated integrals in
    the slice's own coordinates: per block b, every lambda_v is at least
    c = (1 - eps) tbar / |b| and they sum to tbar = 1 / (number of blocks);
    the coordinates off phi are 0."""
    xs = symbols(g.ctx)
    tbar = sympy.Rational(1, len(phi.blocks))
    eps = sympy.Rational(Q(eps).numerator, Q(eps).denominator)
    subs, bounds = dict.fromkeys(xs, 0), []
    for block in phi.blocks:
        free = [xs[g.ctx.var("l", v)] for v in block[1:]]
        c = (1 - eps) * tbar / len(block)
        subs.update({x: x for x in free})
        subs[xs[g.ctx.var("l", block[0])]] = tbar - sum(free)
        # innermost first: each free coordinate leaves room c for every later one
        bounds += [(x, c, tbar - c - sum(free[:k]) - (len(free) - 1 - k) * c)
                   for k, x in reversed(list(enumerate(free)))]
    integrals = [to_sym(g).subs(subs, simultaneous=True), sympy.Integer(1)]
    for x, lower, upper in bounds:  # polynomial antiderivatives: sympy.integrate is slower
        for k, expr in enumerate(integrals):
            prim = sympy.Poly(expr, x).integrate().as_expr()
            integrals[k] = sympy.expand(prim.subs(x, upper) - prim.subs(x, lower))
    return integrals[0] / integrals[1]


def _relative_cells(*fixtures):
    for make in fixtures:
        f = make()
        for sigma in f.source.maximal:
            psi = psi_coordinate_map(f, sigma)
            for r in range(1, f.rel_dim(sigma) + 1):
                yield pytest.param(psi.target, relative_faces(psi, r), r,
                                   id=f"{make.__name__}-{sigma}-r{r}")


@pytest.mark.parametrize("ctx, faces, r", _relative_cells(
    triangle_fan, five_over_two, tetra_pair_over_triangle, triangle_block_over_edge))
@settings(ORACLE, max_examples=10)
@given(data=st.data())
def test_oracle_average_over_the_slice(ctx, faces, r, data):
    eta = data.draw(forms(ctx, r))
    phi = data.draw(st.sampled_from(faces))
    g = pair_with_face(eta, phi)
    for eps in (1, Q(1, 2), Q(3, 7), Q(1, 10 ** 4)):
        est = oracle_A(eta, phi, eps)[0]
        assert sympy.Rational(est.numerator, est.denominator) == sym_slice_average(g, phi, eps)


def sym_sum(a: dict, b: dict, scale=1) -> dict:
    return {k: a.get(k, 0) + scale * b.get(k, 0) for k in set(a) | set(b)}


@ORACLE
@given(data=st.data())
def test_form_operations_keep_the_layout(data):
    # each operation on forms returns the layout (`assert_invariant`) and
    # agrees with sympy; b = c - a makes a + b cancel down to c, zero included
    xs = symbols(PCTX)
    r = data.draw(st.integers(0, 2))
    a = data.draw(forms(PCTX, r, 2, MIXED_DENS))
    b = data.draw(forms(PCTX, r, 2, MIXED_DENS) | forms(PCTX, r).map(lambda c: c - a))
    p = data.draw(polys(PCTX, 2, 3, MIXED_DENS))
    k, q = data.draw(st.integers(-3, 3)), data.draw(st.builds(Q, st.integers(-6, 6), MIXED_DENS))
    sa, sb = form_to_sym(a), form_to_sym(b)
    base = set(PCTX.group_vars[0])
    pick = lambda verts: tuple(sorted(data.draw(st.sets(st.sampled_from(verts), min_size=1))))
    face = CoordSystem(tuple((tag, pick(verts)) for tag, verts in PCTX.groups))
    face_images = [sympy.Symbol(f"x{face.index[n]}") if n in face.index else 0
                   for n in PCTX.names]
    checks = [(a + b, sym_sum(sa, sb)), (a - b, sym_sum(sa, sb, -1)), (-a, sym_sum({}, sa, -1)),
              (a * k, sym_sum({}, sa, k)), (a * q, sym_sum({}, sa, sympy.Rational(q))),
              (a * p, {dv: c * to_sym(p) for dv, c in sa.items()}),
              (wedge(a, b), sym_wedge(sa, sb)), (d(a), sym_d(sa, xs)),
              (canonicalize(a), sym_pullback(_elimination_images(PCTX), xs, xs, sa)),
              (vertical_part(a), {dv: c for dv, c in sa.items() if base.isdisjoint(dv)}),
              (restrict_to_face(a, face), sym_pullback(face_images, symbols(face), xs, sa))]
    for got, want in checks:
        assert_invariant(got)
        assert sym_equal(form_to_sym(got), want)
    # the cone primitive of a relatively exact form: its relative d is the
    # form again, modulo the relations
    closed = vertical_part(d(vertical_part(a)))
    if closed:
        got = poincare_primitive(closed)
        assert_invariant(got)
        rel_d = {dv: c for dv, c in sym_d(form_to_sym(got), xs).items() if base.isdisjoint(dv)}
        assert sym_equal(sym_pullback(_elimination_images(PCTX), xs, xs, rel_d),
                         sym_pullback(_elimination_images(PCTX), xs, xs, form_to_sym(closed)))


def _check_pullback(m: CoordMap, a: Form):
    got = pullback(m, a)
    assert_invariant(got)
    images = [to_sym(p) for p in m.images]
    want = sym_pullback(images, symbols(m.source), symbols(m.target), form_to_sym(a))
    assert sym_equal(form_to_sym(got), want)


def _restriction(data):
    ctx = pi_context(Simplex((100, 101)), (Simplex((0, 1, 2)), Simplex((3, 4))))
    face = []
    for tag, verts in ctx.groups:
        keep = data.draw(st.sets(st.sampled_from(verts), min_size=1))
        face.append((tag, tuple(v for v in verts if v in keep)))
    return restriction_map(ctx, CoordSystem(tuple(face)))


@settings(ORACLE, max_examples=200)
@given(data=st.data())
def test_restrict_to_face_is_the_pullback_of_the_reference_map(data):
    # a relabelling of the packed keys: each group of the face a subset of
    # its group, in a drawn order, so wedges re-sort with their sign
    ctx = pi_context(Simplex((100, 101)), (Simplex((0, 1, 2)), Simplex((3, 4))))
    face = CoordSystem(tuple(
        (tag, tuple(data.draw(st.lists(st.sampled_from(verts), min_size=1, unique=True))))
        for tag, verts in ctx.groups))
    a = data.draw(forms(ctx, data.draw(st.integers(0, 3)), 2, MIXED_DENS))
    got = restrict_to_face(a, face)
    assert_invariant(got)
    assert got == pullback(restriction_map(ctx, face), a)


def test_restrict_to_face_signs_and_content():
    # a reversed edge flips dl:0 ^ dl:1; dropping l:2 drops the 1/3 and
    # with it the 3 of the denominator
    ctx, face = CTX3, CoordSystem((("l", (1, 0)),))
    x0, x1, x2 = (Poly.variable(ctx, i) for i in range(3))
    a = Form(ctx, {(0, 1): x0 * Q(1, 2) + x2 * Q(1, 3), (1, 2): x1})
    got = restrict_to_face(a, face)
    assert got.den == 2 and got == Form(face, {(0, 1): Poly.variable(face, 1) * Q(-1, 2)})
    assert got == pullback(restriction_map(ctx, face), a)
    assert_invariant(got)


def _specialization(data):
    # lost base vertices map to zero, lost fiber blocks to the constant 1/2
    face = data.draw(st.sampled_from(((100, 101), (101, 102), (100, 102), (100,), (102,))))
    f, sigma = five_over_two(), Simplex(tuple(range(6)))
    return specialization_chart(psi_coordinate_map(f, sigma).source, Simplex(face))


def _psi(data):
    f, sigma = data.draw(st.sampled_from(((triangle_fan(), Simplex((0, 2, 3))),
                                          (five_over_two(), Simplex(tuple(range(6)))))))
    return psi_coordinate_map(f, sigma)


@pytest.mark.parametrize("build", [_restriction, _specialization, _psi],
                         ids=["restriction", "specialization", "psi"])
@ORACLE
@given(data=st.data())
def test_pullback_monomial_maps(build, data):
    m = build(data)
    assert all(len(p.terms) <= 1 for p in m.images)
    r = data.draw(st.integers(0, 2))
    _check_pullback(m, data.draw(forms(m.target, r, 2, MIXED_DENS).filter(bool)))


@ORACLE
@given(monomial_maps(PCTX, CTX4, MIXED_DENS),
       st.integers(0, 3).flatmap(lambda r: forms(CTX4, r, 2, MIXED_DENS)).filter(bool))
def test_pullback_exterior_minors(m, a):
    # exponents above 1, fractional coefficients, zero and constant images:
    # the minors of the exponent matrix carry every a_ij and wedge sign
    _check_pullback(m, a)


# ---------------------------------------------------------------------------
# Exterior minors: the one expansion of a wedge of integer 1-forms
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw):
    """Integer rows with entries in -3..3, zero rows included, as the sparse
    (column, entry) rows `_exterior_minors` reads and as dense lists."""
    ncols = draw(st.integers(1, 6))
    dense = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
                          | st.just([0] * ncols), min_size=1, max_size=5))
    sparse = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in dense)
    return sparse, dense, ncols


def _sym_minors(dense, ncols, dv):
    """{bit mask of J: det A[dv, J]} over every J of |dv| columns, by sympy."""
    out = {}
    for J in itertools.combinations(range(ncols), len(dv)):
        det = sympy.Matrix([[dense[i][j] for j in J] for i in dv]).det() if dv else 1
        out[sum(1 << j for j in J)] = int(det)
    return out


@ORACLE
@given(data=st.data())
def test_exterior_minors_are_the_determinants(data):
    # every returned minor is sympy's det A[dv, J], every absent J has det 0;
    # dv may repeat a row, whose minors then all vanish
    sparse, dense, ncols = data.draw(sparse_matrices())
    row = st.integers(0, len(dense) - 1)
    dv = tuple(data.draw(st.lists(row, max_size=4)))
    got = _exterior_minors(sparse, dv, {(): {0: 1}})
    want = _sym_minors(dense, ncols, dv)
    assert 0 not in got.values()
    assert got.keys() <= want.keys()
    assert {J: got.get(J, 0) for J in want} == want
    # a memo shared by two wedges with a common prefix gives what fresh memos give
    other = dv[:data.draw(st.integers(0, len(dv)))] + tuple(data.draw(st.lists(row, max_size=2)))
    memo = {(): {0: 1}}
    first = _exterior_minors(sparse, dv, memo)
    second = _exterior_minors(sparse, other, memo)
    assert first == got
    assert second == _exterior_minors(sparse, other, {(): {0: 1}})


def test_exterior_minors_of_a_repeated_row_vanish():
    rows = (((0, 2), (1, -1)), ((1, 3),))
    assert _exterior_minors(rows, (0, 1, 0), {(): {0: 1}}) == {}
    assert _exterior_minors(rows, (0, 1), {(): {0: 1}}) == {0b11: 6}


# The sort-based expansions the charts and the fiber frames used before they
# were read off `_exterior_minors`, kept as independent references.

def _sorted_wedge_expansion(group_vars, chart, dv):
    terms = {(): 1}
    for i in dv:
        g = next(g for g, vs in enumerate(group_vars) if i in vs)
        if chart[g] == i:
            factors = [(j, -1) for j in group_vars[g] if j != i]
        else:
            factors = [(i, 1)]
        nxt = {}
        for w, c in terms.items():
            for j, s in factors:
                merged, sign = _sort_wedge(w + (j,))
                if merged is not None:
                    nxt[merged] = nxt.get(merged, 0) + c * s * sign
        terms = {w: c for w, c in nxt.items() if c}
    return terms


def _sorted_frame(layout):
    frame = {}
    for omit in itertools.product(*(range(len(b)) for b in layout)):
        dv = tuple(i for b, k in zip(layout, omit) for i in b[:k] + b[k + 1:])
        merged, sign = _sort_wedge(dv)
        frame[merged] = sign * (-1) ** sum(omit)
    return frame


def _small_layouts(max_groups=3, max_vars=7):
    for ngroups in range(1, max_groups + 1):
        for sizes in itertools.product(range(1, max_vars + 1), repeat=ngroups):
            if sum(sizes) <= max_vars:
                starts = itertools.accumulate((0,) + sizes)
                yield tuple(tuple(range(a, a + n)) for a, n in zip(starts, sizes))


def test_chart_minors_match_the_sorted_expansion_on_every_small_layout():
    # every chart of every layout of at most 3 groups and 7 variables, every
    # wedge up to degree 4, each layout's memo shared across its wedges
    seen = 0
    for layout in _small_layouts():
        nvars = layout[-1][-1] + 1
        wedges = [dv for k in range(5) for dv in itertools.combinations(range(nvars), k)]
        for chart in itertools.product(*((None,) + vs for vs in layout)):
            rows, memo = _chart_rows(layout, chart)
            for dv in wedges:
                got = {_wedge_of_mask(J, nvars)[0]: det
                       for J, det in _exterior_minors(rows, dv, memo).items()}
                assert got == _sorted_wedge_expansion(layout, chart, dv), (layout, chart, dv)
                seen += 1
    assert seen > 50000


def test_frame_minors_match_the_sorted_frame_on_the_fixtures():
    # every fiber-frame layout of the fixtures' relative faces at r = 1..3
    layouts = {r: set() for r in (1, 2, 3)}
    for f in (triangle_fan(), square_over_edge(), five_over_two(), tetra_pair_over_triangle()):
        for sigma in f.source:
            if sigma.dim < 1:
                continue
            psi = psi_coordinate_map(f, sigma)
            for r in layouts:
                for phi in relative_faces(psi, r):
                    layouts[r].add(tuple(tuple(psi.target.var("l", v) for v in block)
                                         for block in phi.blocks))
    assert all(layouts.values()), {r: len(ls) for r, ls in layouts.items()}
    for r, ls in layouts.items():
        for layout in sorted(ls):
            assert _frame(layout) == _sorted_frame(layout), (r, layout)
