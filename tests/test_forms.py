import functools
import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from prismal.mesh import Prism, Simplex, incidence_number
from prismal.forms import (_BOUND, ContextError, CoordMap, CoordSystem, DegreeError,
                           Form, FormError, Poly, base_volume_residual,
                           canonicalize, d,
                           eliminate, eliminate_poly, elimination_chart,
                           equal_mod_relations,
                           integrate_fiber,
                           integrate_top_form, is_fiberwise_zero, pi_context,
                           poincare_primitive, prism_context, pullback,
                           relative_d, restrict_to_face, restriction_map, simplex_context,
                           vertical_part, wedge, whitney_antiboundary,
                           whitney_form)
from _support import reversed_orientation


def S(*vs):
    return Simplex(tuple(vs))


CTX3 = simplex_context(S(0, 1, 2))
CTX4 = simplex_context(S(0, 1, 2, 3))
PCTX = pi_context(S(100, 101), (S(0,), S(1, 2)))
PCTX_BASE = {0: (100, 101)}  # the cell of the base volume de on PCTX
PCTX_FIBER = {1: (0,), 2: (1, 2)}  # the cell of the vertical Whitney form on PCTX


def lam(ctx, v):
    return Poly.variable(ctx, ctx.var("l", v))


def dlam(ctx, v):
    return Form.d_var(ctx, ctx.var("l", v))


# ---------------------------------------------------------------------------
# wedge and d
# ---------------------------------------------------------------------------

def test_wedge_nilpotent_and_antisymmetric():
    a = dlam(CTX3, 0)
    b = dlam(CTX3, 1)
    assert wedge(a, a).is_zero
    assert (wedge(a, b) + wedge(b, a)).is_zero


def test_wedge_bilinear_example():
    a = dlam(CTX3, 1) * lam(CTX3, 0)
    b = dlam(CTX3, 0) * lam(CTX3, 1)
    expected = Form(CTX3, {(0, 1): -(lam(CTX3, 0) * lam(CTX3, 1))})
    assert wedge(a, b) == expected


def test_d_whitney_formula():
    for p in range(1, 4):
        s = S(*range(p + 1))
        ctx = simplex_context(s)
        fact = 1
        for k in range(1, p + 2):
            fact *= k
        expected = Form(ctx, {tuple(range(p + 1)): Poly.const(ctx, fact)})
        assert d(whitney_form(ctx)) == expected


def test_d_constant_and_leibniz():
    assert d(Form.const(CTX3, 5)).is_zero
    a = Form(CTX3, {(CTX3.var("l", 2),): lam(CTX3, 0) * lam(CTX3, 1)})
    expected = (wedge(dlam(CTX3, 0), dlam(CTX3, 2)) * lam(CTX3, 1)
                + wedge(dlam(CTX3, 1), dlam(CTX3, 2)) * lam(CTX3, 0))
    assert d(a) == expected


def test_poly_constructor_validates_exponents_and_coefficients():
    ctx = simplex_context(S(0, 1))
    for bad in ((-1, 0), (0.5, 0), ("1", 0)):
        with pytest.raises(FormError):
            Poly(ctx, {bad: 1})
    p = Poly(ctx, {(True, 2): Q(6, 3), (0, 0): Q(1, 2), (1, 1): 0})
    assert p.terms == {(1, 2): 2, (0, 0): Q(1, 2)}
    assert [type(n) for e in p.terms for n in e] == [int] * 4
    assert type(p.terms[(1, 2)]) is int
    with pytest.raises(FormError):
        lam(ctx, 0) ** -1


# ---------------------------------------------------------------------------
# packed exponents: one 16-bit field per variable, exponents in 0.._BOUND
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.tuples(*[st.integers(0, _BOUND)] * CTX4.nvars),
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)).filter(bool),
    max_size=5))
def test_packed_keys_round_trip(terms):
    p = Poly(CTX4, terms)
    assert p.terms == terms
    assert all(type(k) is int for k in p.num)
    assert_lowest(p)


def test_exponent_past_the_bound_is_rejected_on_construction():
    assert _BOUND == 2 ** 15 - 1
    assert Poly(CTX3, {(_BOUND, 0, _BOUND): 1}).terms == {(_BOUND, 0, _BOUND): 1}
    for e in ((_BOUND + 1, 0, 0), (0, 0, _BOUND + 1), (0, 1 << 16, 0)):
        with pytest.raises(FormError, match=f"0..{_BOUND}"):
            Poly(CTX3, {e: 1})


def test_product_past_the_bound_raises():
    x, y = lam(CTX3, 0), lam(CTX3, 1)
    top = x ** 2 * x ** (_BOUND - 2) * y
    assert top.terms == {(_BOUND, 1, 0): 1}  # the field is full; y's is untouched
    with pytest.raises(FormError, match=str(_BOUND)):
        top * x
    with pytest.raises(FormError, match=str(_BOUND)):
        wedge(Form.from_poly(top), Form.from_poly(x + y))
    # the ORs of the keys overestimate, but no actual product passes the bound
    half = 1 << 14
    p = Poly(CTX3, {(half, 0, 0): 1, (1, 0, 0): 1}) * Poly(CTX3, {(half - 1, 0, 0): 1})
    assert p.terms == {(_BOUND, 0, 0): 1, (half, 0, 0): 1}
    # the cone raises x1 one degree
    with pytest.raises(FormError, match=str(_BOUND)):
        poincare_primitive(Form(CTX3, {(1,): Poly(CTX3, {(0, _BOUND, 0): 1})}))


def test_substitution_past_the_bound_raises():
    y = lam(CTX3, 0)
    cube = CoordMap.build(CTX3, CTX3, {"l:0": y ** 3, "l:1": y, "l:2": y})
    assert Poly(CTX3, {(_BOUND // 3, 1, 0): 1}).substitute(cube).terms == {
        (_BOUND, 0, 0): 1}
    for e in ((_BOUND // 3 + 1, 0, 0),  # n * k passes the bound
              (30000, 0, 0),  # n * k would carry into l:1's field
              (_BOUND // 3, 2, 0),  # the sum of two in-bound terms passes it
              (10000, 20000, 30000)):  # checked only at the end, this would carry
        with pytest.raises(FormError, match=str(_BOUND)):
            Poly(CTX3, {e: 1}).substitute(cube)
        with pytest.raises(FormError, match=str(_BOUND)):
            pullback(cube, Form.from_poly(Poly(CTX3, {e: 1})))


# ---------------------------------------------------------------------------
# hypothesis: structural identities on random forms
# ---------------------------------------------------------------------------

def polys(ctx, max_degree=3):
    exps = st.lists(st.integers(0, ctx.nvars - 1), max_size=max_degree)
    def build(choices):
        terms = {}
        for idxs, c in choices:
            e = [0] * ctx.nvars
            for i in idxs:
                e[i] += 1
            key = tuple(e)
            terms[key] = terms.get(key, 0) + Q(c)
        return Poly(ctx, terms)
    return st.lists(st.tuples(exps, st.integers(-4, 4)), min_size=1, max_size=3).map(build)


def forms(ctx, degree=None, max_degree_poly=2):
    degs = st.just(degree) if degree is not None else st.integers(0, min(3, ctx.nvars))
    def build(args):
        deg, coeffs = args
        combos = list(itertools.combinations(range(ctx.nvars), deg))
        terms = {}
        for dv, p in zip(combos, coeffs):
            terms[dv] = p
        return Form(ctx, terms)
    return degs.flatmap(lambda deg: st.tuples(
        st.just(deg),
        st.lists(polys(ctx, max_degree_poly), min_size=1,
                 max_size=max(1, min(4, len(list(itertools.combinations(range(ctx.nvars), deg))))))
    ).map(build))


def monomial_maps(source, target, dens=st.integers(1, 4)):
    """Coordinate maps from `source` onto `target` whose images are single
    terms c x^a, with exponents 0 to 3 spread over the source variables;
    at most one image is zero or a nonzero constant instead."""
    n = target.nvars
    coeff = st.builds(Q, st.integers(-6, 6).filter(bool), dens)
    exps = st.lists(st.integers(0, 3), min_size=source.nvars, max_size=source.nvars).filter(any)
    term = st.builds(lambda e, c: Poly(source, {tuple(e): c}), exps, coeff)
    special = st.just(Poly.zero(source)) | coeff.map(lambda c: Poly.const(source, c))

    def build(args):
        images, swap = args
        if swap is not None:
            images[swap[0]] = swap[1]
        return CoordMap.build(source, target, dict(zip(target.names, images)))
    return st.tuples(st.lists(term, min_size=n, max_size=n),
                     st.none() | st.tuples(st.integers(0, n - 1), special)).map(build)


def test_coord_map_rejects_multi_term_images():
    x = [Poly.variable(PCTX, i) for i in range(PCTX.nvars)]
    images = {"l:0": x[0] * x[2], "l:1": x[1] + x[3], "l:2": x[4] - 1}
    with pytest.raises(ContextError, match=r"\['l:1', 'l:2'\]"):
        CoordMap.build(PCTX, CTX3, images)


@settings(max_examples=25, deadline=None)
@given(forms(CTX4))
def test_dd_zero(a):
    assert d(d(a)).is_zero


@settings(max_examples=20, deadline=None)
@given(forms(CTX3, max_degree_poly=2))
def test_pullback_commutes_with_d(a):
    # substitution l_i = t_j m_{j,i} from the two-fiber chart
    images = {
        "l:0": Poly.variable(PCTX, PCTX.var("t", 100)) * Poly.variable(PCTX, PCTX.var("m:0", 0)),
        "l:1": Poly.variable(PCTX, PCTX.var("t", 101)) * Poly.variable(PCTX, PCTX.var("m:1", 1)),
        "l:2": Poly.variable(PCTX, PCTX.var("t", 101)) * Poly.variable(PCTX, PCTX.var("m:1", 2)),
    }
    m = CoordMap.build(PCTX, CTX3, images)
    assert (d(pullback(m, a)) - pullback(m, d(a))).is_zero


@settings(max_examples=20, deadline=None)
@given(forms(CTX4), forms(CTX4))
def test_wedge_graded_commutative(a, b):
    if len(a.degrees()) > 1 or len(b.degrees()) > 1:
        return
    da, db = (max(x.degrees(), default=0) for x in (a, b))
    sign = (-1) ** (da * db)
    assert (wedge(a, b) - wedge(b, a) * sign).is_zero


@settings(max_examples=25, deadline=None)
@given(forms(CTX4))
def test_canonicalize_idempotent(a):
    c = canonicalize(a)
    assert canonicalize(c) == c


@settings(max_examples=15, deadline=None)
@given(forms(CTX4, degree=1), forms(CTX4, degree=1))
def test_canonicalize_is_homomorphism(a, b):
    assert canonicalize(a + b) == canonicalize(canonicalize(a) + canonicalize(b))
    assert canonicalize(wedge(a, b)) == canonicalize(wedge(canonicalize(a), canonicalize(b)))
    assert canonicalize(d(a)) == canonicalize(d(canonicalize(a)))


@st.composite
def pi_forms(draw):
    """A 0-, 1- or 2-form with mixed denominators on a trivial prism
    base x fiber_0 x ... x fiber_s of random sizes."""
    base = S(*range(100, 100 + draw(st.integers(1, 3))))
    fibers, v = [], 0
    for _ in base.vertices:
        size = draw(st.integers(1, 3))
        fibers.append(S(*range(v, v + size)))
        v += size
    ctx = pi_context(base, fibers)
    degree = draw(st.integers(0, 2))
    a = draw(forms(ctx, degree, 3)) * Q(1, draw(st.sampled_from((1, 2, 3, 4))))
    return a + draw(forms(ctx, degree, 3)) * Q(1, draw(st.sampled_from((1, 5, 6, 9))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pi_forms())
def test_fiber_chart_first_keeps_canonical_form(a):
    # canonicalize reduces the fiber groups in a pass of their own; a
    # fiber-chart reduction beforehand must not change the canonical form
    ctx = a.ctx
    fiber_chart = elimination_chart(ctx, (ctx.group_vars[g][-1] for g in ctx.fiber_groups))
    assert canonicalize(eliminate(a, fiber_chart)) == canonicalize(a)


@st.composite
def staged_forms(draw):
    """A form of degree 0-3 on a trivial prism with 1-3 base vertices and
    1-3 fiber groups of 1-3 vertices, coefficients over {1, 2, 3, 5}."""
    base = S(*range(100, 100 + draw(st.integers(1, 3))))
    fibers, v = [], 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        fibers.append(S(*range(v, v + size)))
        v += size
    ctx = pi_context(base, fibers)
    degree = draw(st.integers(0, 3))
    dens = st.sampled_from((1, 2, 3, 5))
    a = draw(forms(ctx, degree, 3)) * Q(1, draw(dens))
    return a + draw(forms(ctx, degree, 3)) * Q(draw(st.integers(-3, 3)), draw(dens))


def full_chart(ctx):
    """The canonical chart in one piece: the last variable of every group."""
    return elimination_chart(ctx, (gv[-1] for gv in ctx.group_vars))


def assert_same_form(got, want):
    # same terms, same coefficient types: an int when integral, else a Fraction
    assert got == want and repr(got) == repr(want)
    for dv, p in got.terms.items():
        for e, c in p.terms.items():
            assert type(c) is type(want.terms[dv].terms[e])
            assert type(c) is int or c.denominator != 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(staged_forms())
def test_staged_canonicalize_matches_the_one_pass_chart(a):
    assert_same_form(canonicalize(a), eliminate(a, full_chart(a.ctx)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(staged_forms())
def test_base_volume_residual_reduces_only_the_vertical_part(a):
    ctx = a.ctx
    de = whitney_form(ctx, {g: ctx.groups[g][1] for g in ctx.base_groups})
    assert_same_form(base_volume_residual(a), eliminate(wedge(de, a), full_chart(ctx)))
    assert_same_form(relative_d(a), vertical_part(eliminate(d(a), full_chart(ctx))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(staged_forms())
def test_vertical_part_commutes_with_canonicalize(a):
    assert_same_form(canonicalize(vertical_part(a)), vertical_part(canonicalize(a)))


def test_canonicalize_relations():
    # sum of differentials of a group is zero; sum of coordinates is one
    total_d = Form.zero(CTX3)
    total = Poly.zero(CTX3)
    for v in (0, 1, 2):
        total_d = total_d + dlam(CTX3, v)
        total = total + lam(CTX3, v)
    assert canonicalize(total_d).is_zero
    assert canonicalize(Form.from_poly(total) - Form.const(CTX3, 1)).is_zero


def test_canonicalize_shares_chart_rows_across_contexts_of_one_layout():
    # a simplex's context and its one-factor prism context differ but have
    # one group layout, so their canonical charts read one `_chart_rows`
    # entry and its memo of minors: either context first, or a cleared
    # cache, gives the same numerators
    from prismal.forms import _chart_rows
    s = S(0, 1, 2)
    sctx, pctx = simplex_context(s), prism_context(Prism((s,)))
    assert sctx != pctx and sctx.group_vars == pctx.group_vars

    def canonical(ctx):
        a = Form(ctx, {(2,): Poly(ctx, {(1, 1, 0): Q(1, 2)}),
                       (0, 2): Poly(ctx, {(1, 0, 1): 1, (0, 2, 0): -3}),
                       (1, 2): Poly(ctx, {(0, 0, 2): 3})})
        c = canonicalize(a)
        return c.num, c.den

    _chart_rows.cache_clear()
    want = canonical(sctx)
    assert canonical(pctx) == want
    assert _chart_rows.cache_info().currsize == 1
    _chart_rows.cache_clear()
    assert canonical(pctx) == want
    assert canonical(sctx) == want
    assert want[0]


def test_canonicalize_large_exponents():
    # (1 - rest)^k in closed form: no recursion or product per degree
    edge = simplex_context(S(0, 1))
    got = canonicalize(Form.from_poly(Poly(edge, {(0, 2000): 1})))
    assert dict(got.terms[()].terms) == {(j, 0): (-1) ** j * math.comb(2000, j)
                                         for j in range(2001)}
    x, y, z = (lam(CTX3, v) for v in (0, 1, 2))
    got = canonicalize(Form.from_poly(z ** 40))
    assert got.terms[()] == (1 - x - y) ** 40


def test_canonical_volume_sign():
    # eliminating the last coordinate exposes the (-1)^p p! representative
    for p in (1, 2, 3):
        s = S(*range(p + 1))
        ctx = simplex_context(s)
        fact = 1
        for k in range(1, p + 1):
            fact *= k
        expected = Form(ctx, {tuple(range(p)): Poly.const(ctx, (-1) ** p * fact)})
        assert canonicalize(whitney_form(ctx)) == expected


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_extension_recovers_whitney():
    s = S(0, 1, 2, 3)
    for face in [S(0, 1), S(1, 3), S(0, 2, 3)]:
        ext = whitney_form(simplex_context(s), {0: face.vertices})
        got = restrict_to_face(ext, simplex_context(face))
        assert equal_mod_relations(got, whitney_form(simplex_context(face)))


def test_restrict_mutual_vanishing():
    s = S(0, 1, 2, 3)
    ext = whitney_form(simplex_context(s), {0: (0, 1)})
    assert restrict_to_face(ext, simplex_context(S(2, 3))).is_zero
    assert restrict_to_face(ext, simplex_context(S(0, 2))).is_zero


def test_restrict_identity_when_nothing_dropped():
    a = whitney_form(CTX3)
    assert restrict_to_face(a, CTX3) == a


# ---------------------------------------------------------------------------
# Whitney family
# ---------------------------------------------------------------------------

def test_whitney_low_dims():
    pt = whitney_form(simplex_context(S(7,)))
    assert equal_mod_relations(pt, Form.const(simplex_context(S(7,)), 1))
    ctx = simplex_context(S(0, 1))
    e = whitney_form(ctx)
    assert e == Form(ctx, {(1,): lam(ctx, 0), (0,): -lam(ctx, 1)})
    t = whitney_form(CTX3)
    assert t == (wedge(dlam(CTX3, 1), dlam(CTX3, 2)) * (lam(CTX3, 0) * 2)
                 - wedge(dlam(CTX3, 0), dlam(CTX3, 2)) * (lam(CTX3, 1) * 2)
                 + wedge(dlam(CTX3, 0), dlam(CTX3, 1)) * (lam(CTX3, 2) * 2))


def test_whitney_support_variables():
    s = S(0, 1, 2, 3)
    ctx = simplex_context(s)
    ext = whitney_form(ctx, {0: (1, 2)})
    seen = set()
    for dv, p in ext.terms.items():
        seen.update(dv)
        for e in p.terms:
            seen.update(i for i, n in enumerate(e) if n)
    assert seen == {ctx.var("l", 1), ctx.var("l", 2)}


def test_whitney_extended_trivial_case():
    assert whitney_form(CTX3, {0: (0, 1, 2)}) == whitney_form(CTX3)


def test_whitney_prism_square():
    p = Prism((S(0, 1), S(2, 3)))
    ctx = prism_context(p)
    w = whitney_form(ctx)
    m = lambda j, v: Poly.variable(ctx, ctx.var(f"m:{j}", v))
    dm = lambda j, v: Form.d_var(ctx, ctx.var(f"m:{j}", v))
    left = dm(0, 1) * m(0, 0) - dm(0, 0) * m(0, 1)
    right = dm(1, 3) * m(1, 2) - dm(1, 2) * m(1, 3)
    assert w == wedge(left, right)


def test_whitney_prism_single_factor_matches():
    s = S(0, 1, 2)
    p = Prism((s,))
    w = whitney_form(prism_context(p))
    ws = whitney_form(simplex_context(s))
    # same coefficients up to variable names
    assert [sorted(pp.terms.values()) for _, pp in sorted(w.terms.items())] == \
           [sorted(pp.terms.values()) for _, pp in sorted(ws.terms.items())]


def test_whitney_form_of_every_prism_cell():
    # each cell's form is the wedge of its one-group forms, and integrates
    # to exactly 1 over its own cell
    from functools import reduce
    from prismal.verify import prism_universe
    for p in prism_universe():
        ctx = prism_context(p)
        whole = {g: f.vertices for g, f in enumerate(p.factors)}
        assert whitney_form(ctx) == whitney_form(ctx, whole)
        for q in sorted(p.all_faces()):
            cell = {g: face.vertices for g, face in enumerate(q.factors)}
            w = whitney_form(ctx, cell)
            assert w == reduce(wedge, (whitney_form(ctx, {g: cell[g]}) for g in cell))
            assert integrate_top_form(restrict_to_face(w, prism_context(q))) == 1


def _whitney_reference(ctx, cell):
    """The wedge, in group order, of q! sum_k (-1)^k x_k dx_0 ^ ... ^ dx_q
    (dx_k left out) over each vertex subset of `cell`."""
    one = Form.const(ctx, 1)
    out = one
    for g in sorted(cell):
        idx = [ctx.var(ctx.groups[g][0], v) for v in cell[g]]
        block = Form.zero(ctx)
        scale = math.factorial(len(idx) - 1)
        for k, i in enumerate(idx):
            rest = functools.reduce(wedge, map(functools.partial(Form.d_var, ctx),
                                               idx[:k] + idx[k + 1:]), one)
            block = block + rest * (Poly.variable(ctx, i) * ((-1) ** k * scale))
        out = wedge(out, block)
    return out


def _group_cells(verts, reversed_too):
    """Every nonempty vertex subset of a group in stored order, and reversed."""
    subsets = [c for n in range(1, len(verts) + 1) for c in itertools.combinations(verts, n)]
    return subsets + [c[::-1] for c in subsets if reversed_too and len(c) > 1]


@pytest.mark.parametrize("ngroups", [1, 2, 3])
def test_whitney_form_matches_the_written_formula_on_every_cell(ngroups):
    # the form of a cell is read from its index layout; the reference builds
    # it from the formula, by Poly.variable, Form.d_var and wedge.  Every
    # cell of every context of 1 to 3 groups of 1 to 4 vertices, group sizes
    # ascending and at most 8 vertices in all; with at most 2 groups, the
    # vertex subsets are also taken in reversed order
    for sizes in itertools.combinations_with_replacement(range(1, 5), ngroups):
        if sum(sizes) > 8:
            continue
        groups = [("t", tuple(range(10, 10 + sizes[0])))]
        groups += [(f"m:{j}", tuple(range(20 * (j + 1), 20 * (j + 1) + n)))
                   for j, n in enumerate(sizes[1:])]
        ctx = CoordSystem(tuple(groups))
        choices = [[None] + _group_cells(verts, ngroups < 3) for _, verts in groups]
        for pick in itertools.product(*choices):
            cell = {g: c for g, c in enumerate(pick) if c is not None}
            assert whitney_form(ctx, cell) == _whitney_reference(ctx, cell), cell


def test_whitney_form_errors_on_a_bad_cell():
    with pytest.raises(FormError, match="empty vertex subset"):
        whitney_form(CTX3, {0: ()})
    with pytest.raises(ContextError, match=r"no coordinate l:9 in Ctx\[l:\(0, 1, 2\)\]"):
        whitney_form(CTX3, {0: (0, 9)})
    # a face of another simplex is no cell of this one
    with pytest.raises(ContextError, match="no coordinate l:3"):
        whitney_form(CTX3, {0: (1, 3)})
    with pytest.raises(ContextError, match="no coordinate m:1:0"):
        whitney_form(PCTX, {2: (0, 1)})


def test_pi_whitney_splits_base_and_fiber():
    w = wedge(whitney_form(PCTX, PCTX_BASE), whitney_form(PCTX, PCTX_FIBER))
    full = whitney_form(PCTX)
    assert w == full


# ---------------------------------------------------------------------------
# relative operations
# ---------------------------------------------------------------------------

def test_de_form_and_fiberwise_zero():
    de, wrel = whitney_form(PCTX, PCTX_BASE), whitney_form(PCTX, PCTX_FIBER)
    assert is_fiberwise_zero(wedge(de, wrel))
    assert not is_fiberwise_zero(wrel)


def test_no_base_group_is_a_context_error():
    # a plain simplex has no base volume, so neither test against it runs
    a = whitney_form(CTX3)
    with pytest.raises(ContextError, match="no base group"):
        base_volume_residual(a)
    with pytest.raises(ContextError, match="no base group"):
        is_fiberwise_zero(a)


def test_relative_d_kills_base_functions():
    t = Poly.variable(PCTX, PCTX.var("t", 100))
    assert relative_d(Form.from_poly(t)).is_zero


def test_relative_d_squared_zero():
    m2 = Poly.variable(PCTX, PCTX.var("m:1", 2))
    t = Poly.variable(PCTX, PCTX.var("t", 100))
    a = Form.from_poly(m2 * m2 * t)
    assert relative_d(relative_d(a)).is_zero


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integral_normalization():
    for p in range(1, 6):
        assert integrate_top_form(whitney_form(simplex_context(S(*range(p + 1))))) == 1


def test_integral_monomial_example():
    # l0*l1 against the standard 2-simplex chart
    a = wedge(dlam(CTX3, 1), dlam(CTX3, 2)) * (lam(CTX3, 0) * lam(CTX3, 1))
    assert integrate_top_form(a) == Q(1, 24)


def test_integral_prism_fubini():
    p = Prism((S(0, 1), S(2, 3)))
    assert integrate_top_form(whitney_form(prism_context(p))) == 1


def test_integral_degree_error():
    with pytest.raises(DegreeError):
        integrate_top_form(Form.const(CTX3, 1))


def test_integrate_fiber_constant_one():
    val = integrate_fiber(whitney_form(PCTX, PCTX_FIBER))
    assert equal_mod_relations(Form.from_poly(val), Form.const(PCTX, 1))


def _stokes_check(s: Simplex, b: Form) -> bool:
    lhs = integrate_top_form(d(b))
    rhs = Q(0)
    for i in range(len(s.vertices)):
        f = s.facet_omitting(i)
        rhs += incidence_number(s, f) * integrate_top_form(
            restrict_to_face(b, simplex_context(f)))
    return lhs == rhs


def test_stokes_exhaustive_low_dims():
    for p in (1, 2, 3):
        s = S(*range(p + 1))
        ctx = simplex_context(s)
        # all extended Whitney forms of codim-1 faces, plus coordinate-scaled ones
        cases = []
        for comb in itertools.combinations(range(p + 1), p):
            face = Simplex(comb)
            ext = whitney_form(ctx, {0: face.vertices})
            cases.append(ext)
            cases.append(ext * Poly.variable(ctx, 0))
        for b in cases:
            assert _stokes_check(s, b)


@settings(max_examples=15, deadline=None)
@given(forms(CTX3, degree=1, max_degree_poly=2))
def test_stokes_random_2simplex(b):
    assert _stokes_check(S(0, 1, 2), b)


# ---------------------------------------------------------------------------
# homotopy operator
# ---------------------------------------------------------------------------

def test_poincare_roundtrip():
    s = S(0, 1, 2, 3)
    for face in [S(0, 1), S(1, 2, 3)]:
        a = d(whitney_form(simplex_context(s), {0: face.vertices}))
        b = poincare_primitive(a)
        assert equal_mod_relations(d(b), a)


def test_poincare_zero():
    assert poincare_primitive(Form.zero(CTX3) + Form(CTX3, {(0, 1): Poly.zero(CTX3)})).is_zero


def test_poincare_volume_multiple():
    # primitive of the constant-coefficient wedge on a face block
    ctx = CTX4
    a = Form(ctx, {(0, 1): Poly.const(ctx, 6)})
    b = poincare_primitive(a)
    assert equal_mod_relations(d(b), a)


def test_poincare_rejects_non_closed():
    a = Form(CTX3, {(1,): lam(CTX3, 2)})
    with pytest.raises(Exception):
        poincare_primitive(a)


def test_poincare_fiber_only():
    m2 = Poly.variable(PCTX, PCTX.var("m:1", 2))
    t = Poly.variable(PCTX, PCTX.var("t", 100))
    delta = Form(PCTX, {(PCTX.var("m:1", 2),): t * (m2 + 1)})
    g = poincare_primitive(delta)
    # fiber differential of g gives back delta modulo relations
    assert equal_mod_relations(vertical_part(canonicalize(d(g))),
                               vertical_part(canonicalize(delta)))


# ---------------------------------------------------------------------------
# antiboundary
# ---------------------------------------------------------------------------

def test_antiboundary_edge_explicit():
    s = S(0, 1)
    ctx = simplex_context(s)
    ab = whitney_antiboundary(s)
    assert equal_mod_relations(
        ab, Form.from_poly((lam(ctx, 1) - lam(ctx, 0)) * Q(1, 2)))
    assert equal_mod_relations(d(ab), whitney_form(ctx))


def test_antiboundary_derivative_and_flip():
    for p in (1, 2, 3, 4):
        s = S(*range(p + 1))
        assert equal_mod_relations(d(whitney_antiboundary(s)),
                                   whitney_form(simplex_context(s)))
    s = S(0, 1, 2)
    ab = whitney_antiboundary(reversed_orientation(s))
    flipped = pullback(restriction_map(ab.ctx, CTX3), ab)  # by name into CTX3
    assert equal_mod_relations(flipped, -whitney_antiboundary(s))


def test_eliminate_first_vs_last_same_kernel():
    a = whitney_form(CTX3) - whitney_form(CTX3)
    b = Form.from_poly(lam(CTX3, 0) + lam(CTX3, 1) + lam(CTX3, 2) - Poly.const(CTX3, 1))
    assert canonicalize(b).is_zero and eliminate(b, elimination_chart(CTX3, (0,))).is_zero
    assert canonicalize(a).is_zero and eliminate(a, elimination_chart(CTX3, (0,))).is_zero


def test_pullback_identity_map():
    images = {n: Poly.variable(CTX3, i) for n, i in CTX3.index.items()}
    ident = CoordMap.build(CTX3, CTX3, images)
    a = whitney_form(CTX3) * lam(CTX3, 1)
    assert pullback(ident, a) == a


def test_pullback_coordinate_differential_expansion():
    # d(t*mu) pulls back to mu dt + t dmu
    images = {
        "l:0": Poly.variable(PCTX, PCTX.var("t", 100)) * Poly.variable(PCTX, PCTX.var("m:0", 0)),
        "l:1": Poly.variable(PCTX, PCTX.var("t", 101)) * Poly.variable(PCTX, PCTX.var("m:1", 1)),
        "l:2": Poly.variable(PCTX, PCTX.var("t", 101)) * Poly.variable(PCTX, PCTX.var("m:1", 2)),
    }
    m = CoordMap.build(PCTX, CTX3, images)
    got = pullback(m, dlam(CTX3, 1))
    t = Poly.variable(PCTX, PCTX.var("t", 101))
    mu = Poly.variable(PCTX, PCTX.var("m:1", 1))
    expect = (Form.d_var(PCTX, PCTX.var("t", 101)) * mu
              + Form.d_var(PCTX, PCTX.var("m:1", 1)) * t)
    assert got == expect


def test_whitney_relative_all_points_is_one():
    ctx = pi_context(S(100, 101), (S(0,), S(1,)))
    assert equal_mod_relations(whitney_form(ctx, {1: (0,), 2: (1,)}), Form.const(ctx, 1))


def _prism_stokes(p, b):
    from prismal.mesh import prism_boundary, prism_incidence
    lhs = integrate_top_form(d(b))
    rhs = Q(0)
    for q in prism_boundary(p):
        rhs += prism_incidence(p, q) * integrate_top_form(
            restrict_to_face(b, prism_context(q)))
    return lhs == rhs


def test_stokes_prisms_low_dims():
    from prismal.verify import prism_universe
    for p in prism_universe():
        if len(p.factors) > 2 or not 2 <= p.dim <= 3:
            continue
        ctx = prism_context(p)
        cases = []
        for j, fj in enumerate(p.factors):
            if fj.dim >= 1:
                face = fj.vertices[:-1]
                sub = [f.vertices for f in p.factors]
                sub[j] = face
                cases.append(whitney_form(ctx, dict(enumerate(sub))))
                cases.append(whitney_form(ctx, dict(enumerate(sub)))
                             * Poly.variable(ctx, 0))
        for b in cases:
            assert _prism_stokes(p, b)


# ---------------------------------------------------------------------------
# One denominator per polynomial: the kernel against a plain-Fraction model
# ---------------------------------------------------------------------------
#
# The model keeps a polynomial as {exponents: Fraction} and a form as
# {wedge: such a dict}, and computes every operation term by term, sharing
# no code with the kernel.

def r_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Q(0)) + c
    return {e: c for e, c in out.items() if c}


def r_scale(a, k):
    return {e: c * k for e, c in a.items() if c * k}


def r_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Q(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def r_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def r_subst(a, images, nvars):
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: Q(c)}
        for i, n in enumerate(e):
            for _ in range(n):
                term = r_mul(term, images[i])
        out = r_add(out, term)
    return out


def r_form_add(x, y):
    out = dict(x)
    for dv, p in y.items():
        out[dv] = r_add(out.get(dv, {}), p)
    return {dv: p for dv, p in out.items() if p}


def r_wedge(x, y):
    out = {}
    for dv1, p1 in x.items():
        for dv2, p2 in y.items():
            dv = dv1 + dv2
            if len(set(dv)) < len(dv):
                continue
            inversions = sum(dv[i] > dv[j] for i in range(len(dv)) for j in range(i + 1, len(dv)))
            out = r_form_add(out, {tuple(sorted(dv)): r_scale(r_mul(p1, p2), (-1) ** inversions)})
    return out


def r_d(x, nvars):
    out = {}
    for i in range(nvars):
        dxi = {(i,): {(0,) * nvars: Q(1)}}
        out = r_form_add(out, r_wedge(dxi, {dv: r_diff(p, i) for dv, p in x.items()}))
    return out


def r_pullback(images, x, nvars):
    out = {}
    for dv, p in x.items():
        term = {(): r_subst(p, images, nvars)}
        for i in dv:
            term = r_wedge(term, r_d({(): images[i]}, nvars))
        out = r_form_add(out, term)
    return out


def model(obj):
    if isinstance(obj, Form):
        return {dv: model(p) for dv, p in obj.terms.items()}
    return {e: Q(c) for e, c in obj.terms.items()}


def assert_lowest(p):
    """The stored invariant, and `.terms` as the view of num over den: the
    key of an exponent tuple has its exponent of variable i in bits
    16i .. 16i + 15."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    for e, c in p.terms.items():
        assert type(c) is (int if Q(c).denominator == 1 else Q)
        assert c == Q(p.num[sum(n << 16 * i for i, n in enumerate(e))], p.den)
    assert len(p.terms) == len(p.num)


def assert_lowest_form(a):
    for p in a.terms.values():
        assert p
        assert_lowest(p)


FRACTIONS = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))
# int coefficients only (den = 1), or ints and Fractions with mixed denominators
COEFFS = st.sampled_from([st.integers(-4, 4), st.integers(-4, 4) | FRACTIONS])


def kpolys(ctx, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    return COEFFS.flatmap(
        lambda coeffs: st.dictionaries(exps, coeffs, max_size=4).map(lambda t: Poly(ctx, t)))


def kforms(ctx, max_degree=2):
    wedges = [dv for k in range(max_degree + 1) for dv in itertools.combinations(range(ctx.nvars), k)]
    return st.dictionaries(st.sampled_from(wedges), kpolys(ctx, 1), max_size=3).map(
        lambda t: Form(ctx, t))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_poly_kernel_matches_a_fraction_model(data):
    a = data.draw(kpolys(PCTX))
    # b = c - a makes a + b cancel down to c, zero included
    b = data.draw(kpolys(PCTX) | kpolys(PCTX).map(lambda c: c - a))
    k, f = data.draw(st.integers(-3, 3)), data.draw(FRACTIONS)
    ra, rb = model(a), model(b)
    checks = [(a + b, r_add(ra, rb)), (a - b, r_add(ra, r_scale(rb, -1))),
              (-a, r_scale(ra, -1)), (a * b, r_mul(ra, rb)),
              (a * k, r_scale(ra, k)), (k * a, r_scale(ra, k)),
              (a * f, r_scale(ra, f)), (f * a, r_scale(ra, f))]
    checks += [(a.diff(i), r_diff(ra, i)) for i in range(PCTX.nvars)]
    n = PCTX.nvars
    one = {(0,) * n: Q(1)}

    def unit(v):
        return tuple(int(j == v) for j in range(n))
    for drops in ((1, 2, 4), (0, 3)):
        # x_drop = 1 - (the rest of its group); every other variable stays
        images = [r_add(one, {unit(v): Q(-1) for v in PCTX.group_vars[PCTX.group_of[i]] if v != i})
                  if i in drops else {unit(i): Q(1)} for i in range(n)]
        checks.append((eliminate_poly(a, elimination_chart(PCTX, drops)), r_subst(ra, images, n)))
    for got, want in checks:
        assert_lowest(got)
        assert model(got) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kpolys(PCTX), monomial_maps(CTX3, PCTX))
def test_substitute_matches_a_fraction_model(a, m):
    got = a.substitute(m)
    assert_lowest(got)
    assert model(got) == r_subst(model(a), [model(p) for p in m.images], CTX3.nvars)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kforms(CTX3), kforms(CTX3), kforms(CTX4), monomial_maps(CTX3, CTX4))
def test_form_kernel_matches_a_fraction_model(x, y, z, m):
    images = [model(p) for p in m.images]
    # the chart dropping l:1 is the pullback through l:1 = 1 - l:0 - l:2
    chart_images = [{(1, 0, 0): Q(1)}, {(0, 0, 0): Q(1), (1, 0, 0): Q(-1), (0, 0, 1): Q(-1)},
                    {(0, 0, 1): Q(1)}]
    checks = [(wedge(x, y), r_wedge(model(x), model(y))), (d(x), r_d(model(x), CTX3.nvars)),
              (pullback(m, z), r_pullback(images, model(z), CTX3.nvars)),
              (eliminate(x, elimination_chart(CTX3, (1,))), r_pullback(chart_images, model(x), 3))]
    for got, want in checks:
        assert_lowest_form(got)
        assert model(got) == want


def test_form_scalar_rejects_floats():
    with pytest.raises(FormError):
        Form.d_var(CTX3, 0) * 0.1
    with pytest.raises(FormError):
        0.1 * Form.d_var(CTX3, 0)
    with pytest.raises(FormError):
        Form.zero(CTX3) * 0.5


def test_poly_constructor_rejects_non_rational_coefficients():
    for bad in (0.1, 1.0, "1/2", None):
        with pytest.raises(FormError):
            Poly(CTX3, {(1, 0, 0): bad})
        with pytest.raises(FormError):
            Poly.const(CTX3, bad)


def test_poly_scalar_product_rejects_floats():
    x = Poly.variable(CTX3, 0)
    with pytest.raises(FormError):
        x * 0.1
    with pytest.raises(FormError):
        0.1 * x


def test_poly_sum_and_difference_reject_floats():
    x = Poly.variable(CTX3, 0)
    for op in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x):
        with pytest.raises(FormError):
            op()


def test_poly_equality_with_foreign_types():
    x = Poly.variable(CTX3, 0)
    assert x.__eq__("x") is NotImplemented and x.__eq__(0.5) is NotImplemented
    assert x != "x" and not (x == "x") and x != 0.5
    assert Poly.const(CTX3, Q(3, 1)) == 3 and Poly.zero(CTX3) == 0 and x != 1
