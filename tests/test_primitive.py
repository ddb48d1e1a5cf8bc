import dataclasses
import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from prismal.fixtures import (triangle_fan, five_over_two, square_over_edge,
                              tetra_pair_over_triangle)
from prismal import primitive
from prismal.forms import (CoordSystem, Form, Poly, canonicalize, d,
                           eliminate_poly, equal_mod_relations, pi_context, pullback,
                           relative_d, restrict_to_face, simplex_context, vertical_part,
                           wedge, whitney_form)
from prismal.mesh import Simplex, SimplicialComplex, SimplicialMorphism, perm_sign
from prismal.primitive import (ExactnessError, RelFace,
                               admissible_drops, assemble_C,
                               build_primitive_over, build_relative_primitive,
                               c_part_form, check_descent, check_horizontal,
                               compose_psi, descend_form, extract_A,
                               fiber_defect, decomposition_residual,
                               homothety_operator, ode_solve, oracle_A,
                               pair_with_face, relative_faces, specialization_chart,
                               t_monomial,
                               vertical_gluing, verify_theodg, whitney_combination)
from prismal.sheaf import psi_coordinate_map
from _support import cylinder_over_edge, oracle_eps_terms


def S(*vs):
    return Simplex(tuple(vs))


UCTX = CoordSystem((("u", tuple(range(6))),))


def u(i):
    return Poly.variable(UCTX, i)


# ---------------------------------------------------------------------------
# the homothety ODE
# ---------------------------------------------------------------------------

def test_ode_constant_fixed_point():
    one = Poly.const(UCTX, 1)
    assert ode_solve(one, 3) == one


def test_ode_example_r2():
    B = u(0) * u(1)
    E = ode_solve(B, 2)
    assert E == B * Q(1, 2)
    assert not homothety_operator(E, 2) - B


def test_ode_zero_unique():
    assert ode_solve(Poly.zero(UCTX), 1) == Poly.zero(UCTX)
    # no nonzero polynomial solves the homogeneous equation
    rng = random.Random(7)
    for _ in range(10):
        e = [0] * 6
        for _ in range(rng.randint(0, 5)):
            e[rng.randrange(6)] += 1
        E = Poly(UCTX, {tuple(e): Q(rng.randint(1, 9))})
        assert homothety_operator(E, 3)


def test_ode_monomial_rule():
    for alpha, r in [((2, 1, 0, 0, 0, 0), 1), ((0, 3, 0, 2, 0, 0), 4)]:
        B = Poly(UCTX, {alpha: Q(1)})
        m = sum(alpha)
        assert ode_solve(B, r) == B * Q(r, r + m)


def test_ode_subset_scaling():
    B = u(0) * u(1)
    E = ode_solve(B, 1, vars_=[0])
    assert E == B * Q(1, 2)
    assert not homothety_operator(E, 1, vars_=[0]) - B


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=5),
                          st.integers(-9, 9)), min_size=1, max_size=4),
       st.integers(1, 4))
def test_ode_residual_random(raw, r):
    terms = {}
    for idxs, c in raw:
        e = [0] * 6
        for i in idxs:
            e[i] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Q(c)
    B = Poly(UCTX, terms)
    E = ode_solve(B, r)
    assert not homothety_operator(E, r) - B


def _chained_ode_solve(B, r, vars_=None):
    """`ode_solve` as a sum of scaled homogeneous parts, one Poly per step."""
    return sum((part * Q(r, r + m) for m, part in B.homogeneous_parts(vars_).items()),
               Poly.zero(B.ctx))


@pytest.mark.parametrize("seed", range(8))
def test_ode_solve_matches_the_chained_sum(seed):
    # one pass over one lcm denominator gives the normalized sum of parts
    rng = random.Random(seed)
    for _ in range(6):
        B = Poly(UCTX, {tuple(rng.randint(0, 4) for _ in range(6)):
                        Q(rng.randint(-30, 30), rng.randint(1, 12))
                        for _ in range(rng.randint(0, 7))})
        vars_ = rng.choice([None, [0], [1, 3, 4], range(6)])
        for r in (1, 2, 3, 5):
            assert ode_solve(B, r, vars_) == _chained_ode_solve(B, r, vars_)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def fig1_triangle():
    f = triangle_fan()
    sigma = S(0, 2, 3)
    return f, sigma, simplex_context(sigma)


def residual_of(eta, A, psi):
    """The decomposition residual of `eta` against its own extraction."""
    combo = whitney_combination(compose_psi(A, psi), psi)
    return decomposition_residual(pullback(psi, eta), combo)


def test_relative_faces_enumeration():
    f, sigma, _ = fig1_triangle()
    psi = psi_coordinate_map(f, sigma)
    fcs = relative_faces(psi, 1)
    assert fcs == [RelFace((0, 2, 3), ((0,), (2, 3)))]
    fcs0 = relative_faces(psi, 0)
    assert len(fcs0) == 2  # (0,2) and (0,3)


def test_extract_extended_whitney_unit_density():
    # the relative extension of a face extracts to the product of its block
    # masses: unit density along the face's own fiber direction
    f = square_over_edge()
    sigma = S(0, 1, 2, 3)
    sc = simplex_context(sigma)
    # the relative extension of phi = ((0,1),(2)): block form times point mass
    eta = whitney_form(sc, {0: (0, 1)}) * Poly.variable(sc, sc.var("l", 2))
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(eta, psi, 1)
    phi = RelFace((0, 1, 2), ((0, 1), (2,)))
    other = RelFace((0, 2, 3), ((0,), (2, 3)))
    u_product = ((Poly.variable(sc, sc.var("l", 0)) + Poly.variable(sc, sc.var("l", 1)))
                 * Poly.variable(sc, sc.var("l", 2)))
    assert A[phi] == u_product
    # faces with a mismatching block pattern extract zero
    assert not A[other]
    # the twin with the other point choice pairs against the same direction,
    # so it carries the same density; the point masses recombine in the sum
    twin = RelFace((0, 1, 3), ((0, 1), (3,)))
    assert A[twin] == u_product
    assert residual_of(eta, A, psi).is_zero


def test_extract_base_only_form_gives_zero():
    f, sigma, sc = fig1_triangle()
    # a pullback of a base form: d of the fiber block sum
    tpoly = Poly.variable(sc, sc.var("l", 2)) + Poly.variable(sc, sc.var("l", 3))
    eta = d(Form.from_poly(tpoly))
    A = extract_A(eta, psi_coordinate_map(f, sigma), 1)
    assert all(not a for a in A.values())


def test_extract_above_the_relative_dimension_is_empty():
    # no relative face of degree 2 on a cell of relative dimension 1: the
    # family is empty, and the prism carries the zero candidate
    f, sigma, sc = fig1_triangle()
    eta = Form(sc, {(0, 1): Poly.const(sc, 1)})
    assert extract_A(eta, psi_coordinate_map(f, sigma), 2) == {}


def test_decomposition_residual_zero_for_fiber_degree_inputs():
    f, sigma, sc = fig1_triangle()
    cases = [
        d(Form.from_poly(Poly.variable(sc, sc.var("l", 2)) * Poly.variable(sc, sc.var("l", 3)))),
        Form(sc, {(sc.var("l", 3),): Poly.variable(sc, sc.var("l", 0)) ** 2}),
        Form(sc, {(sc.var("l", 2),): Poly.const(sc, 1),
                  (sc.var("l", 3),): Poly.variable(sc, sc.var("l", 2))}),
    ]
    psi = psi_coordinate_map(f, sigma)
    for eta in cases:
        A = extract_A(eta, psi, 1)
        assert residual_of(eta, A, psi).is_zero


def test_lemetb_projection_property():
    # extraction of a face-compatible combination keeps a zero residual
    f = square_over_edge()
    sigma = S(0, 1, 2, 3)
    sc = simplex_context(sigma)
    combo = (whitney_form(sc, {0: (0, 1)}) * Poly.variable(sc, sc.var("l", 3))
             + whitney_form(sc, {0: (2, 3)}) * Poly.variable(sc, sc.var("l", 1)))
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(combo, psi, 1)
    assert residual_of(combo, A, psi).is_zero


def test_extraction_agrees_across_shared_faces():
    # two tetrahedra over one edge sharing a relative-1 face carry matching
    # coefficients on it
    from prismal.mesh import SimplicialComplex, SimplicialMorphism
    from prismal.forms import restrict_to_face
    delta = SimplicialComplex([S(0, 1, 2, 3), S(0, 1, 3, 4)])
    base = SimplicialComplex([S(100, 101)])
    f = SimplicialMorphism(delta, base, {0: 100, 1: 100, 2: 101, 3: 101, 4: 101})
    shared = RelFace((0, 1, 3), ((0, 1), (3,)))
    As = []
    for sigma in [S(0, 1, 2, 3), S(0, 1, 3, 4)]:
        sc = simplex_context(sigma)
        eta = d(Form.from_poly(Poly.variable(sc, sc.var("l", 0))
                               * Poly.variable(sc, sc.var("l", 3))))
        As.append(extract_A(eta, psi_coordinate_map(f, sigma), 1))
    fctx = simplex_context(S(0, 1, 3))
    restricted = [restrict_to_face(Form.from_poly(A[shared]), fctx)
                  for A in As]
    assert equal_mod_relations(restricted[0], restricted[1])
    assert not restricted[0].is_zero


# ---------------------------------------------------------------------------
# coherence of the input family
# ---------------------------------------------------------------------------

def _lam(cell, v, scale=1):
    """The 0-form scale * l_v in the simplex context of `cell`."""
    sc = simplex_context(cell)
    return Form.from_poly(Poly.variable(sc, sc.var("l", v)) * Poly.const(sc, scale))


def test_input_family_zero_forms_disagree_at_a_vertex():
    omega = {S(0, 1): _lam(S(0, 1), 1), S(1, 2): _lam(S(1, 2), 1, 2)}
    with pytest.raises(primitive.PrimitiveError,
                       match=r"^input forms on <0,1> and <1,2> disagree on "
                             r"their common face \(1,\)$"):
        primitive.validate_input_family(omega)


def test_input_family_one_forms_disagree_on_an_edge():
    # <0,1,2> and <1,2,3> disagree on <1,2>, <1,2,3> and <2,3,4> on <2,3>;
    # the first pair in sorted order is reported
    omega = {S(0, 1, 2): d(_lam(S(0, 1, 2), 1)),
             S(1, 2, 3): d(_lam(S(1, 2, 3), 1, 2)),
             S(2, 3, 4): d(_lam(S(2, 3, 4), 3)),
             S(4, 5, 6): d(_lam(S(4, 5, 6), 5))}
    with pytest.raises(primitive.PrimitiveError,
                       match=r"^input forms on <0,1,2> and <1,2,3> disagree on "
                             r"their common face \(1, 2\)$"):
        primitive.validate_input_family(omega)


def test_input_family_skips_faces_below_the_degree(monkeypatch):
    # cells meeting only at vertices: 1-forms restrict to zero there, so
    # no restriction is computed, however different the forms are
    calls = []
    real = primitive.restrict_to_face
    monkeypatch.setattr(primitive, "restrict_to_face",
                        lambda *a: calls.append(a) or real(*a))
    omega = {S(0, 1, 2): d(_lam(S(0, 1, 2), 1)),
             S(2, 3, 4): d(_lam(S(2, 3, 4), 3, 5)),
             S(0, 4, 5): d(_lam(S(0, 4, 5), 5, -1))}
    primitive.validate_input_family(omega)
    assert calls == []
    # a 0-form term brings the shared vertices back into the check
    omega[S(0, 1, 2)] = omega[S(0, 1, 2)] + _lam(S(0, 1, 2), 0)
    with pytest.raises(primitive.PrimitiveError, match="common face \\(0,\\)"):
        primitive.validate_input_family(omega)
    assert calls


# ---------------------------------------------------------------------------
# C coefficients and the candidate primitive
# ---------------------------------------------------------------------------

def test_assemble_C_constant_coefficient():
    f, sigma, sc = fig1_triangle()
    eta = Form(sc, {(sc.var("l", 3),): Poly.const(sc, 1)}) - Form(
        sc, {(sc.var("l", 2),): Poly.const(sc, 1)})
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(eta, psi, 1)
    phi = next(iter(A))
    assert A[phi] == Poly.const(sc, 2)
    drops = admissible_drops(phi)
    assert len(drops) == 2
    # constant coefficient: each solution is the signed constant over n
    C = assemble_C(A, 1, psi, compose_psi(A, psi))
    pctx = psi.source
    for drop in drops:
        q = drop.phi.blocks[drop.j].index(drop.removed)
        assert C[drop] == Poly.const(pctx, Q(2) * (-1) ** q / 2)


def test_assemble_C_zero_input():
    f, sigma, sc = fig1_triangle()
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(Form.zero(sc), psi, 1)
    C = assemble_C(A, 1, psi, compose_psi(A, psi))
    assert all(not c for c in C.values())


def test_direct_solution_closes_single_block_fixtures():
    # on panels with one positive-dimensional fiber block the relative
    # differential of the C part reproduces the extracted combination
    cases = []
    f1 = triangle_fan()
    for sigma in [S(0, 2, 3), S(0, 1, 3), S(1, 3, 4), S(2, 3, 5), S(3, 4, 5)]:
        sc = simplex_context(sigma)
        poly = Poly.variable(sc, sc.var("l", sigma.vertices[1]))
        cases.append((f1, sigma, d(Form.from_poly(poly * poly))))
    f2 = tetra_pair_over_triangle()
    for sigma in [S(0, 1, 2, 3), S(1, 2, 3, 4)]:
        sc = simplex_context(sigma)
        poly = (Poly.variable(sc, sc.var("l", 1)) * Poly.variable(sc, sc.var("l", 2)))
        cases.append((f2, sigma, d(Form.from_poly(poly))))
    for f, sigma, eta in cases:
        psi = psi_coordinate_map(f, sigma)
        A = extract_A(eta, psi, 1)
        composed = compose_psi(A, psi)
        C = assemble_C(A, 1, psi, composed)
        cp = c_part_form(C, psi)
        om1 = whitney_combination(composed, psi)
        assert fiber_defect(om1, cp).is_zero


def test_multi_block_defect_is_repaired():
    f = square_over_edge()
    sigma = S(0, 1, 2, 3)
    sc = simplex_context(sigma)
    eta = d(Form.from_poly(Poly.variable(sc, sc.var("l", 1)) * Poly.variable(sc, sc.var("l", 3))))
    prim = build_primitive_over(f, {sigma: eta}, S(100, 101), 1)
    assert not verify_theodg(prim)


# ---------------------------------------------------------------------------
# vertical gluing
# ---------------------------------------------------------------------------

def test_vertical_gluing_zero_defect():
    f, sigma, sc = fig1_triangle()
    eta = d(Form.from_poly(Poly.variable(sc, sc.var("l", 2)) * Poly.variable(sc, sc.var("l", 3))))
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(eta, psi, 1)
    composed = compose_psi(A, psi)
    C = assemble_C(A, 1, psi, composed)
    cp = c_part_form(C, psi)
    delta = fiber_defect(whitney_combination(composed, psi), cp)
    assert delta.is_zero
    assert vertical_gluing(delta, sigma).is_zero


def test_vertical_gluing_exactness_error():
    f, sigma, sc = fig1_triangle()
    psi = psi_coordinate_map(f, sigma)
    pctx = psi.source
    # a vertical form that is not fiberwise closed against the candidate
    wrel = whitney_form(pctx, {g: pctx.groups[g][1] for g in pctx.fiber_groups})
    bad = wrel * Poly.variable(pctx, pctx.var("m:1", 2))
    ok = Form.zero(pctx)
    # degree-1 difference whose fiber differential is nonzero: need degree 2
    f5 = five_over_two()
    s5 = S(0, 1, 2, 3, 4, 5)
    pctx5 = psi_coordinate_map(f5, s5).source
    m = lambda j, v: Poly.variable(pctx5, pctx5.var(f"m:{j}", v))
    dm = lambda j, v: Form.d_var(pctx5, pctx5.var(f"m:{j}", v))
    not_closed = wedge(dm(0, 1), dm(1, 3)) * m(2, 5) + wedge(dm(1, 3), dm(2, 5))
    with pytest.raises(ExactnessError, match="is not closed"):
        vertical_gluing(vertical_part(canonicalize(not_closed)), s5)


def test_single_prism_degree_two_roundtrip():
    # degree-2 input on the cube fiber: b from the cone operator closes the gap
    f = five_over_two()
    sigma = S(0, 1, 2, 3, 4, 5)
    sc = simplex_context(sigma)
    alpha = Form(sc, {(sc.var("l", 5),): Poly.variable(sc, sc.var("l", 1)) * Poly.variable(sc, sc.var("l", 3))})
    eta = d(alpha)
    prim = build_primitive_over(f, {sigma: eta}, S(100, 101, 102), 2)
    assert not verify_theodg(prim)


# ---------------------------------------------------------------------------
# assembly, descent, horizontal behavior
# ---------------------------------------------------------------------------

def exact_input(f, alpha):
    """omega = d(alpha) on every maximal cell, for a global alpha given as
    terms (c, monomial vertices, dvars vertices), the dvars in any order; a
    term lives on the cells holding all its vertices."""
    omega = {}
    for s in f.source.maximal:
        sc = simplex_context(s)
        form = Form.zero(sc)
        for c, mono, dvars in alpha:
            if set(mono + dvars) <= s.vset:
                idx = tuple(sc.var("l", w) for w in dvars)
                coeff = Poly.const(sc, c * perm_sign(idx))
                for v in mono:
                    coeff = coeff * Poly.variable(sc, sc.var("l", v))
                form = form + Form(sc, {tuple(sorted(idx)): coeff})
        omega[s] = d(form)
    return omega


def global_input(f, pairs):
    """d of the sum of the monomials prod(l_v for v in pair)."""
    return exact_input(f, [(1, vs, ()) for vs in pairs])


def prisms_of(result):
    """The prisms of a `build_relative_primitive` result, base cell by base cell."""
    return [pd for prim in result.primitives.values() for pd in prim.prisms.values()]


def residuals_zero(result):
    """Every closing residual of a `build_relative_primitive` result is zero."""
    return all(pd.residual is None for pd in prisms_of(result))


def test_descend_form_zero_input():
    f, sigma, sc = fig1_triangle()
    psi = psi_coordinate_map(f, sigma)
    A = extract_A(Form.zero(sc), psi, 1)
    C = assemble_C(A, 1, psi, compose_psi(A, psi))
    H = c_part_form(C, psi) + vertical_gluing(Form.zero(psi.source), sigma)
    N, m = descend_form(H, sc)
    assert H.is_zero and N.is_zero


def test_triangle_fan_end_to_end_with_descent():
    f = triangle_fan()
    omega = global_input(f, [(2, 3), (3, 4), (0, 3), (3, 5)])
    assert_glued(build_relative_primitive(f, omega, r=1))


def test_descend_form_with_base_differentials():
    # dt_j clears to du_j, the block sum's differential: a form with dt
    # terms, alone and wedged with a fiber differential, descends exactly
    f, sigma, sc = fig1_triangle()
    psi = psi_coordinate_map(f, sigma)
    pctx = psi.source
    t0, t1 = pctx.var("t", 100), pctx.var("t", 101)
    m2 = pctx.var("m:1", 2)
    H = (Form(pctx, {(t1,): Poly.variable(pctx, m2) * Poly.variable(pctx, t0)})
         + Form(pctx, {(t0, m2): Poly.const(pctx, Q(2, 3))}))
    descended = descend_form(H, sc)
    assert not descended[0].is_zero
    assert check_descent(H, psi, descended)


def test_check_descent_rejects_a_wrong_numerator_or_exponent():
    # the fiber-chart-first reduction must still see a one-coefficient change
    # of N and an exponent of u that is off by one
    f = five_over_two()
    sigma = S(0, 1, 2, 3, 4, 5)
    sc = simplex_context(sigma)
    lam = lambda v: Poly.variable(sc, sc.var("l", v))
    alpha = Form(sc, {(sc.var("l", 5),): lam(1) * lam(3)})
    prim = build_primitive_over(f, {sigma: d(alpha)}, S(100, 101, 102), 2)
    pd = prim.prisms[sigma]
    N, m = descend_form(pd.H, sc)
    assert check_descent(pd.H, pd.psi, (N, m))
    dv, p = next(iter(N.terms.items()))
    e = next(iter(p.terms))
    bumped = N + Form(sc, {dv: Poly(sc, {e: Q(1, 3)})})
    assert not check_descent(pd.H, pd.psi, (bumped, m))
    for j in range(len(m)):
        for step in (1, -1):
            off = tuple(mj + step * (k == j) for k, mj in enumerate(m))
            if min(off) >= 0:
                assert not check_descent(pd.H, pd.psi, (N, off)), (j, step)


def test_residual_reports_only_the_prism_with_a_vertical_defect():
    # two squares over an edge at r = 2: a vertical term with nonzero
    # relative d added to one prism's H shows in exactly that residual; a
    # term carrying a base differential dies against the base volume
    f = SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3), S(0, 1, 2, 4)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 100, 1: 100, 2: 101, 3: 101, 4: 101})
    omega = exact_input(f, [(1, (1,), (3,)), (2, (0,), (2,)), (1, (1,), (4,))])
    prim = build_primitive_over(f, omega, S(100, 101), 2)
    assert len(prim.prisms) == 2 and not verify_theodg(prim)
    sigma = S(0, 1, 2, 3)
    pd = prim.prisms[sigma]
    ctx = pd.H.ctx
    m00 = Poly.variable(ctx, ctx.var("m:0", 0))
    base_term = Form(ctx, {(ctx.var("t", 100),): m00})
    assert not canonicalize(d(base_term)).is_zero
    prim.prisms[sigma] = dataclasses.replace(pd, H=pd.H + base_term)
    assert not verify_theodg(prim)
    vertical = Form(ctx, {(ctx.var("m:1", 2),): m00})
    assert not relative_d(vertical).is_zero
    prim.prisms[sigma] = dataclasses.replace(pd, H=pd.H + vertical)
    assert list(verify_theodg(prim)) == [sigma]


def test_negative_control_zero_H():
    # H = 0 against a nonzero extracted family leaves a nonzero residual
    f, sigma, sc = fig1_triangle()
    eta = d(Form.from_poly(Poly.variable(sc, sc.var("l", 2)) * Poly.variable(sc, sc.var("l", 3))))
    psi = psi_coordinate_map(f, sigma)
    pctx = psi.source
    de = whitney_form(pctx, {g: pctx.groups[g][1] for g in pctx.base_groups})
    res = canonicalize(wedge(de, pullback(psi, eta)))
    assert not res.is_zero


def test_horizontal_vanishing_and_survival_counts():
    f = triangle_fan()
    omega = global_input(f, [(2, 3)])
    prim = build_primitive_over(f, omega, S(100, 101), 1)
    rep = check_horizontal(f, prim, build_primitive_over(f, omega, S(100,), 1))
    assert rep.vanished_terms > 0 and rep.ok


def test_horizontal_chain_coherence():
    # specializing in one step equals specializing in two on a 2d base
    f = tetra_pair_over_triangle()
    omega = global_input(f, [(1, 2), (2, 3)])
    result = build_relative_primitive(f, omega, r=1)
    assert all(rep.ok for rep in result.horizontal)
    taus = sorted(result.primitives)
    # face chains tau'' < tau' < tau all produced reports
    chains = [(rep.tau, rep.tau_face) for rep in result.horizontal]
    assert (S(100, 101, 102), S(100,)) in chains
    assert (S(100, 101), S(100,)) in chains


def test_shift_lifts_a_face_mismatch_by_vertex():
    # over F = <101> the prism's fiber group m:1 = <2,3> is renumbered m:0,
    # the tag the prism gives the fiber <0,1> over 100: the lift goes by vertex
    f, tau, face = square_over_edge(), S(100, 101), S(101,)
    pd = build_primitive_over(f, global_input(f, [(0, 2)]), tau, 1).prisms[S(0, 1, 2, 3)]
    chart = specialization_chart(pd.psi.source, face)
    cell = f.restriction_to(pd.sigma, face)
    base, *fibers = chart.source.groups
    ctx = CoordSystem((base, *((tag, tuple(v for v in verts if v in cell.vset))
                               for tag, verts in fibers)))
    assert ctx.groups == (("t", (101,)), ("m:0", (2, 3)))
    t, mu2, mu3 = (Poly.variable(ctx, i) for i in range(3))
    m = Form(ctx, {(): t * mu3, (1,): t * mu2})
    H, correction = pd.H, pd.correction
    lifted = pd.shift(m)
    pctx = pd.psi.source
    T, M2, M3 = (Poly.variable(pctx, pctx.index[n]) for n in ("t:101", "m:1:2", "m:1:3"))
    assert lifted == Form(pctx, {(): T * M3, (pctx.index["m:1:2"],): T * M2})
    assert pd.H == H + lifted and pd.correction == correction + lifted
    assert restrict_to_face(pullback(chart, lifted), ctx) == m


def computed_once_case(fixture):
    """(f, r, omega): the fan at r = 1, or the cube fiber at r = 2."""
    if fixture == "triangle_fan":
        f = triangle_fan()
        return f, 1, global_input(f, [(2, 3), (3, 4), (0, 3), (3, 5)])
    sigma = S(0, 1, 2, 3, 4, 5)
    sc = simplex_context(sigma)
    lam = lambda v: Poly.variable(sc, sc.var("l", v))
    return five_over_two(), 2, {sigma: d(Form(sc, {(sc.var("l", 5),): lam(1) * lam(3)}))}


def count_calls(monkeypatch, *names):
    """{name: the argument tuples of each call} of the named `primitive` functions."""
    calls = {name: [] for name in names}
    for name, log in calls.items():
        real = getattr(primitive, name)
        def counted(*args, _real=real, _log=log, **kwargs):
            _log.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(primitive, name, counted)
    return calls


@pytest.mark.parametrize("fixture", ["triangle_fan", "five_over_two"])
def test_each_prism_quantity_is_computed_once(monkeypatch, fixture):
    # psi* eta, the compositions A_phi o psi and the Whitney combination are
    # built once per prism: through each prism's psi, one pullback of its eta
    # and one of its descended numerator; the residual check reuses them
    f, r, omega = computed_once_case(fixture)
    calls = count_calls(monkeypatch, "whitney_combination", "compose_psi", "pullback")
    result = build_relative_primitive(f, omega, r)
    prisms = prisms_of(result)
    assert len(prisms) > 1 and residuals_zero(result)
    assert len(calls["whitney_combination"]) == len(calls["compose_psi"]) == len(prisms)
    for pd in prisms:  # the gluing walk and the gauge pull back through other maps
        assert [args[1] for args in calls["pullback"] if args[0] is pd.psi] == [
            pd.eta, pd.descended[0]]


@pytest.mark.parametrize("fixture", ["triangle_fan", "five_over_two"])
def test_each_verdict_is_computed_once(monkeypatch, tmp_path, fixture):
    # the result carries each prism's verdicts: one residual pass per base
    # cell, one descent and one descent check per prism; the CLI only writes
    # them, and a failed check shows in the library result
    f, r, omega = computed_once_case(fixture)
    calls = count_calls(monkeypatch, "verify_theodg", "descend_form", "check_descent")
    result = build_relative_primitive(f, omega, r)
    n = len(prisms_of(result))
    once = {"verify_theodg": len(result.primitives), "descend_form": n, "check_descent": n}
    assert n > 1 and {name: len(log) for name, log in calls.items()} == once
    assert_glued(result)
    if fixture == "triangle_fan":
        from prismal.cli import main
        from test_io_cli import _write_fixture_files
        cpath, mpath, wpath = _write_fixture_files(tmp_path)
        assert main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                     "--form", str(wpath), "--out", str(tmp_path / "h.json")]) == 0
        assert {name: len(log) for name, log in calls.items()} == {
            name: 2 * k for name, k in once.items()}
    real, failed = primitive.check_descent, []
    def fail_first(H, psi, descended):
        failed.append(psi)
        return len(failed) > 1 and real(H, psi, descended)
    monkeypatch.setattr(primitive, "check_descent", fail_first)
    result = build_relative_primitive(f, omega, r)
    assert [pd.psi for pd in prisms_of(result) if not pd.descent_ok] == failed[:1]


def fibred_grid(k, m):
    """A base path of k edges times a fiber path of m segments: vertex
    (i, j) is i*(m+1) + j over 100 + i, each square cut into two staircase
    triangles."""
    vid = lambda i, j: i * (m + 1) + j
    cells = []
    for i in range(k):
        for j in range(m):
            cells += [S(vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)),
                      S(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1))]
    base = SimplicialComplex([S(100 + i, 101 + i) for i in range(k)])
    return SimplicialMorphism(SimplicialComplex(cells), base,
                              {vid(i, j): 100 + i for i in range(k + 1) for j in range(m + 1)})


PRISM_FIXTURES = {"triangle_fan": triangle_fan, "five_over_two": five_over_two,
                  "tetra_pair_over_triangle": tetra_pair_over_triangle,
                  "square_over_edge": square_over_edge,
                  "fibred_grid_2x3": lambda: fibred_grid(2, 3)}


@pytest.mark.parametrize("fixture", PRISM_FIXTURES)
def test_prism_description_equals_the_rederived_one(monkeypatch, fixture):
    # the stages after the blow-down read sigma's trivial prism from psi:
    # each face context they build is the one derived from (f, face)
    f = PRISM_FIXTURES[fixture]()
    rederived = lambda cell: pi_context(f.image(cell), f.fibers(cell))
    seen = []
    real = primitive.restrict_to_face
    monkeypatch.setattr(primitive, "restrict_to_face",
                        lambda form, ctx: seen.append(ctx) or real(form, ctx))
    checked = 0
    for tau in sorted(f.target.cells):
        psis = {sigma: psi_coordinate_map(f, sigma) for sigma in f.cells_over(tau)}
        for sigma, psi in psis.items():
            for face in sorted(f.target.cells):
                if face.vset < tau.vset:
                    chart = specialization_chart(psi.source, face)
                    assert chart.source == rederived(f.restriction_to(sigma, face))
                    checked += 1
        sigmas = f.maximal_over(tau)
        for i, s1 in enumerate(sigmas):
            for s2 in sigmas[i + 1:]:
                inter = Simplex(tuple(v for v in s1.vertices if v in s2.vset))
                if inter.is_empty or f.image(inter) != tau:
                    continue
                seen.clear()
                primitive._restricted_difference(Form.zero(psis[s1].source),
                                                 Form.zero(psis[s2].source), inter)
                assert seen == [rederived(inter)] * 2
                checked += 1
    assert checked


THREE_TRIANGLES = SimplicialMorphism(
    SimplicialComplex([S(0, 2, 4), S(0, 4, 6), S(1, 4, 6)]), SimplicialComplex([S(100, 101)]),
    {0: 100, 1: 100, 4: 100, 2: 101, 6: 101})


def _grid_case(k, m):
    f = fibred_grid(k, m)
    alpha = [(v + 1, (v, v), ()) for v in f.source.vertices]
    return pytest.param(f, alpha, 1, id=f"grid-{k}x{m}-r1")


TRIANGLE = SimplicialComplex([S(100, 101, 102)])

# the rejections of `overlap_cycle_inputs` at r = 2 and 3, one per morphism,
# as (r, the image 100 + k of each vertex, maximal cells, alpha)
DRAWN_CYCLES = [
    (2, "0000", [(0, 1, 2), (0, 1, 3), (0, 2, 3)], [(2, (1,), (3,))]),
    (2, "00000", [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 3, 4)],
     [(-3, (0,), (4,)), (1, (4, 0), (2,)), (2, (4,), (1,))]),
    (2, "01101", [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)], [(-2, (4, 3), (1,))]),
    (2, "01010", [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)], [(2, (1,), (1,)), (1, (0, 0), (4,))]),
    (2, "00000", [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)],
     [(-1, (1, 0), (4,)), (2, (3,), (1,))]),
    (2, "011001", [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5), (0, 1, 3, 4, 5)],
     [(1, (0,), (3,)), (3, (2, 1), (4,))]),
    (2, "011000", [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5), (0, 1, 3, 4, 5)],
     [(3, (0,), (3,)), (3, (2, 2), (4,))]),
    (2, "0120010", [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 5, 6),
                    (0, 1, 2, 4, 5, 6)], [(-1, (6, 3), (6,))]),
    (3, "00000", [(0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3, 4)],
     [(-3, (3, 0), (4, 1)), (-1, (4,), (2, 4)), (-3, (1, 2), (2, 4))]),
    (3, "00000", [(0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)],
     [(-3, (2, 4), (3, 2)), (3, (2,), (4, 0)), (-3, (1,), (0, 1))]),
    (3, "000000", [(0, 1, 2, 3, 5), (0, 1, 3, 4, 5), (0, 2, 3, 4, 5)],
     [(3, (4,), (1, 0)), (2, (2,), (3, 5))]),
    (3, "0111000", [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 6), (0, 1, 2, 4, 5, 6)],
     [(1, (5,), (0, 1))]),
    (3, "01202210", [(0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 7), (0, 1, 2, 3, 5, 6, 7)],
     [(3, (7, 5), (6, 4)), (-1, (7, 3), (5, 1))]),
]


def _drawn_cycle(i, r, images, cells, alpha):
    base = Simplex(tuple(sorted({100 + int(k) for k in images})))
    f = SimplicialMorphism(SimplicialComplex([Simplex(c) for c in cells]),
                           SimplicialComplex([base]),
                           {v: 100 + int(k) for v, k in enumerate(images)})
    return pytest.param(f, alpha, r, id=f"drawn-overlap-cycle-{i}-r{r}",
                        marks=pytest.mark.xfail(strict=True, raises=ExactnessError,
                                                reason="the overlaps form a cycle; the gluing "
                                                       "of ROADMAP item 2 mends this"))

GLOBALLY_EXACT_CASES = [_grid_case(k, m) for k in (1, 2) for m in (2, 3, 4)] + [
    # the cone repairs differ on <1,2,3> by a closed 1-form: the walk absorbs it
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3), S(1, 2, 3, 4)]),
                           SimplicialComplex([S(100)]), {v: 100 for v in range(5)}),
        [(1, (1, 2), (3,))], 2, id="tetra-pair-over-point-r2"),
    # the mismatch at the face <100> is a closed 1-form, not a base function
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 2, 3, 5), S(0, 3, 4, 5)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 100, 2: 101, 3: 100, 4: 100, 5: 100}),
        [(3, (3,), (4,))], 2, id="horizontal-at-point-face-r2"),
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 3, 5), S(0, 3, 4, 5, 6)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 100, 1: 100, 3: 100, 4: 101, 5: 101, 6: 101}),
        [(3, (1,), (3,))], 2, id="tetra-and-4-simplex-over-edge-r2"),
    # the face gauge with two fiber groups
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 4, 5), S(0, 3, 4, 6)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 100, 1: 101, 3: 101, 4: 100, 5: 100, 6: 101}),
        [(-1, (0, 4), (4,))], 2, id="face-gauge-two-fiber-groups-r2"),
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3, 4), S(0, 2, 3, 4, 5)]),
                           SimplicialComplex([S(100)]), {v: 100 for v in range(6)}),
        [(-3, (2,), (0, 5)), (2, (1,), (2, 5)), (-1, (0,), (0, 5))], 3,
        id="four-simplex-pair-over-point-r3"),
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 2, 3, 5, 6), S(1, 2, 3, 5, 6)]),
                           SimplicialComplex([S(100, 101), S(101, 102)]),
                           {0: 101, 1: 102, 2: 101, 3: 101, 5: 102, 6: 101}),
        [(3, (6, 5), (5, 6)), (1, (6,), (1, 3)), (2, (2,), (1, 6))], 3,
        id="four-simplex-pair-over-path-r3"),
    # three prisms whose overlap graph is a triangle: a closed mismatch
    # around the cycle needs more than a walk along a spanning tree
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3, 5), S(0, 1, 2, 4, 5),
                                              S(1, 2, 3, 4, 5)]),
                           SimplicialComplex([S(100)]), {v: 100 for v in range(6)}),
        [(2, (1, 1), (4,)), (3, (2, 2), (3,)), (1, (1, 3), (4,))], 2,
        id="overlap-cycle-over-point-r2",
        marks=pytest.mark.xfail(strict=True, raises=ExactnessError,
                                reason="the overlaps form a cycle; the homotopy "
                                       "gluing of ROADMAP item 2 mends this")),
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3, 4), S(0, 1, 3, 4, 5),
                                              S(2, 3, 4, 5)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 101, 1: 100, 2: 101, 3: 100, 4: 100, 5: 101}),
        [(2, (2, 4), (1,)), (-3, (0, 5), (1,))], 2, id="overlap-cycle-over-edge-r2",
        marks=pytest.mark.xfail(strict=True, raises=ExactnessError,
                                reason="the overlaps form a cycle; the homotopy "
                                       "gluing of ROADMAP item 2 mends this")),
    # over a triangle, the mismatch at the edge <100,102> is a multiple of
    # t100 t102: the gauge of an edge face, not of a vertex
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 4, 5, 6), S(1, 2, 3, 4, 6)]), TRIANGLE,
                           {0: 101, 1: 101, 2: 102, 3: 102, 4: 100, 5: 100, 6: 102}),
        [(1, (6,), ()), (-2, (3, 4), ()), (-1, (5,), ())], 1, id="triangle-edge-gauge-r1"),
    # the two prisms over the triangle lie in different overlap components
    # and get different mismatches at <100,102>: each is fixed on its own
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3), S(0, 1, 2, 5), S(0, 2, 3, 4, 5)]),
                           TRIANGLE, {0: 100, 1: 101, 2: 100, 3: 101, 4: 102, 5: 102}),
        [(3, (1,), ()), (-3, (4, 0), ())], 1, id="triangle-edge-gauge-two-components-r1"),
    pytest.param(
        cylinder_over_edge(), [(1, (0, 4), ()), (1, (1, 5), ()), (1, (2, 2), ())], 1,
        id="cylinder-over-edge-r1"),
    # over the open edge, <0,2,4> meets the others only over 100: its own
    # component of the overlap graph, so a walk must start there too
    pytest.param(THREE_TRIANGLES, [(1, (1,), ())], 1, id="two-overlap-components-r1"),
    pytest.param(THREE_TRIANGLES, [(1, (0, 6), ())], 1,
                 id="two-overlap-components-l0-l6-r1"),
    # <1,3> has relative dimension 0: no relative face of degree 1
    pytest.param(
        SimplicialMorphism(SimplicialComplex([S(0, 1, 2), S(1, 3)]),
                           SimplicialComplex([S(100, 101)]),
                           {0: 100, 1: 100, 2: 101, 3: 101}),
        [(1, (0, 2), ()), (1, (1, 3), ())], 1, id="prism-without-relative-face-r1"),
] + [_drawn_cycle(i, *case) for i, case in enumerate(DRAWN_CYCLES)]


def assert_glued(result):
    """Every closing residual is zero, every prism descends and every
    horizontal report holds."""
    assert residuals_zero(result)
    assert all(pd.descent_ok for pd in prisms_of(result))
    assert all(rep.ok for rep in result.horizontal)


@pytest.mark.parametrize("f, alpha, r", GLOBALLY_EXACT_CASES)
def test_globally_exact_input_glues(f, alpha, r):
    # a globally exact omega = d(alpha) is fiberwise exact: the pipeline
    # must close it, descend it and specialize it coherently
    assert_glued(build_relative_primitive(f, exact_input(f, alpha), r))


BASES = {"point": [S(100)], "edge": [S(100, 101)], "triangle": [S(100, 101, 102)],
         "two-edge path": [S(100, 101), S(101, 102)],
         "tetrahedron": [S(100, 101, 102, 103)]}


@st.composite
def small_exact_inputs(draw, r=1):
    """A morphism of 1 to 4 maximal cells on at most 7 vertices over a
    small base, with relative dimension r somewhere, and the terms of a
    global alpha of degree r - 1 for `exact_input`."""
    base = SimplicialComplex(BASES[draw(st.sampled_from(sorted(BASES)))])
    n = draw(st.integers(2, 7))
    vmap = {v: draw(st.sampled_from(base.vertices)) for v in range(n)}
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.sampled_from(base.maximal))
        over = [v for v in range(n) if vmap[v] in b.vset]
        assume(over)
        cells.append(Simplex(tuple(draw(st.lists(st.sampled_from(over), min_size=1,
                                                  max_size=r + 3, unique=True)))))
    f = SimplicialMorphism(SimplicialComplex(cells), base, vmap)
    assume(max(map(f.rel_dim, f.source.maximal)) >= r)
    vertex = st.sampled_from(f.source.vertices)
    monomial = st.lists(vertex, min_size=1, max_size=2)
    dvars = st.lists(vertex, min_size=r - 1, max_size=r - 1, unique=True) if r > 1 else st.just([])
    alpha = draw(st.lists(st.tuples(st.integers(-3, 3).filter(bool), monomial, dvars),
                          min_size=1, max_size=3))
    return f, [(c, tuple(mono), tuple(dv)) for c, mono, dv in alpha]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_exact_inputs())
def test_small_globally_exact_inputs_close_at_r1(case):
    # every maximal cell over tau carries a candidate, every overlap
    # component is anchored and the gauge is fixed face by face, so d(alpha)
    # is never rejected and every horizontal report holds
    f, alpha = case
    assert_glued(build_relative_primitive(f, exact_input(f, alpha), 1))


def overlap_cycles(f, r):
    """The base cells carrying a degree-r primitive whose overlap graph (the
    maximal cells over tau, joined when they share a cell over tau) has a
    cycle: more edges than a spanning forest."""
    out = []
    for tau in f.target.cells:
        sigmas = f.maximal_over(tau)
        if max(map(f.rel_dim, sigmas), default=0) < r:
            continue
        component = {s: s for s in sigmas}
        def root(s):
            while component[s] != s:
                s = component[s]
            return s
        for s1, s2 in itertools.combinations(sigmas, 2):
            inter = Simplex(tuple(v for v in s1.vertices if v in s2.vset))
            if inter.is_empty or f.image(inter) != tau:
                continue
            if root(s1) == root(s2):
                out.append(tau)
                break
            component[root(s1)] = root(s2)
    return out


def assert_glued_or_a_cycle(f, alpha, r):
    """d(alpha) glues, or the walk, which glues along a spanning tree of
    each overlap graph, rejects it over a base cell whose overlaps form a
    cycle (ROADMAP item 2)."""
    try:
        result = build_relative_primitive(f, exact_input(f, alpha), r)
    except ExactnessError as err:
        assert any(str(err).startswith(f"over {tau}:") for tau in overlap_cycles(f, r)), err
        return
    assert_glued(result)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_exact_inputs(r=2))
def test_small_globally_exact_inputs_close_at_r2(case):
    # as at r = 1, with alpha a 1-form
    assert_glued_or_a_cycle(*case, 2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_exact_inputs(r=3))
def test_small_globally_exact_inputs_close_at_r3(case):
    # as at r = 2, with alpha a 2-form whose dvars are drawn in any order
    assert_glued_or_a_cycle(*case, 3)


@st.composite
def overlap_cycle_inputs(draw, r):
    """3 or 4 maximal cells over one base cell b, each a spine (one vertex
    over each vertex of b) and k >= r of m > k further vertices: every two
    overlap over b, so b's overlap graph has a cycle.  With the terms of a
    global alpha of degree r - 1 for `exact_input`."""
    b = Simplex(tuple(range(100, 100 + draw(st.integers(1, 3)))))
    spine = tuple(range(len(b.vertices)))
    m = draw(st.integers(r + 1, r + 2))
    vmap = {v: b.vertices[v] for v in spine}
    vmap.update((len(spine) + i, draw(st.sampled_from(b.vertices))) for i in range(m))
    subsets = list(itertools.combinations(range(len(spine), len(vmap)),
                                          draw(st.integers(r, m - 1))))
    cells = [Simplex(spine + extra) for extra in draw(
        st.lists(st.sampled_from(subsets), min_size=3, max_size=4, unique=True))]
    f = SimplicialMorphism(SimplicialComplex(cells), SimplicialComplex([b]), vmap)
    vertex = st.sampled_from(f.source.vertices)
    dvars = st.lists(vertex, min_size=r - 1, max_size=r - 1, unique=True)
    alpha = draw(st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                                    st.lists(vertex, min_size=1, max_size=2), dvars),
                          min_size=1, max_size=3))
    return f, [(c, tuple(mono), tuple(dv)) for c, mono, dv in alpha]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(overlap_cycle_inputs(r=2))
def test_overlap_cycle_inputs_close_at_r2(case):
    # draws whose overlaps form a cycle over one base cell
    assert_glued_or_a_cycle(*case, 2)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(overlap_cycle_inputs(r=3))
def test_overlap_cycle_inputs_close_at_r3(case):
    assert_glued_or_a_cycle(*case, 3)


def test_zero_overlap_difference_anchors_the_prism():
    # a base edge times a fiber path of 4 segments; vertex (i, j) is i*5 + j
    f = fibred_grid(1, 4)
    # d(l8^2) is globally exact; over 101 it vanishes on the fiber segments
    # <5,6> and <6,7>, so the overlap difference on <6> is zero: the walk
    # must still anchor <6,7>, or <6,7> and <7,8> disagree on <7>
    omega = global_input(f, [(8, 8)])
    prim = build_primitive_over(f, omega, S(101), 1)
    assert not verify_theodg(prim)


def test_overlap_difference_that_is_not_a_base_function_raises():
    # build_primitive_over skips validate_input_family, so an incoherent
    # family reaches the gluing walk: the primitives of d(l1^2) on <0,1,2>
    # and of d(l1 l2) on <1,2,3> differ on <1,2> by a fiber function, a
    # 0-form whose fiber differential is not zero
    f = SimplicialMorphism(SimplicialComplex([S(0, 1, 2), S(1, 2, 3)]),
                           SimplicialComplex([S(100)]), {v: 100 for v in range(4)})
    omega = {}
    for sigma, (a, b) in ((S(0, 1, 2), (1, 1)), (S(1, 2, 3), (1, 2))):
        sc = simplex_context(sigma)
        lam = lambda v: Poly.variable(sc, sc.var("l", v))
        omega[sigma] = d(Form.from_poly(lam(a) * lam(b)))
    with pytest.raises(ExactnessError, match="not fiberwise closed") as err:
        build_primitive_over(f, omega, S(100), 1)
    message = str(err.value)
    assert all(str(cell) in message
               for cell in (S(100), S(0, 1, 2), S(1, 2, 3), S(1, 2)))


def cylinder_cyclic_form(f):
    """On `cylinder_over_edge`, l_a dl_b - l_b dl_a on every fiber edge
    (a, b) of the two fiber triangles, oriented around each cycle: a closed
    1-form with a nonzero period on each fiber circle."""
    cyc = {frozenset((0, 1)): (0, 1), frozenset((1, 2)): (1, 2), frozenset((2, 0)): (2, 0),
           frozenset((3, 4)): (3, 4), frozenset((4, 5)): (4, 5), frozenset((5, 3)): (5, 3)}
    omega = {}
    for s in f.source.maximal:
        sc = simplex_context(s)
        form = Form.zero(sc)
        for fib in f.fibers(s):
            if fib.dim == 1:
                a, b = cyc[frozenset(fib.vertices)]
                form = form + (Form.d_var(sc, sc.var("l", b)) * Poly.variable(sc, sc.var("l", a))
                               - Form.d_var(sc, sc.var("l", a)) * Poly.variable(sc, sc.var("l", b)))
        omega[s] = form
    return omega


def test_cylinder_not_fiberwise_exact():
    # at r = 1 the mismatch around a cycle of overlaps is a period of the
    # input on the fiber circle
    f = cylinder_over_edge()
    with pytest.raises(ExactnessError, match="the input is not fiberwise exact"):
        build_relative_primitive(f, cylinder_cyclic_form(f), r=1)


def test_overlap_cycle_at_r2_does_not_blame_the_input():
    # d(alpha) is globally exact: a cycle the tree walk cannot close is a
    # limit of the gluing, not of the input
    case = next(p for p in GLOBALLY_EXACT_CASES if p.id == "overlap-cycle-over-point-r2")
    f, alpha, r = case.values
    with pytest.raises(ExactnessError, match=r"^over <100>: primitive candidates .*; "
                       "gluing along a spanning tree of the overlaps could not close a "
                       "cycle of overlaps$"):
        build_relative_primitive(f, exact_input(f, alpha), r)


# ---------------------------------------------------------------------------
# shrinking-average oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_exact_extraction():
    f, sigma, sc = fig1_triangle()
    rng = random.Random(11)
    for k in range(3):
        terms = {}
        for _ in range(3):
            e = [0] * sc.nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(sc.nvars)] += 1
            terms[tuple(e)] = Q(rng.randint(-5, 5))
        coeff = Poly(sc, terms)
        eta = Form(sc, {(sc.var("l", 3),): coeff})
        A = extract_A(eta, psi_coordinate_map(f, sigma), 1)
        for phi in A:
            est, exact = oracle_A(eta, phi, Q(1, 10 ** 4))
            assert type(est) is type(exact) is Q
            assert abs(est - exact) < Q(1, 10 ** 6)
            # the average is a polynomial in eps: its eps^0 term is the exact
            # value and its eps^1 term vanishes, the center being the centroid
            terms = oracle_eps_terms(eta, phi)
            assert terms[0] == exact and terms[1] == 0


@settings(max_examples=10, deadline=None)
@given(st.dictionaries(
    st.sampled_from([(0, 3), (2, 3), (3, 4), (3, 5), (0, 2), (1, 3), (4, 5),
                     (2, 3, 5), (0, 2, 3)]),
    st.integers(-3, 3), min_size=1, max_size=4))
def test_pipeline_zero_residual_random_exact_inputs(coeffs):
    # any global polynomial gives a fiberwise-exact differential; the
    # pipeline must close it exactly on every prism
    f = triangle_fan()
    omega = exact_input(f, [(c, vs, ()) for vs, c in coeffs.items()])
    result = build_relative_primitive(f, omega, r=1)
    assert residuals_zero(result)


def test_specialization_charts_compose():
    # one-step specialization equals two-step on every face chain
    from prismal.mesh import SimplicialComplex, SimplicialMorphism
    f = tetra_pair_over_triangle()
    sigma = S(0, 1, 2, 3)
    psi = psi_coordinate_map(f, sigma)
    for mid_vs, small_vs in [((100, 101), (100,)), ((100, 102), (102,)),
                             ((101, 102), (101,))]:
        mid, small = S(*mid_vs), S(*small_vs)
        one = specialization_chart(psi.source, small)
        step1 = specialization_chart(psi.source, mid)
        step2 = specialization_chart(step1.source, small)
        # compose: pull a generic form back both ways and compare
        sc = simplex_context(sigma)
        eta = d(Form.from_poly(Poly.variable(sc, sc.var("l", 1))
                               * Poly.variable(sc, sc.var("l", 2))))
        A = extract_A(eta, psi, 1)
        C = assemble_C(A, 1, psi, compose_psi(A, psi))
        H = c_part_form(C, psi)
        direct = pullback(one, H)
        two_step = pullback(step2, pullback(step1, H))
        assert equal_mod_relations(direct, two_step)


def test_pipeline_all_relative_degrees_on_cube_fibers():
    # the repair mechanism closes the residual at every relative degree,
    # up to the top degree of the cube fiber
    f = five_over_two()
    sigma = S(0, 1, 2, 3, 4, 5)
    sc = simplex_context(sigma)
    l = lambda v: Poly.variable(sc, sc.var("l", v))
    dl = lambda v: (sc.var("l", v),)
    cases = {
        1: d(Form.from_poly(l(1) * l(3) * l(5) + l(0) * l(2))),
        2: d(Form(sc, {dl(5): l(1) * l(3), dl(3): l(1) * l(5) * l(5)})),
        3: d(Form(sc, {tuple(sorted(dl(3) + dl(5))): l(1) * l(1),
                       tuple(sorted(dl(1) + dl(5))): l(3)})),
    }
    for r, eta in cases.items():
        res = build_relative_primitive(f, {sigma: eta}, r=r)
        assert residuals_zero(res), f"degree {r}"


# ---------------------------------------------------------------------------
# one-pass sums against the chained-operator bodies they replaced
# ---------------------------------------------------------------------------

def _chained_pair_with_face(eta, phi):
    """`pair_with_face` with the frame wedged from `Form.d_var` differences,
    over the block factorial."""
    ctx = eta.ctx
    frame = Form.const(ctx, 1)
    for block in phi.blocks:
        first = Form.d_var(ctx, ctx.var("l", block[0]))
        for w in block[1:]:
            frame = wedge(frame, Form.d_var(ctx, ctx.var("l", w)) - first)
    return sum((p * frame.terms[dv] for dv, p in eta.terms.items() if dv in frame.terms),
               Poly.zero(ctx)) * Q(1, phi.block_factorial())


def _chained_weighted_whitney(pctx, terms):
    """`weighted_whitney` as a running Form sum of Whitney forms times polynomials."""
    out = Form.zero(pctx)
    for coeff, dims, blocks in terms:
        cell = dict(zip(pctx.fiber_groups, blocks, strict=True))
        out = out + whitney_form(pctx, cell) * (coeff * t_monomial(pctx, dims))
    return out


def _chained_C(A, r, psi, composed):
    """`assemble_C` with the chained ODE solution scaled afterwards."""
    out = {}
    for phi in A:
        drops = admissible_drops(phi)
        for drop in drops:
            if phi not in composed:
                out[drop] = Poly.zero(psi.source)
                continue
            chart, scaled = primitive._free_chart(psi.source, drop)
            q = phi.blocks[drop.j].index(drop.removed)
            out[drop] = (_chained_ode_solve(eliminate_poly(composed[phi], chart), r, scaled)
                         * Q((-1) ** q, len(drops)))
    return out


def _seeded_form(rng, ctx, r):
    """An r-form with one to three seeded rational terms at every wedge."""
    def poly():
        return Poly(ctx, {tuple(rng.randint(0, 2) for _ in range(ctx.nvars)):
                          Q(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(rng.randint(1, 3))})
    return Form(ctx, {dv: poly() for dv in itertools.combinations(range(ctx.nvars), r)})


def triangle_block_over_edge():
    """A tetrahedron over an edge with three vertices over 101: a fiber
    block of dimension 2, whose factorial the four fixtures never reach."""
    return SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3)]), SimplicialComplex([S(100, 101)]),
                              {0: 100, 1: 101, 2: 101, 3: 101})


@pytest.mark.parametrize("fixture", [triangle_fan, tetra_pair_over_triangle,
                                     square_over_edge, five_over_two,
                                     triangle_block_over_edge],
                         ids=lambda fx: fx.__name__)
def test_one_pass_sums_match_the_chained_bodies(fixture):
    # pair_with_face on every relative face at r = 1..3 and extract_A, both
    # over the block factorials, weighted_whitney for both of its callers and
    # assemble_C's scales and signs equal the chained bodies, Poly for Poly
    rng = random.Random(fixture.__name__)
    f = fixture()
    faces = []
    for sigma in sorted(f.source.maximal):
        psi = psi_coordinate_map(f, sigma)
        for r in (1, 2, 3):
            eta = _seeded_form(rng, simplex_context(sigma), r)
            A = extract_A(eta, psi, r)
            for phi in relative_faces(psi, r):
                want = _chained_pair_with_face(eta, phi)
                assert want and pair_with_face(eta, phi) == A[phi] == want
                faces.append(phi)
            composed = compose_psi(A, psi)
            C = assemble_C(A, r, psi, composed)
            assert C == _chained_C(A, r, psi, composed)
            assert whitney_combination(composed, psi) == _chained_weighted_whitney(
                psi.source, ((c, phi.block_dims(), phi.blocks) for phi, c in composed.items()))
            assert c_part_form(C, psi) == _chained_weighted_whitney(
                psi.source, ((c, drop.phi.block_dims(), drop.gamma_blocks())
                             for drop, c in C.items() if c))
    assert len(faces) >= len(f.source.maximal)
    if fixture is triangle_block_over_edge:
        assert any(phi.block_factorial() > 1 for phi in faces)
