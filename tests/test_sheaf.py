from fractions import Fraction as Q

import pytest

from prismal.fixtures import (triangle_fan, five_over_two, square_over_edge,
                              tetra_pair_over_triangle)
from prismal.forms import Poly, equal_mod_relations, pullback
from prismal.mesh import Prism, PrismalSet, Simplex
from prismal.sheaf import (build_Pf, build_Sf, check_Pf_characterization,
                           check_Sf_characterization, pi_prism, psi_coordinate_map,
                           psi_morphism, sheaf_to_dict)
from _support import collapse_edge, compose, cylinder_over_edge, identity_on, sheaf_from_dict
from test_primitive import fibred_grid


def S(*vs):
    return Simplex(tuple(vs))


def psi_at(f, sigma, t, mus):
    """The point lambda = psi(t, mu) of sigma, read off the blow-down map:
    lambda_i = t_j mu_{j,i}."""
    psi = psi_coordinate_map(f, sigma)
    point = [*t, *(m for mu in mus for m in mu)]
    return {v: psi.images[psi.target.var("l", v)].evaluate(point)
            for v in sigma.vertices}


T1, T2, TMID = S(100, 101), S(101, 102), S(101,)


def all_fixtures():
    return [triangle_fan(), collapse_edge(), square_over_edge(), five_over_two(),
            tetra_pair_over_triangle()]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_sf_identity_morphism():
    f = identity_on([(0, 1, 2)])
    sf = build_Sf(f)
    tau = S(0, 1, 2)
    assert sf.stalk(tau).maximal == (Prism.from_simplex(tau),)
    for tau_f in [S(0,), S(0, 1)]:
        h = sf.spec(tau_f, tau)
        assert h(Prism.from_simplex(tau)) == Prism.from_simplex(tau_f)


def test_sf_collapse_edge():
    f = collapse_edge()
    sf = build_Sf(f)
    assert sf.stalk(S(100,)).maximal == (Prism.from_simplex(S(0, 1)),)


def test_triangle_fan_stalks_as_drawn():
    f = triangle_fan()
    sf, pf = build_Sf(f), build_Pf(f)
    assert set(sf.stalk(T1).maximal) == {
        Prism.from_simplex(S(0, 1, 3)), Prism.from_simplex(S(0, 2, 3)),
        Prism.from_simplex(S(1, 3, 4))}
    # three rectangles over the left edge, two over the right
    assert len(pf.stalk(T1).maximal) == 3
    assert len(pf.stalk(T2).maximal) == 2
    assert all(c.dim == 2 for c in pf.stalk(T1).maximal)
    # glued fiber over the middle vertex: two segments
    mid = pf.stalk(TMID)
    assert sorted(c for c in mid.maximal) == [
        Prism((S(101,), S(2, 3))), Prism((S(101,), S(3, 4)))]


def test_pf_cells_are_trivial_products():
    f = triangle_fan()
    pf = build_Pf(f)
    for tau in [T1, T2]:
        for c in pf.stalk(tau).maximal:
            assert c.factors[0] == tau
            assert len(c.factors) == tau.dim + 2


def test_pf_iso_case_single_prism():
    f = identity_on([(0, 1)])
    pf = build_Pf(f)
    tau = S(0, 1)
    tops = pf.stalk(tau).maximal
    assert len(tops) == 1
    assert all(fc.dim == 0 for fc in tops[0].factors[1:])


def test_specialization_functoriality_cellwise():
    for f in all_fixtures():
        for F in (build_Sf(f), build_Pf(f)):
            for tau in F.base.cells:
                for tau_p in F.base.cells:
                    if not tau_p.vset < tau.vset:
                        continue
                    for tau_pp in F.base.cells:
                        if not tau_pp.vset < tau_p.vset:
                            continue
                        one = F.spec(tau_pp, tau)
                        two = compose(F.spec(tau_pp, tau_p), F.spec(tau_p, tau))
                        assert one.cells == two.cells


def test_specialization_orientation_transport():
    # transported cells keep the ascending orientation of their vertex sets
    f = triangle_fan()
    sf = build_Sf(f)
    for (tau_f, tau), h in sf.specialization.items():
        for c, img in h.cells.items():
            if img is not None:
                assert img.factors[0].vertices == tuple(sorted(img.factors[0].vertices))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_psi_coordinates_worked_example():
    f = triangle_fan()
    lam = {0: Q(1, 5), 2: Q(3, 10), 3: Q(1, 2)}
    assert psi_at(f, S(0, 2, 3), [Q(1, 5), Q(4, 5)], [[Q(1)], [Q(3, 8), Q(5, 8)]]) == lam


def test_psi_coordinate_map_at_interior_points():
    f = square_over_edge()
    sigma = S(0, 1, 2, 3)
    cases = [([Q(3, 7), Q(4, 7)], [[Q(1, 3), Q(2, 3)], [Q(3, 4), Q(1, 4)]],
              {0: Q(1, 7), 1: Q(2, 7), 2: Q(3, 7), 3: Q(1, 7)}),
             ([Q(3, 4), Q(1, 4)], [[Q(2, 3), Q(1, 3)], [Q(1, 2), Q(1, 2)]],
              {0: Q(1, 2), 1: Q(1, 4), 2: Q(1, 8), 3: Q(1, 8)})]
    for t, mus, lam in cases:
        assert psi_at(f, sigma, t, mus) == lam


@pytest.mark.parametrize("make", [triangle_fan, square_over_edge, five_over_two,
                                  tetra_pair_over_triangle])
def test_psi_images_are_the_products_t_j_mu_v(make):
    # each image is written as one monomial; it is the product t_j * mu_v
    f = make()
    for sigma in f.source.cells:
        psi = psi_coordinate_map(f, sigma)
        pctx = psi.source
        for j, (y, fib) in enumerate(zip(f.image(sigma).vertices, f.fibers(sigma))):
            for v in fib.vertices:
                product = (Poly.variable(pctx, pctx.var("t", y))
                           * Poly.variable(pctx, pctx.var(f"m:{j}", v)))
                assert psi.images[psi.target.var("l", v)] == product


def test_psi_jacobian_weight():
    # the blow-down chart map has Jacobian prod t_j^{dim fiber_j} (up to the
    # chart orientation sign): pull back the reduced coordinate volume
    from prismal.forms import Form, canonicalize, equal_mod_relations
    for f, sigma in [(triangle_fan(), S(0, 2, 3)),
                     (square_over_edge(), S(0, 1, 2, 3)),
                     (five_over_two(), S(0, 1, 2, 3, 4, 5))]:
        psi = psi_coordinate_map(f, sigma)
        pctx, sctx = psi.source, psi.target
        chart_vol = Form(sctx, {tuple(range(1, sctx.nvars)): Poly.const(sctx, 1)})
        lhs = canonicalize(pullback(psi, chart_vol))
        pvol = Form(pctx, {tuple(i for g in pctx.group_vars for i in g[1:]):
                           Poly.const(pctx, 1)})
        jac = Poly.const(pctx, 1)
        for y, fib in zip(f.image(sigma).vertices, f.fibers(sigma)):
            jac = jac * Poly.variable(pctx, pctx.var("t", y)) ** fib.dim
        ok_plus = equal_mod_relations(lhs, pvol * jac)
        ok_minus = equal_mod_relations(lhs, pvol * jac * Q(-1))
        assert ok_plus or ok_minus


def test_psi_morphism_cell_level():
    f = triangle_fan()
    psis = psi_morphism(f)
    sf = build_Sf(f)
    pf = build_Pf(f)
    for tau in f.target.cells:
        m = psis[tau]
        # surjectivity onto the cells with image inside tau
        assert m.is_surjective_onto(
            c for c in sf.stalk(tau).cells
            if f.image(c.as_simplex()).vset <= tau.vset)
        # psi(pi(sigma)) = sigma on top cells
        for c in pf.stalk(tau).maximal:
            assert m(c).as_simplex().vset == set(
                v for fc in c.factors[1:] for v in fc.vertices)


def test_psi_commutes_with_specialization():
    for f in [triangle_fan(), tetra_pair_over_triangle()]:
        psis = psi_morphism(f)
        sf, pf = build_Sf(f), build_Pf(f)
        for (tau_f, tau), h in pf.specialization.items():
            hs = sf.spec(tau_f, tau)
            for c in pf.stalk(tau):
                lhs = None if h(c) is None else psis[tau_f](h(c))
                mid = psis[tau](c)
                rhs = None if mid is None else hs(mid)
                assert lhs == rhs


def test_psi_preserves_dim_on_full_base_cells():
    # cells sitting over the whole base simplex keep their dimension under
    # the blow-down; boundary cells with nontrivial lost fibers collapse
    for f in [triangle_fan(), square_over_edge(), five_over_two()]:
        pf = build_Pf(f)
        for tau in f.target.cells:
            m = psi_morphism(f)[tau]
            for c in pf.stalk(tau):
                if c.factors[0].vset == tau.vset:
                    assert m(c).dim == c.dim
    f2 = square_over_edge()
    m2 = psi_morphism(f2)[S(100, 101)]
    cell = pi_prism(f2, S(0, 1, 2, 3))
    assert cell.dim == 3 and m2(cell).dim == 3
    face = Prism((S(100,), S(0, 1), S(2, 3)))
    assert face.dim == 2 and m2(face).dim == 1  # boundary collapse


# ---------------------------------------------------------------------------
# characterizations
# ---------------------------------------------------------------------------

def test_characterizations_pass_on_fixtures():
    for f in all_fixtures():
        sf, pf = build_Sf(f), build_Pf(f)
        ok_s, wit_s = check_Sf_characterization(sf)
        assert ok_s, wit_s
        ok_p, wit_p = check_Pf_characterization(pf)
        assert ok_p, wit_p
        # the blow-down of the maximal trivial cells gives the top raw-stalk cells
        psis = psi_morphism(f)
        for tau in f.target.cells:
            cells = {psis[tau](c).as_simplex() for c in pf.stalk(tau).maximal}
            expect = {c.as_simplex().sorted()
                      for c in sf.stalk(tau).maximal
                      if f.image(c.as_simplex()) == tau}
            assert expect <= cells


def test_procar_rejects_non_simplex_cell():
    bad = sheaf_from_dict({
        "base": {"maximal_simplices": [[100]]},
        "stalks": {"100": ["0,1|2,3"]},
        "projection": {"100": {"cells": {"0,1|2,3": "100"}}},
    })
    ok, wit = check_Sf_characterization(bad)
    assert not ok and "not a simplex" in wit


def test_proppf_rejects_a_specialization_that_misses_a_cell():
    # the stalk over 100 is 100|0,1, and the one cell over <100,101> does
    # not reach all of it; the check stops there, before the foreign factor
    # 7 over 101
    bad = sheaf_from_dict({
        "base": {"maximal_simplices": [[100, 101]]},
        "stalks": {
            "100,101": ["100,101|0,1|2"],
            "100": ["100|0,1"],
            "101": ["101|7"],
        },
        "projection": {
            "100,101": {"cells": {"100,101|0,1|2": "100,101"}},
            "100": {"cells": {"100|0,1": "100"}},
            "101": {"cells": {"101|7": "101"}},
        },
        "specializations": {
            "100<100,101": {"cells": {"100,101|0,1|2": "100|0,1"}},
            "101<100,101": {"cells": {"100,101|0,1|2": "101|7"}},
        },
    })
    assert check_Pf_characterization(bad) == (
        False, "specialization <100,101>-><100> not surjective")


LEFT = S(100,)


def _replace_maximal(F, c, cell):
    """Put `cell` in place of the maximal cell c of the stalk over T1."""
    F.stalks[T1] = PrismalSet([cell if m == c else m for m in F.stalk(T1).maximal])
    return cell


def _drop_image(F, h, c):
    """Every cell that h sends where it sends c now has an empty image."""
    img = h(c)
    h.cells.update({k: None for k, v in h.cells.items() if v == img})


# Each case mutates the triangle fan's sheaf F, or its specialization h from
# T1 onto LEFT, at the cell c over the panel <0,1,3>.  In the witness, `new`
# is the cell a mutation puts into the stalk and `img` is h(c) afterwards.
@pytest.mark.parametrize("sheaf, mutate, witness", [
    pytest.param("S", _drop_image, "specialization {T1}->{LEFT} not surjective",
                 id="raw-drop-image"),
    pytest.param("S", lambda F, h, c: h.cells.update({c: None}),
                 "{c}: empty image but 2 vertices over {LEFT}", id="raw-empty-image"),
    pytest.param("S", lambda F, h, c: h.vertex_images[c].update({(1,): (0,)}),
                 "{c}: specialization not injective over {LEFT}", id="raw-two-to-one"),
    pytest.param("S", lambda F, h, c: h.vertex_images[c].update({(1,): (4,)}),
                 "{c}: specialization image differs from {img}", id="raw-other-image"),
    pytest.param("P", lambda F, h, c: _replace_maximal(F, c, Prism(c.factors[:-1])),
                 "cell {new} over {T1} is not tau x 2 fiber slots", id="trivialized-slot-count"),
    pytest.param("P", lambda F, h, c: _replace_maximal(F, c, Prism((LEFT,) + c.factors[1:])),
                 "cell {new} over {T1} does not have base factor {T1}",
                 id="trivialized-base-factor"),
    pytest.param("P", lambda F, h, c: h.cells.update({c: None}),
                 "maximal cell {c} dies under {T1}->{LEFT}", id="trivialized-dies"),
    pytest.param("P", lambda F, h, c: h.cells.update({c: Prism((LEFT, S(0)))}),
                 "{c}: factor <0> of {img} is not a factor", id="trivialized-foreign-factor"),
])
def test_characterizations_name_each_failure(sheaf, mutate, witness):
    f = triangle_fan()
    if sheaf == "S":
        F, check, c = build_Sf(f), check_Sf_characterization, Prism.from_simplex(S(0, 1, 3))
    else:
        F, check, c = build_Pf(f), check_Pf_characterization, pi_prism(f, S(0, 1, 3))
    assert check(F) == (True, None)
    h = F.spec(LEFT, T1)
    new = mutate(F, h, c)
    assert check(F) == (False, witness.format(c=c, new=new, img=h(c), T1=T1, LEFT=LEFT))


# ---------------------------------------------------------------------------
# the preimage rule
# ---------------------------------------------------------------------------

REFERENCE_MORPHISMS = [
    pytest.param(fx, id=fx.__name__)
    for fx in (triangle_fan, collapse_edge, square_over_edge, five_over_two,
               tetra_pair_over_triangle, cylinder_over_edge)] + [
    pytest.param(lambda: identity_on([(0, 1, 2), (1, 2, 3), (3, 4)]), id="identity_on"),
] + [pytest.param(lambda k=k, m=m: fibred_grid(k, m), id=f"grid-{k}x{m}")
     for k in (1, 2) for m in (1, 2, 3)]


def _same_prismal_set(a, b):
    return a.cells == b.cells and a.maximal == b.maximal and list(a) == list(b)


@pytest.mark.parametrize("make", REFERENCE_MORPHISMS)
def test_sheaves_match_the_scan_over_all_source_cells(make):
    # the preimage rule against a plain scan: every source cell whose image
    # is a face of tau (Sf), and the trivial prisms of those over tau (Pf)
    f = make()
    sf, pf = build_Sf(f), build_Pf(f)
    for tau in f.target.cells:
        preimage = sorted(c for c in f.source.cells
                          if {f.vertex_map[v] for v in c.vertices} <= tau.vset)
        over = [c for c in preimage if f.image(c) == tau]
        assert f.preimage_cells(tau) == preimage
        assert f.cells_over(tau) == over
        assert _same_prismal_set(sf.stalk(tau),
                                 PrismalSet(Prism.from_simplex(c) for c in preimage))
        assert _same_prismal_set(pf.stalk(tau), PrismalSet(pi_prism(f, c) for c in over))
        assert f.maximal_over(tau) == [s for s in over
                                       if not any(s.vset < t.vset for t in over)]


def test_fiber_structure_triangle_fan():
    """The stalk over the open edge T1 is T1 x (union of three products), read
    the same from the trivialized sheaf, the raw preimage and f.fibers."""
    f = triangle_fan()
    pf, sf = build_Pf(f), build_Sf(f)
    ft = {Prism((S(0,), S(2, 3))), Prism((S(0, 1), S(3,))), Prism((S(1,), S(3, 4)))}
    assert {Prism(c.factors[1:]) for c in pf.stalk(T1).maximal
            if c.factors[0] == T1} == ft
    raw = [c.as_simplex() for c in sf.stalk(T1).maximal
           if sf.proj(T1)(c) == Prism.from_simplex(T1)]
    assert {Prism(f.fibers(s)) for s in raw} == ft
    assert {Prism(f.fibers(s)) for s in f.maximal_over(T1)} == ft


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_sheaf_dump_roundtrip():
    f = triangle_fan()
    pf = build_Pf(f)
    dd = sheaf_to_dict(pf)
    back = sheaf_from_dict(dd)
    assert back.stalks.keys() == pf.stalks.keys()
    for tau in pf.stalks:
        assert back.stalk(tau).cells == pf.stalk(tau).cells
    for key, m in pf.specialization.items():
        assert back.specialization[key].cells == m.cells


def test_sheaf_dump_deterministic():
    f = triangle_fan()
    a = sheaf_to_dict(build_Pf(f))
    b = sheaf_to_dict(build_Pf(triangle_fan()))
    assert a == b


def test_psi_degenerate_at_vertex():
    # t concentrated at one vertex lands in that fiber with the mu weights
    f = triangle_fan()
    lam = psi_at(f, S(0, 2, 3), [Q(0), Q(1)], [[Q(1)], [Q(1, 4), Q(3, 4)]])
    assert lam == {0: Q(0), 2: Q(1, 4), 3: Q(3, 4)}


def test_sheaf_dump_matches_golden():
    import json
    from pathlib import Path
    f = triangle_fan()
    data = {"S": sheaf_to_dict(build_Sf(f)), "P": sheaf_to_dict(build_Pf(f))}
    golden = json.loads(
        (Path(__file__).parent / "data" / "triangle_fan_sheaf.json").read_text())
    assert data == golden


def test_blowdown_factorization_unique_on_fixtures():
    # prismal self-maps of the trivialized sheaf commuting with the
    # projection and the blow-down, compatibly with all specializations,
    # reduce to the identity: the uniqueness half of the factorization
    from prismal.mesh import is_prism_face
    for f in [triangle_fan(), square_over_edge()]:
        pf = build_Pf(f)
        psis = psi_morphism(f)
        cand = {}
        for tau in sorted(f.target.cells):
            m, e = psis[tau], pf.proj(tau)
            for c in pf.stalk(tau):
                cand[(tau, c)] = [c2 for c2 in pf.stalk(tau)
                                  if m(c2) == m(c) and e(c2) == e(c)]
        changed = True
        while changed:
            changed = False
            for (tau_f, tau), h in pf.specialization.items():
                for c in pf.stalk(tau):
                    img = h(c)
                    keep = []
                    for c2 in cand[(tau, c)]:
                        himg = h(c2)
                        if img is None:
                            ok = himg is None
                        else:
                            ok = himg is not None and himg in cand[(tau_f, img)]
                        if ok:
                            keep.append(c2)
                    if keep != cand[(tau, c)]:
                        cand[(tau, c)] = keep
                        changed = True
            # a prismal map sends faces of a cell to faces of its image
            for tau in sorted(f.target.cells):
                cells = sorted(pf.stalk(tau))
                for c in cells:
                    for big in cells:
                        if c == big or not is_prism_face(c, big):
                            continue
                        allowed = [c2 for c2 in cand[(tau, c)]
                                   if any(is_prism_face(c2, b2)
                                          for b2 in cand[(tau, big)])]
                        if allowed != cand[(tau, c)]:
                            cand[(tau, c)] = allowed
                            changed = True
                        allowed_big = [b2 for b2 in cand[(tau, big)]
                                       if any(is_prism_face(c2, b2)
                                              for c2 in cand[(tau, c)])]
                        if allowed_big != cand[(tau, big)]:
                            cand[(tau, big)] = allowed_big
                            changed = True
        assert all(opts == [c] for (tau, c), opts in cand.items())


def test_empty_stalks_for_uncovered_base_cells():
    # morphisms need not be surjective; uncovered base cells get empty
    # stalks, and the trivialized characterization reports the failing
    # surjectivity (it presupposes a covering morphism)
    from prismal.mesh import SimplicialComplex, SimplicialMorphism
    delta = SimplicialComplex([S(0, 1)])
    base = SimplicialComplex([S(100, 101), S(101, 102)])
    f = SimplicialMorphism(delta, base, {0: 100, 1: 101})
    sf, pf = build_Sf(f), build_Pf(f)
    assert len(pf.stalk(S(101, 102)).cells) == 0
    assert check_Sf_characterization(sf)[0]
    ok, wit = check_Pf_characterization(pf)
    assert not ok and "not surjective" in wit


def test_loaded_dump_passes_characterizations():
    # vertex-level morphism data survives serialization: the loaded sheaf
    # still passes the structural checks that need it
    f = triangle_fan()
    sf = sheaf_from_dict(sheaf_to_dict(build_Sf(f)))
    pf = sheaf_from_dict(sheaf_to_dict(build_Pf(f)))
    ok_s, wit = check_Sf_characterization(sf)
    assert ok_s, wit
    assert check_Pf_characterization(pf)[0]
