import itertools

import pytest
from hypothesis import given, settings, strategies as st

from prismal.mesh import (EMPTY_SIMPLEX, IncidenceError, Prism, PrismalSet,
                          Simplex, SimplicialComplex, SimplicialMorphism, StructureError,
                          boundary_chain, incidence_number, join,
                          prism_boundary, prism_incidence)
from _support import chain_boundary, reversed_orientation


def S(*vs):
    return Simplex(tuple(vs))


def test_faces_enumeration():
    # every nonempty face, oriented by the subsequence order of the simplex
    assert S(2, 0, 1).all_faces() == {S(2, 0, 1), S(2, 0), S(2, 1), S(0, 1),
                                      S(2,), S(0,), S(1,)}
    assert S(0, 1).all_faces() == {S(0, 1), S(0,), S(1,)}
    assert EMPTY_SIMPLEX.all_faces() == set()


def test_faces_cardinality():
    from math import comb
    for p in range(1, 5):
        s = S(*range(p + 1))
        all_faces = s.all_faces()
        for k in range(0, p + 1):
            assert len({f for f in all_faces if f.dim == k}) == comb(p + 1, k + 1)


def test_empty_simplex_conventions():
    e = Simplex(())
    assert e.dim == -1 and PrismalSet([]).dim == -1
    assert S(0, 1).has_face(e)


def test_incidence_edge():
    assert incidence_number(S(0, 1), S(1,)) == 1
    assert incidence_number(S(0, 1), S(0,)) == -1


def test_incidence_opposite_last_vertex():
    # deleting the last vertex in subsequence order carries (-1)^p
    for p in range(1, 5):
        s = S(*range(p + 1))
        assert incidence_number(s, S(*range(p))) == (-1) ** p


def test_incidence_by_parity():
    s = S(0, 1, 2)
    # (2,0) is (0,2) with a transposition
    assert incidence_number(s, S(2, 0)) == -incidence_number(s, S(0, 2))
    assert incidence_number(s, S(0, 2)) == -1


def test_incidence_errors():
    with pytest.raises(IncidenceError):
        incidence_number(S(0, 1, 2), S(0,))
    with pytest.raises(IncidenceError):
        incidence_number(S(0, 1, 2), S(0, 3))


def test_empty_simplex_is_no_codim1_face():
    # dim 0 - 1 = -1 is the empty simplex's dimension: the guard must still
    # refuse it, as face and as cell
    with pytest.raises(IncidenceError):
        incidence_number(S(0), EMPTY_SIMPLEX)
    with pytest.raises(IncidenceError):
        incidence_number(EMPTY_SIMPLEX, EMPTY_SIMPLEX)


def test_incidence_orientation_flip():
    s = S(0, 1, 2, 3)
    for f in [S(0, 1, 2), S(0, 1, 3), S(1, 2, 3)]:
        base = incidence_number(s, f)
        assert incidence_number(s, reversed_orientation(f)) == -base
        assert incidence_number(reversed_orientation(s), f) == -base


def test_boundary_chain():
    assert boundary_chain(S(0, 1)) == {S(1,): 1, S(0,): -1}
    assert boundary_chain(S(0, 1, 2)) == {S(1, 2): 1, S(0, 2): -1, S(0, 1): 1}


def test_boundary_squared_simplices():
    for p in range(2, 5):
        s = S(*range(p + 1))
        assert chain_boundary(boundary_chain(s), boundary_chain) == {}


def test_boundary_coefficients_are_incidence_numbers():
    for p in range(1, 5):
        s = S(*range(p + 1))
        for f, c in boundary_chain(s).items():
            assert incidence_number(s, f) == c


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_boundary_squared_random_orientation(perm):
    s = Simplex(tuple(perm))
    assert chain_boundary(boundary_chain(s), boundary_chain) == {}


def _prism_universe():
    out = []
    for k in range(1, 4):
        for dims in itertools.product((1, 2), repeat=k):
            factors, v = [], 0
            for dd in dims:
                factors.append(S(*range(v, v + dd + 1)))
                v += dd + 1
            out.append(Prism(tuple(factors)))
    return out


def test_prism_boundary_two_factor_signs():
    p = Prism((S(0, 1), S(2, 3)))
    b = prism_boundary(p)
    # d(s0 x s1) = ds0 x s1 + (-1)^{|s0|} s0 x ds1
    assert b[Prism((S(1,), S(2, 3)))] == 1
    assert b[Prism((S(0,), S(2, 3)))] == -1
    assert b[Prism((S(0, 1), S(3,)))] == -1
    assert b[Prism((S(0, 1), S(2,)))] == 1


def test_single_factor_prism_boundary_matches_simplex():
    s = S(0, 1, 2)
    b = prism_boundary(Prism((s,)))
    assert {q.as_simplex(): c for q, c in b.items()} == boundary_chain(s)


def test_prism_boundary_squared_universe():
    for p in _prism_universe():
        if p.dim >= 2:
            assert chain_boundary(prism_boundary(p), prism_boundary) == {}


def test_prism_incidence_matches_boundary():
    for p in _prism_universe():
        if p.dim < 1:
            continue
        for q, c in prism_boundary(p).items():
            assert prism_incidence(p, q) == c


def test_join_basics():
    assert join([S(0,), S(1,)]) == S(0, 1)
    j = join([S(0, 1), S(2,)])
    assert j == S(0, 1, 2) and j.dim == 2
    with pytest.raises(StructureError):
        join([S(0, 1), S(1, 2)])


def test_join_associative_in_stored_order():
    a, b, c = S(0, 1), S(2,), S(3, 4)
    assert join([join([a, b]), c]) == join([a, join([b, c])]) == join([a, b, c])


def test_join_dimension_split():
    # a simplex splits as the join of a face and its opposite face
    s = S(0, 1, 2, 3)
    f1, f2 = S(0, 1), S(2, 3)
    assert join([f1, f2]) == s
    assert f1.dim + f2.dim + 1 == s.dim


def test_complex_closure_and_membership():
    cx = SimplicialComplex([S(0, 1, 2), S(2, 3)])
    assert S(0, 1) in cx and S(3,) in cx and S(0, 3) not in cx
    assert cx.maximal == (S(0, 1, 2), S(2, 3))
    assert cx.cell([1, 0]) == S(0, 1)


def test_morphism_validation():
    cx = SimplicialComplex([S(0, 1, 2)])
    base = SimplicialComplex([S(100, 101)])
    with pytest.raises(StructureError):
        SimplicialMorphism(cx, base, {0: 100, 1: 101})  # missing vertex 2
    f = SimplicialMorphism(cx, base, {0: 100, 1: 101, 2: 101})
    assert f.image(S(0, 1, 2)) == S(100, 101)
    assert f.fibers(S(0, 1, 2)) == (S(0,), S(1, 2))


def test_morphism_grouping_sign():
    cx = SimplicialComplex([S(0, 1, 2)])
    base = SimplicialComplex([S(100, 101)])
    f = SimplicialMorphism(cx, base, {0: 101, 1: 100, 2: 101})
    # grouped order is (1, 0, 2): one transposition from (0, 1, 2)
    assert f.grouping_sign(S(0, 1, 2)) == -1


def test_simplex_vertex_set_is_built_once():
    # vset is a field set at construction; order, equality, hash and repr
    # still see the vertex tuple only
    s = S(2, 0, 1)
    assert s.vset == frozenset({0, 1, 2}) and s.vset is s.vset
    assert repr(s) == "<2,0,1>"
    assert s == S(2, 0, 1) and s != S(0, 1, 2) and hash(s) == hash(S(2, 0, 1))
    assert sorted([S(1), S(0, 2), S(0, 1)]) == [S(0, 1), S(0, 2), S(1)]


def test_cell_hashes_are_stored_and_keep_the_generated_values():
    # the values a frozen dataclass generates from its compared fields, so
    # no set or dict of cells changes its order
    s, t = S(2, 0, 1), S(5, 3)
    p = Prism((s, t))
    assert hash(s) == hash(((2, 0, 1),)) and hash(t) == hash(((5, 3),))
    assert hash(p) == hash(((((2, 0, 1),), ((5, 3),)),))
    assert hash(p) == hash((p.factors,))
    assert s._hash == hash(s) and p._hash == hash(p)
    assert p == Prism((S(2, 0, 1), S(5, 3))) and p != Prism((t, s))
    assert repr(p) == "<2,0,1>x<5,3>" and sorted([Prism((t,)), p]) == [p, Prism((t,))]


def test_prismal_set_maximality_filter():
    ps = PrismalSet([Prism((S(0, 1),)), Prism((S(0,),))])
    assert ps.maximal == (Prism((S(0, 1),)),)
    assert Prism((S(1,),)) in ps


def test_prism_incidence_factor_position_signs():
    # first factor carries no prefix sign; later factors carry the
    # accumulated dimension parity
    p = Prism((S(0, 1), S(2, 3, 4)))
    assert prism_incidence(p, Prism((S(1,), S(2, 3, 4)))) == \
        incidence_number(S(0, 1), S(1,))
    q = Prism((S(0, 1), S(2, 3)))
    assert prism_incidence(p, q) == (-1) ** 1 * incidence_number(S(2, 3, 4), S(2, 3))
