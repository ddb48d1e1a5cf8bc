"""Small triangulated morphisms used by the built-in check universes.

Vertex labelling convention: source vertices are small integers ordered so
that the fiber blocks follow the base order; target vertices are 100+.
"""

from __future__ import annotations

from .mesh import Simplex, SimplicialComplex, SimplicialMorphism


def triangle_fan() -> SimplicialMorphism:
    """Five triangles over a path of two edges; the classic degenerating
    family: three panels over the left edge, two over the right, glued
    along the middle fiber of two segments.
    """
    # 0,1 -> 100 ; 2,3,4 -> 101 ; 5 -> 102
    delta = SimplicialComplex([
        Simplex((0, 2, 3)),   # two vertices over the middle
        Simplex((0, 1, 3)),   # two vertices over the left
        Simplex((1, 3, 4)),
        Simplex((2, 3, 5)),
        Simplex((3, 4, 5)),
    ])
    base = SimplicialComplex([Simplex((100, 101)), Simplex((101, 102))])
    vmap = {0: 100, 1: 100, 2: 101, 3: 101, 4: 101, 5: 102}
    return SimplicialMorphism(delta, base, vmap)


def square_over_edge() -> SimplicialMorphism:
    """One tetrahedron over an edge with two vertices in each fiber; the
    generic fiber is a square."""
    delta = SimplicialComplex([Simplex((0, 1, 2, 3))])
    base = SimplicialComplex([Simplex((100, 101))])
    return SimplicialMorphism(delta, base, {0: 100, 1: 100, 2: 101, 3: 101})


def five_over_two() -> SimplicialMorphism:
    """A 5-simplex over a triangle, two vertices per fiber; the generic
    fiber is a cube."""
    delta = SimplicialComplex([Simplex((0, 1, 2, 3, 4, 5))])
    base = SimplicialComplex([Simplex((100, 101, 102))])
    vmap = {0: 100, 1: 100, 2: 101, 3: 101, 4: 102, 5: 102}
    return SimplicialMorphism(delta, base, vmap)


def tetra_pair_over_triangle() -> SimplicialMorphism:
    """Two tetrahedra over a triangle, glued along a common face; relative
    dimension one over a two-dimensional base."""
    delta = SimplicialComplex([
        Simplex((0, 1, 2, 3)),
        Simplex((1, 4, 2, 3)),
    ])
    base = SimplicialComplex([Simplex((100, 101, 102))])
    vmap = {0: 100, 1: 100, 4: 100, 2: 101, 3: 102}
    return SimplicialMorphism(delta, base, vmap)
