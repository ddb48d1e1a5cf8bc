"""Combinatorial substrate: oriented simplices, prisms, complexes and morphisms.

Vertices are opaque integer labels.  A simplex stores one concrete vertex
ordering; that ordering *is* its orientation, and two orderings represent the
same oriented simplex iff they differ by an even permutation.  A prism is an
ordered product of simplices.  Boundaries are returned as formal integer
chains (dicts cell -> coefficient).

Preimage rule: the maximal cells of f^{-1}(tau) are the nonempty parts
`restriction_to(m, tau)` of the maximal source cells m that are not faces of
one another (`preimage_maximal`); every other preimage query filters them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable


class MeshError(ValueError):
    """Base class for combinatorial errors."""


class DimensionError(MeshError):
    pass


class IncidenceError(MeshError):
    pass


class StructureError(MeshError):
    pass


def perm_sign(perm: Iterable[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    p = list(perm)
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


def reorder_sign(src: tuple, dst: tuple) -> int:
    """Sign of the permutation taking ordering `src` to ordering `dst`.

    Both must enumerate the same underlying set.
    """
    if set(src) != set(dst) or len(src) != len(dst):
        raise IncidenceError(f"orderings {src} and {dst} are not of the same set")
    pos = {v: i for i, v in enumerate(dst)}
    return perm_sign(pos[v] for v in src)


@dataclass(frozen=True, order=True, slots=True)
class Simplex:
    """Oriented simplex: an ordered tuple of distinct vertex labels.

    The empty simplex is allowed and has dimension -1 by convention; it is
    a face of everything and contributes nothing to boundaries.
    """

    vertices: tuple[int, ...]
    vset: frozenset[int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vset = frozenset(self.vertices)
        if len(vset) != len(self.vertices):
            raise StructureError(f"repeated vertex in simplex {self.vertices}")
        object.__setattr__(self, "vset", vset)
        object.__setattr__(self, "_hash", hash((self.vertices,)))  # the generated hash, once

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def sorted(self) -> "Simplex":
        return Simplex(tuple(sorted(self.vertices)))

    def orientation_sign(self, other: "Simplex") -> int:
        """+1/-1 comparing stored orientations of the same vertex set."""
        return reorder_sign(self.vertices, other.vertices)

    def has_face(self, f: "Simplex") -> bool:
        return f.vset <= self.vset

    def subsequence(self, vs: frozenset[int]) -> "Simplex":
        """The face on `vs` oriented by the subsequence order of self."""
        return Simplex(tuple(v for v in self.vertices if v in vs))

    def facet_omitting(self, i: int) -> "Simplex":
        return Simplex(self.vertices[:i] + self.vertices[i + 1:])

    def all_faces(self):
        out = set()
        n = len(self.vertices)
        for k in range(1, n + 1):
            for comb in itertools.combinations(range(n), k):
                out.add(Simplex(tuple(self.vertices[i] for i in comb)))
        return out

    def __repr__(self):
        return f"<{','.join(map(str, self.vertices))}>"


EMPTY_SIMPLEX = Simplex(())


def incidence_number(s: Simplex, f: Simplex) -> int:
    """Incidence number [s; f] of a codimension-1 face.

    The face induced by deleting the vertex at position i carries the sign
    (-1)^i; the result compares f's stored orientation against that one.
    """
    if f.is_empty or f.dim != s.dim - 1:
        raise IncidenceError(f"{f} is not a codim-1 face of {s}")
    missing = s.vset - f.vset
    if len(missing) != 1 or not f.vset <= s.vset:
        raise IncidenceError(f"{f} is not a codim-1 face of {s}")
    (v,) = missing
    i = s.vertices.index(v)
    induced = s.facet_omitting(i)
    return (-1) ** i * induced.orientation_sign(f)


def boundary_chain(s: Simplex) -> dict[Simplex, int]:
    """Oriented boundary as a formal chain of codim-1 faces."""
    if s.is_empty or s.dim < 1:
        raise DimensionError(f"boundary needs dim >= 1, got {s}")
    return {s.facet_omitting(i): (-1) ** i for i in range(len(s.vertices))}


def join(parts: Iterable[Simplex]) -> Simplex:
    """Iterated join: the simplex on the concatenated vertex lists."""
    verts: list[int] = []
    seen: set[int] = set()
    for p in parts:
        for v in p.vertices:
            if v in seen:
                raise StructureError(f"join shares vertex {v}")
            seen.add(v)
            verts.append(v)
    return Simplex(tuple(verts))


@dataclass(frozen=True, order=True)
class Prism:
    """Oriented prism: an ordered product of nonempty oriented simplices."""

    factors: tuple[Simplex, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise StructureError("prism needs at least one factor")
        if any(f.is_empty for f in self.factors):
            raise StructureError("prism factors must be nonempty (use EMPTY_SIMPLEX alone)")
        object.__setattr__(self, "_hash", hash((self.factors,)))  # the generated hash, once

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def vertex_tuples(self):
        return itertools.product(*(f.vertices for f in self.factors))

    def as_simplex(self) -> Simplex:
        if len(self.factors) != 1:
            raise StructureError("only single-factor prisms convert to simplices")
        return self.factors[0]

    @classmethod
    def from_simplex(cls, s: Simplex) -> "Prism":
        return cls((s,))

    def all_faces(self) -> set["Prism"]:
        """All nonempty faces: products of nonempty faces of the factors."""
        per_factor = [sorted(f.all_faces()) for f in self.factors]
        return {Prism(combo) for combo in itertools.product(*per_factor)}

    def __repr__(self):
        return "x".join(map(repr, self.factors))


def prism_boundary(p: Prism) -> dict[Prism, int]:
    """Oriented prism boundary: alternating sum over factor boundaries."""
    if p.dim < 1:
        raise DimensionError(f"boundary needs dim >= 1, got {p}")
    out: dict[Prism, int] = {}
    offset = 0
    for j, fj in enumerate(p.factors):
        if fj.dim >= 1:
            for face, sign in boundary_chain(fj).items():
                q = Prism(p.factors[:j] + (face,) + p.factors[j + 1:])
                c = out.get(q, 0) + (-1) ** offset * sign
                if c:
                    out[q] = c
                else:
                    out.pop(q, None)
        offset += fj.dim
    return out


def prism_incidence(p: Prism, q: Prism) -> int:
    """Incidence number [p; q] for a codim-1 face differing in one factor."""
    if len(p.factors) != len(q.factors):
        raise IncidenceError("factor counts differ")
    diffs = [j for j, (a, b) in enumerate(zip(p.factors, q.factors)) if a != b]
    if len(diffs) != 1:
        raise IncidenceError(f"{q} does not differ from {p} in exactly one factor")
    j = diffs[0]
    sign = (-1) ** sum(p.factors[i].dim for i in range(j))
    return sign * incidence_number(p.factors[j], q.factors[j])


def is_prism_face(q: Prism, p: Prism) -> bool:
    """Face test for aligned products: factor-wise vertex containment."""
    return (len(q.factors) == len(p.factors)
            and all(a.vset <= b.vset for a, b in zip(q.factors, p.factors)))


class PrismalSet:
    """A finite set of prisms closed under taking faces."""

    def __init__(self, generators: Iterable[Prism]):
        gens = sorted(set(generators))
        self.maximal = tuple(
            p for i, p in enumerate(gens)
            if not any(i != j and is_prism_face(p, q) for j, q in enumerate(gens)))
        cells: set[Prism] = set()
        for p in self.maximal:
            cells |= p.all_faces()
        self.cells = frozenset(cells)
        self._sorted = tuple(sorted(cells))

    def __contains__(self, p: Prism) -> bool:
        return p in self.cells

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        return f"PrismalSet({len(self.maximal)} maximal, {len(self.cells)} cells)"


class SimplicialComplex:
    """Finite abstract simplicial complex, stored via its maximal simplices.

    Cells are kept with ascending-vertex orientation; a face-closure index is
    built on construction so membership tests are O(1).  For abstract
    complexes the intersection-is-a-common-face invariant holds by closure
    under subsets.
    """

    def __init__(self, maximal: Iterable[Simplex]):
        maximal = [m if isinstance(m, Simplex) else Simplex(tuple(m)) for m in maximal]
        if not maximal:
            raise StructureError("complex needs at least one simplex")
        sets = [m.vset for m in maximal]
        keep = []
        for i, s in enumerate(sets):
            if any(i != j and s < t for j, t in enumerate(sets)) :
                continue
            keep.append(maximal[i].sorted())
        self.maximal = tuple(sorted(set(keep)))
        index: dict[frozenset, Simplex] = {}
        for m in self.maximal:
            for f in m.all_faces():
                index[f.vset] = f.sorted()
        self._index = index
        self.cells = frozenset(index.values())
        self.vertices = tuple(sorted({v for c in self.maximal for v in c.vertices}))

    def __contains__(self, s: Simplex) -> bool:
        return s.vset in self._index

    def cell(self, vs: Iterable[int]) -> Simplex:
        key = frozenset(vs)
        if key not in self._index:
            raise StructureError(f"no cell on vertices {sorted(key)}")
        return self._index[key]

    def __iter__(self):
        return iter(sorted(self.cells))

    def __repr__(self):
        return f"SimplicialComplex({len(self.maximal)} maximal, {len(self.cells)} cells)"


class SimplicialMorphism:
    """Vertex map between complexes, linear in barycentric coordinates."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_map: dict[int, int]):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.validate()

    def validate(self):
        targets = set(self.target.vertices)
        for v in self.source.vertices:
            if v not in self.vertex_map:
                raise StructureError(f"vertex {v} has no image")
            if self.vertex_map[v] not in targets:
                raise StructureError(f"image of vertex {v} is not a target vertex")
        for m in self.source.maximal:
            img = frozenset(self.vertex_map[v] for v in m.vertices)
            if img not in self.target._index:
                raise StructureError(
                    f"image of {m} does not span a simplex of the target")

    def image(self, s: Simplex) -> Simplex:
        """Image cell, with the target's canonical (ascending) orientation."""
        if s.is_empty:
            return EMPTY_SIMPLEX
        return self.target.cell({self.vertex_map[v] for v in s.vertices})

    def fiber(self, s: Simplex, y: int) -> Simplex:
        """Subsimplex of `s` over target vertex y, in subsequence order."""
        return Simplex(tuple(v for v in s.vertices if self.vertex_map[v] == y))

    def fibers(self, s: Simplex) -> tuple[Simplex, ...]:
        """Per-vertex fibers of s over its image, ordered like the image."""
        tau = self.image(s)
        return tuple(self.fiber(s, y) for y in tau.vertices)

    def grouping_sign(self, s: Simplex) -> int:
        """Sign of the permutation from s's order to fiber-grouped order."""
        grouped = [v for f in self.fibers(s) for v in f.vertices]
        return reorder_sign(s.vertices, tuple(grouped))

    def preimage_maximal(self, tau: Simplex) -> list[Simplex]:
        """The maximal cells of f^{-1}(tau), sorted: the preimage rule."""
        parts = {self.restriction_to(m, tau) for m in self.source.maximal} - {EMPTY_SIMPLEX}
        return sorted(p for p in parts if not any(p.vset < q.vset for q in parts))

    def preimage_cells(self, tau: Simplex) -> list[Simplex]:
        """All source cells whose image is a face of tau, sorted."""
        return sorted(set().union(*(p.all_faces() for p in self.preimage_maximal(tau))))

    def cells_over(self, tau: Simplex) -> list[Simplex]:
        """The source cells whose image is exactly tau, sorted."""
        return [c for c in self.preimage_cells(tau) if self.image(c) == tau]

    def maximal_over(self, tau: Simplex) -> list[Simplex]:
        """The maximal source cells with image exactly tau, sorted."""
        return [p for p in self.preimage_maximal(tau) if self.image(p) == tau]

    def rel_dim(self, s: Simplex) -> int:
        """Relative dimension dim s - dim f(s) of a source cell."""
        return len(s.vertices) - len(self.image(s).vertices)

    def restriction_to(self, s: Simplex, tau: Simplex) -> Simplex:
        """s ∩ f^{-1}(tau): vertices of s mapping into tau (may be empty)."""
        return Simplex(tuple(v for v in s.vertices if self.vertex_map[v] in tau.vset))

