"""Prismal sheaves over a simplicial base.

A prismal sheaf assigns to each closed base simplex a prismal set with a
projection to that simplex, plus specialization maps to the stalks over
faces.  The two constructions attached to a simplicial morphism f are the
raw-preimage sheaf (stalks f^{-1}(tau), simplices) and the trivialized
sheaf whose stalks are products tau x sigma_0 x ... x sigma_s, one fiber
slot per vertex of tau.

Both are generated over tau by the maximal cells of f^{-1}(tau) (the
preimage rule of `mesh`), the trivialized one by the trivial prisms of those
over tau exactly.  One builder, `_build_sheaf`, makes both sheaves, and
`_cell_morphism` assembles every cell-level map, `psi_morphism`'s too.

Cells of a trivialized stalk keep a slot for every vertex of tau; the base
face of a cell is its first factor.  Specialization drops the slots of the
vertices that are lost and intersects the base factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .mesh import Prism, PrismalSet, Simplex, SimplicialComplex, SimplicialMorphism, join
from .forms import _W, CoordMap, Poly, pi_context, simplex_context


@dataclass
class CellMorphism:
    """Cell-level prismal morphism with optional vertex-level data.

    `cells` maps each source prism to its image prism, or to None when the
    image is empty.  `vertex_images` optionally records, per source cell, a
    partial map from vertex tuples of the cell to vertex tuples of the
    image (partial because specializations collapse join directions).
    """

    cells: dict[Prism, Prism | None]
    vertex_images: dict[Prism, dict[tuple, tuple]] = field(default_factory=dict)

    def __call__(self, p: Prism) -> Prism | None:
        return self.cells[p]

    def is_surjective_onto(self, cells: Iterable[Prism]) -> bool:
        return set(cells) <= set(self.cells.values())


@dataclass
class PrismalSheaf:
    """Stalks, projections and specializations over a simplicial base."""

    base: SimplicialComplex
    stalks: dict[Simplex, PrismalSet]
    projection: dict[Simplex, CellMorphism]
    specialization: dict[tuple[Simplex, Simplex], CellMorphism]

    def stalk(self, tau: Simplex) -> PrismalSet:
        return self.stalks[tau.sorted()]

    def proj(self, tau: Simplex) -> CellMorphism:
        return self.projection[tau.sorted()]

    def spec(self, tau_face: Simplex, tau: Simplex) -> CellMorphism:
        return self.specialization[(tau_face.sorted(), tau.sorted())]

    def face_pairs(self):
        """All ordered pairs (tau', tau) with tau' a proper face of tau."""
        for tau in self.base.cells:
            for tau_f in self.base.cells:
                if tau_f != tau and tau_f.vset < tau.vset:
                    yield tau_f, tau



# ---------------------------------------------------------------------------
# The two sheaves of a simplicial morphism
# ---------------------------------------------------------------------------

# A cell's image, or None when it is empty, with its vertex map.
CellImage = tuple[Prism | None, dict[tuple, tuple]]


def _cell_morphism(cells: Iterable[Prism], image: Callable[[Prism], CellImage]
                   ) -> CellMorphism:
    """The cell-level morphism sending each cell c to image(c)."""
    out = CellMorphism({})
    for c in cells:
        img, vmap = image(c)
        out.cells[c] = img
        if img is not None:
            out.vertex_images[c] = vmap
    return out


def _build_sheaf(f: SimplicialMorphism, generators: Callable, project: Callable,
                 specialize: Callable) -> PrismalSheaf:
    """The sheaf of f whose stalk over tau is generated by generators(tau);
    project(c, tau) and specialize(c, tau, tau_face) map each cell c."""
    stalks = {tau: PrismalSet(generators(tau)) for tau in f.target.cells}
    proj = {tau: _cell_morphism(stalk, lambda c: project(c, tau))
            for tau, stalk in stalks.items()}
    sheaf = PrismalSheaf(f.target, stalks, proj, {})
    sheaf.specialization = {
        (tau_f, tau): _cell_morphism(stalks[tau], lambda c: specialize(c, tau, tau_f))
        for tau_f, tau in sheaf.face_pairs()}
    return sheaf


def build_Sf(f: SimplicialMorphism) -> PrismalSheaf:
    """Raw-preimage sheaf: stalk over tau is f^{-1}(tau), cells simplices."""
    def project(c: Prism, tau: Simplex) -> CellImage:
        s = c.as_simplex()
        return Prism.from_simplex(f.image(s)), {(v,): (f.vertex_map[v],) for v in s.vertices}

    def specialize(c: Prism, tau: Simplex, tau_f: Simplex) -> CellImage:
        s = f.restriction_to(c.as_simplex(), tau_f)
        if s.is_empty:
            return None, {}
        return Prism.from_simplex(s), {(v,): (v,) for v in s.vertices}

    return _build_sheaf(
        f, lambda tau: [Prism.from_simplex(p) for p in f.preimage_maximal(tau)],
        project, specialize)


def pi_prism(f: SimplicialMorphism, sigma: Simplex) -> Prism:
    """The trivial prism tau x sigma_0 x ... x sigma_s attached to sigma."""
    tau = f.image(sigma)
    return Prism((tau,) + f.fibers(sigma))


def _specialize_trivial(cell: Prism, tau: Simplex, tau_f: Simplex) -> CellImage:
    """Drop the fiber slots of lost vertices; intersect the base factor."""
    new_base = cell.factors[0].subsequence(tau_f.vset)
    if new_base.is_empty:
        return None, {}
    keep = [j for j, y in enumerate(tau.vertices) if y in tau_f.vset]
    return (Prism((new_base,) + tuple(cell.factors[1 + j] for j in keep)),
            {vt: (vt[0],) + tuple(vt[1 + j] for j in keep)
             for vt in cell.vertex_tuples if vt[0] in tau_f.vset})


def build_Pf(f: SimplicialMorphism) -> PrismalSheaf:
    """Trivialized sheaf: stalks are unions of prisms tau x prod sigma_j."""
    return _build_sheaf(
        f, lambda tau: [pi_prism(f, s) for s in f.maximal_over(tau)],
        lambda c, tau: (Prism.from_simplex(c.factors[0]),
                        {vt: (vt[0],) for vt in c.vertex_tuples}),
        _specialize_trivial)


def _blow_down(c: Prism, tau: Simplex) -> Simplex:
    """The raw cell of a trivialized cell over tau: the join of its fiber
    factors over the vertices of its base factor."""
    return join(c.factors[1 + tau.vertices.index(y)] for y in c.factors[0].vertices).sorted()


def psi_morphism(f: SimplicialMorphism) -> dict[Simplex, CellMorphism]:
    """Per-base-simplex blow-down from the trivialized sheaf to the raw one.

    On a cell tau'' x prod sigma_j it joins the fiber factors over the
    vertices of tau''; on vertex tuples it picks the fiber vertex over the
    base vertex.
    """
    return {tau: _cell_morphism(stalk, lambda c: (
                Prism.from_simplex(_blow_down(c, tau)),
                {vt: (vt[1 + tau.vertices.index(vt[0])],) for vt in c.vertex_tuples}))
            for tau, stalk in build_Pf(f).stalks.items()}


# ---------------------------------------------------------------------------
# Coordinate charts
# ---------------------------------------------------------------------------

def psi_coordinate_map(f: SimplicialMorphism, sigma: Simplex) -> CoordMap:
    """The substitution lambda_i = t_j mu_{j,i} as a polynomial map from the
    trivial-prism context onto the simplex context."""
    tau = f.image(sigma)
    fibers = f.fibers(sigma)
    pctx = pi_context(tau, fibers)
    sctx = simplex_context(sigma)
    images: dict[str, Poly] = {}
    for j, (y, fib) in enumerate(zip(tau.vertices, fibers)):
        tj = 1 << _W * pctx.var("t", y)  # the key of t_j; a product of monomials adds keys
        for v in fib.vertices:
            images[f"l:{v}"] = Poly._make(pctx, {tj + (1 << _W * pctx.var(f"m:{j}", v)): 1})
    return CoordMap.build(pctx, sctx, images)


# ---------------------------------------------------------------------------
# Structural characterizations
# ---------------------------------------------------------------------------

def check_Sf_characterization(F: PrismalSheaf):
    """Decide whether a sheaf is a raw-preimage sheaf.

    Returns (ok, witness).  Conditions: every cell is a simplex, and each
    specialization is surjective and restricts each cell isomorphically onto
    the part of the cell sitting over the smaller base simplex.
    """
    for tau, stalk in F.stalks.items():
        for c in stalk:
            if len(c.factors) != 1:
                return False, f"cell {c} of stalk {tau} is not a simplex"
    for tau_f, tau in F.face_pairs():
        h = F.spec(tau_f, tau)
        if not h.is_surjective_onto(F.stalk(tau_f).cells):
            return False, f"specialization {tau}->{tau_f} not surjective"
        e = F.proj(tau)
        for c in F.stalk(tau):
            img = h(c)
            evmap = e.vertex_images.get(c, {})
            over = [vt for vt in c.vertex_tuples
                    if evmap.get(vt, (None,))[0] in tau_f.vset]
            if img is None:
                if over:
                    return False, f"{c}: empty image but {len(over)} vertices over {tau_f}"
                continue
            hvmap = h.vertex_images.get(c, {})
            images = [hvmap.get(vt) for vt in over]
            if None in images or len(set(images)) != len(over):
                return False, f"{c}: specialization not injective over {tau_f}"
            if set(images) != set(img.vertex_tuples):
                return False, f"{c}: specialization image differs from {img}"
    return True, None


def check_Pf_characterization(F: PrismalSheaf):
    """Decide whether a sheaf is a trivialized sheaf.

    Returns (ok, witness).  Conditions: every maximal cell over tau is tau
    times one fiber slot per vertex of tau, and each specialization is
    surjective and sends every maximal cell to a cell whose fiber factors
    are among its own.
    """
    for tau, stalk in F.stalks.items():
        s = tau.dim
        for c in stalk.maximal:
            if len(c.factors) != s + 2:
                return False, f"cell {c} over {tau} is not tau x {s + 1} fiber slots"
            if c.factors[0].vset != tau.vset:
                return False, f"cell {c} over {tau} does not have base factor {tau}"
    for tau_f, tau in F.face_pairs():
        h = F.spec(tau_f, tau)
        if not h.is_surjective_onto(F.stalk(tau_f).cells):
            return False, f"specialization {tau}->{tau_f} not surjective"
        for c in F.stalk(tau).maximal:
            img = h(c)
            if img is None:
                return False, f"maximal cell {c} dies under {tau}->{tau_f}"
            leftover = list(c.factors[1:])
            for g in img.factors[1:]:
                if g in leftover:
                    leftover.remove(g)
                else:
                    return False, f"{c}: factor {g} of {img} is not a factor"
    return True, None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _cell_key(p: Prism) -> str:
    return "|".join(",".join(map(str, f.vertices)) for f in p.factors)


def _tau_key(tau: Simplex) -> str:
    return ",".join(map(str, tau.vertices))


def _memo_key(keys: dict[Prism, str], c: Prism) -> str:
    """The cell's key through a dump-wide memo, so each cell is keyed once."""
    k = keys.get(c)
    if k is None:
        k = keys[c] = _cell_key(c)
    return k


def _morphism_to_dict(m: CellMorphism, keys: dict[Prism, str]) -> dict:
    out = {"cells": {}, "vertices": {}}
    for c in sorted(m.cells):
        img = m.cells[c]
        ck = _memo_key(keys, c)
        out["cells"][ck] = None if img is None else _memo_key(keys, img)
        vm = m.vertex_images.get(c)
        if vm:
            out["vertices"][ck] = {
                ",".join(map(str, k)): ",".join(map(str, v))
                for k, v in sorted(vm.items())}
    return out


def sheaf_to_dict(F: PrismalSheaf) -> dict:
    keys: dict[Prism, str] = {}
    return {
        "base": {"maximal_simplices": [list(m.vertices) for m in F.base.maximal]},
        "stalks": {
            _tau_key(tau): sorted(_memo_key(keys, c) for c in F.stalks[tau])
            for tau in sorted(F.stalks)},
        "projection": {
            _tau_key(tau): _morphism_to_dict(F.projection[tau], keys)
            for tau in sorted(F.projection)},
        "specializations": {
            f"{_tau_key(tf)}<{_tau_key(t)}": _morphism_to_dict(m, keys)
            for (tf, t), m in sorted(F.specialization.items())},
    }

