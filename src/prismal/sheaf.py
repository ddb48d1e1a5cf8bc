"""Prismal sheaves over a simplicial base.

A prismal sheaf assigns to each closed base simplex a prismal set with a
projection to that simplex, plus specialization maps to the stalks over
faces.  The two constructions attached to a simplicial morphism f are the
raw-preimage sheaf (stalks f^{-1}(tau), simplices) and the trivialized
sheaf whose stalks are products tau x sigma_0 x ... x sigma_s, one fiber
slot per vertex of tau.

Cells of a trivialized stalk keep a slot for every vertex of tau; the base
face of a cell is its first factor.  Specialization drops the slots of the
vertices that are lost and intersects the base factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .mesh import (MeshError, Prism, PrismalSet, Simplex, SimplicialComplex,
                   SimplicialMorphism, join)
from .forms import CoordMap, Poly, pi_context, simplex_context

Q = Fraction


class SheafError(MeshError):
    pass


class BoundaryFiberError(SheafError):
    """Raised when a point has no interior image and a fiber chart fails."""


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

    def image_cells(self) -> set[Prism]:
        return {q for q in self.cells.values() if q is not None}

    def is_surjective_onto(self, cells: Iterable[Prism]) -> bool:
        return set(cells) <= self.image_cells()

    def compose(self, earlier: "CellMorphism") -> "CellMorphism":
        """self o earlier (earlier applied first)."""
        out: dict[Prism, Prism | None] = {}
        for p, q in earlier.cells.items():
            out[p] = None if q is None else self.cells[q]
        return CellMorphism(out)


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

    def dim_rel(self, cell: Prism, tau: Simplex) -> int:
        img = self.proj(tau)(cell)
        return cell.dim - (img.dim if img is not None else 0)


@dataclass(frozen=True)
class FiberType:
    """Product decomposition of a stalk over the open base simplex."""

    tau: Simplex
    pieces: frozenset[Prism]


# ---------------------------------------------------------------------------
# The two sheaves of a simplicial morphism
# ---------------------------------------------------------------------------

def build_Sf(f: SimplicialMorphism) -> PrismalSheaf:
    """Raw-preimage sheaf: stalk over tau is f^{-1}(tau), cells simplices."""
    stalks: dict[Simplex, PrismalSet] = {}
    proj: dict[Simplex, CellMorphism] = {}
    spec: dict[tuple[Simplex, Simplex], CellMorphism] = {}
    for tau in f.target.cells:
        cells = [Prism.from_simplex(s) for s in f.preimage_cells(tau)]
        stalks[tau] = PrismalSet(cells)
        pcells: dict[Prism, Prism | None] = {}
        pverts: dict[Prism, dict[tuple, tuple]] = {}
        for c in stalks[tau]:
            s = c.as_simplex()
            pcells[c] = Prism.from_simplex(f.image(s))
            pverts[c] = {(v,): (f.vertex_map[v],) for v in s.vertices}
        proj[tau] = CellMorphism(pcells, pverts)
    sheaf = PrismalSheaf(f.target, stalks, proj, {})
    for tau_f, tau in sheaf.face_pairs():
        cells: dict[Prism, Prism | None] = {}
        verts: dict[Prism, dict[tuple, tuple]] = {}
        for c in stalks[tau]:
            s = c.as_simplex()
            s_res = f.restriction_to(s, tau_f)
            if s_res.is_empty:
                cells[c] = None
                continue
            cells[c] = Prism.from_simplex(s_res)
            verts[c] = {(v,): (v,) for v in s_res.vertices}
        spec[(tau_f, tau)] = CellMorphism(cells, verts)
    sheaf.specialization = spec
    return sheaf


def pi_prism(f: SimplicialMorphism, sigma: Simplex) -> Prism:
    """The trivial prism tau x sigma_0 x ... x sigma_s attached to sigma."""
    tau = f.image(sigma)
    return Prism((tau,) + f.fibers(sigma))


def _specialize_trivial(cell: Prism, tau: Simplex, tau_f: Simplex) -> Prism | None:
    """Drop the fiber slots of lost vertices; intersect the base factor."""
    base = cell.factors[0]
    new_base = Simplex(tuple(v for v in base.vertices if v in tau_f.vset))
    if new_base.is_empty:
        return None
    keep = [j for j, y in enumerate(tau.vertices) if y in tau_f.vset]
    return Prism((new_base,) + tuple(cell.factors[1 + j] for j in keep))


def build_Pf(f: SimplicialMorphism) -> PrismalSheaf:
    """Trivialized sheaf: stalks are unions of prisms tau x prod sigma_j."""
    stalks: dict[Simplex, PrismalSet] = {}
    proj: dict[Simplex, CellMorphism] = {}
    spec: dict[tuple[Simplex, Simplex], CellMorphism] = {}
    for tau in f.target.cells:
        tops = [pi_prism(f, s) for s in f.cells_over(tau)]
        if not tops:
            stalks[tau] = PrismalSet([])
            proj[tau] = CellMorphism({})
            continue
        stalks[tau] = PrismalSet(tops)
        pcells: dict[Prism, Prism | None] = {}
        pverts: dict[Prism, dict[tuple, tuple]] = {}
        for c in stalks[tau]:
            pcells[c] = Prism.from_simplex(c.factors[0])
            pverts[c] = {vt: (vt[0],) for vt in c.vertex_tuples}
        proj[tau] = CellMorphism(pcells, pverts)
    sheaf = PrismalSheaf(f.target, stalks, proj, {})
    for tau_f, tau in sheaf.face_pairs():
        cells: dict[Prism, Prism | None] = {}
        verts: dict[Prism, dict[tuple, tuple]] = {}
        keep = [j for j, y in enumerate(tau.vertices) if y in tau_f.vset]
        for c in stalks[tau]:
            img = _specialize_trivial(c, tau, tau_f)
            cells[c] = img
            if img is None:
                continue
            vmap: dict[tuple, tuple] = {}
            for vt in c.vertex_tuples:
                if vt[0] in tau_f.vset:
                    vmap[vt] = (vt[0],) + tuple(vt[1 + j] for j in keep)
            verts[c] = vmap
        spec[(tau_f, tau)] = CellMorphism(cells, verts)
    sheaf.specialization = spec
    return sheaf


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
    pf = build_Pf(f)
    out: dict[Simplex, CellMorphism] = {}
    for tau in f.target.cells:
        cells: dict[Prism, Prism | None] = {}
        verts: dict[Prism, dict[tuple, tuple]] = {}
        for c in pf.stalk(tau):
            cells[c] = Prism.from_simplex(_blow_down(c, tau))
            verts[c] = {vt: (vt[1 + tau.vertices.index(vt[0])],)
                        for vt in c.vertex_tuples}
        out[tau] = CellMorphism(cells, verts)
    return out


# ---------------------------------------------------------------------------
# Coordinate charts
# ---------------------------------------------------------------------------

def theta_sigma(f: SimplicialMorphism, sigma: Simplex, lam: dict[int, Fraction]):
    """Fiberwise chart of a point of sigma with interior image.

    Returns (t, mus): the base barycentric coordinates t_j = sum of the
    fiber block, and per fiber the renormalized coordinates.  Raises
    BoundaryFiberError when some block sum vanishes.
    """
    tau = f.image(sigma)
    fibers = f.fibers(sigma)
    t = []
    mus = []
    for fib in fibers:
        tj = sum((Q(lam.get(v, 0)) for v in fib.vertices), Q(0))
        t.append(tj)
    total = sum(t)
    if total != 1:
        raise SheafError(f"barycentric coordinates sum to {total}, expected 1")
    for fib, tj in zip(fibers, t):
        if tj == 0:
            raise BoundaryFiberError(
                f"point lies over the boundary of {tau}: zero mass on {fib}")
        mus.append([Q(lam.get(v, 0)) / tj for v in fib.vertices])
    return t, mus


def psi_sigma(f: SimplicialMorphism, sigma: Simplex, t, mus) -> dict[int, Fraction]:
    """Inverse chart: lambda_i = t_j * mu_{j,i}; the total is automatically 1."""
    fibers = f.fibers(sigma)
    lam: dict[int, Fraction] = {}
    for fib, tj, mu in zip(fibers, t, mus):
        for v, m in zip(fib.vertices, mu):
            lam[v] = Q(tj) * Q(m)
    return lam


def psi_coordinate_map(f: SimplicialMorphism, sigma: Simplex) -> CoordMap:
    """The substitution lambda_i = t_j mu_{j,i} as a polynomial map from the
    trivial-prism context onto the simplex context."""
    tau = f.image(sigma)
    fibers = f.fibers(sigma)
    pctx = pi_context(tau, fibers)
    sctx = simplex_context(sigma)
    images: dict[str, Poly] = {}
    for j, (y, fib) in enumerate(zip(tau.vertices, fibers)):
        tj = Poly.variable(pctx, pctx.var("t", y))
        for v in fib.vertices:
            images[f"l:{v}"] = tj * Poly.variable(pctx, pctx.var(f"m:{j}", v))
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
    """Decide whether a sheaf is a trivialized sheaf; on success also return
    the reconstructed raw stalks (joins of the fiber factors)."""
    for tau, stalk in F.stalks.items():
        s = tau.dim
        for c in stalk.maximal:
            if len(c.factors) != s + 2:
                return False, f"cell {c} over {tau} is not tau x {s + 1} fiber slots", None
            if c.factors[0].vset != tau.vset:
                return False, f"cell {c} over {tau} does not have base factor {tau}", None
    for tau_f, tau in F.face_pairs():
        h = F.spec(tau_f, tau)
        if not h.is_surjective_onto(F.stalk(tau_f).cells):
            return False, f"specialization {tau}->{tau_f} not surjective", None
        for c in F.stalk(tau).maximal:
            img = h(c)
            if img is None:
                return False, f"maximal cell {c} dies under {tau}->{tau_f}", None
            leftover = list(c.factors[1:])
            for g in img.factors[1:]:
                if g in leftover:
                    leftover.remove(g)
                else:
                    return False, f"{c}: factor {g} of {img} is not a factor", None
    recon = {tau: {_blow_down(c, tau) for c in stalk.maximal}
             for tau, stalk in F.stalks.items()}
    return True, None, recon


def is_equidimensional(F: PrismalSheaf, cell: Prism, tau: Simplex, tau_f: Simplex) -> bool:
    """Relative dimension does not drop under specialization to tau_f."""
    h = F.spec(tau_f, tau)
    img = h(cell)
    if img is None:
        return False
    return F.dim_rel(img, tau_f) == F.dim_rel(cell, tau)


def fiber_structure(F: PrismalSheaf, tau: Simplex) -> FiberType:
    """Decompose the stalk over the open simplex as tau x (union of products).

    Works for trivial stalks (drop the base factor) and for simplex stalks
    with vertex-level projection data (split by base vertex)."""
    pieces: set[Prism] = set()
    e = F.proj(tau)
    for c in F.stalk(tau).maximal:
        img = e(c)
        if img is None or img.factors[0].vset != tau.vset:
            continue
        if len(c.factors) == tau.dim + 2 and c.factors[0].vset == tau.vset:
            pieces.add(Prism(c.factors[1:]))
            continue
        if len(c.factors) == 1:
            s = c.as_simplex()
            vmap = e.vertex_images.get(c, {})
            blocks = []
            for y in tau.vertices:
                block = tuple(v for v in s.vertices if vmap.get((v,), (None,))[0] == y)
                blocks.append(Simplex(block))
            pieces.add(Prism(tuple(blocks)))
            continue
        raise SheafError(f"cannot decompose cell {c} over {tau}")
    return FiberType(tau, frozenset(pieces))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _cell_key(p: Prism) -> str:
    return "|".join(",".join(map(str, f.vertices)) for f in p.factors)


def _cell_from_key(key: str) -> Prism:
    return Prism(tuple(Simplex(tuple(int(v) for v in part.split(",") if v != ""))
                       for part in key.split("|")))


def _tau_key(tau: Simplex) -> str:
    return ",".join(map(str, tau.vertices))


def _morphism_to_dict(m: CellMorphism) -> dict:
    out = {"cells": {}, "vertices": {}}
    for c in sorted(m.cells):
        img = m.cells[c]
        out["cells"][_cell_key(c)] = None if img is None else _cell_key(img)
        vm = m.vertex_images.get(c)
        if vm:
            out["vertices"][_cell_key(c)] = {
                ",".join(map(str, k)): ",".join(map(str, v))
                for k, v in sorted(vm.items())}
    return out


def _morphism_from_dict(dd: dict) -> CellMorphism:
    cells = {
        _cell_from_key(k): None if v is None else _cell_from_key(v)
        for k, v in dd.get("cells", {}).items()}
    verts: dict[Prism, dict[tuple, tuple]] = {}
    for ck, vm in dd.get("vertices", {}).items():
        verts[_cell_from_key(ck)] = {
            tuple(int(x) for x in k.split(",")): tuple(int(x) for x in v.split(","))
            for k, v in vm.items()}
    return CellMorphism(cells, verts)


def sheaf_to_dict(F: PrismalSheaf) -> dict:
    return {
        "base": {"maximal_simplices": [list(m.vertices) for m in F.base.maximal]},
        "stalks": {
            _tau_key(tau): sorted(_cell_key(c) for c in F.stalks[tau])
            for tau in sorted(F.stalks)},
        "projection": {
            _tau_key(tau): _morphism_to_dict(F.projection[tau])
            for tau in sorted(F.projection)},
        "specializations": {
            f"{_tau_key(tf)}<{_tau_key(t)}": _morphism_to_dict(m)
            for (tf, t), m in sorted(F.specialization.items())},
    }


def sheaf_from_dict(dd: dict) -> PrismalSheaf:
    base = SimplicialComplex([Simplex(tuple(v)) for v in dd["base"]["maximal_simplices"]])
    stalks = {}
    for tk, cells in dd["stalks"].items():
        tau = Simplex(tuple(int(v) for v in tk.split(","))).sorted()
        stalks[tau] = PrismalSet([_cell_from_key(c) for c in cells])
    projection = {
        Simplex(tuple(int(v) for v in tk.split(","))).sorted(): _morphism_from_dict(m)
        for tk, m in dd["projection"].items()}
    specialization = {}
    for key, m in dd.get("specializations", {}).items():
        tfk, tk = key.split("<")
        tf = Simplex(tuple(int(v) for v in tfk.split(","))).sorted()
        t = Simplex(tuple(int(v) for v in tk.split(","))).sorted()
        specialization[(tf, t)] = _morphism_from_dict(m)
    return PrismalSheaf(base, stalks, projection, specialization)
