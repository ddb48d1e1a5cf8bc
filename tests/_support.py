"""Tools the tests use to check the package: a chain boundary, orientation
reversal, the oracle's average as a polynomial in eps, writers of CLI
inputs, a reader of written forms, the expansion of a written numerator, a
sheaf reader, cell-map composition, and the morphisms only the tests build."""

import hashlib
import json
from fractions import Fraction as Q

from prismal.forms import CoordSystem, Form, Poly, d, wedge
from prismal.io import context_from_dict, form_from_list
from prismal.mesh import Prism, PrismalSet, Simplex, SimplicialComplex, SimplicialMorphism
from prismal.primitive import oracle_A
from prismal.sheaf import CellMorphism, PrismalSheaf


def chain_boundary(chain: dict, boundary_fn) -> dict:
    """Apply a boundary operator linearly to a chain, dropping zeros."""
    out: dict = {}
    for cell, coeff in chain.items():
        if cell.dim < 1:
            continue
        for face, sign in boundary_fn(cell).items():
            c = out.get(face, 0) + coeff * sign
            if c:
                out[face] = c
            else:
                out.pop(face, None)
    return out


def reversed_orientation(s: Simplex) -> Simplex:
    """s with its first two vertices swapped."""
    if len(s.vertices) < 2:
        return s
    v = list(s.vertices)
    v[0], v[1] = v[1], v[0]
    return Simplex(tuple(v))


def interpolate(points) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree below
    len(points) through the exact points (x, y): Lagrange's basis, expanded."""
    coeffs = [Q(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Q(1)], Q(1)  # prod over j != i of (x - xj), and its value at xi
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [b - xj * a for a, b in zip(basis + [0], [0] + basis)]
                scale *= xi - xj
        coeffs = [c + yi * b / scale for c, b in zip(coeffs, basis)]
    return coeffs


def oracle_eps_terms(eta, phi) -> list:
    """The oracle's average as a polynomial in eps, from deg eta + 1 rational
    values of eps (at least two, so that the eps^1 term is read)."""
    degree = max((sum(e) for p in eta.terms.values() for e in p.terms), default=0)
    epsilons = [Q(1, k) for k in range(1, max(degree, 1) + 2)]
    return interpolate([(eps, oracle_A(eta, phi, eps)[0]) for eps in epsilons])


# ---------------------------------------------------------------------------
# CLI inputs
# ---------------------------------------------------------------------------

def complex_to_dict(cx: SimplicialComplex) -> dict:
    return {"vertices": list(cx.vertices),
            "maximal_simplices": [list(m.vertices) for m in cx.maximal]}


def morphism_to_dict(f: SimplicialMorphism) -> dict:
    return {"vertex_map": {str(k): str(v) for k, v in sorted(f.vertex_map.items())}}


def form_from_dict(dd: dict) -> Form:
    """The form of a `form_to_dict` dump, such as an H of `prismal primitive`."""
    return form_from_list(context_from_dict(dd["context"]), dd.get("terms", []))


def expand_numerator(N: Form, fibers: dict[int, tuple[int, ...]]) -> Form:
    """A written H_S numerator on sigma's simplex context (N's "l" group),
    with each fiber mass expanded: u:y becomes the sum of the l:v over
    `fibers[y]` and d(u:y) the sum of their d l:v.  A numerator without a
    "u" group comes back as it is."""
    ctx = CoordSystem((N.ctx.groups[0],))
    lam = lambda v: Poly.variable(ctx, ctx.var("l", v))
    images = [lam(v) if tag == "l" else sum(map(lam, fibers[v]), Poly.zero(ctx))
              for tag, verts in N.ctx.groups for v in verts]
    powers = {}  # (variable, n) -> images[variable] ** n, built up one factor at a time

    def power(i, n):
        for k in range(1, n + 1):
            if (i, k) not in powers:
                powers[i, k] = powers[i, k - 1] * images[i] if k > 1 else images[i]
        return powers[i, n]

    out = Form.zero(ctx)
    for dv, p in N.terms.items():
        w = Form.const(ctx, 1)
        for i in dv:
            w = wedge(w, d(Form.from_poly(images[i])))
        acc: dict = {}
        for e, c in p.terms.items():
            prod = Poly.const(ctx, c)
            for i, n in enumerate(e):
                if n:
                    prod = prod * power(i, n)
            for e2, c2 in prod.terms.items():
                acc[e2] = acc.get(e2, 0) + c2
        out = out + w * Poly(ctx, acc)
    return out


def numerator_digest(output: dict) -> str:
    """sha256 of every expanded H_S numerator of a `prismal primitive`
    output, as sorted (wedge names, exponents, coefficient) rows per prism;
    the fiber over each base vertex is read from the context of the prism's H."""
    names_rows = {}
    for cell, entry in sorted(output["base_cells"].items()):
        for key, hs in sorted(entry["H_S"].items()):
            base, *fiber_groups = entry["prisms"][key]["H"]["context"]["groups"]
            fibers = {y: tuple(g["vertices"]) for y, g in zip(base["vertices"], fiber_groups)}
            N = expand_numerator(form_from_dict(hs["numerator"]), fibers)
            names = N.ctx.names
            names_rows[f"{cell}|{key}"] = sorted(
                [[names[i] for i in dv], [[names[i], n] for i, n in enumerate(e) if n], str(c)]
                for dv, p in N.terms.items() for e, c in p.terms.items())
    return hashlib.sha256(json.dumps(names_rows, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Sheaves
# ---------------------------------------------------------------------------

def compose(later: CellMorphism, earlier: CellMorphism) -> CellMorphism:
    """later o earlier (earlier applied first), on cells."""
    return CellMorphism({p: None if q is None else later.cells[q]
                         for p, q in earlier.cells.items()})


def _cell_from_key(key: str) -> Prism:
    return Prism(tuple(Simplex(tuple(int(v) for v in part.split(",") if v != ""))
                       for part in key.split("|")))


def _tau_from_key(key: str) -> Simplex:
    return Simplex(tuple(int(v) for v in key.split(","))).sorted()


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


def sheaf_from_dict(dd: dict) -> PrismalSheaf:
    """The sheaf of a `sheaf_to_dict` dump, or of a hand-written malformed one."""
    base = SimplicialComplex([Simplex(tuple(v)) for v in dd["base"]["maximal_simplices"]])
    stalks = {_tau_from_key(tk): PrismalSet([_cell_from_key(c) for c in cells])
              for tk, cells in dd["stalks"].items()}
    projection = {_tau_from_key(tk): _morphism_from_dict(m)
                  for tk, m in dd["projection"].items()}
    specialization = {tuple(map(_tau_from_key, key.split("<"))): _morphism_from_dict(m)
                      for key, m in dd.get("specializations", {}).items()}
    return PrismalSheaf(base, stalks, projection, specialization)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

def collapse_edge() -> SimplicialMorphism:
    """A single edge collapsing to a vertex."""
    delta = SimplicialComplex([Simplex((0, 1))])
    base = SimplicialComplex([Simplex((100,))])
    return SimplicialMorphism(delta, base, {0: 100, 1: 100})


def cylinder_over_edge() -> SimplicialMorphism:
    """A triangulated cylinder over an edge: generic fiber a circle of
    three segments.  Fiberwise top forms with nonzero fiber integral are
    closed but not fiberwise exact."""
    # circle vertices a,b,c over 100 -> 0,1,2 ; over 101 -> 3,4,5
    delta = SimplicialComplex([
        Simplex((0, 1, 3)), Simplex((1, 3, 4)),
        Simplex((1, 2, 4)), Simplex((2, 4, 5)),
        Simplex((2, 0, 5)), Simplex((0, 5, 3)),
    ])
    base = SimplicialComplex([Simplex((100, 101))])
    vmap = {0: 100, 1: 100, 2: 100, 3: 101, 4: 101, 5: 101}
    return SimplicialMorphism(delta, base, vmap)


def identity_on(maximal) -> SimplicialMorphism:
    """Identity morphism of the complex spanned by the given simplices."""
    cx = SimplicialComplex([Simplex(tuple(m)) for m in maximal])
    return SimplicialMorphism(cx, cx, {v: v for v in cx.vertices})
