"""Tools the tests use to check the package: a chain boundary, orientation
reversal, the oracle's average as a polynomial in eps, writers of CLI
inputs, a reader of written forms, a sheaf reader, cell-map composition,
and the morphisms only the tests build."""

from fractions import Fraction as Q

from prismal.forms import Form
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
