"""Relative primitives of fiberwise-exact polynomial forms.

Pipeline, per base simplex tau and maximal source simplex sigma over it:

1. extract the fiberwise coefficient family A_phi of the input form by
   pairing with the constant fiber direction of each relative face phi;
2. solve the homothety ODE to get the C coefficients, one per codim-1
   subface of each phi over a base vertex;
3. assemble the candidate primitive on the trivial prism, compare its
   relative differential with the Whitney combination of the extracted
   coefficients, and repair the (fiberwise-exact) defect with the cone
   primitive of `vertical_gluing`, glued across the prisms over the open
   base simplex by one breadth-first walk per component of their overlap
   graph;
4. fix the gauge on each base face, smallest first, where the
   specialization must match the face's primitive (`check_horizontal`),
   then check each prism once, before the next cell is built: the residual
   base-volume ^ (pullback(input) - d(primitive)) and the descent to the
   raw sheaf, kept on its `PrismData`: `descend_form` writes H as one
   numerator on sigma x tau over a power of the fiber masses u, never
   expanding a power of u, and `check_descent`, once f o psi = pi holds,
   pulls it back through (psi, pi) and compares it with t^m H term by term.

`sheaf.psi_coordinate_map` is the one place where a pair (f, sigma) becomes
coordinates.  Every later stage reads sigma's trivial prism from its
blow-down `psi`: `psi.source` is the prism context (group 0 the base, group
1+j the fiber over the j-th base vertex), `psi.target` sigma's simplex
context.  Each prism computes the pullback of the input, the compositions
A_phi o psi and the Whitney combination once, and every stage reads those.

One home per concept: `pair_with_face` is A_phi, the contraction with a
fiber frame (integer determinants from `_frame`) over the block factorial,
read by `extract_A` and the oracle; `ode_solve` is the one body of the
homothety ODE, whose operator is `homothety_operator` (also in the identity
suites); `weighted_whitney` builds both t-weighted Whitney sums of step 3
(the A combination and the C part), `forms.base_volume_residual` computes
both closing residuals (`verify_theodg` reports the last one),
`_restricted_difference` compares two primitives on a shared cell, and
`PrismData.shift` is the one lift of a mismatch into a prism, for the walk
and the face gauge alike, and `descend_form` the one descent, read by the
writer and by `check_descent`.  Each pipeline sum is one pass over int
numerators and one `_lowest`.

All the arithmetic is rational, the optional shrinking-average oracle for
the extracted coefficients included: it averages with the one integrator,
`integrate_top_form` against the Whitney volume form of phi's blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .mesh import Simplex, SimplicialMorphism
from .forms import (_FIELD, _W, Chart, CoordMap, CoordSystem, Form, FormError, Poly,
                    _add_into, _lowest, _mul_into, _sort_wedge, _unpack, _whitney_terms,
                    base_volume_residual, canonicalize, d, eliminate_poly,
                    elimination_chart, equal_mod_relations, integrate_top_form,
                    pi_context, poincare_primitive, pullback, restrict_to_face,
                    simplex_context, vertical_part, wedge, whitney_form)
from .sheaf import psi_coordinate_map

Q = Fraction


class PrimitiveError(ValueError):
    pass


class ExactnessError(PrimitiveError):
    """The input form is not exact along the fibers."""


class DecompositionError(PrimitiveError):
    pass


# ---------------------------------------------------------------------------
# Homothety ODE
# ---------------------------------------------------------------------------

def ode_solve(B: Poly, r: int, vars_: Iterable[int] | None = None) -> Poly:
    """Unique polynomial solution of E + (1/r) sum_i u_i dE/du_i = B.

    Scaling-averaging acts on `vars_` (default: all variables); any other
    variables are parameters.  A component of degree m in the scaled
    variables picks up the factor r/(r+m), the exact value of the averaged
    homothety integral on that component.
    """
    if r < 1:
        raise PrimitiveError("degree parameter must be >= 1")
    vs = range(B.ctx.nvars) if vars_ is None else tuple(vars_)
    degs = [sum(e >> _W * i & _FIELD for i in vs) for e in B.num]
    big = math.lcm(1, *{r + m for m in degs})
    acc = {e: c * r * (big // (r + m)) for (e, c), m in zip(B.num.items(), degs)}
    return Poly._make(B.ctx, *_lowest(acc, B.den * big))


def homothety_operator(E: Poly, r: int, vars_: Iterable[int] | None = None) -> Poly:
    """E + (1/r) sum_i u_i dE/du_i over `vars_` (default: all variables)."""
    vs = tuple(vars_) if vars_ is not None else tuple(range(E.ctx.nvars))
    return sum((Poly.variable(E.ctx, i) * E.diff(i) * Q(1, r) for i in vs), E)


# ---------------------------------------------------------------------------
# Relative faces and the direction pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class RelFace:
    """A face of sigma with image tau, stored with its fiber blocks."""

    vertices: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def block_dims(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.blocks)

    def block_factorial(self) -> int:
        """The normalization of A_phi: the product of the block factorials."""
        return math.prod(map(math.factorial, self.block_dims()))


def relative_faces(psi: CoordMap, r: int) -> list[RelFace]:
    """Faces of sigma with full image and relative dimension r, each taken
    with the subsequence orientation and its fiber blocks (`psi` is sigma's
    blow-down)."""
    sigma_verts = psi.target.groups[0][1]
    choices = [[b for k in range(1, len(verts) + 1)
                for b in itertools.combinations(verts, k)]
               for _, verts in psi.source.groups[1:]]
    out = []
    for combo in itertools.product(*choices):
        if sum(len(b) - 1 for b in combo) != r:
            continue
        chosen = {v for b in combo for v in b}
        out.append(RelFace(tuple(v for v in sigma_verts if v in chosen), combo))
    return sorted(out)


def pair_with_face(eta: Form, phi: RelFace) -> Poly:
    """A_phi: the contraction of an r-form with the constant fiber r-frame
    of phi (per block, the differences from the block's first vertex) over
    `phi.block_factorial()`.

    The wedge of the frame's dual 1-forms d l_w - d l_block[0] has, at each
    sorted wedge, the determinant of the pairing as its (integer)
    coefficient; one pass over eta's terms multiplies each numerator by the
    determinant at its wedge, over the form's denominator.
    """
    ctx = eta.ctx
    frame = _frame(tuple(tuple(ctx.var("l", v) for v in block) for block in phi.blocks))
    acc: dict = {}
    for dv, num in eta.num.items():
        if dv in frame:
            _add_into(acc, num, frame[dv])
    return Poly._make(ctx, *_lowest(acc, eta.den * phi.block_factorial()))


@functools.lru_cache(maxsize=1 << 12)  # keyed on blocks of variable indices
def _frame(layout: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    """The frame's dual wedge as {sorted wedge: int determinant}: per block,
    the wedge of d x_w - d x_first over its later w is sum_k (-1)^k times
    the block's wedge without its k-th variable.  Callers must not mutate it."""
    frame = {}
    for omit in itertools.product(*(range(len(b)) for b in layout)):
        dv = tuple(i for b, k in zip(layout, omit) for i in b[:k] + b[k + 1:])
        merged, sign = _sort_wedge(dv)
        frame[merged] = sign * (-1) ** sum(omit)
    return frame


# ---------------------------------------------------------------------------
# Coefficient extraction
# ---------------------------------------------------------------------------

def extract_A(eta: Form, psi: CoordMap, r: int) -> dict[RelFace, Poly]:
    """Canonical fiberwise coefficients {A_phi} of an r-form on sigma, in
    face order, zeros included (`psi` is sigma's blow-down).

    A_phi is `pair_with_face`, the pointwise value of the shrinking-average
    limit.  A prism with no relative face of degree r gets the empty family,
    and with it the zero candidate.
    """
    return {phi: pair_with_face(eta, phi) for phi in relative_faces(psi, r)}


def t_monomial(pctx: CoordSystem, dims: Iterable[int]) -> Poly:
    """prod_j t_j^dims[j] over the base vertices of a trivial-prism context,
    the variables of its first group."""
    dims = tuple(dims)
    return Poly(pctx, {dims + (0,) * (pctx.nvars - len(dims)): 1})


def compose_psi(A: dict[RelFace, Poly], psi: CoordMap) -> dict[RelFace, Poly]:
    """The nonzero A_phi o psi, in face order: lambda_i = t_j mu_{j,i}
    substituted into each simplex-side coefficient."""
    return {phi: a.substitute(psi) for phi, a in A.items() if a}


def weighted_whitney(pctx: CoordSystem, terms) -> Form:
    """sum of coeff * t^dims * w(blocks) over the (coeff, dims, blocks) of
    `terms`, a t-weighted sum of relative Whitney forms on a trivial prism,
    in one pass: each Whitney form's int terms, shifted by the key of t^dims,
    multiply into one accumulator per wedge over the lcm denominator."""
    terms = list(terms)
    den = math.lcm(1, *(coeff.den for coeff, _, _ in terms))
    acc: dict[tuple[int, ...], dict] = {}
    for coeff, dims, blocks in terms:
        [t_key] = t_monomial(pctx, dims).num
        layout = tuple(tuple(pctx.var(pctx.groups[g][0], v) for v in block)
                       for g, block in zip(pctx.fiber_groups, blocks, strict=True))
        for dv, num in _whitney_terms(layout):
            _mul_into(acc.setdefault(dv, {}), {e + t_key: c for e, c in num.items()},
                      coeff.num, den // coeff.den)
    return Form._from_acc(pctx, acc, den)


def whitney_combination(composed: dict[RelFace, Poly], psi: CoordMap) -> Form:
    """The t-weighted relative Whitney combination of the coefficients
    `composed` (from `compose_psi`), as a form on the trivial prism of
    sigma (`psi` is sigma's blow-down)."""
    return weighted_whitney(psi.source, ((coeff, phi.block_dims(), phi.blocks)
                                         for phi, coeff in composed.items()))


def decomposition_residual(pulled: Form, combo: Form) -> Form:
    """base volume ^ (pulled-back input - Whitney combination), canonicalized."""
    return base_volume_residual(pulled - combo)


# ---------------------------------------------------------------------------
# The C coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class FaceDrop:
    """A codim-1 subface gamma of phi over a base vertex: phi minus one
    vertex of the block over that vertex."""

    phi: RelFace
    j: int
    removed: int

    def gamma_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v for v in b if not (k == self.j and v == self.removed))
                     for k, b in enumerate(self.phi.blocks))

    def gamma_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.phi.vertices if v != self.removed)


def admissible_drops(phi: RelFace) -> list[FaceDrop]:
    """All codim-1 subfaces with full image: one vertex removed from a
    block of positive dimension."""
    return [FaceDrop(phi, j, v) for j, b in enumerate(phi.blocks) if len(b) >= 2 for v in b]


def _free_chart(pctx: CoordSystem, drop: "FaceDrop") -> tuple[Chart, list[int]]:
    """Chart of the trivial prism adapted to a subface pair (phi, gamma).

    In the removed vertex's block, that vertex's coordinate is eliminated;
    in every other fiber block a coordinate outside gamma is eliminated
    when one exists, otherwise the block's last one.  Returns the chart and
    the surviving gamma coordinates (the scaling directions).
    """
    eliminated: list[int] = []
    scaled: list[int] = []
    for j, ((tag, verts), block) in enumerate(zip(pctx.groups[1:], drop.gamma_blocks())):
        if j == drop.j:
            v = drop.removed
        else:
            outside = [v for v in verts if v not in block]
            v = outside[-1] if outside else block[-1]
        eliminated.append(pctx.var(tag, v))
        scaled.extend(pctx.var(tag, w) for w in block if w != v)
    return elimination_chart(pctx, eliminated), scaled


def assemble_C(A: dict[RelFace, Poly], r: int, psi: CoordMap,
               composed: dict[RelFace, Poly]) -> dict[FaceDrop, Poly]:
    """Homothety solutions C~ per (phi, gamma), on the trivial prism.

    Each C~ is a polynomial in the base variables and the fiber coordinates
    of gamma, independent of the removed vertex's coordinate, solving the
    averaged-scaling equation with right side (A_phi o psi) / n(phi); the
    count n(phi) runs over all admissible subfaces of phi.
    """
    if r < 1:
        raise PrimitiveError("relative degree must be >= 1")
    pctx = psi.source
    out: dict[FaceDrop, Poly] = {}
    for phi in A:
        drops = admissible_drops(phi)
        n = len(drops)
        if n == 0:
            raise DecompositionError(f"no admissible subface for {phi}")
        if phi not in composed:
            for drop in drops:
                out[drop] = Poly.zero(pctx)
            continue
        a_psi = composed[phi] * Q(1, n)
        for drop in drops:
            chart, scaled = _free_chart(pctx, drop)
            ctil = ode_solve(eliminate_poly(a_psi, chart), r, scaled)
            out[drop] = -ctil if phi.blocks[drop.j].index(drop.removed) % 2 else ctil
    return out


def c_part_form(C: dict[FaceDrop, Poly], psi: CoordMap) -> Form:
    """sum over (phi, gamma) of t^{|phi|} C~ w(pi(gamma); pi(sigma))."""
    return weighted_whitney(psi.source, ((ctil, drop.phi.block_dims(), drop.gamma_blocks())
                                         for drop, ctil in C.items() if ctil))


# ---------------------------------------------------------------------------
# Vertical gluing and assembly
# ---------------------------------------------------------------------------

def fiber_defect(combo: Form, cpart: Form) -> Form:
    """Vertical part of the Whitney combination - d(C part); what the cone
    repair must kill."""
    return canonicalize(vertical_part(combo - d(cpart)))


def vertical_gluing(delta: Form, sigma: Simplex) -> Form:
    """The per-prism repair of a fiber defect `delta` on sigma's trivial
    prism: its fiber cone primitive, zero when `delta` is.  Raises
    ExactnessError when `delta` is not fiberwise closed."""
    if delta.is_zero:
        return Form.zero(delta.ctx)
    try:
        return poincare_primitive(delta)
    except FormError as exc:
        raise ExactnessError(f"fiber defect on {sigma}: {exc}") from exc


@dataclass
class PrismData:
    """One prism's pipeline and verdicts: `pulled` is psi* eta, `H` the primitive."""

    sigma: Simplex
    psi: CoordMap
    eta: Form
    pulled: Form
    A: dict[RelFace, Poly]
    C: dict[FaceDrop, Poly]
    correction: Form
    H: Form
    residual: Form | None = None  # the nonzero closing residual, else None
    descended: tuple[Form, tuple[int, ...]] | None = None  # (N, m) of `descend_form`
    descent_ok: bool = False  # `check_descent`

    def shift(self, m: Form) -> Form:
        """Add m, a mismatch of the walk or of the face gauge, to H and the
        correction, and return it read into the prism by vertex: t:y as t:y,
        and a fiber variable of v, whatever its group's tag, as v's variable
        in the one fiber group of sigma that holds v (the fibers are disjoint)."""
        pctx = self.psi.source
        home = {v: tag for tag, verts in pctx.groups[1:] for v in verts}
        shift = pullback(CoordMap.build(pctx, m.ctx, {
            f"{tag}:{v}": Poly.variable(pctx, pctx.var(home[v] if g else tag, v))
            for g, (tag, verts) in enumerate(m.ctx.groups) for v in verts}), m)
        self.H = self.H + shift
        self.correction = self.correction + shift
        return shift


@dataclass
class RelativePrimitive:
    """Assembled solution over one base simplex."""

    tau: Simplex
    prisms: dict[Simplex, PrismData]
    overlaps: list[tuple[Simplex, Simplex, Simplex]]  # (sigma1, sigma2, shared cell)


def build_primitive_over(f: SimplicialMorphism, omega: dict[Simplex, Form],
                         tau: Simplex, r: int) -> RelativePrimitive:
    """Run the pipeline over one base simplex.

    `omega` gives the input form on each maximal source simplex, in its
    simplex context; restrictions are taken automatically for cells over
    tau that only appear as faces.
    """
    sigmas = f.maximal_over(tau)
    if not sigmas:
        raise PrimitiveError(f"no source cells over {tau}")
    prisms: dict[Simplex, PrismData] = {}
    for sigma in sigmas:
        eta = restrict_input(omega, sigma)
        psi = psi_coordinate_map(f, sigma)
        A = extract_A(eta, psi, r)
        pulled = pullback(psi, eta)
        composed = compose_psi(A, psi)
        combo = whitney_combination(composed, psi)
        res = decomposition_residual(pulled, combo)
        if not res.is_zero:
            raise DecompositionError(
                f"input on {sigma} has mixed fiber degree; residual {res}")
        C = assemble_C(A, r, psi, composed)
        cpart = c_part_form(C, psi)
        corr = vertical_gluing(fiber_defect(combo, cpart), sigma)
        prisms[sigma] = PrismData(sigma, psi, eta, pulled, A, C, corr, cpart + corr)
    return RelativePrimitive(tau, prisms, _match_across_prisms(f, tau, prisms))


def restrict_input(omega: dict[Simplex, Form], sigma: Simplex) -> Form:
    """Input form on sigma: given directly, or restricted from a carrier."""
    if sigma in omega:
        return omega[sigma]
    for big, form in sorted(omega.items()):
        if big.has_face(sigma):
            return restrict_to_face(form, simplex_context(sigma))
    raise PrimitiveError(f"no input form covers {sigma}")


def validate_input_family(omega: dict[Simplex, Form]) -> None:
    """Input forms must restrict compatibly to shared faces.

    An incoherent family is not a differential form on the complex; it
    would fail the gluing steps much later with an opaque message.  Only
    cells sharing a vertex are compared, and a pair whose common face has a
    dimension below every term degree of both forms is skipped: both
    restrictions vanish there.
    """
    cells = sorted(omega)
    cells_at: dict[int, list[int]] = {}
    for i, s in enumerate(cells):
        for v in s.vertices:
            cells_at.setdefault(v, []).append(i)
    for i, s1 in enumerate(cells):
        if omega[s1].ctx != simplex_context(s1):
            raise PrimitiveError(f"form on {s1} is not in its simplex context")
        for j in sorted({j for v in s1.vertices for j in cells_at[v] if j > i}):
            s2 = cells[j]
            common = tuple(v for v in s1.vertices if v in s2.vset)
            degrees = omega[s1].degrees() | omega[s2].degrees()
            if not degrees or len(common) - 1 < min(degrees):
                continue
            fctx = simplex_context(Simplex(common))
            r1 = restrict_to_face(omega[s1], fctx)
            r2 = restrict_to_face(omega[s2], fctx)
            if not equal_mod_relations(r1, r2):
                raise PrimitiveError(
                    f"input forms on {s1} and {s2} disagree on their "
                    f"common face {common}")


def _match_across_prisms(f: SimplicialMorphism, tau: Simplex,
                         prisms: dict[Simplex, PrismData]) -> list:
    """Glue the candidates so they agree on the shared cells over the open
    base simplex.  Each is fixed up to a fiberwise closed form: one
    breadth-first walk per component of the overlap graph, from its first
    prism, shifts each prism it reaches by its difference (zero included)
    to the prism it came from.  `_verify_overlaps` then checks every
    overlap, so an inconsistent cycle raises ExactnessError.  Returns the
    overlaps (sigma1, sigma2, shared cell)."""
    sigmas = sorted(prisms)
    edges = []
    for i, s1 in enumerate(sigmas):
        for s2 in sigmas[i + 1:]:
            inter = Simplex(tuple(v for v in s1.vertices if v in s2.vset))
            if inter.is_empty or f.image(inter) != tau:
                continue
            edges.append((s1, s2, inter))
    neighbours: dict[Simplex, list] = {s: [] for s in sigmas}
    for s1, s2, inter in edges:
        neighbours[s1].append((s2, inter))
        neighbours[s2].append((s1, inter))
    reached: set[Simplex] = set()
    for root in sigmas:
        if root in reached:
            continue
        reached.add(root)
        walk = [root]
        for known in walk:  # grows as the walk goes
            for new, inter in neighbours[known]:
                if new in reached:
                    continue
                diff = _restricted_difference(prisms[known].H, prisms[new].H, inter)
                if not vertical_part(d(diff)).is_zero:
                    raise ExactnessError(
                        f"over {tau}: prisms {known} and {new} differ on {inter} "
                        f"by {diff}, which is not fiberwise closed")
                if not diff.is_zero:
                    prisms[new].shift(diff)
                reached.add(new)
                walk.append(new)
    _verify_overlaps(tau, prisms, edges)
    return edges


def _restricted_difference(H1: Form, H2: Form, inter: Simplex) -> Form:
    """H1 - H2 restricted to the trivial prism of the shared cell `inter`,
    canonical: H1's base group, and each of its fiber groups cut down to
    the vertices of `inter`."""
    base, *fibers = H1.ctx.groups
    sub = CoordSystem((base, *((tag, tuple(v for v in verts if v in inter.vset))
                               for tag, verts in fibers)))
    return canonicalize(restrict_to_face(H1, sub) - restrict_to_face(H2, sub))


def _verify_overlaps(tau, prisms, edges) -> None:
    """The walk glued along a spanning tree, so a mismatch left on an overlap
    is one around a cycle.  Between functions it is a period of the input on
    the fiber; between forms it can remain on a globally exact input too."""
    for s1, s2, inter in edges:
        diff = _restricted_difference(prisms[s1].H, prisms[s2].H, inter)
        if not diff.is_zero:
            why = ("the input is not fiberwise exact over the open base cell"
                   if diff.degrees() == {0} else "gluing along a spanning tree "
                   "of the overlaps could not close a cycle of overlaps")
            raise ExactnessError(f"over {tau}: primitive candidates on {s1} and "
                                 f"{s2} disagree on {inter}; {why}")


# ---------------------------------------------------------------------------
# Descent to the raw sheaf
# ---------------------------------------------------------------------------

def _on_graph(H: Form) -> Form:
    """H without its terms whose wedge holds every dmu of a fiber group (a
    group after the base): their cleared wedges are zero on the graph of f,
    so `descend_form` drops them.  H itself when no term goes."""
    full = [set(vs) for vs in H.ctx.group_vars[1:]]
    keep = {dv: t for dv, t in H.num.items() if not any(vs.issubset(dv) for vs in full)}
    return H if len(keep) == len(H.num) else Form._from_acc(H.ctx, keep, H.den)


def descend_form(H: Form, sctx: CoordSystem) -> tuple[Form, tuple[int, ...]]:
    """Clear the blow-down substitution mu = lambda/u, t = u.

    Returns (numerator N, exponents m per fiber group): N / prod u_j^{m_j}
    is H read on the raw sheaf.  N lives on sigma x tau, with the groups
    ("l", the vertices of the simplex context `sctx` of the source cell) and
    ("u", the base vertices); read on the graph of f, u:y is the fiber mass,
    the sum of the l:v over y.

    A term c t^a mu^b dv of H becomes c u^(a + m - den) lambda^b W_dv, where
    W_dv wedges du_j for each dt_j and u_j dlambda - lambda du_j (the
    cleared d(lambda/u_j), den 2) for each dmu.  The terms that `_on_graph`
    drops are dropped.  The products run on the int numerators of H, over
    its denominator, and N accumulates in one int dict per wedge.
    """
    H = _on_graph(H)
    pctx = H.ctx
    (base_tag, base_verts), *fiber_groups = pctx.groups
    nfib = len(fiber_groups)
    nctx = CoordSystem((sctx.groups[0], ("u", base_verts)))
    us = [nctx.var("u", y) for y in base_verts]
    t_group = {pctx.var(base_tag, y): j for j, y in enumerate(base_verts)}
    lam = {pctx.index[f"{tag}:{v}"]: (j, nctx.var("l", v))  # mu var -> (fiber group, lambda var)
           for j, (tag, verts) in enumerate(fiber_groups) for v in verts}

    @functools.cache
    def cleared_d(i: int) -> Form:
        if i in t_group:
            return Form.d_var(nctx, us[t_group[i]])
        j, x = lam[i]
        return (Form.d_var(nctx, x) * Poly.variable(nctx, us[j])
                - Form.d_var(nctx, us[j]) * Poly.variable(nctx, x))

    terms = []  # (dv, den, key of u^a lambda^b, c)
    for dv, num in H.num.items():
        dv_den = [0] * nfib
        for i in dv:
            if i in lam:
                dv_den[lam[i][0]] += 2
        for e, c in num.items():
            den, key = dv_den[:], 0
            for i, n in enumerate(_unpack(pctx.nvars, e)):
                if not n:
                    continue
                if i in t_group:
                    key += n << _W * us[t_group[i]]
                else:
                    j, x = lam[i]
                    den[j] += n
                    key += n << _W * x  # one mu per lambda
            terms.append((dv, den, key, c))

    m = tuple(max((den[j] for _, den, _, _ in terms), default=0) for j in range(nfib))
    by_dv: dict[tuple[int, ...], dict] = {}
    for dv, den, key, c in terms:
        key += sum((m[j] - den[j]) << _W * us[j] for j in range(nfib))  # u^(a + m - den)
        mons = by_dv.setdefault(dv, {})
        mons[key] = mons.get(key, 0) + c
    acc: dict[tuple[int, ...], dict] = {}
    for dv, mons in by_dv.items():
        w = functools.reduce(wedge, map(cleared_d, dv), Form.const(nctx, 1))
        for wv, num in w.num.items():  # the cleared wedges have int coefficients
            _mul_into(acc.setdefault(wv, {}), num, mons)
    return Form._from_acc(nctx, acc, H.den), m


def check_descent(H: Form, psi: CoordMap,
                  descended: tuple[Form, tuple[int, ...]]) -> bool:
    """The descended numerator N over sigma x tau pulls back through
    (psi, pi), lambda by psi and u:y to t:y, to t^m * `_on_graph(H)`, literally.

    First f o psi = pi: each fiber mass U_j, the sum of the lambda of
    group j, pulls back by psi to t_j, canonically.  Then a cleared
    d(lambda_v/u_j) pulls back to t_j^2 dmu_v and du_j to dt_j, so a term
    c u^(a + m - den) lambda^b W_dv of N becomes c t^(a + m) mu^b dv: no
    relation is used, and over a base vertex an m off by one shows."""
    N, m = descended
    pctx, sctx = psi.source, psi.target
    ts = [Poly.variable(pctx, i) for i in pctx.group_vars[0]]
    for t, (_, verts) in zip(ts, pctx.groups[1:]):
        U = sum((Poly.variable(sctx, sctx.var("l", v)) for v in verts), Poly.zero(sctx))
        if not canonicalize(pullback(psi, Form.from_poly(U)) - Form.from_poly(t)).is_zero:
            return False
    images = dict(zip(sctx.names, psi.images))
    images.update((f"u:{y}", t) for y, t in zip(pctx.groups[0][1], ts))
    graph = CoordMap.build(pctx, N.ctx, images)
    return pullback(graph, N) == _on_graph(H) * t_monomial(pctx, m)


# ---------------------------------------------------------------------------
# Horizontal specialization
# ---------------------------------------------------------------------------

def specialization_chart(pctx: CoordSystem, tau_face: Simplex) -> CoordMap:
    """Inclusion of the trivial prism of sigma|tau' into that of sigma,
    whose context is `pctx`: kept base variables map to themselves, lost
    ones to zero, kept fiber blocks match up, and lost blocks sit at their
    barycenters."""
    (base_tag, tau_verts), *fibers = pctx.groups
    keep = [j for j, y in enumerate(tau_verts) if y in tau_face.vset]
    src = pi_context(Simplex(tuple(tau_verts[j] for j in keep)),
                     [Simplex(fibers[j][1]) for j in keep])
    renumber = {j: k for k, j in enumerate(keep)}
    images: dict[str, Poly] = {}
    for y in tau_verts:
        name, kept = f"{base_tag}:{y}", y in tau_face.vset
        images[name] = Poly.variable(src, src.index[name]) if kept else Poly.zero(src)
    for j, (tag, verts) in enumerate(fibers):
        for v in verts:
            images[f"{tag}:{v}"] = (Poly.variable(src, src.var(f"m:{renumber[j]}", v))
                                    if j in renumber else Poly.const(src, Q(1, len(verts))))
    return CoordMap.build(src, pctx, images)


@dataclass
class HorizontalReport:
    tau: Simplex
    tau_face: Simplex
    vanished_terms: int
    surviving_terms: int
    matches: dict[Simplex, bool]

    @property
    def ok(self) -> bool:
        return all(self.matches.values())


def check_horizontal(f: SimplicialMorphism, prim: RelativePrimitive,
                     prim_face: RelativePrimitive) -> HorizontalReport:
    """Compare the specialized primitive with the one built over a face F,
    and fix the gauge there.

    `prim_face` is the primitive over a proper face of `prim`'s base
    simplex.  Terms whose t-monomial involves a lost vertex vanish on the
    face; the surviving part must coincide with the face pipeline's
    primitive.  A fiberwise closed mismatch m is split by degree in the t
    of F, across its wedges, and homogenized to degree max(deg m, |F|),
    each part times (sum_{y in F} t_y)^k.  The result h equals m on F.
    When every monomial of h holds every t_y of F, h vanishes on each face
    missing a vertex of F, so H - h keeps the matches of the smaller faces;
    the overlaps over tau are checked again.
    """
    tau, tau_face = prim.tau, prim_face.tau
    vanished = surviving = 0
    matches: dict[Simplex, bool] = {}
    shifted = False
    lost = [j for j, y in enumerate(tau.vertices) if y not in tau_face.vset]
    for sigma, pd in prim.prisms.items():
        gone = sum(any(drop.phi.block_dims()[j] for j in lost) for drop in pd.C)
        vanished, surviving = vanished + gone, surviving + len(pd.C) - gone
        sigma_f = f.restriction_to(sigma, tau_face)
        chart = specialization_chart(pd.psi.source, tau_face)
        carrier = next(s for s in prim_face.prisms if sigma_f.vset <= s.vset)
        m = _restricted_difference(pullback(chart, pd.H), prim_face.prisms[carrier].H, sigma_f)
        if not m.is_zero and vertical_part(d(m)).is_zero:
            ts = m.ctx.group_vars[0]  # the t of F
            total = sum(map(functools.partial(Poly.variable, m.ctx), ts), Poly.zero(m.ctx))
            parts = {dv: p.homogeneous_parts(ts) for dv, p in m.terms.items()}
            top = max(len(ts), *(k for by_k in parts.values() for k in by_k))
            h = Form(m.ctx, {dv: sum((q * total ** (top - k) for k, q in by_k.items()),
                                     Poly.zero(m.ctx)) for dv, by_k in parts.items()})
            if all(all(e[i] for i in ts) for p in h.terms.values() for e in p.terms):
                m = canonicalize(m + pullback(chart, pd.shift(-h)))
                shifted = True
        matches[sigma] = m.is_zero
    if shifted:
        _verify_overlaps(tau, prim.prisms, prim.overlaps)
    return HorizontalReport(tau, tau_face, vanished, surviving, matches)


# ---------------------------------------------------------------------------
# End-to-end driver and the closing residual
# ---------------------------------------------------------------------------

@dataclass
class PrimitiveResult:
    primitives: dict[Simplex, RelativePrimitive]
    horizontal: list[HorizontalReport]


def verify_theodg(prim: RelativePrimitive) -> dict[Simplex, Form]:
    """The nonzero closing residuals base-volume ^ (psi* omega - dH) of
    `prim`, per prism; empty = success."""
    out = {}
    for sigma, pd in prim.prisms.items():
        res = base_volume_residual(pd.pulled - d(pd.H))
        if not res.is_zero:
            out[sigma] = res
    return out


def build_relative_primitive(f: SimplicialMorphism, omega: dict[Simplex, Form],
                             r: int) -> PrimitiveResult:
    """Run the pipeline over every base simplex with sources over it.

    Each base cell is built after its faces, gauged on them, smallest first
    (`check_horizontal`), and its prisms checked; reports in (tau, face) order.
    The degree must lie between 1 and the largest relative dimension of a
    source cell; otherwise no base cell would carry the primitive.
    """
    if r < 1:
        raise PrimitiveError(f"degree {r}: a relative primitive needs degree >= 1")
    top = max(map(f.rel_dim, f.source.maximal))
    if r > top:
        raise PrimitiveError(
            f"degree {r} exceeds the largest relative dimension {top} of the morphism")
    validate_input_family(omega)
    prims: dict[Simplex, RelativePrimitive] = {}
    horizontal: list[HorizontalReport] = []
    for tau in sorted(f.target.cells, key=lambda c: (len(c.vertices), c)):
        if max(map(f.rel_dim, f.maximal_over(tau)), default=0) < r:
            continue
        prim = build_primitive_over(f, omega, tau, r)
        horizontal += [check_horizontal(f, prim, prims[face])
                       for face in prims if face.vset < tau.vset]
        residuals = verify_theodg(prim)
        for sigma, pd in prim.prisms.items():
            pd.residual = residuals.get(sigma)
            pd.descended = descend_form(pd.H, pd.psi.target)
            pd.descent_ok = check_descent(pd.H, pd.psi, pd.descended)
        prims[tau] = prim
    horizontal.sort(key=lambda rep: (rep.tau, rep.tau_face))
    return PrimitiveResult(dict(sorted(prims.items())), horizontal)


# ---------------------------------------------------------------------------
# Exact shrinking-average oracle for the extracted coefficients
# ---------------------------------------------------------------------------

def oracle_A(eta: Form, phi: RelFace, eps: int | Fraction) -> tuple[Fraction, Fraction]:
    """Shrinking-average value of the working coefficient of phi, exactly.

    A_phi (`pair_with_face`) composed with the eps-homothety of phi's fiber
    slice about its center, lambda_v = (1 - eps) tbar / |b| + eps tbar x_v on
    a context with one group per block b (tbar = 1 / number of blocks), is
    averaged against that context's Whitney volume form.  `eps` is an int or
    a Fraction (a float is a FormError).  Returns (average, value at the center).
    """
    g = pair_with_face(eta, phi)
    ctx = CoordSystem(tuple(("l", b) for b in phi.blocks))
    tbar = Q(1, len(phi.blocks))
    center = [Q(0)] * eta.ctx.nvars
    images = [Poly.zero(ctx)] * eta.ctx.nvars
    for b in phi.blocks:
        for v in b:
            i = eta.ctx.var("l", v)
            center[i] = tbar / len(b)
            images[i] = (1 - eps) * center[i] + Poly.variable(ctx, ctx.var("l", v)) * (eps * tbar)
    composed = sum((c * math.prod(map(pow, images, e), start=Poly.const(ctx, 1))
                    for e, c in g.terms.items()), Poly.zero(ctx))
    return integrate_top_form(whitney_form(ctx) * composed), g.evaluate(center)
