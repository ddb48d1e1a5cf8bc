"""Exact polynomial exterior calculus in barycentric coordinates.

Coordinates come in groups, one per simplex factor of the underlying cell;
each group carries the relation "sum of its variables = 1".  Forms are kept
in the redundant variables; equality, degree and integration questions go
through `canonicalize`, which eliminates the last variable of every group:
the fiber groups in one pass, then the base groups in a second.

Wedge reorderings take their sign from `mesh.perm_sign` through
`_sort_wedge`, the one permutation-sign routine of the package, and the
base-volume test `de ^ a` of every closing residual and of the
fiberwise-zero criterion is `base_volume_residual`.  Canonically `de` is a
constant times the kept base differentials, so that test canonicalizes only
the vertical part of `a`; `vertical_part` commutes with the canonical chart,
so it is still the canonical form of `de ^ a`, term for term.

Every chart of the package is "one dropped variable per group" (or none,
for a group kept whole), and one kernel, `eliminate`, applies them all: the
canonical chart, the first-variable chart of integration and the cone
operator, its fiber-only variant, and the subface charts of the C
coefficients.  The kernel scales the coefficients by their common
denominator, accumulates the substitution x_drop = 1 - sum(rest) in
integers with cached powers of (1 - sum(rest)), and divides once per output
term.

Every coordinate map the package builds (the blow-down psi, face
restrictions, horizontal specializations) is monomial: each target variable
goes to a single term c_i x^a_i or to zero.  `Poly.substitute` maps such a
monomial by exponent arithmetic alone, and `pullback` maps each wedge dy_dv
through the integer minors det A[dv, J] of the exponent matrix, computed
once per wedge; the products accumulate in integers scaled by a common
denominator.  Maps with a multi-term image take the definition
phi*(p) ^ d(phi_i1) ^ ... ^ d(phi_ik), over `substitute`, `d` and `wedge`.

All coefficients are exact rationals, stored as a Python `int` when integral
and as a `Fraction` otherwise, never as a float.  The public `Poly(...)` and
`Form(...)` constructors validate and normalize their input to this
invariant; kernel operations keep it and build their results through the
trusted `_make` constructors.  Division only ever happens through
`Fraction`, so no float can arise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, index, sub
from typing import Iterable, Mapping

from .mesh import Prism, Simplex, StructureError, boundary_chain, perm_sign

Q = Fraction


class FormError(ValueError):
    pass


class DegreeError(FormError):
    pass


class ContextError(FormError):
    pass


BASE_TAG = "t"


@dataclass(frozen=True)
class CoordSystem:
    """Ordered coordinate groups (tag, vertex tuple); one relation per group.

    Variable names are "tag:vertex".  Groups tagged "t" are base directions
    (the image of the cell under its projection); all others are fiber
    directions.
    """

    groups: tuple[tuple[str, tuple[int, ...]], ...]

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        out = []
        for tag, verts in self.groups:
            out.extend(f"{tag}:{v}" for v in verts)
        if len(set(out)) != len(out):
            raise ContextError(f"coordinate names collide in {out}")
        return tuple(out)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    @functools.cached_property
    def group_of(self) -> tuple[int, ...]:
        out = []
        for g, (_, verts) in enumerate(self.groups):
            out.extend([g] * len(verts))
        return tuple(out)

    @functools.cached_property
    def group_vars(self) -> tuple[tuple[int, ...], ...]:
        out, pos = [], 0
        for _, verts in self.groups:
            out.append(tuple(range(pos, pos + len(verts))))
            pos += len(verts)
        return tuple(out)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def cell_dim(self) -> int:
        return self.nvars - len(self.groups)

    @functools.cached_property
    def base_groups(self) -> tuple[int, ...]:
        return tuple(g for g, (tag, _) in enumerate(self.groups) if tag == BASE_TAG)

    @functools.cached_property
    def fiber_groups(self) -> tuple[int, ...]:
        return tuple(g for g, (tag, _) in enumerate(self.groups) if tag != BASE_TAG)

    def var(self, tag: str, vertex: int) -> int:
        return self.index[f"{tag}:{vertex}"]

    def __repr__(self):
        return "Ctx[" + "; ".join(f"{t}:{v}" for t, v in self.groups) + "]"


def simplex_context(s: Simplex) -> CoordSystem:
    if s.is_empty:
        raise ContextError("no coordinates on the empty simplex")
    return CoordSystem((("l", s.vertices),))


def prism_context(p: Prism) -> CoordSystem:
    return CoordSystem(tuple((f"m:{j}", f.vertices) for j, f in enumerate(p.factors)))


def pi_context(base: Simplex, fibers: Iterable[Simplex]) -> CoordSystem:
    """Context of a trivial prism base x fiber_0 x ... x fiber_s."""
    groups = [(BASE_TAG, base.vertices)]
    groups += [(f"m:{j}", f.vertices) for j, f in enumerate(fibers)]
    return CoordSystem(tuple(groups))


def _exponents(e) -> tuple[int, ...]:
    """An exponent tuple as non-negative Python ints; anything else is rejected."""
    try:
        out = tuple(map(index, e))
    except TypeError:
        raise FormError(f"exponents must be integers, got {e!r}") from None
    if any(n < 0 for n in out):
        raise FormError(f"exponents must be non-negative, got {out!r}")
    return out


def _int_if_integral(c):
    """The coefficient invariant: an int when integral, else a Fraction."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _clean(acc: dict) -> dict:
    """Drop the zeros of an accumulator and restore the coefficient invariant."""
    return {e: _int_if_integral(c) for e, c in acc.items() if c}


def _common_denominator(term_maps: Iterable[Mapping]) -> int:
    den = 1
    for terms in term_maps:
        for c in terms.values():
            if type(c) is not int:
                den = math.lcm(den, c.denominator)
    return den


def _scaled(terms: Mapping, den: int) -> dict:
    """den * terms in ints; den must clear every denominator."""
    return {e: c * den if type(c) is int else c.numerator * (den // c.denominator)
            for e, c in terms.items()}


def _unscale(acc: dict, den: int) -> dict:
    """Divide an int accumulator by den once per term; drop the zeros."""
    if den == 1:
        return {e: c for e, c in acc.items() if c}
    return {e: c // den if c % den == 0 else Fraction(c, den)
            for e, c in acc.items() if c}


def _add_into(acc: dict, terms: Mapping, scale=1) -> None:
    """acc += scale * terms, in place; `_clean` finishes the result."""
    get = acc.get
    for e, c in terms.items():
        if scale != 1:
            c = c * scale
        prev = get(e)
        acc[e] = c if prev is None else prev + c


def _mul_into(acc: dict, a: Mapping, b: Mapping, scale=1) -> None:
    """acc += scale * a * b over exponent tuples, in place."""
    get = acc.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        if scale != 1:
            c1 = c1 * scale
        for e2, c2 in b_items:
            e = tuple(map(add, e1, e2))
            prev = get(e)
            acc[e] = c1 * c2 if prev is None else prev + c1 * c2


def _monomial_images(images: Mapping[int, "Poly"]) -> dict | None:
    """Each image as None (zero) or (sparse exponents, coefficient); None
    when some image has more than one term."""
    out: dict = {}
    for i, p in images.items():
        if len(p.terms) > 1:
            return None
        out[i] = None
        for e, c in p.terms.items():
            out[i] = (tuple((j, n) for j, n in enumerate(e) if n), c)
    return out


def _substitute_monomial(terms: Mapping, mono: Mapping, start: list[int]) -> dict:
    """The substitution of a monomial map, as an accumulator for `_clean`,
    with `start` added to every output exponent."""
    acc: dict = {}
    get = acc.get
    for e, c in terms.items():
        out = start[:]
        for i, n in enumerate(e):
            if n:
                img = mono[i]
                if img is None:
                    break
                sparse, ci = img
                for j, k in sparse:
                    out[j] += n * k
                if ci != 1:
                    c = c * ci ** n
        else:
            e2 = tuple(out)
            prev = get(e2)
            acc[e2] = c if prev is None else prev + c
    return acc


class Poly:
    """Multivariate polynomial over Q in the variables of a CoordSystem.

    `terms` maps exponent tuples of non-negative ints to nonzero
    coefficients, each an int when integral and a Fraction otherwise.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: CoordSystem, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.ctx = ctx
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not int:
                    c = _int_if_integral(Q(c))
                if c:
                    self.terms[_exponents(e)] = c

    @classmethod
    def _make(cls, ctx: CoordSystem, terms: dict) -> "Poly":
        """Trusted constructor: `terms` already satisfies the invariants."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, ctx: CoordSystem, c) -> "Poly":
        z = (0,) * ctx.nvars
        return cls(ctx, {z: c})

    @classmethod
    def zero(cls, ctx: CoordSystem) -> "Poly":
        return cls._make(ctx, {})

    @classmethod
    def variable(cls, ctx: CoordSystem, i: int) -> "Poly":
        e = [0] * ctx.nvars
        e[i] = 1
        return cls._make(ctx, {tuple(e): 1})

    # -- ring operations ----------------------------------------------
    def _chk(self, other: "Poly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextError("polynomials live in different contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        self._chk(other)
        t = dict(self.terms)
        _add_into(t, other.terms)
        return Poly._make(self.ctx, _clean(t))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._make(self.ctx, _clean({e: c * other for e, c in self.terms.items()}))
        self._chk(other)
        t: dict = {}
        _mul_into(t, self.terms, other.terms)
        return Poly._make(self.ctx, _clean(t))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise FormError("negative powers are not polynomials")
        if n == 0:
            return Poly.const(self.ctx, 1)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    # -- calculus ------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        # lowering e[i] is injective on the monomials with e[i] > 0
        t: dict = {}
        for e, c in self.terms.items():
            n = e[i]
            if n:
                t[e[:i] + (n - 1,) + e[i + 1:]] = _int_if_integral(c * n)
        return Poly._make(self.ctx, t)

    def substitute(self, images: Mapping[int, "Poly"], target: CoordSystem) -> "Poly":
        """Substitute every variable by its image polynomial over `target`.

        When every image is a single term or zero (a monomial map), each
        monomial maps by exponent arithmetic alone: e' = sum n_i e_i and
        c' = c prod c_i^n_i.  Other images multiply out term by term.
        """
        mono = _monomial_images(images)
        if mono is not None:
            acc = _substitute_monomial(self.terms, mono, [0] * target.nvars)
            return Poly._make(target, _clean(acc))
        out = Poly.zero(target)
        for e, c in self.terms.items():
            term = Poly.const(target, c)
            for i, n in enumerate(e):
                term = term * images[i] ** n
            out = out + term
        return out

    def evaluate(self, point: Iterable) -> Fraction:
        pt = [Q(x) for x in point]
        total = Q(0)
        for e, c in self.terms.items():
            v = c
            for i, n in enumerate(e):
                if n:
                    v *= pt[i] ** n
            total += v
        return total

    def evaluate_float(self, point) -> float:
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for i, n in enumerate(e):
                if n:
                    v *= float(point[i]) ** n
            total += v
        return total

    def homogeneous_parts(self, vars_: Iterable[int] | None = None) -> dict[int, "Poly"]:
        vs = tuple(vars_) if vars_ is not None else tuple(range(self.ctx.nvars))
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            m = sum(e[i] for i in vs)
            parts.setdefault(m, {})[e] = c
        return {m: Poly._make(self.ctx, t) for m, t in parts.items()}

    def map_context(self, target: CoordSystem) -> "Poly":
        """Reinterpret by variable name into a context containing the same names."""
        mapping = [target.index[n] for n in self.ctx.names]
        t: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * target.nvars
            for i, n in enumerate(e):
                e2[mapping[i]] = n
            t[tuple(e2)] = c
        return Poly._make(target, t)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ctx.names
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{names[i]}^{n}" if n > 1 else names[i]
                for i, n in enumerate(e) if n)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class Form:
    """Differential form with Poly coefficients; wedge part stored sorted."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: CoordSystem, terms: Mapping[tuple[int, ...], Poly] | None = None):
        self.ctx = ctx
        self.terms: dict[tuple[int, ...], Poly] = {}
        if terms:
            for dv, p in terms.items():
                dv = tuple(dv)
                if list(dv) != sorted(set(dv)):
                    raise FormError(f"wedge indices must be strictly increasing: {dv}")
                if p:
                    self.terms[dv] = p

    @classmethod
    def _make(cls, ctx: CoordSystem, terms: dict) -> "Form":
        """Trusted constructor: sorted wedge keys, nonzero Poly values."""
        f = object.__new__(cls)
        f.ctx = ctx
        f.terms = terms
        return f

    @classmethod
    def _from_acc(cls, ctx: CoordSystem, acc: dict) -> "Form":
        """A form from per-wedge coefficient accumulators (see `_add_into`)."""
        terms = {}
        for dv, t in acc.items():
            t = _clean(t)
            if t:
                terms[dv] = Poly._make(ctx, t)
        return cls._make(ctx, terms)

    @classmethod
    def _from_scaled(cls, ctx: CoordSystem, acc: dict, den: int) -> "Form":
        """A form from per-wedge int accumulators holding den times it."""
        terms = {}
        for dv, t in acc.items():
            t = _unscale(t, den)
            if t:
                terms[dv] = Poly._make(ctx, t)
        return cls._make(ctx, terms)

    @classmethod
    def zero(cls, ctx: CoordSystem) -> "Form":
        return cls._make(ctx, {})

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls._make(p.ctx, {(): p} if p else {})

    @classmethod
    def const(cls, ctx: CoordSystem, c) -> "Form":
        return cls.from_poly(Poly.const(ctx, c))

    @classmethod
    def d_var(cls, ctx: CoordSystem, i: int) -> "Form":
        return cls(ctx, {(i,): Poly.const(ctx, 1)})

    def _chk(self, other: "Form"):
        if self.ctx != other.ctx:
            raise ContextError("forms live in different contexts")

    def __add__(self, other: "Form") -> "Form":
        self._chk(other)
        t = dict(self.terms)
        for dv, p in other.terms.items():
            if dv in t:
                s = t[dv] + p
                if s:
                    t[dv] = s
                else:
                    del t[dv]
            else:
                t[dv] = p
        return Form._make(self.ctx, t)

    def __neg__(self):
        return Form._make(self.ctx, {dv: -p for dv, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, Poly):
            scalar = Q(scalar)
        terms = {}
        for dv, p in self.terms.items():
            q = p * scalar
            if q:
                terms[dv] = q
        return Form._make(self.ctx, terms)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Form) and self.ctx == other.ctx and self.terms == other.terms

    def degrees(self) -> set[int]:
        return {len(dv) for dv in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError(f"mixed degrees {degs}")
        return degs.pop() if degs else 0

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ctx.names
        bits = []
        for dv, p in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            w = "^".join(f"d{names[i]}" for i in dv)
            coeff = f"({p})"
            bits.append(f"{coeff}{'*' + w if w else ''}")
        return " + ".join(bits)


# wedge index tuples recur across calls; the bound keeps the cache finite
@functools.lru_cache(maxsize=1 << 16)
def _sort_wedge(dvars: tuple[int, ...]):
    """Sorted wedge indices and the sign of sorting them; None if one repeats."""
    if len(set(dvars)) != len(dvars):
        return None, 0
    return tuple(sorted(dvars)), perm_sign(dvars)


def wedge(x: Form, y: Form) -> Form:
    """Graded-commutative exterior product."""
    x._chk(y)
    acc: dict[tuple[int, ...], dict] = {}
    y_items = list(y.terms.items())
    for dv1, p1 in x.terms.items():
        for dv2, p2 in y_items:
            merged, sign = _sort_wedge(dv1 + dv2)
            if merged is None:
                continue
            _mul_into(acc.setdefault(merged, {}), p1.terms, p2.terms, sign)
    return Form._from_acc(x.ctx, acc)


def d(a: Form) -> Form:
    """Formal exterior derivative, term by term."""
    acc: dict[tuple[int, ...], dict] = {}
    for dv, p in a.terms.items():
        for i in range(a.ctx.nvars):
            merged, sign = _sort_wedge((i,) + dv)
            if merged is None:
                continue
            dp = p.diff(i)
            if dp:
                _add_into(acc.setdefault(merged, {}), dp.terms, sign)
    return Form._from_acc(a.ctx, acc)


@dataclass(frozen=True)
class CoordMap:
    """Polynomial coordinate map, used contravariantly through `pullback`."""

    source: CoordSystem
    target: CoordSystem
    images: tuple[tuple[str, Poly], ...]  # target variable name -> Poly over source

    @classmethod
    def build(cls, source: CoordSystem, target: CoordSystem,
              images: Mapping[str, Poly]) -> "CoordMap":
        missing = [n for n in target.names if n not in images]
        if missing:
            raise ContextError(f"missing images for {missing}")
        return cls(source, target, tuple((n, images[n]) for n in target.names))

    @functools.cached_property
    def image_list(self) -> tuple[Poly, ...]:
        return tuple(p for _, p in self.images)

    @functools.cached_property
    def monomials(self) -> dict | None:
        """The images as `_monomial_images` reads them; None unless monomial."""
        return _monomial_images(dict(enumerate(self.image_list)))


def _exterior_minors(mono: Mapping, dv: tuple[int, ...], memo: dict) -> dict:
    """The nonzero minors det A[dv, J] of the exponent matrix of a monomial
    map, as {bit mask of the source wedge J: int}; a zero or constant image
    has an empty row.  `memo` holds the minors of the prefixes met so far in
    one pullback, starting from {(): {0: 1}}.
    """
    k = len(dv)
    while dv[:k] not in memo:
        k -= 1
    minors = memo[dv[:k]]
    for n in range(k, len(dv)):
        img = mono[dv[n]]
        row = img[0] if img is not None else ()
        nxt: dict[int, int] = {}
        for J, det in minors.items():
            for j, a in row:
                if not J >> j & 1:  # dx_J ^ dx_j: dx_j passes the members of J above j
                    sign = -1 if (J >> j).bit_count() & 1 else 1
                    nxt[J | 1 << j] = nxt.get(J | 1 << j, 0) + sign * a * det
        minors = {J: det for J, det in nxt.items() if det}
        memo[dv[:n + 1]] = minors
    return minors


@functools.lru_cache(maxsize=1 << 16)
def _wedge_of_mask(mask: int, nvars: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted indices of a bit mask, and its 0/1 exponent tuple."""
    e = tuple(mask >> i & 1 for i in range(nvars))
    return tuple(i for i in range(nvars) if e[i]), e


def _pullback_by_definition(m: CoordMap, a: Form) -> Form:
    """phi*(p) ^ d(phi_i1) ^ ... ^ d(phi_ik), summed over the terms of `a`."""
    out = Form.zero(m.source)
    for dv, p in a.terms.items():
        term = Form.from_poly(p.substitute(dict(enumerate(m.image_list)), m.source))
        for i in dv:
            term = wedge(term, d(Form.from_poly(m.image_list[i])))
        out = out + term
    return out


def pullback(m: CoordMap, a: Form) -> Form:
    """Substitute the coefficients and map each dvar to d(its image).

    For a monomial map, image_i = c_i x^a_i, d(image_i1) ^ ... over dv is
    (prod_{i in dv} image_i) sum_J det A[dv, J] x^-e_J dx_J, with the integer
    minors of `_exterior_minors`; the products accumulate in ints scaled by
    the common denominator.  Other maps take `_pullback_by_definition`.
    """
    if a.ctx != m.target:
        raise ContextError("form context does not match the map's target")
    mono, nvars = m.monomials, m.source.nvars
    if mono is None:
        return _pullback_by_definition(m, a)
    memo: dict = {(): {0: 1}}
    pieces = []
    for dv, p in a.terms.items():
        minors = _exterior_minors(mono, dv, memo)
        if minors:
            # prod_{i in dv} image_i = scale x^shift; shift starts the substitution
            bump = _wedge_of_mask(sum(1 << i for i in dv), m.target.nvars)[1]
            [(shift, scale)] = _substitute_monomial({bump: 1}, mono, [0] * nvars).items()
            coeff = _substitute_monomial(p.terms, mono, list(shift))
            if scale != 1:
                coeff = {e: c * scale for e, c in coeff.items()}
            pieces.append((coeff, minors))
    den = _common_denominator(coeff for coeff, _ in pieces)
    acc: dict[tuple[int, ...], dict] = {}
    for coeff, minors in pieces:
        scaled = list(_scaled(coeff, den).items())
        for mask, det in minors.items():
            J, e_J = _wedge_of_mask(mask, nvars)
            dst = acc.setdefault(J, {})
            for e, c in scaled:
                e = tuple(map(sub, e, e_J))
                dst[e] = dst.get(e, 0) + c * det
    return Form._from_scaled(m.source, acc, den)


# ---------------------------------------------------------------------------
# Elimination charts
# ---------------------------------------------------------------------------
#
# A chart names, per coordinate group, the variable it drops, or None to keep
# the group whole.  Eliminating substitutes x_drop = 1 - sum(rest) and
# dx_drop = -sum(d rest) for each dropped variable; the one kernel below does
# this for every chart in the package.

Chart = tuple  # tuple[int | None, ...], one entry per group


def elimination_chart(ctx: CoordSystem, drops: Iterable[int]) -> Chart:
    """The chart dropping the given variables, at most one per group."""
    chart: list[int | None] = [None] * len(ctx.groups)
    for i in drops:
        g = ctx.group_of[i]
        if chart[g] is not None:
            raise ContextError(f"a chart drops one variable per group; group {g} twice")
        chart[g] = i
    return tuple(chart)


# bounded, because one process may meet many contexts; module-level, so that
# `cache_clear` can reset them between independent runs
@functools.lru_cache(maxsize=1 << 10)
def _one_minus_power(ctx: CoordSystem, drop: int, k: int) -> dict:
    """(1 - sum of the other variables of drop's group)^k, int coefficients.

    The dropped variable fixes its group, so charts that drop the same
    variable share these powers.  Callers must not mutate the result.
    """
    if k == 0:
        return {(0,) * ctx.nvars: 1}
    rest = [i for i in ctx.group_vars[ctx.group_of[drop]] if i != drop]
    acc: dict = {}
    for e, c in _one_minus_power(ctx, drop, k - 1).items():
        acc[e] = acc.get(e, 0) + c
        for i in rest:
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            acc[e2] = acc.get(e2, 0) - c
    return {e: c for e, c in acc.items() if c}


@functools.lru_cache(maxsize=1 << 16)
def _wedge_expansion(ctx: CoordSystem, chart: Chart, dv: tuple[int, ...]
                     ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The wedge dv in the chart, as (sorted wedge, int coefficient) pairs."""
    terms: dict[tuple[int, ...], int] = {(): 1}
    for i in dv:
        g = ctx.group_of[i]
        if chart[g] == i:
            factors = [(j, -1) for j in ctx.group_vars[g] if j != i]
        else:
            factors = [(i, 1)]
        nxt: dict[tuple[int, ...], int] = {}
        for w, c in terms.items():
            for j, s in factors:
                merged, sign = _sort_wedge(w + (j,))
                if merged is not None:
                    nxt[merged] = nxt.get(merged, 0) + c * s * sign
        terms = {w: c for w, c in nxt.items() if c}
    return tuple(terms.items())


def _substitute_drops(ctx: CoordSystem, drops: tuple[int, ...], terms: Mapping,
                      den: int) -> dict:
    """den * terms with each dropped variable replaced by 1 - rest, in ints.

    One dropped variable at a time, the monomials are grouped by their
    exponent k on it, and each group meets (1 - rest)^k once.
    """
    cur = _scaled(terms, den)
    for i in drops:
        groups: dict[int, dict] = {}
        for e, c in cur.items():
            k = e[i]
            if k:
                e = e[:i] + (0,) + e[i + 1:]
            groups.setdefault(k, {})[e] = c
        if len(groups) == 1 and 0 in groups:
            continue
        acc = groups.pop(0, {})
        for k, mons in groups.items():
            _mul_into(acc, mons, _one_minus_power(ctx, i, k))
        cur = {e: c for e, c in acc.items() if c}
    return cur


def eliminate(a: Form, chart: Chart) -> Form:
    """The form in the chart: each dropped variable becomes 1 - rest.

    Coefficients are scaled by the common denominator of the input, so the
    whole substitution accumulates in ints and divides once per output term.
    """
    ctx = a.ctx
    drops = tuple(i for i in chart if i is not None)
    den = _common_denominator(p.terms for p in a.terms.values())
    acc: dict[tuple[int, ...], dict] = {}
    for dv, p in a.terms.items():
        expansion = _wedge_expansion(ctx, chart, dv)
        if not expansion:
            continue
        coeff = _substitute_drops(ctx, drops, p.terms, den)
        for dv2, sign in expansion:
            _add_into(acc.setdefault(dv2, {}), coeff, sign)
    return Form._from_scaled(ctx, acc, den)


def eliminate_poly(p: Poly, chart: Chart) -> Poly:
    """The polynomial in the chart: each dropped variable becomes 1 - rest."""
    den = _common_denominator((p.terms,))
    drops = tuple(i for i in chart if i is not None)
    return Poly._make(p.ctx, _unscale(_substitute_drops(p.ctx, drops, p.terms, den), den))


def _first_chart(ctx: CoordSystem, groups: Iterable[int]) -> tuple[Chart, tuple[int, ...]]:
    """The chart dropping the first variable of each of `groups`, and the rest of theirs."""
    groups = tuple(groups)
    kept = tuple(i for g in groups for i in ctx.group_vars[g][1:])
    return elimination_chart(ctx, (ctx.group_vars[g][0] for g in groups)), kept


def _last_chart(ctx: CoordSystem, groups: Iterable[int]) -> Chart:
    return elimination_chart(ctx, (ctx.group_vars[g][-1] for g in groups))


def canonicalize(a: Form) -> Form:
    """Normal form: substitute the last variable of each group by 1 - rest.

    The fiber groups go in a pass of their own, then the base groups; a
    context with one kind of group only takes one pass.  The blow-down and
    the Whitney forms use the fiber relations (a block sum u_j pulls back
    to t_j times sum mu_j = 1), so differences such as the descent check's
    cancel in the fiber pass.  Collecting that pass into a Form lets terms
    cancel across wedges before the base group's (1 - rest)^k expansions
    would multiply them.  Together the passes drop the variables of the
    one-pass canonical chart, so the result is the same Form.
    """
    ctx = a.ctx
    for groups in (ctx.fiber_groups, ctx.base_groups):
        if groups:
            a = eliminate(a, _last_chart(ctx, groups))
    return a


def equal_mod_relations(a: Form, b: Form) -> bool:
    return canonicalize(a - b).is_zero


def restriction_map(ctx: CoordSystem, face_ctx: CoordSystem) -> CoordMap:
    """Coordinate restriction onto a face: dropped variables (and their
    differentials) go to zero, kept variables map to themselves."""
    images: dict[str, Poly] = {}
    for n in ctx.names:
        if n in face_ctx.index:
            images[n] = Poly.variable(face_ctx, face_ctx.index[n])
        else:
            images[n] = Poly.zero(face_ctx)
    return CoordMap.build(face_ctx, ctx, images)


def restrict_to_face(a: Form, face_ctx: CoordSystem) -> Form:
    """Restrict a form to the face described by `face_ctx`.

    Every group of `face_ctx` must be a sub-tuple of the matching group of
    the ambient context (same tags); missing variables are set to zero along
    with their differentials.
    """
    if face_ctx == a.ctx:
        return a
    amb = dict(a.ctx.groups)
    for tag, verts in face_ctx.groups:
        if tag not in amb:
            raise ContextError(f"face group {tag} not present in ambient context")
        if not set(verts) <= set(amb[tag]):
            raise ContextError(f"face group {tag}:{verts} not inside {amb[tag]}")
    return pullback(restriction_map(a.ctx, face_ctx), a)


# ---------------------------------------------------------------------------
# Whitney forms
# ---------------------------------------------------------------------------

def whitney_form(ctx: CoordSystem, cell: Mapping[int, Iterable[int]] | None = None) -> Form:
    """The Whitney form of a cell, written in the whole context.

    `cell` maps a group index to a vertex subset of that group; None means
    every group, whole.  The form is the wedge, in group order, of
    q! sum_k (-1)^k x_k dx_0 ^ ... ^ dx_k-hat ^ ... ^ dx_q over each subset,
    and the constant 1 when no group is given.  Group variables ascend in
    group order, so each product of terms keeps its wedges concatenated.
    """
    if cell is None:
        cell = dict(enumerate(verts for _, verts in ctx.groups))
    acc: dict[tuple[int, ...], dict] = {(): {(0,) * ctx.nvars: 1}}
    for g in sorted(cell):
        idx = [ctx.var(ctx.groups[g][0], v) for v in cell[g]]
        if not idx:
            raise FormError("empty vertex subset")
        fact = math.factorial(len(idx) - 1)
        block = [(k, i) + _sort_wedge(tuple(idx[:k] + idx[k + 1:])) for k, i in enumerate(idx)]
        nxt: dict[tuple[int, ...], dict] = {}
        for dv, terms in acc.items():
            for k, i, dv_g, sign in block:
                if dv_g is not None:
                    _add_into(nxt.setdefault(dv + dv_g, {}),
                              {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in terms.items()},
                              sign * (-1) ** k * fact)
        acc = nxt
    return Form._from_acc(ctx, acc)


def whitney(s: Simplex) -> Form:
    """Whitney volume form of a simplex in its own context."""
    return whitney_form(simplex_context(s))


def whitney_extended(face: Simplex, s: Simplex) -> Form:
    """The written formula of the face's Whitney form, read on the cell."""
    if not s.has_face(face):
        raise StructureError(f"{face} is not a face of {s}")
    return whitney_form(simplex_context(s), {0: face.vertices})


def whitney_prism(p: Prism) -> Form:
    """Product Whitney form: wedge of the per-factor forms, factor order."""
    return whitney_form(prism_context(p))


def whitney_relative(ctx: CoordSystem) -> Form:
    """Vertical Whitney form: wedge of the fiber groups' Whitney forms."""
    return whitney_form(ctx, {g: ctx.groups[g][1] for g in ctx.fiber_groups})


def de_form(ctx: CoordSystem) -> Form:
    """Pullback of the base volume form: wedge of base-group Whitney forms."""
    if not ctx.base_groups:
        raise ContextError("context has no base group")
    return whitney_form(ctx, {g: ctx.groups[g][1] for g in ctx.base_groups})


def vertical_part(a: Form) -> Form:
    """Drop every term whose wedge touches a base-group variable."""
    base = set(a.ctx.base_groups)
    keep = {dv: p for dv, p in a.terms.items()
            if not any(a.ctx.group_of[i] in base for i in dv)}
    return Form._make(a.ctx, keep)


def base_volume_residual(a: Form) -> Form:
    """de ^ a, canonicalized: the closing residuals of the pipeline.

    Canonically de is a constant times the wedge of the kept base
    differentials, so every term of a carrying a base differential dies
    against it; only the vertical part is reduced.
    """
    return wedge(canonicalize(de_form(a.ctx)), canonicalize(vertical_part(a)))


def is_fiberwise_zero(a: Form) -> bool:
    """A form is zero on every fiber iff it dies against the base volume."""
    return base_volume_residual(a).is_zero


def relative_d(a: Form) -> Form:
    """Exterior derivative modulo forms vanishing fiberwise.

    The representative is the canonical form with no base differentials.
    """
    return canonicalize(vertical_part(d(a)))


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _dirichlet(exps: Iterable[int]) -> Fraction:
    """Integral of a monomial over the standard simplex in those variables."""
    exps = list(exps)
    return Q(math.prod(map(math.factorial, exps)), math.factorial(len(exps) + sum(exps)))


def _integrate(a: Form, groups: tuple[int, ...]) -> Poly:
    """Integrate over the simplices of `groups`, factor-wise (Fubini).

    In the chart dropping each of those groups' first variable, oriented by
    the stored vertex order, every term must carry exactly the kept
    differentials of `groups`; each monomial integrates by the Dirichlet
    formula per group, leaving a polynomial in the other groups' variables.
    """
    ctx = a.ctx
    chart, full = _first_chart(ctx, groups)
    acc: dict = {}
    for dv, p in eliminate(a, chart).terms.items():
        if dv != full:
            raise DegreeError(f"not a top-degree form over groups {groups} "
                              f"(term {dv}, expected {full})")
        for e, coeff in p.terms.items():
            block = math.prod(_dirichlet(e[i] for i in ctx.group_vars[g][1:]) for g in groups)
            key = tuple(0 if i in full else n for i, n in enumerate(e))
            acc[key] = acc.get(key, 0) + coeff * block
    return Poly._make(ctx, _clean(acc))


def integrate_top_form(a: Form) -> Fraction:
    """Exact integral of a top-degree form over its cell."""
    integral = _integrate(a, tuple(range(len(a.ctx.groups))))
    return Q(integral.terms.get((0,) * a.ctx.nvars, 0))


def integrate_fiber(a: Form) -> Poly:
    """Integrate a vertical top-degree form over the fiber; returns a
    polynomial in the base variables."""
    if not a.ctx.base_groups:
        raise ContextError("context has no base group")
    return _integrate(a, a.ctx.fiber_groups)


# ---------------------------------------------------------------------------
# Homotopy (cone) operator
# ---------------------------------------------------------------------------

def poincare_primitive(a: Form) -> Form:
    """Primitive of a fiberwise closed, purely vertical form of degree >= 1.

    Works in the chart that drops each fiber group's first variable (each
    fiber is then a product of standard simplices, star-shaped around the
    origin = its first vertices).  Base variables are parameters, and the
    homotopy contracts the fiber directions only; in a context with no base
    group every group is a fiber group, so a closed form on a cell gets its
    full cone primitive.
    """
    ctx = a.ctx
    chart, kept = _first_chart(ctx, ctx.fiber_groups)
    c = eliminate(a, chart)
    cone_vars = set(kept)
    check = relative_d(c)
    if not check.is_zero:
        raise FormError(f"form is not closed; no primitive exists: d residual {check}")
    acc: dict[tuple[int, ...], dict] = {}
    for dv, p in c.terms.items():
        r = len([i for i in dv if i in cone_vars])
        if r == 0:
            if not dv:
                raise DegreeError("cannot take a primitive of a 0-form part")
            raise FormError("vertical homotopy requires vertical terms")
        for m, pm in p.homogeneous_parts(kept).items():
            if not pm:
                continue
            scale = Q(1, m + r)
            for k, i in enumerate(dv):
                if i not in cone_vars:
                    continue
                rest = dv[:k] + dv[k + 1:]
                coeff = pm * Poly.variable(ctx, i)
                _add_into(acc.setdefault(rest, {}), coeff.terms, scale * (-1) ** k)
    return Form._from_acc(ctx, acc)


def whitney_antiboundary(s: Simplex) -> Form:
    """(1/(r+1)) * alternating sum of extended facet Whitney forms; its
    exterior derivative is the cell's Whitney form."""
    r = s.dim
    if r < 1:
        raise DegreeError("needs dim >= 1")
    out = Form.zero(simplex_context(s))
    for face, sign in boundary_chain(s).items():
        out = out + whitney_extended(face, s) * Q(sign, r + 1)
    return out
