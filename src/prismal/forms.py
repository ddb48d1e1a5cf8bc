"""Exact polynomial exterior calculus in barycentric coordinates.

Coordinates come in groups, one per simplex factor of the underlying cell;
each group carries the relation "sum of its variables = 1".  Forms are kept
in the redundant variables; equality, degree and integration questions go
through `canonicalize`, which eliminates the last variable of every group:
the fiber groups in one pass, then the base groups in a second.

A wedge of integer 1-forms (the chart rows, the exponent rows of a
monomial map, a fiber frame) expands by its minors, `_exterior_minors`; a
concatenated wedge is reordered by `_sort_wedge`.  The base-volume test
`de ^ a` of every closing residual and of the fiberwise-zero criterion is
`base_volume_residual`.  Canonically `de` is a constant times the kept
base differentials, so that test canonicalizes only the vertical part of
`a`; `vertical_part` commutes with the canonical chart, so it is still the
canonical form of `de ^ a`, term for term.

Every chart of the package is "one dropped variable per group" (or none,
for a group kept whole), and one kernel, `eliminate`, applies them all: the
canonical chart, the first-variable chart of integration and the cone
operator, its fiber-only variant, and the subface charts of the C
coefficients.  The kernel accumulates the substitution x_drop = 1 - sum(rest)
on the integer numerators, with cached powers of (1 - sum(rest)), and
expands dx_drop = -sum(d rest) by the minors of the chart's rows.

Every Whitney form comes from one constructor, `whitney_form(ctx, cell)`,
a function of the cell's index layout (the variable indices of each group's
vertex subset): it builds the int terms once per layout, in a bounded
module-level cache that `cache_clear` empties with the others, and wraps
them in a fresh Form for each context.  The canonical base
volume is cached the same way, per group layout.

Every coordinate map the package builds (the blow-down psi, face
restrictions, horizontal specializations) is monomial: each target variable
goes to a single term c_i x^a_i or to zero.  `Poly.substitute` maps such a
monomial by exponent arithmetic alone, and `pullback` maps each wedge dy_dv
through the integer minors det A[dv, J] of the exponent matrix, computed
once per wedge; the products accumulate on integer numerators.
`CoordMap.build` rejects a multi-term image.

All coefficients are exact rationals, never floats.  A `Poly` stores int
numerators over one positive denominator prime to their content (FLINT's
fmpq_poly layout), and a `Form` the numerators of all its wedges over one
such denominator.  Kernel operations work on the numerators: products
multiply the denominators, sums bring theirs to an lcm, and one gcd per
result cancels.  `Poly.terms` is a read-only view, each coefficient an int
when integral and a `Fraction` otherwise; `Form.terms`, built on first
read, holds one such Poly per wedge.  Constructors and scalar operands take
ints and Fractions only.

Each monomial is one int key, the exponent of variable i in bits 16i to
16i+15, so a product of monomials adds keys.  An exponent is at most 32767
(`_BOUND`): the top bit of each field is a guard, so the sum of two in-bound
keys cannot carry and its guard bits show a field past the bound.
Construction, products and substitutions raise FormError there, never
carrying into a neighbour.  `Poly.terms` is keyed by exponent tuples.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import index, or_
from types import MappingProxyType
from typing import Iterable, Mapping

from .mesh import Prism, Simplex, boundary_chain, perm_sign

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

    @functools.cached_property
    def base_groups(self) -> tuple[int, ...]:
        return tuple(g for g, (tag, _) in enumerate(self.groups) if tag == BASE_TAG)

    @functools.cached_property
    def fiber_groups(self) -> tuple[int, ...]:
        return tuple(g for g, (tag, _) in enumerate(self.groups) if tag != BASE_TAG)

    def var(self, tag: str, vertex: int) -> int:
        try:
            return self.index[f"{tag}:{vertex}"]
        except KeyError:
            raise ContextError(f"no coordinate {tag}:{vertex} in {self!r}") from None

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


_W = 16  # bits per exponent field (struct's "H"); a field's top bit is its guard bit
_FIELD = (1 << _W) - 1
_BOUND = (1 << _W - 1) - 1
_PAST_BOUND = f"an exponent passes the bound {_BOUND}"


@functools.lru_cache(maxsize=1 << 10)
def _layout(nvars: int) -> struct.Struct:
    return struct.Struct(f"<{nvars}H")  # the bytes of a key: field i at bits 16i..16i+15


def _pack(nvars: int, e) -> int:
    """An exponent tuple as a key; anything but `nvars` ints in 0.._BOUND is rejected."""
    try:
        out = tuple(map(index, e))
    except TypeError:
        raise FormError(f"exponents must be integers, got {e!r}") from None
    if len(out) != nvars or not all(0 <= n <= _BOUND for n in out):
        raise FormError(f"exponents must be {nvars} integers in 0..{_BOUND}, got {out!r}")
    return int.from_bytes(_layout(nvars).pack(*out), "little")


def _unpack(nvars: int, key: int) -> tuple[int, ...]:
    s = _layout(nvars)
    return s.unpack(key.to_bytes(s.size, "little"))


@functools.lru_cache(maxsize=1 << 10)
def _guards(nfields: int) -> int:
    return (1 << _W * nfields) // _FIELD << _W - 1


def _past_bound(top: int) -> int:
    """Nonzero iff a field of `top`, the OR or the sum of two in-bound keys,
    passes the bound: such a sum has no carry, so its guard bits tell."""
    return top & _guards(top.bit_length() // _W + 1)


def _rational(c):
    """An exact scalar: an int or a Fraction; anything else is rejected."""
    if isinstance(c, (int, Fraction)):
        return c
    raise FormError(f"exact scalars are ints or Fractions, got {c!r}")


def _lowest(acc: dict, den: int) -> tuple[dict, int]:
    """The int accumulator acc over den in lowest terms: its nonzero
    numerators and a denominator prime to their content (1 for zero).  A
    zero-free accumulator with nothing to cancel is returned, not copied."""
    num = {e: c for e, c in acc.items() if c} if 0 in acc.values() else acc
    if den != 1:
        g = math.gcd(den, *num.values())  # den itself when num is empty
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    return num, den


def _add_into(acc: dict, terms: Mapping, scale=1) -> None:
    """acc += scale * terms, in place; `_lowest` finishes the result."""
    get = acc.get
    for e, c in terms.items():
        if scale != 1:
            c = c * scale
        prev = get(e)
        acc[e] = c if prev is None else prev + c


def _mul_into(acc: dict, a: Mapping, b: Mapping, scale=1) -> None:
    """acc += scale * a * b, in place: a product's key is the sum of its
    factors' keys.  The sum of the keys' ORs bounds every product field by
    field; only when it passes the bound are the products checked."""
    ors = functools.reduce(or_, a, 0) + functools.reduce(or_, b, 0)
    if _past_bound(ors) and _past_bound(functools.reduce(or_, (e1 + e2 for e1 in a for e2 in b))):
        raise FormError(_PAST_BOUND)
    get = acc.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        if scale != 1:
            c1 = c1 * scale
        for e2, c2 in b_items:
            e = e1 + e2
            prev = get(e)
            acc[e] = c1 * c2 if prev is None else prev + c1 * c2


def _substitute_monomial(num: Mapping, m: "CoordMap", start: int = 0) -> tuple[dict, int]:
    """The substitution of the monomial map `m` into int numerators: an int
    accumulator and the denominator the images' coefficients put under it.
    The output key start + sum n_i key_i is checked as it grows: n_i at most
    the row's nmax, then each partial sum by its guard bits, before a carry."""
    rows, guard, layout = m.monomials, _guards(m.source.nvars), _layout(m.target.nvars)
    size, unpack = layout.size, layout.unpack
    acc: dict = {}
    get = acc.get
    over = []  # terms whose images carry a denominator
    for e, c in num.items():
        out, q = start, 1
        for img, n in zip(rows, unpack(e.to_bytes(size, "little"))):
            if n:
                if img is None:
                    break
                _, key, nmax, ci, di = img
                out += n * key
                if n > nmax or out & guard:
                    raise FormError(_PAST_BOUND)
                if ci != 1:
                    c = c * ci ** n
                if di != 1:
                    q *= di ** n
        else:
            if q != 1:
                over.append((out, c, q))
                continue
            prev = get(out)
            acc[out] = c if prev is None else prev + c
    if not over:
        return acc, 1
    den = math.lcm(*(q for _, _, q in over))
    acc = {e: c * den for e, c in acc.items()}
    for e, c, q in over:
        acc[e] = acc.get(e, 0) + c * (den // q)
    return acc, den


class Poly:
    """Multivariate polynomial over Q in the variables of a CoordSystem.

    `num` maps packed exponent keys to nonzero int numerators over the
    positive denominator `den`, with gcd(den, content) = 1.  `terms` is the
    read-only view by exponent tuple, each coefficient an int when integral
    and a Fraction otherwise.
    """

    __slots__ = ("ctx", "num", "den", "_terms")

    def __init__(self, ctx: CoordSystem, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        items = [(_pack(ctx.nvars, e), _rational(c)) for e, c in (terms or {}).items()]
        den = math.lcm(1, *(c.denominator for _, c in items))
        self.ctx = ctx
        self.num, self.den = _lowest(
            {e: c.numerator * (den // c.denominator) for e, c in items}, den)
        self._terms = None

    @classmethod
    def _make(cls, ctx: CoordSystem, num: dict, den: int = 1) -> "Poly":
        """Trusted constructor: `num` over `den` is already in lowest terms."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.num = num
        p.den = den
        p._terms = None
        return p

    @property
    def terms(self) -> Mapping[tuple[int, ...], int | Fraction]:
        if self._terms is None:
            den, s = self.den, _layout(self.ctx.nvars)
            self._terms = MappingProxyType({
                s.unpack(e.to_bytes(s.size, "little")):
                    c if den == 1 else c // den if c % den == 0 else Fraction(c, den)
                for e, c in self.num.items()})
        return self._terms

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, ctx: CoordSystem, c) -> "Poly":
        c = _rational(c)
        return cls._make(ctx, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def zero(cls, ctx: CoordSystem) -> "Poly":
        return cls._make(ctx, {})

    @classmethod
    def variable(cls, ctx: CoordSystem, i: int) -> "Poly":
        return cls._make(ctx, {1 << _W * i: 1})

    # -- ring operations ----------------------------------------------
    def _coerce(self, other) -> "Poly":
        """`other` in this context: a Poly of the same context, or a scalar."""
        if not isinstance(other, Poly):
            return Poly.const(self.ctx, other)
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextError("polynomials live in different contexts")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        t = dict(self.num) if den == self.den else {
            e: c * (den // self.den) for e, c in self.num.items()}
        _add_into(t, other.num, den // other.den)
        return Poly._make(self.ctx, *_lowest(t, den))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.ctx, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            t: dict = {}
            _mul_into(t, self.num, self._coerce(other).num)
            return Poly._make(self.ctx, *_lowest(t, self.den * other.den))
        k, q = _rational(other).as_integer_ratio()
        return Poly._make(self.ctx, *_lowest({e: n * k for e, n in self.num.items()}, self.den * q))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise FormError("negative powers are not polynomials")
        return math.prod([self] * n, start=Poly.const(self.ctx, 1))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    # -- calculus ------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        # lowering e[i] is injective on the monomials with e[i] > 0
        t: dict = {}
        sh = _W * i
        for e, c in self.num.items():
            n = e >> sh & _FIELD
            if n:
                t[e - (1 << sh)] = c * n
        return Poly._make(self.ctx, *_lowest(t, self.den))

    def substitute(self, m: "CoordMap") -> "Poly":
        """The polynomial pulled back through the monomial map `m`: each
        monomial maps by exponent arithmetic alone, e' = sum n_i e_i and
        c' = c prod c_i^n_i."""
        if self.ctx != m.target:
            raise ContextError("polynomial context does not match the map's target")
        acc, den = _substitute_monomial(self.num, m)
        return Poly._make(m.source, *_lowest(acc, self.den * den))

    def evaluate(self, point: Iterable) -> Fraction:
        """The value at a point of exact scalars (ints or Fractions)."""
        pt = [_rational(x) for x in point]
        return sum((c * math.prod(map(pow, pt, e)) for e, c in self.terms.items()), Q(0))

    def homogeneous_parts(self, vars_: Iterable[int] | None = None) -> dict[int, "Poly"]:
        vs = tuple(vars_) if vars_ is not None else tuple(range(self.ctx.nvars))
        parts: dict[int, dict] = {}
        for e, c in self.num.items():
            m = sum(e >> _W * i & _FIELD for i in vs)
            parts.setdefault(m, {})[e] = c
        return {m: Poly._make(self.ctx, *_lowest(t, self.den)) for m, t in parts.items()}

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
    """Differential form over Q: `num` maps each sorted wedge to int
    numerators by packed key over the one positive denominator `den`, with
    no empty wedge, no zero numerator and gcd(den, every numerator) = 1.
    `terms` is the read-only view by wedge, a Poly in lowest terms each."""

    __slots__ = ("ctx", "num", "den", "_terms")

    def __init__(self, ctx: CoordSystem, terms: Mapping[tuple[int, ...], Poly] | None = None):
        polys = {}
        for dv, p in (terms or {}).items():
            dv = tuple(dv)
            if list(dv) != sorted(set(dv)):
                raise FormError(f"wedge indices must be strictly increasing: {dv}")
            if p:
                polys[dv] = p
        # each Poly is in lowest terms, so no prime of the lcm divides every numerator
        den = math.lcm(1, *(p.den for p in polys.values()))
        self.ctx = ctx
        self.num = {dv: p.num if p.den == den else {e: c * (den // p.den) for e, c in p.num.items()}
                    for dv, p in polys.items()}
        self.den = den
        self._terms = None

    @classmethod
    def _make(cls, ctx: CoordSystem, num: dict, den: int = 1) -> "Form":
        """Trusted constructor: `num` over `den` already has the layout."""
        f = object.__new__(cls)
        f.ctx = ctx
        f.num = num
        f.den = den
        f._terms = None
        return f

    @classmethod
    def _from_acc(cls, ctx: CoordSystem, acc: dict, den: int = 1) -> "Form":
        """A form from per-wedge int accumulators over `den`: zeros and empty
        wedges go, and one gcd over the whole form cancels.  A zero-free
        accumulator becomes a numerator itself, not a copy."""
        num = {}
        for dv, t in acc.items():
            if 0 in t.values():
                t = {e: c for e, c in t.items() if c}
            if t:
                num[dv] = t
        if den != 1:
            g = den
            for t in num.values():
                g = math.gcd(g, *t.values())
                if g == 1:
                    break
            if g != 1:  # den itself when num is empty
                den //= g
                num = {dv: {e: c // g for e, c in t.items()} for dv, t in num.items()}
        return cls._make(ctx, num, den)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Poly]:
        if self._terms is None:
            self._terms = MappingProxyType({
                dv: Poly._make(self.ctx, *_lowest(t, self.den)) for dv, t in self.num.items()})
        return self._terms

    @classmethod
    def zero(cls, ctx: CoordSystem) -> "Form":
        return cls._make(ctx, {})

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls._make(p.ctx, {(): p.num} if p else {}, p.den)

    @classmethod
    def const(cls, ctx: CoordSystem, c) -> "Form":
        return cls.from_poly(Poly.const(ctx, c))

    @classmethod
    def d_var(cls, ctx: CoordSystem, i: int) -> "Form":
        return cls._make(ctx, {(i,): {0: 1}})

    def _chk(self, other: "Form"):
        if self.ctx != other.ctx:
            raise ContextError("forms live in different contexts")

    def __add__(self, other: "Form", sign: int = 1) -> "Form":
        """self + sign * other, over the lcm of the denominators."""
        self._chk(other)
        den = math.lcm(self.den, other.den)
        s, o = den // self.den, sign * (den // other.den)
        acc = {dv: t if s == 1 else {e: c * s for e, c in t.items()} for dv, t in self.num.items()}
        for dv, t in other.num.items():
            mine = acc.get(dv)
            if mine is None:
                acc[dv] = t if o == 1 else {e: c * o for e, c in t.items()}
                continue
            if s == 1:  # self's own numerators: add into a copy
                mine = acc[dv] = dict(mine)
            _add_into(mine, t, o)
        return Form._from_acc(self.ctx, acc, den)

    def __sub__(self, other: "Form") -> "Form":
        return self.__add__(other, -1)

    def __neg__(self):
        return Form._make(self.ctx, {dv: {e: -c for e, c in t.items()}
                                     for dv, t in self.num.items()}, self.den)

    def __mul__(self, scalar):
        if isinstance(scalar, Poly):
            if scalar.ctx is not self.ctx and scalar.ctx != self.ctx:
                raise ContextError("polynomials live in different contexts")
            acc: dict = {}
            for dv, t in self.num.items():
                _mul_into(acc.setdefault(dv, {}), t, scalar.num)
            return Form._from_acc(self.ctx, acc, self.den * scalar.den)
        k, q = _rational(scalar).as_integer_ratio()
        return Form._from_acc(self.ctx, {dv: {e: c * k for e, c in t.items()}
                                         for dv, t in self.num.items()}, self.den * q)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, Form) and self.ctx == other.ctx and self.den == other.den
                and self.num == other.num)

    def degrees(self) -> set[int]:
        return {len(dv) for dv in self.num}

    def __repr__(self):
        if not self.num:
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
    y_items = list(y.num.items())
    for dv1, n1 in x.num.items():
        for dv2, n2 in y_items:
            merged, sign = _sort_wedge(dv1 + dv2)
            if merged is not None:
                _mul_into(acc.setdefault(merged, {}), n1, n2, sign)
    return Form._from_acc(x.ctx, acc, x.den * y.den)


def d(a: Form) -> Form:
    """Formal exterior derivative, term by term, on the numerators: d/dx_i
    lowers the field of x_i, which is injective on the keys where it is set."""
    acc: dict[tuple[int, ...], dict] = {}
    for dv, t in a.num.items():
        present = functools.reduce(or_, t)
        for i in range(a.ctx.nvars):
            sh = _W * i
            if not present >> sh & _FIELD:
                continue
            merged, sign = _sort_wedge((i,) + dv)
            if merged is None:
                continue
            dst = acc.setdefault(merged, {})
            for e, c in t.items():
                n = e >> sh & _FIELD
                if n:
                    e -= 1 << sh
                    dst[e] = dst.get(e, 0) + sign * n * c
    return Form._from_acc(a.ctx, acc, a.den)


@dataclass(frozen=True)
class CoordMap:
    """Monomial coordinate map, used contravariantly through `pullback` and
    `Poly.substitute`: each target variable goes to one term over the
    source, or to zero."""

    source: CoordSystem
    target: CoordSystem
    images: tuple[Poly, ...]  # over source, in the order of target.names

    @classmethod
    def build(cls, source: CoordSystem, target: CoordSystem,
              images: Mapping[str, Poly]) -> "CoordMap":
        missing = [n for n in target.names if n not in images]
        if missing:
            raise ContextError(f"missing images for {missing}")
        wide = [n for n in target.names if len(images[n].num) > 1]
        if wide:
            raise ContextError(f"images of {wide} have more than one term; "
                               f"a coordinate map is monomial")
        return cls(source, target, tuple(images[n] for n in target.names))

    @functools.cached_property
    def monomials(self) -> tuple:
        """Each image by target index, as None (zero) or (sparse exponents,
        key, the largest n with n * key in the bound, numerator,
        denominator): the rows `_substitute_monomial` reads."""
        out = []
        for p in self.images:
            out.append(None)
            for e, c in p.num.items():
                exps = _unpack(self.source.nvars, e)
                out[-1] = (tuple((j, n) for j, n in enumerate(exps) if n), e,
                           _BOUND // max((1, *exps)), c, p.den)
        return tuple(out)


def _exterior_minors(rows: list | tuple, dv: tuple[int, ...], memo: dict) -> dict:
    """The nonzero minors det A[dv, J] of an integer matrix given by its
    sparse rows, (column, entry) pairs each, as {bit mask of J: int}: by
    Cauchy-Binet, the wedge over i in dv of sum_j A[i, j] dx_j is
    sum_J det A[dv, J] dx_J.  `memo` holds the minors of the prefixes of dv
    met so far, starting from {(): {0: 1}}; callers must not mutate them.
    """
    k = len(dv)
    while dv[:k] not in memo:
        k -= 1
    minors = memo[dv[:k]]
    for n in range(k, len(dv)):
        nxt: dict[int, int] = {}
        for j, a in rows[dv[n]]:
            bit = 1 << j
            for J, det in minors.items():
                if not J & bit:  # dx_J ^ dx_j: dx_j passes the members of J above j
                    signed = -a if (J >> j).bit_count() & 1 else a
                    nxt[J | bit] = nxt.get(J | bit, 0) + signed * det
        minors = {J: det for J, det in nxt.items() if det} if 0 in nxt.values() else nxt
        memo[dv[:n + 1]] = minors
    return minors


@functools.lru_cache(maxsize=1 << 12)  # keyed on blocks of variable indices
def _frame(layout: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    """The wedge of a fiber frame's dual 1-forms d x_w - d x_first, over
    each block's later w, as {sorted wedge: int determinant}: the exterior
    minors of those rows.  Callers must not mutate it."""
    rows = tuple(((b[0], -1), (w, 1)) for b in layout for w in b[1:])
    minors = _exterior_minors(rows, tuple(range(len(rows))), {(): {0: 1}})
    return {_wedge_of_mask(J, J.bit_length())[0]: det for J, det in minors.items()}


@functools.lru_cache(maxsize=1 << 16)
def _wedge_of_mask(mask: int, nvars: int) -> tuple[tuple[int, ...], int]:
    """The sorted indices of a bit mask, and the key of their product."""
    idx = tuple(i for i in range(nvars) if mask >> i & 1)
    return idx, sum(1 << _W * i for i in idx)


def pullback(m: CoordMap, a: Form) -> Form:
    """Substitute the coefficients and map each dvar to d(its image).

    For a monomial map, image_i = c_i x^a_i, d(image_i1) ^ ... over dv is
    (prod_{i in dv} image_i) sum_J det A[dv, J] x^-e_J dx_J, with the integer
    minors of `_exterior_minors` on the exponent rows; the products
    accumulate on int numerators over the form's denominator times the lcm
    of the images'.
    """
    if a.ctx != m.target:
        raise ContextError("form context does not match the map's target")
    rows, nvars = [img[0] if img else () for img in m.monomials], m.source.nvars
    memo: dict = {(): {0: 1}}
    pieces = []
    for dv, t in a.num.items():
        minors = _exterior_minors(rows, dv, memo)
        if minors:
            # prod_{i in dv} image_i = scale x^shift over sden; shift starts the substitution
            bump = sum(1 << _W * i for i in dv)  # the key of prod_{i in dv} y_i
            shifted, sden = _substitute_monomial({bump: 1}, m)
            [(shift, scale)] = shifted.items()
            coeff, cden = _substitute_monomial(t, m, shift)
            pieces.append((coeff, scale, sden * cden, minors))
    den = math.lcm(1, *(q for _, _, q, _ in pieces))
    acc: dict[tuple[int, ...], dict] = {}
    for coeff, scale, q, minors in pieces:
        scale *= den // q
        scaled = [(e, c * scale) for e, c in coeff.items()] if scale != 1 else list(coeff.items())
        for mask, det in minors.items():
            J, e_J = _wedge_of_mask(mask, nvars)
            dst = acc.setdefault(J, {})
            for e, c in scaled:
                e -= e_J
                dst[e] = dst.get(e, 0) + c * det
    return Form._from_acc(m.source, acc, a.den * den)


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


# bounded, because one process may meet many group layouts; module-level, so
# that `cache_clear` can reset them between independent runs
@functools.lru_cache(maxsize=1 << 10)
def _one_minus_power(group_vars: tuple[tuple[int, ...], ...], drop: int, k: int) -> dict:
    """(1 - sum of the other variables of drop's group)^k, int coefficients.

    By the binomial and multinomial theorems, the monomial x^a of the other
    variables has the coefficient (-1)^|a| k! / ((k - |a|)! prod a_i!),
    built one variable at a time as a product of binomials (-1)^a_i C(left, a_i)
    over the exponent left.
    Keyed on the group layout (`ctx.group_vars`), so contexts with the same
    group sizes share these powers, as do charts that drop the same
    variable.  Callers must not mutate the result.
    """
    terms = {0: (1, k)}  # key -> (coefficient, exponent left)
    for i in next(g for g in group_vars if drop in g):
        if i != drop:
            step, nxt = 1 << _W * i, {}
            for e, (c, left) in terms.items():
                for a in range(left + 1):  # c (-1)^a C(left, a), one step at a time
                    nxt[e + a * step] = (c, left - a)
                    c = -c * (left - a) // (a + 1)
            terms = nxt
    return {e: c for e, (c, _) in terms.items()}


@functools.lru_cache(maxsize=1 << 12)
def _chart_rows(group_vars: tuple[tuple[int, ...], ...], chart: Chart) -> tuple[tuple, dict]:
    """The chart's rows by variable, dx_i or, for a dropped i, -sum d(rest
    of its group), and the memo of their `_exterior_minors` by wedge
    prefix.  Keyed on the group layout like `_one_minus_power`, so every
    context of the layout shares both; the memo holds only the prefixes
    they meet, and `cache_clear` drops it.  Callers must not mutate it.
    """
    return tuple(tuple((j, -1) for j in vs if j != i) if i in chart else ((i, 1),)
                 for vs in group_vars for i in vs), {(): {0: 1}}


def _substitute_drops(ctx: CoordSystem, drops: tuple[int, ...], num: Mapping) -> Mapping:
    """Int numerators with each dropped variable replaced by 1 - rest.

    One dropped variable at a time, the monomials are grouped by their
    exponent k on it, and each group meets (1 - rest)^k once.  The input
    comes back unchanged when no dropped variable occurs in it.
    """
    cur = num
    for i in drops:
        sh = _W * i
        groups: dict[int, dict] = {}
        for e, c in cur.items():
            k = e >> sh & _FIELD
            if k:
                e -= k << sh
            groups.setdefault(k, {})[e] = c
        if len(groups) == 1 and 0 in groups:
            continue
        acc = groups.pop(0, {})
        for k, mons in groups.items():
            _mul_into(acc, mons, _one_minus_power(ctx.group_vars, i, k))
        cur = {e: c for e, c in acc.items() if c}
    return cur


def eliminate(a: Form, chart: Chart) -> Form:
    """The form in the chart: each dropped variable becomes 1 - rest.

    The substitution runs on the numerators, over the form's one
    denominator, so the whole form accumulates in ints.
    """
    ctx = a.ctx
    drops, nvars = tuple(i for i in chart if i is not None), ctx.nvars
    rows, memo = _chart_rows(ctx.group_vars, chart)
    acc: dict[tuple[int, ...], dict] = {}
    for dv, t in a.num.items():
        minors = _exterior_minors(rows, dv, memo)
        if not minors:
            continue
        coeff = _substitute_drops(ctx, drops, t)
        for mask, det in minors.items():
            _add_into(acc.setdefault(_wedge_of_mask(mask, nvars)[0], {}), coeff, det)
    return Form._from_acc(ctx, acc, a.den)


def eliminate_poly(p: Poly, chart: Chart) -> Poly:
    """The polynomial in the chart: each dropped variable becomes 1 - rest."""
    drops = tuple(i for i in chart if i is not None)
    return Poly._make(p.ctx, *_lowest(_substitute_drops(p.ctx, drops, p.num), p.den))


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


@functools.lru_cache(maxsize=1 << 12)  # a pipeline restricts along one pair many times
def restriction_map(ctx: CoordSystem, face_ctx: CoordSystem) -> CoordMap:
    """Coordinate restriction onto a face: dropped variables (and their
    differentials) go to zero, kept variables map to themselves.  When
    `face_ctx` has every name of `ctx`, this is the inclusion by name."""
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
    and the constant 1 when no group is given.  It depends on the cell's
    index layout alone, so its terms come from `_whitney_terms`, and each
    call wraps their cached ints in a fresh Form for `ctx`; a vertex outside
    its group raises ContextError.  The package's cells: a simplex
    or a prism is its own context whole, a face F extended to its simplex s
    is {0: F.vertices} on s's context, the vertical Whitney form is every
    fiber group whole and the base volume de every base group whole.
    """
    if cell is None:
        layout = ctx.group_vars
    else:
        layout = tuple(tuple(ctx.var(ctx.groups[g][0], v) for v in cell[g]) for g in sorted(cell))
    if not all(layout):
        raise FormError("empty vertex subset")
    return Form._make(ctx, dict(_whitney_terms(layout)))


# bounded and module-level, like `_one_minus_power`, so `cache_clear` resets it
@functools.lru_cache(maxsize=1 << 12)
def _whitney_terms(layout: tuple[tuple[int, ...], ...]) -> tuple:
    """The (wedge, int numerators) terms of the Whitney form whose groups'
    variable indices are `layout`, in group order.  Group variables ascend
    in group order, so each product of terms keeps its wedges concatenated.
    The numerators are shared by every form built from them: callers must
    not mutate them.
    """
    acc: dict[tuple[int, ...], dict] = {(): {0: 1}}
    for idx in layout:
        fact = math.factorial(len(idx) - 1)
        block = [(k, i) + _sort_wedge(idx[:k] + idx[k + 1:]) for k, i in enumerate(idx)]
        nxt: dict[tuple[int, ...], dict] = {}
        for dv, terms in acc.items():
            for k, i, dv_g, sign in block:
                if dv_g is not None:
                    _add_into(nxt.setdefault(dv + dv_g, {}),
                              {e + (1 << _W * i): c for e, c in terms.items()},
                              sign * (-1) ** k * fact)
        acc = nxt
    return tuple((dv, num) for dv, t in acc.items() if (num := {e: c for e, c in t.items() if c}))


def vertical_part(a: Form) -> Form:
    """Drop every term whose wedge touches a base-group variable; `a`
    itself when none does."""
    base = {i for g in a.ctx.base_groups for i in a.ctx.group_vars[g]}
    keep = {dv: t for dv, t in a.num.items() if base.isdisjoint(dv)}
    return a if len(keep) == len(a.num) else Form._from_acc(a.ctx, keep, a.den)


def base_volume_residual(a: Form) -> Form:
    """de ^ a, canonicalized: the closing residuals of the pipeline.

    Canonically de is a constant times the wedge of the kept base
    differentials, so every term of a carrying a base differential dies
    against it; only the vertical part is reduced.
    """
    ctx = a.ctx
    de = Form._make(ctx, *_canonical_de(ctx.group_vars, ctx.base_groups))
    return wedge(de, canonicalize(vertical_part(a)))


@functools.lru_cache(maxsize=1 << 10)
def _canonical_de(group_vars: tuple[tuple[int, ...], ...], base_groups: tuple[int, ...]) -> tuple:
    """The numerators and the denominator of the canonical base volume de,
    once per group layout, read on a context of that layout; callers must
    not mutate the numerators."""
    if not base_groups:
        raise ContextError("context has no base group")
    ctx = CoordSystem(tuple((BASE_TAG if g in base_groups else f"m:{g}", vs)
                            for g, vs in enumerate(group_vars)))
    de = canonicalize(whitney_form(ctx, {g: group_vars[g] for g in base_groups}))
    return de.num, de.den


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

def _dirichlet(exps: Iterable[int]) -> tuple[int, int]:
    """Integral of a monomial over the standard simplex in those variables,
    as (numerator, denominator)."""
    exps = list(exps)
    return math.prod(map(math.factorial, exps)), math.factorial(len(exps) + sum(exps))


def _integrate(a: Form, groups: tuple[int, ...]) -> Poly:
    """Integrate over the simplices of `groups`, factor-wise (Fubini).

    In the chart dropping each of those groups' first variable, oriented by
    the stored vertex order, every term must carry exactly the kept
    differentials of `groups`; each monomial integrates by the Dirichlet
    formula per group, leaving a polynomial in the other groups' variables.
    """
    ctx = a.ctx
    chart, full = _first_chart(ctx, groups)
    keep = sum(_FIELD << _W * i for i in range(ctx.nvars) if i not in full)
    rows = []  # (kept key, numerator, denominator) per monomial
    c = eliminate(a, chart)
    for dv, t in c.num.items():
        if dv != full:
            raise DegreeError(f"not a top-degree form over groups {groups} "
                              f"(term {dv}, expected {full})")
        for e, n in t.items():
            q = 1
            for g in groups:
                dn, dd = _dirichlet(e >> _W * i & _FIELD for i in ctx.group_vars[g][1:])
                n, q = n * dn, q * dd
            rows.append((e & keep, n, q))
    den = math.lcm(1, *{q for _, _, q in rows})
    acc: dict = {}
    for key, n, q in rows:
        acc[key] = acc.get(key, 0) + n * (den // q)
    return Poly._make(ctx, *_lowest(acc, c.den * den))


def integrate_top_form(a: Form) -> Fraction:
    """Exact integral of a top-degree form over its cell."""
    integral = _integrate(a, tuple(range(len(a.ctx.groups))))
    return Q(integral.num.get(0, 0), integral.den)


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
    rows = []  # (wedge, key of x_i * monomial, signed numerator, m + r) per cone term
    for dv, t in c.num.items():
        cone = [(k, 1 << _W * i) for k, i in enumerate(dv) if i in cone_vars]
        if not cone:
            if not dv:
                raise DegreeError("cannot take a primitive of a 0-form part")
            raise FormError("vertical homotopy requires vertical terms")
        for e, n in t.items():
            q = sum(e >> _W * i & _FIELD for i in kept) + len(cone)  # m + r
            rows += [(dv[:k] + dv[k + 1:], e + step, -n if k & 1 else n, q) for k, step in cone]
    if _past_bound(functools.reduce(or_, (key for _, key, _, _ in rows), 0)):
        raise FormError(_PAST_BOUND)
    den = math.lcm(1, *{q for *_, q in rows})
    acc: dict[tuple[int, ...], dict] = {}
    for rest, key, n, q in rows:
        dst = acc.setdefault(rest, {})
        dst[key] = dst.get(key, 0) + n * (den // q)
    return Form._from_acc(ctx, acc, c.den * den)


def whitney_antiboundary(s: Simplex) -> Form:
    """(1/(r+1)) * alternating sum of extended facet Whitney forms; its
    exterior derivative is the cell's Whitney form."""
    r = s.dim
    if r < 1:
        raise DegreeError("needs dim >= 1")
    ctx = simplex_context(s)
    return sum((whitney_form(ctx, {0: face.vertices}) * Q(sign, r + 1)
                for face, sign in boundary_chain(s).items()), Form.zero(ctx))
