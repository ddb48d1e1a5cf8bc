"""File formats: complexes, morphisms and forms as JSON with exact rationals.

Rationals are serialized as "num/den" strings (or "num" when integral).
Validation errors carry the offending cell so the CLI can report the first
violated invariant.

Every JSON file the package writes goes through `dump_json`.  Its bytes are
exactly those of `json.dumps(data, indent=1, sort_keys=True)` followed by a
newline; object keys must be `str` (any other key is a `TypeError`, where
`json` would coerce it).  A `Form` is a leaf: it is written exactly as
`form_to_dict(form)` would be, from its packed numerators, building neither
that dict nor `Poly.terms`.  Any other non-JSON type, a float included, is
a `TypeError`: the package writes no floats.  The writer is a small
recursion because with `indent` the standard library falls back to its
pure-Python encoder.
"""

from __future__ import annotations

import json
import math
import reprlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .mesh import Simplex, SimplicialComplex, SimplicialMorphism, StructureError
from .forms import _BOUND, CoordSystem, Form, Poly, _layout, simplex_context

Q = Fraction


class ValidationError(ValueError):
    pass


# a message echoes a bad value at a bounded depth and width, not the whole file
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxother, _ECHO.maxlist = 3, 60, 60, 12


def _shown(value) -> str:
    """The repr of a bad value as a message echoes it: at most 100 characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


def _int(s: str) -> int:
    """The int `s` spells as `str` writes it, else a ValueError: `int` also
    reads spaces, '+', '_', leading zeros and non-ASCII digits."""
    n = int(s)
    if str(n) != s:
        raise ValueError(s)
    return n


def rational_from_str(s) -> Fraction:
    # a JSON boolean is not a number, though Python's bool is an int
    if type(s) is int:
        return Q(s)
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            q = _int(den) if slash else 1
            if q > 0:
                return Q(_int(num), q)
        except ValueError:
            pass
    raise ValidationError(f"expected an exact rational, got {_shown(s)}")


def _field(obj, key: str, what: str):
    """obj[key] of a JSON object, or a ValidationError naming `what`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {_shown(obj)}")
    if key not in obj:
        raise ValidationError(f"{what} needs {key!r}")
    return obj[key]


def _list(value, what: str) -> list:
    """A JSON list, or a ValidationError naming `what`."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {_shown(value)}")
    return value


def _vertex(v) -> int:
    """A vertex label: an integer, or a string spelling one as `str` does."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return _int(v)
        except ValueError:
            pass
    raise ValidationError(f"vertex labels must be integers, got {_shown(v)}")


def _cell(raw, what: str) -> Simplex:
    """A simplex from a JSON list of vertex labels: nonempty, none repeated."""
    verts = tuple(map(_vertex, _list(raw, what)))
    if not verts:
        raise ValidationError(f"{what} has no vertices")
    if len(set(verts)) != len(verts):
        raise ValidationError(f"repeated vertex in simplex {_shown(raw)}")
    return Simplex(verts)


# ---------------------------------------------------------------------------
# Complexes and morphisms
# ---------------------------------------------------------------------------

def complex_from_dict(dd: dict) -> SimplicialComplex:
    cx = SimplicialComplex([_cell(raw, "a simplex") for raw in _list(
        _field(dd, "maximal_simplices", "complex file"), "maximal_simplices")])
    declared = dd.get("vertices")
    if declared is not None and set(map(_vertex, _list(declared, "vertices"))) != set(cx.vertices):
        missing = set(map(_vertex, declared)) ^ set(cx.vertices)
        raise ValidationError(f"vertex list disagrees with simplices at {_shown(sorted(missing))}")
    return cx


def morphism_from_dict(dd: dict, source: SimplicialComplex,
                       target: SimplicialComplex) -> SimplicialMorphism:
    vmap = _field(dd, "vertex_map", "morphism file")
    if not isinstance(vmap, dict):
        raise ValidationError(f"'vertex_map' must be an object, got {_shown(vmap)}")
    out = {_vertex(k): _vertex(v) for k, v in vmap.items()}  # one spelling per vertex
    extra = sorted(out.keys() - set(source.vertices))
    if extra:
        raise ValidationError(f"vertex_map names {_shown(extra[0])}, not a vertex of the complex")
    try:
        return SimplicialMorphism(source, target, out)
    except StructureError as exc:
        raise ValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Coordinate systems and forms
# ---------------------------------------------------------------------------

def context_to_dict(ctx: CoordSystem) -> dict:
    return {"groups": [{"tag": tag, "vertices": list(verts)}
                       for tag, verts in ctx.groups]}


def context_from_dict(dd: dict) -> CoordSystem:
    groups = []
    for g in _list(_field(dd, "groups", "context"), "context groups"):
        tag = _field(g, "tag", "context group")
        if not isinstance(tag, str):
            raise ValidationError(f"a context tag must be a string, got {_shown(tag)}")
        verts = _list(_field(g, "vertices", "context group"), "context vertices")
        groups.append((tag, tuple(map(_vertex, verts))))
    return CoordSystem(tuple(groups))


def poly_from_list(ctx: CoordSystem, items: list) -> Poly:
    terms = {}
    for item in _list(items, "a polynomial"):
        c = rational_from_str(_field(item, "c", "polynomial term"))
        exp = item.get("exp", {})
        if not isinstance(exp, dict):
            raise ValidationError(f"'exp' must be an object, got {_shown(exp)}")
        e = [0] * ctx.nvars
        for name, n in exp.items():
            if name not in ctx.index:
                raise ValidationError(f"unknown variable {_shown(name)} in polynomial")
            if type(n) is not int or not 0 <= n <= _BOUND:
                raise ValidationError(
                    f"exponent of {name!r} must be an integer in 0..{_BOUND}, got {_shown(n)}")
            e[ctx.index[name]] = n
        terms[tuple(e)] = terms.get(tuple(e), Q(0)) + c
    return Poly(ctx, terms)


def form_to_dict(form: Form) -> dict:
    names = form.ctx.names
    terms = []
    for dv, p in sorted(form.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        poly = [{"c": str(c), "exp": {names[i]: n for i, n in enumerate(e) if n}}
                for e, c in sorted(p.terms.items())]
        terms.append({"dvars": [names[i] for i in dv], "poly": poly})
    return {"context": context_to_dict(form.ctx), "terms": terms}


def form_from_list(ctx: CoordSystem, items: list) -> Form:
    """The form over `ctx` whose terms `form_to_dict` writes under "terms"."""
    out = Form.zero(ctx)
    for item in _list(items, "form terms"):
        dv = []
        for name in _list(_field(item, "dvars", "form term"), "dvars"):
            if not isinstance(name, str) or name not in ctx.index:
                raise ValidationError(f"unknown differential {_shown(name)}")
            dv.append(ctx.index[name])
        if sorted(set(dv)) != dv:
            raise ValidationError(f"dvars must be strictly increasing: {_shown(item['dvars'])}")
        # entries with a repeated wedge part accumulate
        poly = poly_from_list(ctx, _field(item, "poly", "form term"))
        out = out + Form(ctx, {tuple(dv): poly})
    return out


def forms_file_to_inputs(dd: dict, cx: SimplicialComplex) -> dict[Simplex, Form]:
    """Per-cell input forms: {"forms": [{"cell": [...], "terms": [...]}]}.

    Each entry's context is the simplex context of its cell; an explicit
    "context" is honored but must match.  A cell may be given once, in any
    vertex order.
    """
    entries = _list(_field(dd, "forms", "forms file"), "forms")
    out: dict[Simplex, Form] = {}
    seen: set[frozenset[int]] = set()
    for entry in entries:
        cell = _cell(_field(entry, "cell", "form entry"), "a form cell")
        if cell not in cx:
            raise ValidationError(f"form cell {_shown(list(cell.vertices))} is not in the complex")
        if cell.vset in seen:
            raise ValidationError(f"form cell {_shown(list(cell.vertices))} is given twice")
        seen.add(cell.vset)
        ctx = simplex_context(cell)
        if "context" in entry:
            declared = context_from_dict(entry["context"])
            if declared != ctx:
                raise ValidationError(
                    f"context of {_shown(list(cell.vertices))} must be its simplex context")
        out[cell] = form_from_list(ctx, entry.get("terms", []))
    return out


def _object(pairs: list) -> dict:
    """A JSON object; `json` would keep the last of two equal keys silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValidationError(f"key {_shown(key)} is repeated in an object")
    return obj


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_object)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, a repeated key or an int past the digit limit
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:  # json's decoder recurses once per level
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _form_layout(ctx: CoordSystem, depth: int, newlines: list) -> tuple:
    """The fixed pieces of a form written at `depth`: its context header, its
    quoted variable names, their indices in name order ("m:0:12" before
    "m:0:3"), the separators of each nesting level below it, and a memo of
    each packed key met so far: its exponent tuple and its "exp" object."""
    while len(newlines) <= depth + 6:
        newlines.append(newlines[-1] + " ")
    n = newlines[depth:depth + 7]
    header: list = []
    _encode(context_to_dict(ctx), depth + 1, header, newlines, {})
    names = ctx.names
    return ("{" + n[1] + '"context": ' + "".join(header) + "," + n[1] + '"terms": ',
            [_quote(name) for name in names],
            sorted(range(len(names)), key=names.__getitem__), n, {})


def _encode_form(form: Form, layout: tuple, out: list) -> None:
    """Append `form` as `_encode(form_to_dict(form))` would, without the dicts,
    from its packed numerators: each coefficient c/den is written as
    `str(Fraction)` writes it, in lowest terms."""
    header, qnames, order, n, seen = layout
    s = _layout(len(qnames))
    head = f'{n[4]}{{{n[5]}"c": "'
    out.append(header)
    terms = []
    for dv, p in sorted(form.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        rows = []
        for key, c in p.num.items():
            if (known := seen.get(key)) is None:
                e = s.unpack(key.to_bytes(s.size, "little"))
                exp = [f"{n[6]}{qnames[i]}: {e[i]}" for i in order if e[i]]
                exp = "{" + ",".join(exp) + n[5] + "}" if exp else "{}"
                known = seen[key] = e, f'",{n[5]}"exp": {exp}{n[4]}}}'
            rows.append((known, c))
        rows.sort()  # by exponent tuple: no two are equal
        den, mons = p.den, []
        for (_, tail), c in rows:
            g = math.gcd(c, den)
            c = f"{c // g}/{den // g}" if g != den else c // g
            mons.append(f"{head}{c}{tail}")
        dvars = "[" + ",".join(n[4] + qnames[i] for i in dv) + n[3] + "]" if dv else "[]"
        terms.append(f'{n[2]}{{{n[3]}"dvars": {dvars},{n[3]}"poly": '
                     f'[{",".join(mons)}{n[3]}]{n[2]}}}')
    out.append("[" + ",".join(terms) + n[1] + "]" if terms else "[]")
    out.append(n[0] + "}")


def _encode(value, depth: int, out: list, newlines: list, layouts: dict) -> None:
    """Append the pieces of `value` at nesting `depth`, in `json`'s order of
    type tests (bools before ints).  newlines[k] is "\n" plus the indent of
    depth k, extended as deeper containers appear; layouts caches
    `_form_layout` per (context, depth)."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = depth + 1
        if inner == len(newlines):
            newlines.append(newlines[-1] + " ")
        newline = newlines[inner]
        if isinstance(value, dict):
            out.append("{")
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(newline)
                out.append(_quote(key))
                out.append(": ")
                _encode(value[key], inner, out, newlines, layouts)
                out.append(",")
            close = "}"
        else:
            out.append("[")
            for item in value:
                out.append(newline)
                _encode(item, inner, out, newlines, layouts)
                out.append(",")
            close = "]"
        out[-1] = newlines[depth]  # the last item's comma
        out.append(close)
    elif isinstance(value, Form):
        key = (value.ctx, depth)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _form_layout(value.ctx, depth, newlines)
        _encode_form(value, layout, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(path, data) -> None:
    """Write `data` as `json.dumps(data, indent=1, sort_keys=True)` plus a
    newline would, byte for byte, with each `Form` leaf replaced by
    `form_to_dict(form)`."""
    out: list = []
    _encode(data, 0, out, ["\n"], {})
    out.append("\n")
    try:
        Path(path).write_text("".join(out))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc})") from exc
