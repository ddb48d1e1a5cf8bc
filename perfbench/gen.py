"""Seeded input generators for the `cube` and `grid` workloads.

Everything here is plain Python on integers: the generators do not import
`prismal`, so an input depends only on the seed and on this file, and the
program under test sees nothing but the JSON files written from it.

Each input draws from two random streams.  The *shape* stream (which
monomials exist, which symmetry of the cube places them) depends only on
the case, never on the seed or the round; the *value* stream (every
coefficient) depends on the seed and runs on from round to round.  The
pipeline's cost, and whether an op trips a known defect, follow the shape
of an input: free random shapes cost anywhere from 0.04 s to 120 s per op
at the same relative degree and made the share of failing grid ops swing
from seed to seed, which no run length averages out.  With shapes shared,
every round of every seed does comparable work and exposes the same
defects, so a run's figures do not hang on how many rounds fit in it, and
each seed still gets inputs of its own.

A form is kept as ``{dvars: {exponent: coeff}}`` over the barycentric
coordinates of one simplex, where ``dvars`` is a strictly increasing tuple
of coordinate positions and ``exponent`` a tuple with one entry per vertex.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# (source maximal simplices, vertex map) of the fixtures the workloads use,
# copied from the package so that an input never changes with the program.
FIXTURES = {
    "five_over_two": (
        [[0, 1, 2, 3, 4, 5]],
        {0: 100, 1: 100, 2: 101, 3: 101, 4: 102, 5: 102}),
    "triangle_fan": (
        [[0, 2, 3], [0, 1, 3], [1, 3, 4], [2, 3, 5], [3, 4, 5]],
        {0: 100, 1: 100, 2: 101, 3: 101, 4: 101, 5: 102}),
    "tetra_pair_over_triangle": (
        [[0, 1, 2, 3], [1, 2, 3, 4]],
        {0: 100, 1: 100, 4: 100, 2: 101, 3: 102}),
}

COEFFS = (-3, -2, -1, 1, 2, 3)
# P takes its coefficients from a wide range: with a few small values, two
# monomials often share one and an overlap difference can vanish by that
# coincidence, which flips whether a grid op trips a defect from seed to
# seed; with these, a vanishing overlap comes from the shape of P alone.
WIDE_COEFFS = tuple(c for c in range(-999, 1000) if c)

# Per relative degree r, alpha on `five_over_two` (fibers {0,1}, {2,3},
# {4,5} over 100, 101, 102) as (dvars, [vertices of each monomial]).
CUBE_SHAPES = {
    1: ((), [(1, 3, 5), (0, 2)]),
    2: ((4,), [(0,), (5,)]),
    3: ((3, 5), [(1,)]),
}

GRID_SHAPES = (["triangle_fan", "tetra_pair_over_triangle"]
               + [(k, m) for k in (1, 2, 3, 4) for m in (2, 3, 4, 5, 6)])


def fibred_grid(k: int, m: int):
    """A base path of k edges times a fiber path of m segments.

    Vertex (i, j) is numbered i*(m+1)+j and maps to base vertex 100+i; each
    square is cut along its diagonal into two staircase triangles.
    """
    vid = lambda i, j: i * (m + 1) + j
    cells = []
    for i in range(k):
        for j in range(m):
            cells.append([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
    vmap = {vid(i, j): 100 + i for i in range(k + 1) for j in range(m + 1)}
    return cells, vmap


def d_form(form: dict, nvars: int) -> dict:
    """Exterior derivative in the coordinates l_0..l_{nvars-1}."""
    out: dict = {}
    for dv, poly in form.items():
        for exp, c in poly.items():
            for i in range(nvars):
                if not exp[i] or i in dv:
                    continue
                sign = -1 if sum(1 for j in dv if j < i) % 2 else 1
                new_dv = tuple(sorted(dv + (i,)))
                new_exp = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                slot = out.setdefault(new_dv, {})
                slot[new_exp] = slot.get(new_exp, 0) + sign * c * exp[i]
    out = {dv: {e: c for e, c in p.items() if c} for dv, p in out.items()}
    return {dv: p for dv, p in out.items() if p}


def term_count(form: dict) -> int:
    return sum(len(p) for p in form.values())


def expected_prisms(cells, vmap, r: int) -> int:
    """Prisms the pipeline builds: over each base cell tau whose relative
    dimension reaches r, the maximal source cells with image exactly tau."""
    over: dict = {}
    for c in cells:
        for k in range(1, len(c) + 1):
            for face in itertools.combinations(c, k):
                over.setdefault(frozenset(vmap[v] for v in face), set()).add(frozenset(face))
    total = 0
    for tau, faces in over.items():
        tops = [s for s in faces if not any(s < t for t in faces)]
        if max(len(s) - len(tau) for s in tops) >= r:
            total += len(tops)
    return total


def cube_alpha(shape: random.Random, values: random.Random, r: int) -> dict:
    """CUBE_SHAPES[r] under a symmetry of the cube (permute the fibers,
    swap within each fiber) drawn from `shape`, coefficients from `values`."""
    perm = shape.sample(range(3), 3)
    flip = [shape.randrange(2) for _ in range(3)]
    sym = lambda v: 2 * perm[v // 2] + ((v % 2) ^ flip[v // 2])
    dvars, monomials = CUBE_SHAPES[r]
    poly = {}
    for vertices in monomials:
        exp = [0] * 6
        for v in vertices:
            exp[sym(v)] += 1
        poly[tuple(exp)] = values.choice(COEFFS)
    return {tuple(sorted(sym(v) for v in dvars)): poly}


def global_support(shape: random.Random, cells) -> list:
    """Monomials of P in the vertex coordinates, each supported on one
    cell, as sorted ((vertex, power), ...) keys."""
    keys = []
    for _ in range(len(cells) + 2):
        cell = shape.choice(cells)
        exp: dict = {}
        for _ in range(shape.randint(1, 3)):
            v = shape.choice(cell)
            exp[v] = exp.get(v, 0) + 1
        key = tuple(sorted(exp.items()))
        if key not in keys:
            keys.append(key)
    return keys


def restrict_global(poly: dict, cell) -> dict:
    """P restricted to a cell, as a 0-form in the cell's coordinates: the
    monomials whose vertices all lie in the cell."""
    pos = {v: i for i, v in enumerate(cell)}
    out: dict = {}
    for key, c in poly.items():
        if all(v in pos for v, _ in key):
            exp = [0] * len(cell)
            for v, n in key:
                exp[pos[v]] = n
            out[tuple(exp)] = c
    return {(): out} if out else {}


def form_entry(cell, form: dict) -> dict:
    names = [f"l:{v}" for v in cell]
    terms = []
    for dv in sorted(form, key=lambda t: (len(t), t)):
        poly = [{"c": str(c), "exp": {names[i]: n for i, n in enumerate(e) if n}}
                for e, c in sorted(form[dv].items())]
        terms.append({"dvars": [names[i] for i in dv], "poly": poly})
    return {"cell": list(cell), "terms": terms}


def _morphism_files(cells, vmap):
    verts = sorted({v for c in cells for v in c})
    complex_ = {"vertices": verts, "maximal_simplices": [list(c) for c in cells]}
    images = {tuple(sorted({vmap[v] for v in c})) for c in cells}
    target_cells = [list(t) for t in sorted(images)
                    if not any(set(t) < set(u) for u in images)]
    target = {"vertices": sorted({y for t in target_cells for y in t}),
              "maximal_simplices": target_cells}
    morphism = {"vertex_map": {str(v): str(vmap[v]) for v in verts},
                "target": target}
    return complex_, morphism


def _case(label: str, cells, vmap, r: int, entries: list, terms: int) -> dict:
    complex_, morphism = _morphism_files(cells, vmap)
    return {"props": {"shape": label, "r": r, "source_cells": len(cells),
                      "prisms": expected_prisms(cells, vmap, r), "input_terms": terms},
            "complex": complex_, "morphism": morphism, "form": {"forms": entries}}


def cube_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """Rounds of omega = d(alpha) on `five_over_two`, at r = 1, 2, 3."""
    values = random.Random(f"cube:{seed}")
    cells, vmap = FIXTURES["five_over_two"]
    out = []
    for _ in range(rounds):
        out.append([])
        for r in sorted(CUBE_SHAPES):
            omega = d_form(cube_alpha(random.Random(f"cube-shape:{r}"), values, r), 6)
            out[-1].append(_case("five_over_two", cells, vmap, r,
                                 [form_entry(cells[0], omega)], term_count(omega)))
    return out


def grid_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """Rounds of omega = d(P|sigma), one case per entry of GRID_SHAPES.

    P is a global polynomial, so the family is coherent and globally exact
    and every op must pass.
    """
    values = random.Random(f"grid:{seed}")
    out = []
    for _ in range(rounds):
        out.append([])
        for shape in GRID_SHAPES:
            if isinstance(shape, str):
                (cells, vmap), label = FIXTURES[shape], shape
            else:
                (cells, vmap), label = fibred_grid(*shape), f"{shape[0]}x{shape[1]}"
            cells = [sorted(c) for c in cells]
            keys = global_support(random.Random(f"grid-shape:{label}"), cells)
            poly = {key: values.choice(WIDE_COEFFS) for key in keys}
            entries, terms = [], 0
            for c in cells:
                omega = d_form(restrict_global(poly, c), len(c))
                terms += term_count(omega)
                entries.append(form_entry(c, omega))
            out[-1].append(_case(label, cells, vmap, 1, entries, terms))
    return out


def write_case(case: dict, directory: Path, name: str) -> dict:
    """Write the three input files of one case; returns their paths."""
    paths = {}
    for part in ("complex", "morphism", "form"):
        path = directory / f"{name}.{part}.json"
        path.write_text(json.dumps(case[part], indent=1, sort_keys=True) + "\n")
        paths[part] = str(path)
    return paths
