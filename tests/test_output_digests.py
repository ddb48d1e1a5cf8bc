"""Byte-level goldens of the three JSON outputs a refactor must keep.

`prismal primitive --check-horizontal` (with `--oracle-eps 1/10000` on three
of its inputs) and `prismal sheaf --dump-sheaf` run on inputs this file
writes itself, and `prismal check --suite all --json` on the built-in
universes at `--max-dim 3 --seed 0` and `--max-dim 5 --seed 7`; the sha256
of every output file must match `data/output_digests.json`.  A change that
alters the primitives on purpose (a new gauge or fiber homotopy) updates
those digests in the same change and names the ones that moved.

The descended numerators have goldens of their own, independent of how they
are written: every pinned primitive output, two fibred grids and the triangle
fan with l_3^130 dl_3 are read back, each numerator is expanded into
monomials of its simplex (`_support.numerator_digest`), and the sha256 of
those rows must match `data/numerator_digests.json`.
"""

import hashlib
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from prismal.cli import main
from prismal.fixtures import (five_over_two, square_over_edge, tetra_pair_over_triangle,
                              triangle_fan)
from prismal.forms import Form, Poly, d, simplex_context
from prismal.io import form_to_dict
from prismal.mesh import SimplicialComplex, SimplicialMorphism
from _support import (collapse_edge, complex_to_dict, cylinder_over_edge, morphism_to_dict,
                      numerator_digest)
from test_io_cli import _check_a_large_exponent
from test_primitive import S, fibred_grid

DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "output_digests.json").read_text())
NUMERATOR_DIGESTS = json.loads((DATA / "numerator_digests.json").read_text())

# name -> (fixture, degree r, alpha): omega = d(alpha), alpha a sum of
# c * prod(l_v for v in monomial) * d l_w1 ^ ... over the listed dvars
PRIMITIVE_CASES = {
    "primitive/triangle_fan/r1": (triangle_fan, 1, [
        (1, (2, 3), ()), (-2, (3, 4), ()), (Q(3, 2), (0, 3), ()), (5, (3, 5), ())]),
    "primitive/tetra_pair_over_triangle/r1": (tetra_pair_over_triangle, 1, [
        (1, (1, 2), ()), (Q(-1, 3), (2, 3), ())]),
    "primitive/five_over_two/r1": (five_over_two, 1, [
        (1, (1, 3, 5), ()), (1, (0, 2), ())]),
    "primitive/five_over_two/r2": (five_over_two, 2, [
        (1, (1, 3), (5,)), (1, (1, 5, 5), (3,))]),
    "primitive/five_over_two/r3": (five_over_two, 3, [
        (1, (1, 1), (3, 5)), (1, (3,), (1, 5))]),
}

# name -> (fixture, degree r, alpha) of each `prismal primitive --oracle-eps
# 1/10000`; over the point, a relative face of the tetra pair at r = 2 has a
# fiber block of 3 vertices (block factorial 2), and its alpha gives nonzero
# quadratic contractions there
ORACLE_CASES = {
    "oracle/triangle_fan/r1": PRIMITIVE_CASES["primitive/triangle_fan/r1"],
    "oracle/five_over_two/r2": PRIMITIVE_CASES["primitive/five_over_two/r2"],
    "oracle/tetra_pair_over_point/r2": (
        lambda: SimplicialMorphism(SimplicialComplex([S(0, 1, 2, 3), S(1, 2, 3, 4)]),
                                   SimplicialComplex([S(100)]), {v: 100 for v in range(5)}),
        2, [(1, (1, 1, 2), (3,)), (-2, (2,), (4,))]),
}

# name -> (fixture, degree r, alpha) of the fibred grids whose expanded
# numerators are pinned, alpha a global polynomial (a monomial lives on the
# cells holding all its vertices)
GRID_CASES = {
    "primitive/fibred_grid/2x3/r1": (lambda: fibred_grid(2, 3), 1, [
        (1, (0, 5), ()), (Q(-2, 3), (1, 5, 6), ()), (3, (5, 5), ()), (1, (6,), ())]),
    "primitive/fibred_grid/3x4/r1": (lambda: fibred_grid(3, 4), 1, [
        (1, (0, 6), ()), (Q(-2, 3), (1, 6, 7), ()), (3, (6, 6), ()), (1, (12,), ())]),
}

# name -> morphism whose two sheaves `prismal sheaf --dump-sheaf` writes
SHEAF_CASES = {f"sheaf/{fx.__name__}": fx for fx in (
    triangle_fan, collapse_edge, square_over_edge, five_over_two,
    tetra_pair_over_triangle, cylinder_over_edge)}
SHEAF_CASES["sheaf/fibred_grid/2x3"] = lambda: fibred_grid(2, 3)

# (max_dim, seed) of each pinned `prismal check --suite all`: the bounds
# l <= 2 and q <= 2 only cut a suite's range from max_dim 4 up
CHECK_CASES = ((3, 0), (5, 7))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_morphism(directory: Path, f) -> list[str]:
    """Complex and morphism files of f; the CLI's input flags."""
    paths = {name: directory / f"{name}.json" for name in ("complex", "morphism")}
    paths["complex"].write_text(json.dumps(complex_to_dict(f.source)))
    morphism = morphism_to_dict(f)
    morphism["target"] = complex_to_dict(f.target)
    paths["morphism"].write_text(json.dumps(morphism))
    return [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]


def write_inputs(directory: Path, fixture, alpha) -> list[str]:
    """Complex, morphism and form files of d(alpha); the CLI's input flags."""
    f = fixture()
    args = write_morphism(directory, f)
    forms = []
    for s in f.source.maximal:
        sc = simplex_context(s)
        form = Form.zero(sc)
        for c, mono, dvars in alpha:
            if not set(mono + dvars) <= s.vset:
                continue
            coeff = Poly.const(sc, c)
            for v in mono:
                coeff = coeff * Poly.variable(sc, sc.var("l", v))
            form = form + Form(sc, {tuple(sc.var("l", w) for w in dvars): coeff})
        fd = form_to_dict(d(form))
        fd["cell"] = list(s.vertices)
        forms.append(fd)
    form = directory / "form.json"
    form.write_text(json.dumps({"forms": forms}))
    return [*args, "--form", str(form)]


def run_primitive(directory: Path, name: str, fixture, r, alpha, *extra) -> tuple[int, Path]:
    """Exit code and output path of `prismal primitive --check-horizontal`
    on d(alpha), run in a directory of its own."""
    case_dir = directory / name.replace("/", "_")
    case_dir.mkdir()
    target = case_dir / "primitive.json"
    rc = main(["primitive", *write_inputs(case_dir, fixture, alpha), *extra,
               "--out", str(target), "--degree", str(r), "--check-horizontal"])
    return rc, target


def output_digests(directory: Path) -> dict[str, tuple[int, str]]:
    """(exit code, sha256 of the output file) of every pinned command."""
    out = {}
    for name, (fixture, r, alpha) in {**PRIMITIVE_CASES, **ORACLE_CASES}.items():
        oracle = ["--oracle-eps", "1/10000"] if name in ORACLE_CASES else []
        rc, target = run_primitive(directory, name, fixture, r, alpha, *oracle)
        out[name] = (rc, _sha256(target))
    for name, fixture in SHEAF_CASES.items():
        case_dir = directory / name.replace("/", "_")
        case_dir.mkdir()
        target = case_dir / "sheaf.json"
        rc = main(["sheaf", *write_morphism(case_dir, fixture()), "--dump-sheaf", str(target)])
        out[name] = (rc, _sha256(target))
    for max_dim, seed in CHECK_CASES:
        report = directory / f"check-{max_dim}-{seed}.json"
        rc = main(["check", "--suite", "all", "--max-dim", str(max_dim), "--seed", str(seed),
                   "--json", str(report)])
        out[f"check/all/max-dim-{max_dim}/seed-{seed}"] = (rc, _sha256(report))
    return out


def numerator_digests(directory: Path) -> dict[str, str]:
    """`numerator_digest` of every primitive output `output_digests` wrote
    in `directory`, of the fibred grids and of the large-exponent probe."""
    outputs = {name: directory / name.replace("/", "_") / "primitive.json"
               for name in {**PRIMITIVE_CASES, **ORACLE_CASES}}
    for name, (fixture, r, alpha) in GRID_CASES.items():
        rc, outputs[name] = run_primitive(directory, name, fixture, r, alpha)
        assert rc == 0, name
    out = {name: numerator_digest(json.loads(path.read_text())) for name, path in outputs.items()}
    probe = directory / "large_exponent"
    probe.mkdir()
    out["primitive/triangle_fan/l3^130"] = numerator_digest(_check_a_large_exponent(probe, 130))
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return tmp_path_factory.mktemp("outputs")


@pytest.fixture(scope="module")
def digests(outputs):
    return output_digests(outputs)


@pytest.fixture(scope="module")
def numerators(outputs, digests):
    return numerator_digests(outputs)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_match_the_golden_digest(digests, name):
    rc, digest = digests[name]
    assert rc == 0
    assert digest == DIGESTS[name]


def test_every_pinned_command_has_a_digest(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(NUMERATOR_DIGESTS))
def test_expanded_numerator_matches_the_golden_digest(numerators, name):
    assert numerators[name] == NUMERATOR_DIGESTS[name]


def test_every_pinned_numerator_has_a_digest(numerators):
    assert sorted(numerators) == sorted(NUMERATOR_DIGESTS)
