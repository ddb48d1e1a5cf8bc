import random
from fractions import Fraction as Q

import pytest

from prismal.forms import Poly, simplex_context
from prismal.mesh import Prism, Simplex
from prismal.verify import (IdentityReport, SUITES, _rank, prism_universe,
                            run_suite, simplex_universe, verify_bord,
                            verify_faceface, verify_facepri, verify_facepro,
                            verify_iminve_suite, verify_lemcod_basis,
                            verify_lemcod_prism, verify_lemcod_simplex,
                            verify_satrap, verify_satrapaz)


def S(*vs):
    return Simplex(tuple(vs))


def test_universes_shape():
    assert [s.dim for s in simplex_universe(4)] == [1, 2, 3, 4]
    prisms = prism_universe()
    assert len(prisms) == 2 + 4 + 8
    assert max(p.dim for p in prisms) == 6


def test_lemcod_single_cases():
    assert verify_lemcod_simplex(S(0, 1, 2), S(0, 1)).passed
    p = Prism((S(0, 1), S(2, 3, 4)))
    q = Prism((S(0, 1), S(2, 4)))
    assert verify_lemcod_prism(p, q).passed


def test_lemcod_basis_small():
    for dims in [(1,), (2,), (1, 1), (1, 2), (2, 2)]:
        factors, v = [], 0
        for dd in dims:
            factors.append(S(*range(v, v + dd + 1)))
            v += dd + 1
        rep = verify_lemcod_basis(Prism(tuple(factors)))
        assert rep.passed, rep.residual


def test_bord_cases():
    for p in (1, 2, 3):
        assert verify_bord(S(*range(p + 1))).passed


def test_satrap_examples():
    for p, ell in [(2, 0), (3, 1), (4, 2)]:
        assert verify_satrap(p, ell).passed


def test_satrapaz_examples():
    ctx = simplex_context(S(0, 1, 2, 3))
    assert verify_satrapaz(3, 1, Poly.const(ctx, 1)).passed
    assert verify_satrapaz(3, 1, Poly.variable(ctx, 0)).passed


def test_iminve_small():
    reports = verify_iminve_suite(2, 0)
    assert reports and all(r.passed for r in reports)


def test_faceface_family():
    assert verify_faceface(3, 1).passed
    assert verify_facepri(2).passed
    assert verify_facepro((1, 1)).passed
    assert verify_facepro((2, 2)).passed


def test_every_suite_passes():
    for name in SUITES:
        reports = run_suite(name, 4, 0)
        assert reports, name
        failed = [r for r in reports if not r.passed]
        assert not failed, (name, failed[:3])


def test_reports_are_deterministic():
    a = [r.as_dict() for r in run_suite("satrapaz", 4, 5)]
    b = [r.as_dict() for r in run_suite("satrapaz", 4, 5)]
    assert a == b
    c = [r.as_dict() for r in run_suite("satrapaz", 4, 6)]
    assert [x["case"] for x in a] != [x["case"] for x in c]


def test_report_shape():
    rep = IdentityReport("x", "y", False, "nonzero")
    assert rep.as_dict() == {"identity": "x", "case": "y", "status": "fail",
                             "residual": "nonzero"}


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", 4, 0)


def _rank_cases(rng, count):
    """Seeded rational matrices: combinations of a few random rows (so often
    rank-deficient), with zero rows, repeated rows, integer entries and
    rows cut short (ragged: their missing entries read as zeros).  Each row
    is a sparse {column: entry} dict, as `_rank` takes it; a row cut short
    lacks its last columns."""
    for _ in range(count):
        width = rng.randint(0, 6)
        basis = [[Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(width)]
                 for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.random()
            if kind < 0.15:
                row = [Q(0)] * width
            elif kind < 0.3 and rows:
                row = list(rng.choice(rows))
            else:
                coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
                row = [sum((c * b[k] for c, b in zip(coeffs, basis)), Q(0))
                       for k in range(width)]
            if rng.random() < 0.2:
                row = [int(x) if x.denominator == 1 else x for x in row]
            if rng.random() < 0.2:
                row = row[:rng.randint(0, width)]
            rows.append(row)
        yield [dict(enumerate(r)) for r in rows], width


def test_fraction_free_rank_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    kinds = set()
    for rows, width in _rank_cases(random.Random(26), 240):
        flat = [sympy.Rational(r.get(k, 0)) for r in rows for k in range(width)]
        want = sympy.Matrix(len(rows), width, flat).rank()
        assert _rank(rows) == want, rows
        kinds.add(("deficient", want < min(len(rows), width)))
        kinds.add(("ragged", any(len(r) < width for r in rows)))
    assert kinds == {(k, b) for k in ("deficient", "ragged") for b in (True, False)}
