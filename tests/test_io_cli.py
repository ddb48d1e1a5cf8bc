import ast
import copy
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prismal.cli import main
from prismal.fixtures import square_over_edge, tetra_pair_over_triangle, triangle_fan
from prismal.forms import CoordSystem, Form, Poly, d, simplex_context, whitney_form
from prismal.io import (ValidationError, complex_from_dict, dump_json, form_to_dict,
                        forms_file_to_inputs, load_json, morphism_from_dict,
                        rational_from_str)
from prismal.mesh import Simplex
from prismal.verify import SUITES
from _support import complex_to_dict, cylinder_over_edge, form_from_dict, morphism_to_dict
from test_primitive import cylinder_cyclic_form, global_input


def S(*vs):
    return Simplex(tuple(vs))


def test_rational_strings():
    assert str(Q(3, 4)) == "3/4"
    assert str(Q(5)) == "5"
    assert str(-7) == "-7"
    assert rational_from_str("3/4") == Q(3, 4)
    assert rational_from_str("-2") == Q(-2)
    assert rational_from_str(7) == Q(7)
    for bad in (1.5, "1/0", "abc", "1/2/3", True, False, "1_0/ 2", "1/-2", "1/02", "+1/2"):
        with pytest.raises(ValidationError):
            rational_from_str(bad)
    # int() reads each of these, so two spellings could name one number or
    # vertex: a number is read only as str() writes it
    for bad in (" 7", "7 ", "+7", "7_0", "07", "-0", "\u0667", "\uff17"):
        with pytest.raises(ValidationError, match="expected an exact rational"):
            rational_from_str(bad)
        with pytest.raises(ValidationError, match="vertex labels must be integers"):
            complex_from_dict({"maximal_simplices": [[bad, "1"]]})


# keys that exercise the escaping: quotes, backslashes, control and non-ASCII
_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "\u00e9", "\u2028", "\U0001f600", ""])
_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200)
            | st.text(max_size=8))
_NESTED = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=5)),
    max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_NESTED)
def test_dump_json_matches_json_dumps(tmp_path, data):
    path = tmp_path / "out.json"
    dump_json(path, data)
    assert path.read_bytes() == (json.dumps(data, indent=1, sort_keys=True) + "\n").encode()


# name order differs from index order: "l:12" < "l:3", "m:0:12" < "m:0:2",
# and the base group "t" comes first by index but last by name
_WRITER_CONTEXTS = (
    CoordSystem((("l", (3, 1, 12)),)),
    CoordSystem((("t", (3, 1)), ("m:0", (12, 3, 2)), ("m:1", (5, 10)))),
    CoordSystem((("l", (0,)),)),
)
# small rationals, and integers and fractions of 30 digits or more, either sign
_BIG = st.integers(10 ** 29, 10 ** 45) | st.integers(-10 ** 45, -10 ** 29)
_COEFFS = (st.integers(-7, 7) | st.fractions(-3, 3, max_denominator=6) | _BIG
           | st.builds(Q, _BIG, st.integers(2, 10 ** 35))).filter(bool)


@st.composite
def _writer_forms(draw):
    ctx = draw(st.sampled_from(_WRITER_CONTEXTS))
    exps = st.lists(st.integers(0, 3), min_size=ctx.nvars, max_size=ctx.nvars).map(tuple)
    polys = st.dictionaries(exps, _COEFFS, min_size=1, max_size=4).map(lambda t: Poly(ctx, t))
    dvars = st.sets(st.integers(0, ctx.nvars - 1), max_size=3).map(lambda s: tuple(sorted(s)))
    return Form(ctx, draw(st.dictionaries(dvars, polys, min_size=1, max_size=3)))


def _form_dicts(tree):
    """`tree` with every Form replaced by its `form_to_dict` view."""
    if isinstance(tree, Form):
        return form_to_dict(tree)
    if isinstance(tree, dict):
        return {k: _form_dicts(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_form_dicts(v) for v in tree]
    return tree


_ZERO_FORM = Form.zero(_WRITER_CONTEXTS[1])
_CONSTANT_FORM = Form.from_poly(Poly.const(_WRITER_CONTEXTS[1], Q(-5, 3)))
# num {a: 2, b: 1} over 2: an integral coefficient "1" beside "1/2"
_MIXED_POLY = Poly(_WRITER_CONTEXTS[0], {(1, 0, 0): 1, (0, 2, 1): Q(1, 2)})
# two wedges with the same monomials, negative fractions among them
_SHARED_FORM = Form(_WRITER_CONTEXTS[1], {
    (0, 2): Poly(_WRITER_CONTEXTS[1], {(1, 0, 2, 0, 0, 1, 0): Q(-7, 4), (0,) * 7: -3}),
    (3,): Poly(_WRITER_CONTEXTS[1], {(1, 0, 2, 0, 0, 1, 0): Q(-1, 6), (0,) * 7: Q(5, 9)})})


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.recursive(_writer_forms() | _SCALARS,
                    lambda kids: (st.lists(kids, max_size=3)
                                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
                    max_leaves=6))
@example([_ZERO_FORM, {"c": _CONSTANT_FORM, "z": [[_ZERO_FORM]]}])
@example(_CONSTANT_FORM)
@example({"a": Form.from_poly(_MIXED_POLY), "b": Form(_MIXED_POLY.ctx, {(0,): _MIXED_POLY * -3})})
@example([_SHARED_FORM, {"deeper": [_SHARED_FORM, -_SHARED_FORM]}, _CONSTANT_FORM])
@example(Form.from_poly(Poly(_WRITER_CONTEXTS[2],
                             {(4,): Q(-10 ** 40 - 1, 10 ** 31), (0,): 10 ** 30})))
def test_dump_json_writes_form_leaves_as_form_to_dict(tmp_path, tree):
    path = tmp_path / "out.json"
    dump_json(path, tree)
    want = json.dumps(_form_dicts(tree), indent=1, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_dump_json_writes_from_the_numerators(tmp_path):
    # the writer never builds a polynomial's tuple-and-Fraction view
    tree = [_SHARED_FORM, {"m": Form.from_poly(_MIXED_POLY)}, _SHARED_FORM]
    polys = [p for form in (_SHARED_FORM, tree[1]["m"]) for p in form.terms.values()]
    for p in polys:
        p._terms = None
    dump_json(tmp_path / "out.json", tree)
    assert all(p._terms is None for p in polys)
    assert '"c": "1/2"' in (tmp_path / "out.json").read_text()
    assert '"c": "1",' in (tmp_path / "out.json").read_text()


def test_dump_json_rejects_non_str_keys_and_unknown_values(tmp_path):
    poly = Poly.const(_WRITER_CONTEXTS[0], 1)
    for bad in ({1: "a"}, {"a": {None: 0}}, [Q(1, 2)], {"a": {1, 2}}, [poly],
                {"a": Q(1, 3)}, {"a": {"b": poly}}):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "bad.json", bad)


@pytest.mark.parametrize("leaf", [0.5, -0.0, 1e300, float("inf"), float("nan")])
def test_dump_json_rejects_float_leaves(tmp_path, leaf):
    # the package writes every rational as a "num/den" string, never a float
    for tree in (leaf, [1, leaf], {"a": {"b": leaf}}):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "bad.json", tree)
    assert not (tmp_path / "bad.json").exists()


def test_import_does_not_load_numpy():
    # no package code imports numpy
    root = Path(__file__).resolve().parents[1]
    code = "import sys, prismal, prismal.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True)
    assert proc.stdout.strip() == "False"


def test_complex_roundtrip_and_validation():
    f = triangle_fan()
    dd = complex_to_dict(f.source)
    assert complex_from_dict(dd).cells == f.source.cells
    with pytest.raises(ValidationError):
        complex_from_dict({"maximal_simplices": [[0, 0, 1]]})
    with pytest.raises(ValidationError):
        complex_from_dict({"vertices": [0, 1, 99], "maximal_simplices": [[0, 1]]})
    with pytest.raises(ValidationError):
        complex_from_dict({})


def test_morphism_roundtrip_and_validation():
    f = triangle_fan()
    dd = morphism_to_dict(f)
    back = morphism_from_dict(dd, f.source, f.target)
    assert back.vertex_map == f.vertex_map
    bad = {"vertex_map": {str(v): "100" for v in f.source.vertices}}
    bad["vertex_map"]["5"] = "102"
    # collapsing everything except 5 breaks the simplex-image invariant
    with pytest.raises(ValidationError):
        morphism_from_dict(bad, f.source, f.target)


def test_a_vertex_is_named_once(tmp_path):
    # only "1" spells vertex 1, and json keeps the last of two equal keys:
    # otherwise one vertex could get two images, and the file's last one would win
    f = triangle_fan()
    dd = morphism_to_dict(f)
    dd["vertex_map"]["01"] = "101"
    with pytest.raises(ValidationError, match="vertex labels must be integers, got '01'"):
        morphism_from_dict(dd, f.source, f.target)
    dd["vertex_map"]["01"] = "100"  # an alias is refused even when the images agree
    with pytest.raises(ValidationError, match="got '01'"):
        morphism_from_dict(dd, f.source, f.target)
    path = tmp_path / "twice.json"
    path.write_text('{"a": [{"b": 1, "c": 2}, {"b": 1, "b": 2}]}')
    with pytest.raises(ValidationError) as info:
        load_json(path)
    assert str(path) in str(info.value) and "key 'b' is repeated" in str(info.value)


@pytest.mark.parametrize("command", ["sheaf", "primitive"])
@pytest.mark.parametrize("alias, message", [
    ('"01": "101"', "vertex labels must be integers, got '01'"),
    ('"1": "101"', "key '1' is repeated in an object")], ids=["leading-zero", "repeated-key"])
def test_cli_refuses_a_vertex_named_twice(tmp_path, capsys, command, alias, message):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    text = mpath.read_text()
    assert text.count('"1": "100"') == 1
    mpath.write_text(text.replace('"1": "100"', '"1": "100", ' + alias))
    argv = [command, "--complex", str(cpath), "--morphism", str(mpath)]
    if command == "primitive":
        argv += ["--form", str(wpath), "--out", str(tmp_path / "h.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err
    assert str(mpath) in err or alias.startswith('"01"')
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("command", ["sheaf", "primitive"])
def test_cli_refuses_a_vertex_map_key_outside_the_complex(tmp_path, capsys, command):
    # every vertex of the complex has its image: only the extra key is wrong
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    text = mpath.read_text()
    mpath.write_text(text.replace('"1": "100"', '"1": "100", "99": "101"'))
    argv = [command, "--complex", str(cpath), "--morphism", str(mpath)]
    if command == "primitive":
        argv += ["--form", str(wpath), "--out", str(tmp_path / "h.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "validation error: vertex_map names 99, not a vertex of the complex\n")
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("old, new", [
    ('"0": "100"', '"0": "1_00"'), ('"1": "100"', '"1": " 100"'),
    ('"2": "101"', '"2": "+101"'), ('"3": "101"', '"\u0663": "101"')],
    ids=["underscore", "space", "plus", "arabic-indic"])
def test_cli_refuses_a_noncanonical_vertex(tmp_path, capsys, old, new):
    # int() reads each spelling as the vertex it replaces: only the rule of
    # one spelling per number refuses it
    cpath, mpath, _ = _write_fixture_files(tmp_path)
    text = mpath.read_text()
    assert text.count(old) == 1
    mpath.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["sheaf", "--complex", str(cpath), "--morphism", str(mpath)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: vertex labels must be integers")


def test_form_roundtrip():
    sc = simplex_context(S(0, 1, 2))
    form = d(Form.from_poly(Poly.variable(sc, 0) * Poly.variable(sc, 1) * Q(1, 3)))
    dd = form_to_dict(form)
    assert dd["context"] == {"groups": [{"tag": "l", "vertices": [0, 1, 2]}]}
    back = form_from_dict(json.loads(json.dumps(dd)))
    assert back == form


def test_form_validation_errors():
    base = {"context": {"groups": [{"tag": "l", "vertices": [0, 1]}]}}
    with pytest.raises(ValidationError):
        form_from_dict({**base, "terms": [{"dvars": ["l:9"], "poly": []}]})
    with pytest.raises(ValidationError):
        form_from_dict({**base, "terms": [
            {"dvars": ["l:1", "l:0"], "poly": [{"c": "1", "exp": {}}]}]})
    with pytest.raises(ValidationError):
        form_from_dict({**base, "terms": [
            {"dvars": ["l:0"], "poly": [{"c": "1", "exp": {"l:9": 1}}]}]})


def test_forms_file_referential_integrity():
    f = triangle_fan()
    good = {"forms": [{"cell": [0, 2, 3], "terms": []}]}
    out = forms_file_to_inputs(good, f.source)
    assert S(0, 2, 3) in out
    with pytest.raises(ValidationError):
        forms_file_to_inputs({"forms": [{"cell": [0, 5], "terms": []}]}, f.source)
    with pytest.raises(ValidationError):
        forms_file_to_inputs({"forms": [{"terms": []}]}, f.source)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_fixture_files(tmp_path, pairs=((2, 3), (3, 4), (0, 3), (3, 5)),
                         fixture=triangle_fan, power=0):
    """The input d(sum of prod l_v over each pair) on every cell; with a
    `power` k, plus the exact l_3^k dl_3 on each cell holding vertex 3."""
    f = fixture()
    omega = global_input(f, pairs)
    for s, form in omega.items():
        if power and 3 in s.vertices:
            sc = simplex_context(s)
            l3 = sc.var("l", 3)
            omega[s] = form + Form.d_var(sc, l3) * Poly.variable(sc, l3) ** power
    return _write_input_files(tmp_path, f, omega)


def _write_input_files(tmp_path, f, omega):
    """The complex, morphism (target embedded) and form files of `f` and
    the input forms `omega` on its maximal cells."""
    cpath = tmp_path / "c.json"
    mpath = tmp_path / "f.json"
    wpath = tmp_path / "w.json"
    cpath.write_text(json.dumps(complex_to_dict(f.source)))
    mdict = morphism_to_dict(f)
    mdict["target"] = complex_to_dict(f.target)
    mpath.write_text(json.dumps(mdict))
    forms = []
    for s, form in omega.items():
        fd = form_to_dict(form)
        fd["cell"] = list(s.vertices)
        forms.append(fd)
    wpath.write_text(json.dumps({"forms": forms}))
    return cpath, mpath, wpath


def test_cmd_check_pass(capsys):
    assert main(["check", "--suite", "bord"]) == 0
    out = capsys.readouterr().out
    assert "4/4" in out


def test_cmd_check_failing_case_prints_its_residual_and_exits1(capsys, monkeypatch):
    from prismal import verify
    bord = verify.SUITES["bord"]
    s = Simplex((0, 1))
    broken = verify._report("bord", f"{s}", whitney_form(simplex_context(s)))

    def one_case_broken(max_dim, seed):
        return [broken] + bord(max_dim, seed)[1:]

    monkeypatch.setitem(verify.SUITES, "bord", one_case_broken)
    assert main(["check", "--suite", "bord"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL bord [{s}] residual={broken.residual}", "3/4 identity cases passed"]


@pytest.mark.parametrize("suite", ("all", *SUITES))
@pytest.mark.parametrize("max_dim", [0, -1])
def test_cmd_check_rejects_max_dim_below_one(capsys, suite, max_dim):
    # no universe has cells below dimension 1: an empty run is no success
    assert main(["check", "--suite", suite, "--max-dim", str(max_dim)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:")
    assert "identity cases passed" not in captured.out


def test_cmd_check_json_report(tmp_path):
    report = tmp_path / "report.json"
    assert main(["check", "--suite", "satrap", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["suite"] == "satrap"
    assert all(r["status"] == "pass" for r in data["reports"])


def test_cmd_sheaf(tmp_path, capsys):
    cpath, mpath, _ = _write_fixture_files(tmp_path)
    dump = tmp_path / "sheaf.json"
    assert main(["sheaf", "--complex", str(cpath), "--morphism", str(mpath),
                 "--dump-sheaf", str(dump)]) == 0
    data = json.loads(dump.read_text())
    assert "S" in data and "P" in data
    assert "100,101" in data["P"]["stalks"]
    out = capsys.readouterr().out
    assert "pass" in out


def test_cmd_sheaf_golden_stable(tmp_path):
    cpath, mpath, _ = _write_fixture_files(tmp_path)
    d1, d2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["sheaf", "--complex", str(cpath), "--morphism", str(mpath),
          "--dump-sheaf", str(d1)])
    main(["sheaf", "--complex", str(cpath), "--morphism", str(mpath),
          "--dump-sheaf", str(d2)])
    assert d1.read_text() == d2.read_text()


def test_cmd_primitive_success(tmp_path, capsys):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--check-horizontal"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["degree"] == 1
    assert data["horizontal"] and all(h["ok"] for h in data["horizontal"])
    cell = data["base_cells"]["100,101"]
    assert set(cell["prisms"]) == {"0,1,3", "0,2,3", "1,3,4"}
    for entry in cell["prisms"].values():
        assert entry["residual_zero"]
        assert "C" in entry and "H" in entry and "D" in entry
    for hs in cell["H_S"].values():
        assert hs["descent_verified"]


def _one_horizontal_mismatch(monkeypatch) -> list:
    """Mark one prism of the first horizontal report as mismatched; the
    returned list receives its (tau, face, sigma)."""
    from prismal import primitive
    real, flipped = primitive.check_horizontal, []

    def one_mismatch(f, prim, prim_face):
        rep = real(f, prim, prim_face)
        if not flipped and rep.matches:
            sigma = next(iter(rep.matches))
            rep.matches[sigma] = False
            flipped.append((rep.tau, rep.tau_face, sigma))
        return rep

    monkeypatch.setattr(primitive, "check_horizontal", one_mismatch)
    return flipped


def test_cmd_primitive_horizontal_mismatch_names_prisms(tmp_path, capsys, monkeypatch):
    # mark one prism of one horizontal report as mismatched: exit 1, one
    # stderr line naming it, and the failing JSON entry lists it
    flipped = _one_horizontal_mismatch(monkeypatch)
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--check-horizontal"])
    assert code == 1
    [(tau, face, sigma)] = flipped
    assert capsys.readouterr().err == (
        f"horizontal mismatch over {tau} at face {face}: prisms {sigma}\n")
    data = json.loads(out.read_text())
    failing = [h for h in data["horizontal"] if not h["ok"]]
    assert failing == [{"tau": list(tau.vertices), "face": list(face.vertices),
                        "vanished_terms": failing[0]["vanished_terms"],
                        "surviving_terms": failing[0]["surviving_terms"],
                        "ok": False, "mismatched": [list(sigma.vertices)]}]
    assert all("mismatched" not in h for h in data["horizontal"] if h["ok"])


def test_cmd_primitive_horizontal_mismatch_fails_without_the_flag(tmp_path, capsys,
                                                                  monkeypatch):
    # without --check-horizontal the reports are not written, but a
    # mismatch still exits 1 with its stderr line
    flipped = _one_horizontal_mismatch(monkeypatch)
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out)])
    assert code == 1
    [(tau, face, sigma)] = flipped
    assert capsys.readouterr().err == (
        f"horizontal mismatch over {tau} at face {face}: prisms {sigma}\n")
    assert json.loads(out.read_text())["horizontal"] == []


def test_cmd_primitive_descent_failure_exits1(tmp_path, capsys, monkeypatch):
    # a failed descent check is a residual failure: exit 1, one stderr line
    # naming the base cell and the prism, and the JSON flag false
    from prismal import primitive
    failed = []

    def fail_once(H, psi, descended):
        if failed:
            return True
        failed.append((Simplex(psi.source.groups[0][1]), Simplex(psi.target.groups[0][1])))
        return False

    monkeypatch.setattr(primitive, "check_descent", fail_once)
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--check-horizontal"])
    assert code == 1
    [(tau, sigma)] = failed
    assert capsys.readouterr().err == f"descent check failed over {tau} on {sigma}\n"
    data = json.loads(out.read_text())
    flags = {(tau_key, key): hs["descent_verified"]
             for tau_key, cell in data["base_cells"].items()
             for key, hs in cell["H_S"].items()}
    bad = (",".join(map(str, tau.vertices)), ",".join(map(str, sigma.vertices)))
    assert flags.pop(bad) is False
    assert flags and all(flags.values())


def test_cmd_primitive_residual_failure_exits1(tmp_path, capsys, monkeypatch):
    # a nonzero closing residual on one prism: exit 1, a stderr line naming
    # it, that prism's JSON flag false, the others true, and the failure
    # counted in the summary
    from prismal import primitive
    real, failed = primitive.verify_theodg, []

    def fail_once(prim):
        if failed:
            return real(prim)
        sigma = next(iter(prim.prisms))
        pctx = prim.prisms[sigma].psi.source
        residual = whitney_form(pctx, {g: pctx.groups[g][1] for g in pctx.base_groups})
        failed.append((prim.tau, sigma, residual))
        return {sigma: residual}

    monkeypatch.setattr(primitive, "verify_theodg", fail_once)
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--check-horizontal"])
    assert code == 1
    [(tau, sigma, residual)] = failed
    captured = capsys.readouterr()
    assert "1 failures; horizontal: 0 failures" in captured.out
    # stderr names the base cell, the prism and the residual's size
    n_terms = sum(len(p.terms) for p in residual.terms.values())
    assert f"closing residual nonzero over {tau} on {sigma}: {n_terms} terms\n" in captured.err
    data = json.loads(out.read_text())
    flags = {(tau_key, key): entry["residual_zero"]
             for tau_key, cell in data["base_cells"].items()
             for key, entry in cell["prisms"].items()}
    bad = (",".join(map(str, tau.vertices)), ",".join(map(str, sigma.vertices)))
    assert flags.pop(bad) is False
    assert flags and all(flags.values())


def test_cmd_primitive_cyclic_fiber_form_exits1(tmp_path, capsys):
    # a closed fiber 1-form with a period on the fiber circle over 100 is
    # not fiberwise exact: exit 1, the exactness error on stderr, no output
    f = cylinder_over_edge()
    cpath, mpath, wpath = _write_input_files(tmp_path, f, cylinder_cyclic_form(f))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("exactness error: over <100>: ")
    assert not out.exists()


def test_cmd_primitive_mixed_fiber_degree_exit2(tmp_path, capsys):
    # at --degree 1, the 2-form part of d(l0 l2) + l1 dl0^dl2 has fiber
    # degree 2: the decomposition residual rejects it as a validation error
    f = square_over_edge()
    sigma = Simplex((0, 1, 2, 3))
    sc = simplex_context(sigma)
    lam = lambda v: Poly.variable(sc, sc.var("l", v))
    eta = d(Form.from_poly(lam(0) * lam(2))) + Form(sc, {(sc.var("l", 0), sc.var("l", 2)): lam(1)})
    cpath, mpath, wpath = _write_input_files(tmp_path, f, {sigma: eta})
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--degree", "1"])
    assert code == 2
    assert "mixed fiber degree" in capsys.readouterr().err
    assert not out.exists()


def _target_runs(tmp_path, command):
    """The argv of `command` on the triangle fan, less the morphism, and
    the output it writes."""
    cpath, _, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "out.json"
    if command == "sheaf":
        return ["sheaf", "--complex", str(cpath), "--dump-sheaf", str(out)], out
    return ["primitive", "--complex", str(cpath), "--form", str(wpath),
            "--out", str(out)], out


@pytest.mark.parametrize("command", ["sheaf", "primitive"])
def test_target_flag_matches_embedded_target(tmp_path, command):
    argv, out = _target_runs(tmp_path, command)
    f = triangle_fan()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(morphism_to_dict(f)))
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(complex_to_dict(f.target)))
    assert main(argv + ["--morphism", str(tmp_path / "f.json")]) == 0
    embedded = out.read_bytes()
    out.unlink()
    assert main(argv + ["--morphism", str(bare), "--target", str(tpath)]) == 0
    assert out.read_bytes() == embedded


@pytest.mark.parametrize("command", ["sheaf", "primitive"])
def test_missing_target_exit2(tmp_path, capsys, command):
    argv, out = _target_runs(tmp_path, command)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(morphism_to_dict(triangle_fan())))
    assert main(argv + ["--morphism", str(bare)]) == 2
    assert capsys.readouterr().err == (
        "validation error: morphism file needs a 'target' complex (or pass --target)\n")
    assert not out.exists()


def test_cmd_primitive_validation_error(tmp_path, capsys):
    cpath, mpath, _ = _write_fixture_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"forms": [{"cell": [0, 5], "terms": []}]}))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(bad), "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    ("sheaf", "complex"), ("sheaf", "morphism"),
    ("primitive", "complex"), ("primitive", "morphism"), ("primitive", "form")])
def test_cli_non_utf8_input_exit2(tmp_path, capsys, command, flag):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    files = {"complex": cpath, "morphism": mpath, "form": wpath}
    files[flag].write_bytes(b"\xff\xfe" + files[flag].read_bytes())
    argv = [command, "--complex", str(cpath), "--morphism", str(mpath)]
    if command == "primitive":
        argv += ["--form", str(wpath), "--out", str(tmp_path / "h.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert str(files[flag]) in err[0]


@pytest.mark.parametrize("command, flag", [
    ("sheaf", "complex"), ("sheaf", "morphism"), ("primitive", "form")])
@pytest.mark.parametrize("kind, errno", [("missing", 2), ("directory", 21)])
def test_cli_unreadable_input_exit2(tmp_path, capsys, command, flag, kind, errno):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    files = {"complex": cpath, "morphism": mpath, "form": wpath}
    files[flag].unlink()
    if kind == "directory":
        files[flag].mkdir()
    argv = [command, "--complex", str(cpath), "--morphism", str(mpath)]
    if command == "primitive":
        argv += ["--form", str(wpath), "--out", str(tmp_path / "h.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"validation error: {files[flag]}: [Errno {errno}] ")


def test_cmd_primitive_non_string_context_tag_exit2(tmp_path, capsys):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    forms = json.loads(wpath.read_text())
    forms["forms"][0]["context"]["groups"][0]["tag"] = 7
    wpath.write_text(json.dumps(forms))
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(tmp_path / "h.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "validation error: a context tag must be a string, got 7\n")


@pytest.mark.parametrize("spelling", [[0, 1, 3], [3, 1, 0]])
def test_cmd_primitive_form_cell_given_twice_exit2(tmp_path, capsys, spelling):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    forms = json.loads(wpath.read_text())
    first = next(e for e in forms["forms"] if e["cell"] == [0, 1, 3])
    forms["forms"].append({"cell": spelling, "terms": first["terms"]})
    wpath.write_text(json.dumps(forms))
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(tmp_path / "h.json")])
    assert code == 2
    assert capsys.readouterr().err == f"validation error: form cell {spelling} is given twice\n"


def _poly_item(item):
    def edit(files):
        files["form"]["forms"][0]["terms"][0]["poly"].append(item)
    return edit


def _form_term(term):
    def edit(files):
        files["form"]["forms"][0]["terms"].append(term)
    return edit


def _first_vertex(v):
    def edit(files):
        files["complex"]["maximal_simplices"][0][0] = v
    return edit


def _repeated_cell(file):
    """The first cell of the complex or form file as its first vertex 2000 times."""
    def edit(files):
        cells = files["complex"]["maximal_simplices"] if file == "complex" else [
            entry["cell"] for entry in files["form"]["forms"]]
        cells[0][:] = [cells[0][0]] * 2000
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_poly_item({"c": "1/0", "exp": {}}), "'1/0'", id="1/0-exp0-'1/0'"),
    pytest.param(_poly_item({"c": "abc", "exp": {}}), "'abc'", id="abc-exp1-'abc'"),
    pytest.param(_poly_item({"c": "1/2/3", "exp": {}}), "'1/2/3'", id="1/2/3-exp2-'1/2/3'"),
    pytest.param(_poly_item({"c": "1", "exp": {"l:0": -1}}), "exponent of 'l:0'",
                 id="1-exp3-exponent of 'l:0'"),
    pytest.param(_poly_item({"c": "1", "exp": {"l:0": "2"}}), "exponent of 'l:0'",
                 id="1-exp4-exponent of 'l:0'"),
    pytest.param(_poly_item({"c": "1", "exp": {"l:0": 1 << 15}}),
                 "exponent of 'l:0' must be an integer in 0..32767", id="exp-past-bound"),
    pytest.param(_poly_item({"exp": {"l:0": 1}}), "polynomial term needs 'c'", id="no-c"),
    pytest.param(_form_term(["l:0"]), "form term must be an object", id="term-not-object"),
    pytest.param(_first_vertex(0.5), "vertex labels must be integers, got 0.5",
                 id="vertex-not-integer"),
    pytest.param(_poly_item({"c": True, "exp": {}}),
                 "validation error: expected an exact rational, got True", id="c-true"),
    pytest.param(lambda files: files.update(form=files["form"]["forms"][0]),
                 "validation error: forms file needs 'forms'\n", id="bare-form-entry"),
    # the complex file is at fault, not the morphism that maps its vertices
    pytest.param(lambda files: files["complex"].update(maximal_simplices=[[]]),
                 "validation error: a simplex has no vertices\n", id="empty-simplex")])
def test_cmd_primitive_malformed_polynomial_exit2(tmp_path, capsys, edit, message):
    # one malformed item in an otherwise valid input: exit 2, no traceback
    paths = dict(zip(("complex", "morphism", "form"), _write_fixture_files(tmp_path)))
    files = {name: json.loads(path.read_text()) for name, path in paths.items()}
    edit(files)
    for name, path in paths.items():
        path.write_text(json.dumps(files[name]))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(paths["complex"]),
                 "--morphism", str(paths["morphism"]), "--form", str(paths["form"]),
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err


LONG = "x" * 5000


@pytest.mark.parametrize("edit, field", [
    pytest.param(_poly_item({"c": LONG, "exp": {}}), "expected an exact rational", id="c"),
    pytest.param(_poly_item({"c": "7" * 5000, "exp": {}}), "expected an exact rational",
                 id="c-digits"),
    pytest.param(_poly_item({"c": "1", "exp": LONG}), "'exp' must be an object", id="exp"),
    pytest.param(_poly_item({"c": "1", "exp": {"l:0": LONG}}), "exponent of 'l:0'",
                 id="exponent"),
    pytest.param(_poly_item({"c": "1", "exp": {LONG: 1}}), "unknown variable", id="variable"),
    pytest.param(_form_term({"dvars": [LONG], "poly": []}), "unknown differential", id="dvar"),
    pytest.param(_form_term({"dvars": LONG, "poly": []}), "dvars must be a list", id="dvars"),
    pytest.param(_form_term(LONG), "form term must be an object", id="term"),
    pytest.param(_first_vertex(LONG), "vertex labels must be integers", id="vertex"),
    pytest.param(_repeated_cell("complex"), "repeated vertex in simplex", id="complex-cell"),
    pytest.param(_repeated_cell("form"), "repeated vertex in simplex", id="form-cell")])
def test_validation_message_cuts_a_long_value(tmp_path, capsys, edit, field):
    # a 5000-character bad value: the message names its field and echoes
    # the value cut short
    paths = dict(zip(("complex", "morphism", "form"), _write_fixture_files(tmp_path)))
    files = {name: json.loads(path.read_text()) for name, path in paths.items()}
    edit(files)
    for name, path in paths.items():
        path.write_text(json.dumps(files[name]))
    code = main(["primitive", "--complex", str(paths["complex"]),
                 "--morphism", str(paths["morphism"]), "--form", str(paths["form"]),
                 "--out", str(tmp_path / "h.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and field in err
    assert all(len(line.encode()) < 300 for line in err.splitlines())


# every monomial written twice, once over each: each input literal stays
# under int's 4300-digit limit, but their sums pass it
LARGE_DENOMINATORS = (10 ** 2999 + 7, 10 ** 2999 + 9)


def _enlarge(node) -> None:
    """Write every monomial of each polynomial under `node` twice, once over
    each of LARGE_DENOMINATORS, in place; junk that is no rational stays."""
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        _enlarge(child)
    if isinstance(node, dict) and isinstance(node.get("poly"), list):
        try:
            node["poly"] = [{**m, "c": str(Q(m["c"]) / q)}
                            for m in node["poly"] for q in LARGE_DENOMINATORS]
        except (TypeError, ValueError, KeyError, ZeroDivisionError):
            pass


@pytest.mark.parametrize("extra", [[], ["--oracle-eps", "1/2"]], ids=["plain", "oracle"])
def test_cmd_primitive_past_the_digit_limit(tmp_path, capsys, extra):
    # the fan's input with every coefficient over a 6000-digit denominator:
    # int's limit on conversion to str guards the parsing only, so the
    # primitive is built and written whole, and the limit holds afterwards
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    forms = json.loads(wpath.read_text())
    _enlarge(forms)
    wpath.write_text(json.dumps(forms))
    out = tmp_path / "h.json"
    limit = sys.get_int_max_str_digits()
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), *extra])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert "Traceback" not in capsys.readouterr().err
    text = out.read_text()
    assert max(map(len, re.findall(r'"c": "([^"]*)"', text))) > 6000
    data = json.loads(text)
    for cell in data["base_cells"].values():
        assert all(p["residual_zero"] for p in cell["prisms"].values())
        assert all(h["descent_verified"] for h in cell["H_S"].values())


def test_cmd_primitive_mixed_degrees_exit2(tmp_path, capsys):
    # a 2-form term next to the 1-form input, and no --degree to choose
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    data = json.loads(wpath.read_text())
    cell = data["forms"][0]["cell"]
    data["forms"][0]["terms"].append(
        {"dvars": [f"l:{cell[0]}", f"l:{cell[1]}"], "poly": [{"c": "1", "exp": {}}]})
    wpath.write_text(json.dumps(data))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out)])
    assert code == 2
    assert "mixed degrees [1, 2]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("degree, message", [
    ("0", "degree 0: a relative primitive needs degree >= 1"),
    ("2", "degree 2 exceeds the largest relative dimension 1")],
    ids=["zero", "above-relative-dimension"])
def test_cmd_primitive_degree_out_of_range_exit2(tmp_path, capsys, degree, message):
    # every triangle of the fan has relative dimension 1; neither degree can
    # carry a primitive, and neither may pass as an empty success
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--degree", degree])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_primitive_tetra_pair_descent(tmp_path):
    # the source cell (1, 4, 2, 3) is not listed fiber by fiber; its descent
    # numerator must live in the cell's own simplex context
    cpath, mpath, wpath = _write_fixture_files(
        tmp_path, pairs=((1, 2), (2, 3)), fixture=tetra_pair_over_triangle)
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--degree", "1",
                 "--check-horizontal"])
    assert code in (0, 1)
    data = json.loads(out.read_text())
    verified = [hs["descent_verified"] for cell in data["base_cells"].values()
                for hs in cell["H_S"].values()]
    assert verified and all(verified)


def _check_a_large_exponent(tmp_path, k, extra=()):
    """`prismal primitive --check-horizontal` on the triangle fan's input plus
    l_3^k dl_3 (every triangle holds 3) exits 0 with every descent verified;
    `extra` options go to the command.  Returns the written JSON."""
    cpath, mpath, wpath = _write_fixture_files(tmp_path, power=k)
    out = tmp_path / "h.json"
    assert main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--check-horizontal", *extra]) == 0
    data = json.loads(out.read_text())
    verified = [hs["descent_verified"] for cell in data["base_cells"].values()
                for hs in cell["H_S"].values()]
    assert verified and all(verified)
    return data


def _monomials(form: dict) -> int:
    return sum(len(term["poly"]) for term in form["terms"])


def test_primitive_with_a_large_exponent(tmp_path):
    # the descended numerator keeps each fiber mass u as a variable, so it
    # grows with H, not with the powers of u: each N has at most 2^r times
    # H's monomials, and k = 300 takes about 0.3 s on a 2-core VM and
    # writes 1.4 MB
    data = _check_a_large_exponent(tmp_path, 300)
    assert (tmp_path / "h.json").stat().st_size < 2_000_000
    for cell in data["base_cells"].values():
        for key, hs in cell["H_S"].items():
            H = cell["prisms"][key]["H"]
            assert _monomials(hs["numerator"]) <= 2 ** data["degree"] * _monomials(H), key


def test_oracle_at_a_large_exponent(tmp_path):
    # the oracle averages each A_phi of degree 130 by the Dirichlet formula:
    # the whole run takes well under a second
    assert _check_a_large_exponent(tmp_path, 130, ("--oracle-eps", "1/10000"))["oracle"]


@pytest.mark.slow
def test_primitive_with_exponent_1000(tmp_path):
    # about 5 s and 175 MB on a 2-core VM: kept out of tier-1 (-m slow runs it)
    _check_a_large_exponent(tmp_path, 1000)


def test_whitney_numerators_are_never_mutated(tmp_path, monkeypatch):
    # whitney_form hands out the numerator dicts of one cache to every form
    # it builds, and base_volume_residual those of the cached canonical de:
    # after a full check and two primitive runs, the fan's with the
    # horizontal gauge, each still equals a deep copy taken when it was
    # first handed out
    from prismal import forms
    handed = {}

    def recording(cached, numerators):
        cached.cache_clear()

        def record(*args):
            out = cached(*args)
            for num in numerators(out):
                handed.setdefault(id(num), (num, copy.deepcopy(num)))
            return out
        return record

    monkeypatch.setattr(forms, "_whitney_terms", recording(
        forms._whitney_terms, lambda terms: [num for _, num in terms]))
    monkeypatch.setattr(forms, "_canonical_de", recording(
        forms._canonical_de, lambda de: de[0].values()))
    assert main(["check", "--suite", "all", "--max-dim", "3"]) == 0
    for fixture, pairs, extra in ((tetra_pair_over_triangle, ((1, 2), (2, 3)), []),
                                  (triangle_fan, ((2, 3), (3, 4), (0, 3), (3, 5)),
                                   ["--check-horizontal"])):
        cpath, mpath, wpath = _write_fixture_files(tmp_path, pairs=pairs, fixture=fixture)
        assert main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                     "--form", str(wpath), "--out", str(tmp_path / "h.json"), *extra]) == 0
    assert len(handed) > 100
    assert all(num == snapshot for num, snapshot in handed.values())


def test_cmd_sheaf_corrupted_fixture_exit2(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text("{not json")
    code = main(["sheaf", "--complex", str(cpath), "--morphism", str(cpath)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(rf"validation error: {re.escape(str(cpath))}: invalid JSON \(.+\)", line)


def test_exit_codes_are_mapped_in_main():
    # the commands raise; `main` alone turns a failure into its line and code
    import prismal.cli
    source = Path(prismal.cli.__file__).read_text()
    tree = ast.parse(source)
    [main_def] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = ast.get_source_segment(source, main_def)
    for prefix in ("validation error: ", "exactness error: "):
        assert source.count(prefix) == 1 and prefix in in_main

    def mapped_handlers(node):
        named = ({n.id for n in ast.walk(h.type) if isinstance(n, ast.Name)}
                 for h in ast.walk(node) if isinstance(h, ast.ExceptHandler) and h.type)
        return [names for names in named if names & {"ExactnessError", "ValidationError",
                                                     "MeshError"}]

    expected = [{"ExactnessError"}, {"ValidationError", "MeshError"}]
    assert mapped_handlers(tree) == mapped_handlers(main_def) == expected


def test_cmd_primitive_oracle(tmp_path, capsys):
    # d(l2 l3 + l2^2 l3): a quadratic contraction, so the average at eps
    # differs from the center value by an eps^2 term
    cpath, mpath, wpath = _write_fixture_files(tmp_path, pairs=((2, 3), (2, 2, 3)))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out),
                 "--oracle-eps", "1e-4"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["oracle"]
    for entry in data["oracle"]:
        # exact rationals, written as every other coefficient is
        est, exact, err = (rational_from_str(entry[k]) for k in ("estimate", "exact", "abs_error"))
        assert err == abs(est - exact) < Q(1, 10 ** 6)
    assert {"sigma": [2, 3], "phi": [2, 3], "estimate": "-99999999/400000000",
            "exact": "-1/4", "abs_error": "1/400000000"} in data["oracle"]


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.5", "2", "abc", "1e-99999"])
def test_cmd_primitive_rejects_oracle_eps_outside_unit_interval(tmp_path, capsys, eps):
    # max(worst, nan) keeps 0.0, and 0 used to skip the oracle: neither may
    # pass as a success
    cpath, mpath, wpath = _write_fixture_files(tmp_path, pairs=((2, 3),))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out), "--oracle-eps", eps])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: --oracle-eps")
    assert "oracle" not in captured.out and not out.exists()


def _unwritable_runs(tmp_path):
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    missing = tmp_path / "missing" / "out.json"
    return {
        "primitive": ["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                      "--form", str(wpath), "--out", str(missing)],
        "check": ["check", "--suite", "bord", "--json", str(missing)],
        "sheaf": ["sheaf", "--complex", str(cpath), "--morphism", str(mpath),
                  "--dump-sheaf", str(missing)],
    }


@pytest.mark.parametrize("command", ["primitive", "check", "sheaf"])
def test_unwritable_output_path_exits2(tmp_path, capsys, command):
    assert main(_unwritable_runs(tmp_path)[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:")
    assert str(tmp_path / "missing" / "out.json") in captured.err
    assert "written to" not in captured.out


def test_form_from_dict_accumulates_repeated_wedges():
    dd = {"context": {"groups": [{"tag": "l", "vertices": [0, 1, 2]}]},
          "terms": [
              {"dvars": ["l:1"], "poly": [{"c": "1", "exp": {"l:0": 1}}]},
              {"dvars": ["l:1"], "poly": [{"c": "1", "exp": {"l:2": 1}}]},
          ]}
    form = form_from_dict(dd)
    sc = form.ctx
    expect = Form(sc, {(sc.var("l", 1),):
                       Poly.variable(sc, sc.var("l", 0))
                       + Poly.variable(sc, sc.var("l", 2))})
    assert form == expect


def test_cmd_primitive_incompatible_family_exit2(tmp_path):
    cpath, mpath, _ = _write_fixture_files(tmp_path)
    # a family that disagrees on the shared edge (2,3)
    bad = {"forms": [
        {"cell": [0, 2, 3], "terms": [
            {"dvars": ["l:3"], "poly": [{"c": "1", "exp": {"l:2": 1}}]},
            {"dvars": ["l:2"], "poly": [{"c": "1", "exp": {"l:3": 1}}]}]},
        {"cell": [0, 1, 3], "terms": []},
        {"cell": [1, 3, 4], "terms": []},
        {"cell": [2, 3, 5], "terms": []},
        {"cell": [3, 4, 5], "terms": []},
    ]}
    wpath = tmp_path / "incompatible.json"
    wpath.write_text(json.dumps(bad))
    out = tmp_path / "h.json"
    code = main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out)])
    assert code == 2


def test_primitive_output_is_self_contained(tmp_path):
    # the residual can be re-verified from the output file alone
    from fractions import Fraction
    from prismal.forms import canonicalize, d, pullback, wedge
    from prismal.primitive import restrict_input
    from prismal.sheaf import psi_coordinate_map

    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    out = tmp_path / "h.json"
    assert main(["primitive", "--complex", str(cpath), "--morphism", str(mpath),
                 "--form", str(wpath), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    f = triangle_fan()
    omega = forms_file_to_inputs(json.loads(wpath.read_text()), f.source)
    for tau_key, cell in data["base_cells"].items():
        for sig_key, entry in cell["prisms"].items():
            sigma = Simplex(tuple(int(v) for v in sig_key.split(",")))
            H = form_from_dict(entry["H"])
            psi = psi_coordinate_map(f, sigma)
            eta = restrict_input(omega, sigma)
            pctx = psi.source
            de = whitney_form(pctx, {g: pctx.groups[g][1] for g in pctx.base_groups})
            residual = canonicalize(wedge(de, pullback(psi, eta) - d(H)))
            assert residual.is_zero


# ---------------------------------------------------------------------------
# Fuzzed loaders: malformed input exits 2 (or runs), never raises
# ---------------------------------------------------------------------------

def _json_paths(node, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


class _Raw(str):
    """JSON text written as it is: a number past int's 4300-digit limit, or
    an unclosed nest of arrays."""


class _Twice(tuple):
    """The (junk, original) values of a key written twice; json keeps the
    second."""


class _Large:
    """Not a value: the node's polynomials written with `_enlarge`, their
    sums past int's 4300-digit limit."""


LARGE = _Large()

# wrong types, unknown vertices, bad rationals, numbers that int() reads but
# str() does not write, exponents just past the bound
# and below zero, large coefficients, 5000-digit strings and numbers, and
# sums of coefficients past 4300 digits
JUNK = [None, True, 1.5, -1, 999, "999", "x", "1/0", "1/2/3", "abc", "l:999",
        " 7", "+1", "1_0/ 2", "1/-2", "01", "\u0663",
        [], {}, [999], [[0, 999]], {"x": 1}, 32768, str(10 ** 40), f"-{10 ** 40}/7",
        10 ** 40, "7" * 5000, _Raw("7" * 5000), LARGE]
NESTED = _Raw("[" * 200000)


def _dumps(node) -> str:
    if isinstance(node, _Raw):
        return node
    if isinstance(node, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dumps(value)}"
                               for key, value in node.items()
                               for value in (value if isinstance(value, _Twice) else [value])) + "}"
    if isinstance(node, (list, tuple)):  # a key repeated twice over: an array
        return "[" + ", ".join(map(_dumps, node)) + "]"
    return json.dumps(node)


def _mutate(data, path, op, junk):
    """Replace, drop or repeat the node at `path`; a repeated key is written
    twice, a repeated list item inserted twice.  LARGE, replacing or
    repeated, enlarges the node's polynomials in place."""
    if junk is LARGE and op != "drop":
        node = data
        for key in path:
            node = node[key]
        _enlarge(node)
        return data
    if not path:
        return copy.deepcopy(junk)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "repeat":
        parent[key] = _Twice((copy.deepcopy(junk), parent[key]))
    else:
        parent[key] = copy.deepcopy(junk)
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(("complex", "morphism", "form")),
                          st.integers(0, 1 << 16),
                          st.sampled_from(("replace", "drop", "repeat")),
                          st.sampled_from(JUNK)),
                min_size=1, max_size=3))
@example([("complex", 0, "replace", NESTED)])
@example([("form", 0, "replace", NESTED)])
@example([("form", 0, "replace", LARGE)])
def test_cmd_primitive_fuzzed_inputs_never_raise(edits):
    # the triangle-fan files with up to three mutations: both commands exit
    # 0, 1 or 2 and raise nothing
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = dict(zip(("complex", "morphism", "form"), _write_fixture_files(tmp)))
        files = {name: json.loads(path.read_text()) for name, path in paths.items()}
        for name, pick, op, junk in edits:
            options = list(_json_paths(files[name]))
            files[name] = _mutate(files[name], options[pick % len(options)], op, junk)
        for name, path in paths.items():
            path.write_text(_dumps(files[name]))
        inputs = ["--complex", str(paths["complex"]), "--morphism", str(paths["morphism"])]
        codes = [main(["sheaf", *inputs]),
                 main(["primitive", *inputs, "--form", str(paths["form"]),
                       "--out", str(tmp / "h.json")])]
    assert set(codes) <= {0, 1, 2}


@pytest.mark.parametrize("command, flag", [("sheaf", "complex"), ("primitive", "form")])
def test_cli_deeply_nested_input_exit2(tmp_path, capsys, command, flag):
    # json's decoder recurses once per level: 200000 levels are a validation
    # error that names the file, not a RecursionError
    cpath, mpath, wpath = _write_fixture_files(tmp_path)
    files = {"complex": cpath, "morphism": mpath, "form": wpath}
    files[flag].write_text(NESTED)
    argv = [command, "--complex", str(cpath), "--morphism", str(mpath)]
    if command == "primitive":
        argv += ["--form", str(wpath), "--out", str(tmp_path / "h.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"validation error: {files[flag]}:")
