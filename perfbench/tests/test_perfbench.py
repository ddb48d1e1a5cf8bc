"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Run from the root of the repository; the program is imported from `src/`.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _write_all(rounds, directory: Path) -> dict:
    directory.mkdir()
    for i, cases in enumerate(rounds):
        for j, case in enumerate(cases):
            gen.write_case(case, directory, f"r{i}c{j}")
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("make", [gen.cube_rounds, gen.grid_rounds])
def test_generators_are_deterministic(tmp_path, make):
    first = _write_all(make(7, 2), tmp_path / "a")
    again = _write_all(make(7, 2), tmp_path / "b")
    other = _write_all(make(8, 2), tmp_path / "c")
    assert first == again
    forms = lambda files: {k: v for k, v in files.items() if k.endswith(".form.json")}
    assert forms(first) != forms(other)


def test_generated_props_match_the_inputs():
    (r1, r2, r3), = gen.cube_rounds(0, 1)
    assert [c["props"]["prisms"] for c in (r1, r2, r3)] == [7, 4, 1]
    shapes = [c["props"]["shape"] for c in gen.grid_rounds(0, 1)[0]]
    assert shapes[:3] == ["triangle_fan", "tetra_pair_over_triangle", "1x2"]
    grid_1x2 = gen.grid_rounds(0, 1)[0][2]["props"]
    # 4 triangles over the edge, 2 fiber segments over each base vertex
    assert grid_1x2["source_cells"] == 4 and grid_1x2["prisms"] == 8


def test_d_form_is_a_differential():
    # d(l0 * l1^2) = l1^2 dl0 + 2 l0 l1 dl1, and d(l0 dl1) = dl0 ^ dl1
    assert gen.d_form({(): {(1, 2): 1}}, 2) == {(0,): {(0, 2): 1}, (1,): {(1, 1): 2}}
    assert gen.d_form({(1,): {(1, 0): 1}}, 2) == {(0, 1): {(0, 0): 1}}
    assert gen.d_form({(0,): {(0, 1): 1}}, 2) == {(0, 1): {(0, 0): -1}}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_toy_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def inner(depth):
        clock.now += 2.0
        leaf_t()
        if depth:
            inner_t(depth - 1)

    def outer():
        clock.now += 3.0
        inner_t(1)
        clock.now += 4.0

    leaf_t = tr.wrap(leaf, "leaf")
    inner_t = tr.wrap(inner, "inner")
    tr.wrap(outer, "outer")()
    # outer 3+4 self; inner(1): 2 self + leaf 1 + inner(0): 2 self + leaf 1
    assert tr.calls == {"outer": 1, "inner": 2, "leaf": 2}
    assert tr.inclusive["outer"] == 13.0
    assert tr.inclusive["inner"] == 6.0  # outermost frame only
    assert tr.self_time == {"outer": 7.0, "inner": 4.0, "leaf": 2.0}
    spans = {s[0]: s for s in tr.spans}
    by_name = lambda n: [s for s in tr.spans if s[2] == n]
    (o,), inners = by_name("outer"), by_name("inner")
    assert o[1] == 0
    assert sorted(spans[s[1]][2] for s in inners) == ["inner", "outer"]
    assert all(spans[s[1]][2] == "inner" for s in by_name("leaf"))


def test_hook_time_is_not_charged_to_any_span():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    hook = lambda *a: setattr(clock, "now", clock.now + 5.0)
    child = tr.wrap(lambda: setattr(clock, "now", clock.now + 1.0), "child", hook)
    parent = tr.wrap(child, "parent")
    tr.wrap(lambda: (parent(), setattr(clock, "now", clock.now + 2.0)), "grandparent")()
    assert tr.self_time == {"child": 1.0, "parent": 0.0, "grandparent": 2.0}
    assert tr.inclusive == {"child": 1.0, "parent": 1.0, "grandparent": 3.0}
    assert [s[4] - s[3] for s in tr.spans] == [1.0, 1.0, 3.0]


def _cylinder_top_form_files(tmp_path: Path) -> dict:
    """The triangulated cylinder over an edge with l_a dl_b - l_b dl_a on
    every fiber segment: closed, but its fiber integral is not zero, so it
    is not fiberwise exact and the program must reject it with exit 1."""
    cells = [[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5]]
    vmap = {0: 100, 1: 100, 2: 100, 3: 101, 4: 101, 5: 101}
    cycle = {frozenset(p): p for p in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))}
    entries = []
    for cell in cells:
        form: dict = {}
        for y in (100, 101):
            fiber = frozenset(v for v in cell if vmap[v] == y)
            if fiber in cycle:
                a, b = (cell.index(v) for v in cycle[fiber])
                unit = lambda i: tuple(int(j == i) for j in range(3))
                form.setdefault((b,), {})[unit(a)] = 1
                form.setdefault((a,), {})[unit(b)] = -1
        entries.append(gen.form_entry(cell, form))
    case = gen._case("cylinder_over_edge", cells, vmap, 1, entries, 0)
    return gen.write_case(case, tmp_path, "cylinder") | {"props": case["props"]}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_non_exact_input_is_a_failed_op(tmp_path, program):
    paths = _cylinder_top_form_files(tmp_path)
    op = run._primitive_op(paths, tmp_path / "out.json", paths["props"])
    rec = run.execute(op, program)
    assert rec["exit_code"] == 1
    assert not rec["ok"] and rec["units"] == 0
    assert rec["consistent"]  # a rejection, not a false success
    assert rec["first_stderr_line"].startswith("exactness error")
    assert rec["command"].startswith("prismal primitive --complex")
    summary = run.summarize([rec])
    assert summary["failed"] == 1 and summary["correct"]


def test_exit_zero_with_a_failing_flag_is_incorrect(tmp_path):
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"degree": 1, "horizontal": [], "base_cells": {"100": {
        "prisms": {"0,1": {"residual_zero": True}},
        "H_S": {"0,1": {"descent_verified": False}}}}}))
    op = {"kind": "primitive", "props": {"r": 1, "prisms": 1}}
    verdict = run.judge(op, 0, "", out)
    assert not verdict["ok"] and not verdict["consistent"]
    verdict = run.judge(op, 1, "", out)
    assert not verdict["ok"] and verdict["consistent"]


def test_host_probe_samples_and_then_stops_its_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with run.HostProbe() as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * run.PROBE_EVERY_S:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert host.samples >= 3 and host.factor() > 0


def _bindings():
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "prismal" or name.startswith("prismal.")):
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("prismal"):
                    for attr, v in vars(value).items():
                        found[(name, key, attr)] = v
    return found


def test_wrappers_are_removed_after_a_traced_run(tmp_path, program):
    before = _bindings()
    tr = Tracer()
    state = layers.TraceState()
    tr.install(layers.targets(state))
    assert tr.installed() > len(layers.TIMED)
    import prismal.forms
    import prismal.primitive
    assert prismal.primitive.canonicalize is prismal.forms.canonicalize
    assert hasattr(prismal.forms.canonicalize, "__wrapped__")
    assert prismal.forms.Poly.__rmul__ is prismal.forms.Poly.__mul__
    ops = run.build_rounds("identities", 0, tmp_path / "work")[0][:2]
    for op in ops:
        op["argv"][op["argv"].index("--max-dim") + 1] = "2"
    try:
        records = run.replay(ops, program, on_op=state.start_op)
    finally:
        tr.uninstall()
    assert all(r["ok"] for r in records)
    assert tr.calls["cli.cmd_check"] == 2 and tr.calls["forms.d"] > 0
    metrics = layers.per_layer_metrics(tr, state, 0.0)
    assert metrics["verify.run_suite.lemcod.cases"]["value"] == records[0]["units"]
    assert _bindings() == before
    assert tr.installed() == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"verified_per_s", "ok_share", "peak_rss_mb", "setup_s"}
