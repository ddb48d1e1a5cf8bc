"""The traced names of each `prismal` layer and the per-layer metrics.

Each layer is a module of the package.  `targets` lists the functions the
tracer wraps; `per_layer_metrics` turns a traced run into the metrics
named in BENCHMARK.json.  LAYERS.md says which end-to-end metric each of
them should move, on which workload.
"""

from __future__ import annotations

import importlib
from pathlib import Path

SUITES = ("lemcod", "bord", "satrap", "satrapaz", "iminve", "faceface", "relative")

# (module, owner class or None, function): the metric prefix is
# module[.Class].function
TIMED = [
    ("mesh", "SimplicialMorphism", "preimage_cells"),
    ("mesh", "SimplicialMorphism", "fibers"),
    ("forms", "Poly", "__mul__"),
    ("forms", "Poly", "__add__"),
    ("forms", "Poly", "substitute"),
    ("forms", None, "wedge"),
    ("forms", None, "d"),
    ("forms", None, "pullback"),
    ("forms", None, "canonicalize"),
    ("forms", None, "restrict_to_face"),
    ("forms", None, "poincare_primitive"),
    ("primitive", None, "build_primitive_over"),
    ("primitive", None, "extract_A"),
    ("primitive", None, "decomposition_residual"),
    ("primitive", None, "assemble_C"),
    ("primitive", None, "c_part_form"),
    ("primitive", None, "fiber_defect"),
    ("primitive", None, "descend_form"),
    ("primitive", None, "check_horizontal"),
    ("primitive", None, "verify_theodg"),
    ("primitive", None, "check_descent"),
    ("primitive", None, "validate_input_family"),
]
# calls and inclusive seconds only
COUNTED = [
    ("sheaf", None, "build_Sf"),
    ("sheaf", None, "build_Pf"),
    ("sheaf", None, "check_Sf_characterization"),
    ("sheaf", None, "check_Pf_characterization"),
    ("sheaf", None, "psi_coordinate_map"),
    ("io", None, "load_json"),
    ("io", None, "forms_file_to_inputs"),
    ("io", None, "form_to_dict"),
    ("io", None, "dump_json"),
]
# inclusive seconds only
ENTRY = [("cli", None, "cmd_check"), ("cli", None, "cmd_sheaf"), ("cli", None, "cmd_primitive")]
# wrapped for its hook only
HOOKED = [("verify", None, "run_suite")]
FIELDS = ((TIMED, ("calls", "s", "self_s")), (COUNTED, ("calls", "s")), (ENTRY, ("s",)))


def _name(module, cls, fn) -> str:
    return ".".join(p for p in (module, cls, fn) if p)


def metric_specs() -> list[dict]:
    """Every per-layer metric, in BENCHMARK.json order."""
    specs = []
    for group, fields in FIELDS:
        for module, cls, fn in group:
            for field in fields:
                specs.append((f"{_name(module, cls, fn)}.{field}",
                              "count" if field == "calls" else "s", "lower"))
    specs += [
        ("forms.canonicalize.terms_out", "count", "lower"),
        ("forms.canonicalize.noop_share", "share", "lower"),
        ("forms.max_coeff_bits", "bits", "lower"),
        ("sheaf.P.cells", "count", "lower"),
        ("primitive.rebuild_ratio", "ratio", "lower"),
        ("io.output_bytes", "B", "lower"),
    ]
    for suite in SUITES:
        specs.append((f"verify.run_suite.{suite}.s", "s", "lower"))
        specs.append((f"verify.run_suite.{suite}.cases", "count", "higher"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return [{"name": n, "unit": u, "better": b} for n, u, b in specs]


class TraceState:
    """Counts the hooks gather, plus which op is running."""

    def __init__(self):
        self.op = 0
        self.canonicalize_noop = 0
        self.terms_out = 0
        self.max_coeff_bits = 0
        self.p_cells = 0
        self.built_cells: set = set()
        self.output_bytes = 0
        self.suites: dict[str, list] = {s: [0.0, 0] for s in SUITES}

    def start_op(self, index: int) -> None:
        self.op = index


def _coefficients(form):
    for poly in form.terms.values():
        yield from poly.terms.values()


def targets(state: TraceState) -> list[tuple]:
    """(metric prefix, owner, attribute, hook) for `Tracer.install`."""
    def hook_canonicalize(tr, args, kwargs, result, seconds):
        source = args[0] if args else kwargs.get("a")
        if result == source:
            state.canonicalize_noop += 1
        for poly in result.terms.values():
            state.terms_out += len(poly.terms)
        for c in _coefficients(result):
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > state.max_coeff_bits:
                state.max_coeff_bits = bits

    def hook_build_pf(tr, args, kwargs, result, seconds):
        state.p_cells += sum(len(stalk) for stalk in result.stalks.values())

    def hook_build_over(tr, args, kwargs, result, seconds):
        tau = args[2] if len(args) > 2 else kwargs.get("tau")
        state.built_cells.add((state.op, tau))

    def hook_dump(tr, args, kwargs, result, seconds):
        state.output_bytes += Path(args[0] if args else kwargs["path"]).stat().st_size

    def hook_suite(tr, args, kwargs, result, seconds):
        name = args[0] if args else kwargs["name"]
        slot = state.suites.setdefault(name, [0.0, 0])
        slot[0] += seconds
        slot[1] += len(result)

    hooks = {"forms.canonicalize": hook_canonicalize, "sheaf.build_Pf": hook_build_pf,
             "primitive.build_primitive_over": hook_build_over,
             "io.dump_json": hook_dump, "verify.run_suite": hook_suite}
    out = []
    for module, cls, fn in TIMED + COUNTED + ENTRY + HOOKED:
        mod = importlib.import_module(f"prismal.{module}")
        owner = getattr(mod, cls, None) if cls else mod
        name = _name(module, cls, fn)
        out.append((name, owner, fn, hooks.get(name)))
    return out


def per_layer_metrics(tr, state: TraceState, overhead_s: float) -> dict:
    values = {}
    source = {"calls": tr.calls, "s": tr.inclusive, "self_s": tr.self_time}
    for group, fields in FIELDS:
        for module, cls, fn in group:
            name = _name(module, cls, fn)
            for field in fields:
                values[f"{name}.{field}"] = source[field].get(name, 0)
    calls = lambda n: tr.calls.get(n, 0)
    values["forms.canonicalize.terms_out"] = state.terms_out
    values["forms.canonicalize.noop_share"] = (
        state.canonicalize_noop / calls("forms.canonicalize") if calls("forms.canonicalize") else 0.0)
    values["forms.max_coeff_bits"] = state.max_coeff_bits
    values["sheaf.P.cells"] = state.p_cells
    values["primitive.rebuild_ratio"] = (
        calls("primitive.build_primitive_over") / len(state.built_cells)
        if state.built_cells else 0.0)
    values["io.output_bytes"] = state.output_bytes
    for suite in SUITES:
        seconds, cases = state.suites[suite]
        values[f"verify.run_suite.{suite}.s"] = seconds
        values[f"verify.run_suite.{suite}.cases"] = cases
    values["trace.overhead_s"] = overhead_s
    units = {spec["name"]: spec["unit"] for spec in metric_specs()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
