"""Benchmark of the `prismal` command line, driven in-process.

    python3 perfbench/run.py --workload {identities,cube,grid} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/`.
One process, one thread, a closed loop with one client: the ops of a
workload run back to back in a fixed order through `prismal.cli.main`, a
round at a time, until the ops have taken `--seconds` in total.  Inputs are
generated from `--seed` and written as JSON under `.perfbench_work/`; the
program sees only those files (and `check --seed`).

`verified_per_s` counts op seconds scaled by the host's speed as a short
pure-Python probe, sampled on a timer all through the ops, measures it
(`HostProbe`), because the host it was tuned on swings in speed by a third
over minutes.  For the same reason `setup_s` scales the program's import
time by that of numpy, measured alongside (`measure_setup`).

Every op is checked after it ends (exit code, every per-prism and
horizontal flag, every identity case), its output hashed, and a failure
recorded with its command, exit code and first stderr line.  Failed ops are
never retried, dropped or resized.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the same ops run once untraced and once under the outside-in
tracer, and it carries the per-layer metrics.  Per-op records (and, when
traced, the spans) are written to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gen
import layers
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IDENTITY_MAX_DIM = 5
CUBE_ROUNDS = 3
GRID_ROUNDS = 3
SETUP_REPEATS = 7
# On that host a fresh interpreter's import of numpy, and with it the
# program's, swings by half over seconds, while plain interpreter start
# does not; setup_s scales each repeat by a numpy import taken just before
# it, to read as seconds on a host where that import takes this long.
NUMPY_IMPORT_NOMINAL_S = 0.13
# The host's speed swings by a third over minutes; the op seconds behind
# verified_per_s are divided by HostProbe.factor(), so they read as seconds
# on a host of the class the benchmark was tuned on (2-core VM, Python
# 3.11) where one probe pass amid the ops takes PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 0.0067
PROBE_EVERY_S = 0.25
WORKLOADS = ("identities", "cube", "grid")


# ---------------------------------------------------------------------------
# Op schedules
# ---------------------------------------------------------------------------

def _op(kind: str, argv: list, out: Path, props: dict | None = None) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "out": str(out),
            "props": props or {}}


def _primitive_op(paths: dict, out: Path, props: dict) -> dict:
    return _op("primitive", ["primitive", "--complex", paths["complex"],
                             "--morphism", paths["morphism"], "--form", paths["form"],
                             "--out", out, "--check-horizontal",
                             "--degree", props["r"]], out, props)


def build_rounds(workload: str, seed: int, work: Path) -> list[list[dict]]:
    """Generate and write the inputs of a run; returns its rounds of ops."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "identities":
        return [[_op("check", ["check", "--suite", s, "--max-dim", IDENTITY_MAX_DIM,
                               "--seed", seed, "--json", work / f"{s}.out.json"],
                     work / f"{s}.out.json", {"suite": s})
                 for s in layers.SUITES]]
    if workload == "cube":
        rounds = gen.cube_rounds(seed, CUBE_ROUNDS)
    elif workload == "grid":
        rounds = gen.grid_rounds(seed, GRID_ROUNDS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    schedule = []
    for i, cases in enumerate(rounds):
        schedule.append([])
        for j, case in enumerate(cases):
            name = f"r{i}c{j:02d}"
            paths = gen.write_case(case, work, name)
            if workload == "grid":
                sheaf_out = work / f"{name}.sheaf.json"
                schedule[-1].append(_op(
                    "sheaf", ["sheaf", "--complex", paths["complex"], "--morphism",
                              paths["morphism"], "--dump-sheaf", sheaf_out],
                    sheaf_out, case["props"]))
            schedule[-1].append(_primitive_op(paths, work / f"{name}.out.json",
                                              case["props"]))
    return schedule


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------

def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process would
    start, so an op costs the same wherever it falls in the run."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "prismal" or name.startswith("prismal.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def execute(op: dict, main) -> dict:
    out_path = Path(op["out"])
    if out_path.exists():
        out_path.unlink()
    clear_caches()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught exception is a failed op
            code = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=stderr)
    seconds = time.perf_counter() - t0
    rec = {"command": "prismal " + " ".join(op["argv"]), "kind": op["kind"],
           "props": op["props"], "exit_code": code, "seconds": seconds}
    rec.update(judge(op, code, stdout.getvalue(), out_path))
    if not rec["ok"]:
        lines = [ln for ln in stderr.getvalue().splitlines() if ln.strip()]
        rec["first_stderr_line"] = error or (lines[0] if lines else "")
    return rec


def judge(op: dict, code, stdout: str, out_path: Path) -> dict:
    """Classify one op.

    `ok`: the op succeeded by every flag.  `consistent`: the exit code agrees
    with the outputs; an exit 0 with a failing flag or an incomplete output
    is a false success and makes the run incorrect.  `units`: verified work.
    """
    data = None
    digest = None
    if out_path.exists():
        raw = out_path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        except ValueError:
            data = None
    kind = op["kind"]
    units = 0
    if kind == "check":
        reports = data.get("reports", []) if data else []
        passed = sum(1 for r in reports if r.get("status") == "pass")
        units = passed
        good = (bool(reports) and passed == len(reports)
                and f"{passed}/{len(reports)} identity cases passed" in stdout)
    elif kind == "sheaf":
        good = (data is not None and "S" in data and "P" in data
                and stdout.count(": pass") == 2)
    else:
        good, units = _judge_primitive(op["props"], data)
    ok = code == 0 and good
    consistent = (code == 0) == good if code in (0, 1) else True
    return {"ok": ok, "consistent": consistent, "units": units if ok or kind == "check" else 0,
            "sha256": digest}


def _judge_primitive(props: dict, data) -> tuple[bool, int]:
    if not data or "base_cells" not in data:
        return False, 0
    prisms = verified = 0
    for cell in data["base_cells"].values():
        for key, prism in cell.get("prisms", {}).items():
            prisms += 1
            descent = cell.get("H_S", {}).get(key, {}).get("descent_verified") is True
            if prism.get("residual_zero") is True and descent:
                verified += 1
    horizontal_ok = all(h.get("ok") is True for h in data.get("horizontal", []))
    good = (verified == prisms == props["prisms"] and horizontal_ok
            and data.get("degree") == props["r"])
    return good, verified


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def probe() -> float:
    """Seconds for one pass of a fixed pure-Python computation shaped like
    the program's kernel: a sparse polynomial product with Fraction
    coefficients kept in a dict.  It measures how fast this host runs such
    code right now, independently of the program."""
    poly = {(i, j, k): Fraction(i + 1, j + 2)
            for i in range(4) for j in range(4) for k in range(3)}
    t0 = time.perf_counter()
    out: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - t0


class HostProbe:
    """Times a probe pass every PROBE_EVERY_S seconds of wall time, from a
    SIGALRM handler, so the samples fall evenly over the ops, inside long
    ones too."""

    def __init__(self):
        probe()  # the first pass in a process runs slow
        self.seconds = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        self.seconds += probe()
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so that a short run has a sample too

    def factor(self) -> float:
        """Host seconds per nominal second: above 1 on a slow host."""
        return self.seconds / (self.samples * PROBE_NOMINAL_S)


def timed_loop(rounds: list[list[dict]], seconds: float, main):
    """Whole rounds back to back until the ops have taken `seconds`;
    returns the ops run, in order, their records, and the host probe.
    An op's seconds leave out the probes taken during it."""
    ops: list[dict] = []
    records: list[dict] = []
    busy = 0.0
    done = 0
    with HostProbe() as host:
        while busy < seconds or not records:
            for op in rounds[done % len(rounds)]:
                before = host.seconds
                rec = execute(op, main)
                rec["seconds"] -= host.seconds - before
                busy += rec["seconds"]
                ops.append(op)
                records.append(rec)
            done += 1
    return ops, records, host


def replay(ops: list[dict], main, on_op=None) -> list[dict]:
    records = []
    for op in ops:
        if on_op:
            on_op(len(records))
        records.append(execute(op, main))
    return records


def summarize(records: list[dict]) -> dict:
    busy = sum(r["seconds"] for r in records)
    failed = sum(1 for r in records if not r["ok"])
    return {"attempted": len(records), "failed": failed,
            "correct": all(r["consistent"] for r in records),
            "busy_s": busy, "units": sum(r["units"] for r in records)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import prismal
        import prismal.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import prismal from {SRC}: {exc}")
    if Path(prismal.__file__).resolve().parent != (SRC / "prismal").resolve():
        raise SystemExit(f"perfbench: prismal was imported from {prismal.__file__}, "
                         f"not from {SRC}")
    return prismal.cli.main


def ready_s(module: str) -> float:
    """Seconds from starting a fresh interpreter to its having imported
    `module`: it prints the time then on CLOCK_MONOTONIC, which every
    process on the host shares, so its exit is not counted."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"import {module}; print(time.monotonic())")
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    return float(out.stdout.split()[-1]) - t0


def measure_setup(workload: str, seed: int, work: Path):
    """setup_s, the medians of its parts, and the rounds of ops.

    A repeat's setup time is the time a fresh interpreter takes to import
    the program plus the time to generate and write this run's inputs.
    setup_s is the median over SETUP_REPEATS of that time divided by a
    fresh numpy import's taken just before it, times
    NUMPY_IMPORT_NOMINAL_S.  The work directory is emptied before each
    repeat, untimed."""
    ratios, rounds = [], None
    parts: dict[str, list] = {"import_s": [], "numpy_import_s": [], "inputs_s": []}
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        numpy_s = ready_s("numpy")
        import_s = ready_s("prismal.cli")
        t0 = time.perf_counter()
        rounds = build_rounds(workload, seed, work)
        inputs_s = time.perf_counter() - t0
        ratios.append((import_s + inputs_s) / numpy_s)
        for key, value in zip(parts, (import_s, numpy_s, inputs_s)):
            parts[key].append(value)
    setup_s = NUMPY_IMPORT_NOMINAL_S * statistics.median(ratios)
    return setup_s, {k: statistics.median(v) for k, v in parts.items()}, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    tag = f"{args.workload}-{args.seed}"
    work = WORK / tag
    setup_s, setup_parts, rounds = measure_setup(args.workload, args.seed, work)
    executed, records, host_probe = timed_loop(rounds, args.seconds, program)
    host = host_probe.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(records)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "summary": summary, "host_factor": host,
              "probe_s": host_probe.seconds,
              "setup_parts": setup_parts,
              "wall_verified_per_s": summary["units"] / summary["busy_s"],
              "ops": records}
    if args.trace:
        tr = Tracer()
        state = layers.TraceState()
        tr.install(layers.targets(state))
        try:
            traced = replay(executed, program, on_op=state.start_op)
        finally:
            tr.uninstall()
        traced_busy = sum(r["seconds"] for r in traced)
        metrics = layers.per_layer_metrics(tr, state, traced_busy - summary["busy_s"])
        tr.write_spans(WORK / f"{tag}.spans.jsonl")
        report["traced_summary"] = summarize(traced)
        report["trace_missing"] = tr.missing
        report["dropped_spans"] = tr.dropped_spans
        summary["correct"] = summary["correct"] and report["traced_summary"]["correct"]
    else:
        ops_ok = summary["attempted"] - summary["failed"]
        metrics = {
            "verified_per_s": {"value": summary["units"] / (summary["busy_s"] / host),
                               "unit": "1/s"},
            "ok_share": {"value": ops_ok / summary["attempted"], "unit": "share"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    report["metrics"] = metrics
    (WORK / f"{tag}.trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    failed = [r for r in records if not r["ok"]]
    print(f"{args.workload} seed={args.seed}: {summary['attempted']} ops, "
          f"{summary['failed']} failed (failed_share="
          f"{summary['failed'] / summary['attempted']:.4f}), "
          f"{summary['units']} verified units in {summary['busy_s']:.3f} s "
          f"at host factor {host:.3f}")
    for r in failed[:10]:
        print(f"  FAILED exit={r['exit_code']}: {r['command']}\n    {r.get('first_stderr_line', '')}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
