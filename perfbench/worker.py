"""One benchmark worker process: set up, run ops in a closed loop, check each.

``run.py`` starts workers one at a time, never two at once.  A worker imports
``diamondwalk`` from the checkout's ``src`` and generates its workload's
inputs; that is the end of set-up, timed from the ``--t0`` the parent read
just before starting the process.  Then, by ``--mode``:

* ``setup``: stops;
* ``warm``: runs one op (the cold one), then ops back to back until the
  deadline, at least one;
* ``trace``: runs one warm-up op, then alternates untraced and traced ops
  until the deadline, at least one of each, and computes the layer metrics.

Each op writes into a fresh directory and is checked after its clock stops.
The last line of standard output is one JSON object holding the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "warm", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() before spawn")
    p.add_argument("--deadline", type=float, default=0.0, help="time.monotonic() to stop at")
    p.add_argument("--scratch", type=Path, required=True)
    p.add_argument("--spans-out", type=Path, default=None)
    return p.parse_args(argv)


def _import_diamondwalk(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import diamondwalk.cli  # noqa: F401  (set-up includes importing the CLI)
    import diamondwalk

    if Path(diamondwalk.__file__).resolve().parent.parent != src:
        raise SystemExit(f"diamondwalk imported from {diamondwalk.__file__}, not from {src}")


def run_op(workload, inputs, ref, scratch: Path, tracer=None):
    """Run and check one op; returns ``(seconds, check, trace)``."""
    import workloads

    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
    trace = None
    try:
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result = workload.run(inputs, out_dir)
            error = None
        except Exception as exc:  # the op failed; record it and keep measuring
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            trace = tracer.end_op()
            tracer.uninstall()
        if error is None:
            try:
                check = workload.verify(inputs, out_dir, result, ref)
            except Exception as exc:  # malformed output the checks could not parse
                traceback.print_exc()
                check = workloads.Check(problems=[f"check raised {type(exc).__name__}: {exc}"])
        else:
            check = workloads.Check(problems=[error])
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in check.problems:
        print(f"perfbench: {workload.name} op failed: {problem}", file=sys.stderr)
    return seconds, check, trace


def _op_layers(workload, spans, counters, check):
    """Per-layer values of one traced op, plus the unexpected and the missing span names."""
    import tracer

    summary = tracer.summarize(spans)

    def calls(name):
        return summary.get(name, (0, 0, 0))[0]

    def self_s(name):
        return summary.get(name, (0, 0, 0))[1] / 1e9

    def total_s(name):
        return summary.get(name, (0, 0, 0))[2] / 1e9

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    cli_s = self_s("op") + sum(v[1] for k, v in summary.items() if k.startswith("cli.")) / 1e9
    layers = {
        "diamond.transmission_closed_form.calls": calls("diamond.transmission_closed_form"),
        "diamond.transmission_closed_form.scalar_calls": counters.get("tcf.scalar_calls", 0),
        "diamond.transmission_closed_form.k_points": counters.get("tcf.k_points", 0),
        "diamond.transmission_closed_form.self_s": self_s("diamond.transmission_closed_form"),
        "bands.phase_diagram.points_per_s": per(
            counters.get("bands.points", 0), total_s("bands.phase_diagram")
        ),
        "lattice.build_lattice.calls": calls("lattice.build_lattice"),
        "lattice.build_lattice.self_s": self_s("lattice.build_lattice"),
        "lattice.build_lattice.ns_per_slot": per(
            1e9 * self_s("lattice.build_lattice"), counters.get("lattice.slots_built", 0)
        ),
        "lattice.audit_graph.self_s": self_s("lattice.audit_graph"),
        "lattice.slots": counters.get("lattice.slots", 0),
        "lattice.table_bytes": counters.get("lattice.table_bytes", 0),
        "walk.evolve.self_s": self_s("walk.evolve"),
        "walk.substeps": counters.get("walk.substeps", 0),
        "walk.ns_per_slot_substep": per(
            1e9 * total_s("walk.evolve"), counters.get("walk.slot_substeps", 0)
        ),
        "walk.state_bytes": counters.get("walk.state_bytes", 0),
        "config.parse_config.self_s": self_s("config.parse_config"),
        "multiport.vertex_unitary.calls": calls("multiport.vertex_unitary"),
        "cli.self_s": cli_s,
        "cli.output_bytes": check.output_bytes,
        "cli.output_mb_per_s": per(check.output_bytes / 1e6, cli_s) if check.output_bytes else 0.0,
        "cli.bytes_identical": check.bytes_identical,
    }
    for name in ("bands.band_structure", "bands.winding_number", "bands.phase_diagram",
                 "walk.step", "walk.cell_probabilities"):
        layers[name + ".calls"] = calls(name)
        layers[name + ".self_s"] = self_s(name)
    fired = {name for name in summary if name != "op"}
    layers["trace.span_table_mismatches"] = len(fired ^ workload.expected_spans)
    return layers, sorted(fired - workload.expected_spans), sorted(workload.expected_spans - fired)


def machine_facts() -> dict:
    """nproc, versions, BLAS and its thread count, and cache sizes (from getconf)."""
    import platform
    import subprocess

    import numpy
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def _blas_threads(numpy):
    """OpenBLAS's own thread count, left at its default; None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    _import_diamondwalk(args.root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=args.scratch))
    try:
        inputs = workload.make_inputs(args.seed, work_dir)
        out = {"setup_s": time.monotonic() - args.t0, "ops": []}
        if args.mode != "setup":
            _run_ops(args, workload, inputs, out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _run_ops(args, workload, inputs, out) -> None:
    ref = workload.load_reference(args.seed, inputs)
    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    layers = []
    i = 0
    while True:
        traced = tracer is not None and i > 0 and i % 2 == 0
        seconds, check, trace = run_op(workload, inputs, ref, args.scratch,
                                       tracer if traced else None)
        kind = "cold" if i == 0 else ("traced" if traced else "warm")
        out["ops"].append({"kind": kind, "s": seconds, "ok": check.ok})
        if traced:
            layers.append(_op_layers(workload, *trace, check))
        i += 1
        enough = i >= (3 if tracer is not None else 2)
        if enough and time.monotonic() >= args.deadline:
            break
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine_facts()
    if tracer is not None:
        names = layers[0][0].keys()
        out["layers"] = {n: statistics.median(op[0][n] for op in layers) for n in names}
        out["unexpected_spans"] = sorted({n for op in layers for n in op[1]})
        out["missing_spans"] = sorted({n for op in layers for n in op[2]})
        if args.spans_out is not None:
            _write_spans(args.spans_out, tracer.ops)


def _write_spans(path: Path, ops) -> None:
    import gzip

    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [{"spans": spans, "counters": counters} for spans, counters in ops]
    path.write_bytes(gzip.compress(json.dumps(payload).encode(), mtime=0))


if __name__ == "__main__":
    sys.exit(main())
