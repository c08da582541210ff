"""diamondwalk benchmark: closed-loop workloads, one client, one process at a time.

Run from the root of a diamondwalk checkout::

    python3 perfbench/run.py --workload repro --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload, one table

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
a separate traced run reports the per-layer metrics (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, machine facts
included, is also written to ``.perfbench_out/`` in the checkout.

Workers are started one at a time and each is waited for.  An end-to-end run
splits its ``--seconds`` evenly between fresh ``warm`` workers, each of which
times one cold op and then warm ops, so that cold and warm samples come from
the whole run; ``setup`` workers only add set-up samples.  A traced run uses
one ``trace`` worker.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: fresh processes per run, each timing one cold op and then warm ops.  Fewer
#: for longer ops, so that warm ops keep most of the run: a fresh process
#: costs about 1 s of set-up, and an op takes 0.15-0.25 s on repro, 0.8-1.2 s
#: on sweep and 3-4.5 s on walk_large.
FRESH_WORKERS = {"repro": 16, "sweep": 8, "walk_large": 4}
SETUP_SAMPLES = 5  # at least; setup-only workers top up the others
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# End-to-end metrics in the JSON result, each with a bound in BENCHMARK.json.
# On a shared virtual machine, CPU speed switches between a fast level and
# slower ones, and the share of slow time, which the other tenants set, drifts
# from run to run by more than these bounds.  Measured on a 2-vCPU KVM guest,
# over ten 40 s repro runs of one commit: the mean warm op spread 17.8% (the
# interquartile range over the median), its 10th percentile 8.0% and the
# fastest op 2.6%.  So the bounded op times are the fastest op of the run, as
# timeit reports, which follows the code's own cost.  The median, the tail,
# the throughput, the mean cold op and failed_ops_ratio are printed and stored
# without a bound; the last because it is 0 when all is well.
END_TO_END = {
    "op_s_min": "s",
    "cold_op_s_min": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "diamond.transmission_closed_form.calls": "count",
    "diamond.transmission_closed_form.scalar_calls": "count",
    "diamond.transmission_closed_form.k_points": "count",
    "diamond.transmission_closed_form.self_s": "s",
    "bands.band_structure.calls": "count",
    "bands.band_structure.self_s": "s",
    "bands.winding_number.calls": "count",
    "bands.winding_number.self_s": "s",
    "bands.phase_diagram.calls": "count",
    "bands.phase_diagram.self_s": "s",
    "bands.phase_diagram.points_per_s": "1/s",
    "setup.import_s": "s",
    "setup.scipy_optimize_import_s": "s",
    "lattice.build_lattice.calls": "count",
    "lattice.build_lattice.self_s": "s",
    "lattice.build_lattice.ns_per_slot": "ns",
    "lattice.audit_graph.self_s": "s",
    "lattice.slots": "count",
    "lattice.table_bytes": "B",
    "walk.evolve.self_s": "s",
    "walk.step.calls": "count",
    "walk.step.self_s": "s",
    "walk.cell_probabilities.calls": "count",
    "walk.cell_probabilities.self_s": "s",
    "walk.substeps": "count",
    "walk.ns_per_slot_substep": "ns",
    "walk.state_bytes": "B",
    "config.parse_config.self_s": "s",
    "multiport.vertex_unitary.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "cli.output_mb_per_s": "MB/s",
    "cli.bytes_identical": "count",
    "trace.overhead_s": "s",
    "trace.span_table_mismatches": "count",
}


class WorkerFailed(RuntimeError):
    pass


def tail(samples: list) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least ten
    samples beyond it (nearest rank).  Below eleven samples no percentile has
    ten beyond it, and the maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds to import ``diamondwalk.cli`` and, within it, ``scipy.optimize``,
    from the ``-X importtime`` report of ``import diamondwalk.cli``."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    # the package is imported inside the import of diamondwalk.cli, so the
    # outermost line covers both
    return cumulative["diamondwalk.cli"], cumulative.get("scipy.optimize", 0.0)


class Run:
    """One measurement of one workload: spawns the workers and collects their samples."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_dir = root / ".perfbench_out"
        self.scratch = self.out_dir / f"tmp-{workload}-{seed}"
        self.started = time.monotonic()
        self.deadline = self.started + seconds

    def _timeout(self) -> float:
        return max(1.0, self.started + RUN_LIMIT_S - time.monotonic())

    def spawn(self, mode: str, deadline: float = 0.0, **extra) -> dict:
        cmd = [sys.executable, str(WORKER), "--root", str(self.root), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--deadline", repr(deadline),
               "--scratch", str(self.scratch)]
        for key, value in extra.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                              timeout=self._timeout(), cwd=self.root)
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def importtime(self) -> tuple[float, float]:
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diamondwalk.cli"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=self._timeout(), cwd=self.root, env=env)
        if proc.returncode != 0:
            raise WorkerFailed("import of diamondwalk.cli failed:\n" + proc.stderr[-2000:])
        return import_times(proc.stderr)

    def end_to_end(self) -> dict:
        n_warm = FRESH_WORKERS[self.workload]
        workers = [self.spawn("setup") for _ in range(max(0, SETUP_SAMPLES - n_warm))]
        warm = []
        for i in range(n_warm):
            # an even share of what is left, so that one worker's overshoot
            # shortens the others instead of the run growing
            share = (self.deadline - time.monotonic()) / (n_warm - i)
            warm.append(self.spawn("warm", time.monotonic() + share))
        workers += warm
        ops = [op for w in workers for op in w["ops"]]
        warm_s = [op["s"] for op in ops if op["kind"] == "warm"]
        cold_s = [op["s"] for op in ops if op["kind"] == "cold"]
        verified = sum(op["ok"] for op in ops if op["kind"] == "warm")
        value, pct, n = tail(warm_s)
        metrics = {
            "op_s_min": min(warm_s),
            "cold_op_s_min": min(cold_s),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": max(w["peak_rss_mib"] for w in warm),
        }
        detail = {"op_s_tail_percentile": pct, "warm_ops": n, "cold_ops": len(cold_s),
                  "setup_samples": len(workers), "machine": warm[-1]["machine"]}
        result = self._result(ops, metrics, END_TO_END, detail)
        result["unbounded"].update({
            "op_s_p50": {"value": statistics.median(warm_s), "unit": "s"},
            "op_s_tail": {"value": value, "unit": "s"},
            "ops_per_s": {"value": verified / sum(warm_s), "unit": "1/s"},
            "cold_op_s": {"value": statistics.fmean(cold_s), "unit": "s"},
        })
        result["samples"] = {
            "warm_op_s": warm_s,
            "cold_op_s": cold_s,
            "setup_s": [w["setup_s"] for w in workers],
        }
        return result

    def traced(self) -> dict:
        imports = [self.importtime() for _ in range(IMPORTTIME_SAMPLES)]
        spans = self.out_dir / f"{self.workload}-seed{self.seed}-spans.json.gz"
        worker = self.spawn("trace", self.deadline, spans_out=spans)
        ops = worker["ops"]
        metrics = dict(worker["layers"])
        metrics["setup.import_s"] = statistics.median(t[0] for t in imports)
        metrics["setup.scipy_optimize_import_s"] = statistics.median(t[1] for t in imports)
        metrics["trace.overhead_s"] = (
            statistics.median(op["s"] for op in ops if op["kind"] == "traced")
            - statistics.median(op["s"] for op in ops if op["kind"] == "warm")
        )
        machine = dict(worker["machine"])
        l2 = machine["l2_bytes"]
        machine["working_set"] = {
            "lattice.slots": metrics["lattice.slots"],
            "walk.state_bytes (computed)": metrics["walk.state_bytes"],
            "lattice.table_bytes (computed)": metrics["lattice.table_bytes"],
            "state_over_l2": metrics["walk.state_bytes"] / l2 if l2 else None,
        }
        detail = {"machine": machine, "spans_file": str(spans.relative_to(self.root)),
                  "unexpected_spans": worker["unexpected_spans"],
                  "missing_spans": worker["missing_spans"]}
        return self._result(ops, metrics, PER_LAYER, detail)

    def _result(self, ops, metrics, units, detail) -> dict:
        failed = sum(not op["ok"] for op in ops)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "unbounded": {"failed_ops_ratio": {"value": failed / len(ops), "unit": "1"}},
            "detail": detail,
        }

    def measure(self, trace: bool) -> dict:
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            return self.traced() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)


def _print_table(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']}): "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for name, m in result["unbounded"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']} (no bound)")
    for key, value in result["detail"].items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*FRESH_WORKERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diamondwalk" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/diamondwalk; run from the root of a "
              "diamondwalk checkout", file=sys.stderr)
        return 2

    names = list(FRESH_WORKERS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(Run(root, name, args.seed, args.seconds).measure(bool(args.trace)))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for result in results:
        _print_table(result)
        path = root / ".perfbench_out" / (
            f"{result['workload']}-seed{args.seed}-trace{args.trace}.json")
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
