"""The benchmark's workloads: generated inputs, one op, and the check of its output.

An op is one user-level call.  ``repro`` and ``sweep`` go through
``diamondwalk.cli.main`` as a command-line user would; ``walk_large`` follows
the library path of the README (the CLI ``walk`` path without its CSV).  Every
op writes into a fresh directory of its own.  Its output is checked, outside
the timed region, against references recorded from the seed commit under
``ref/`` and against invariants that hold for any seed.

Library functions are looked up on their modules at call time (``cli.main``,
``dw.build_lattice``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import diamondwalk as dw
from diamondwalk import cli

REF_DIR = Path(__file__).resolve().parent / "ref"

PROB_TOL = 1e-12  # walk probabilities
GAP_TOL = 1e-10  # gaps and band values (the closed form's limit points hold ~1e-10)
NORM_TOL = 1e-10  # |sum of a record's probabilities - 1|


@dataclass
class Check:
    """Outcome of checking one op; the op failed iff ``problems`` is nonempty."""

    problems: list = field(default_factory=list)
    output_bytes: int = 0
    bytes_identical: int = 0  # output files byte-identical to the seed's; not a failure

    @property
    def ok(self) -> bool:
        return not self.problems

    def close(self, label: str, got, want, tol: float) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{label}: shape {got.shape} != reference {want.shape}")
            return
        dev = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not dev <= tol:  # also catches NaN
            self.problems.append(f"{label}: deviates from reference by {dev:.3e} > {tol:.0e}")

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{label}: {got!r} != reference {want!r}")

    def norms(self, label: str, totals) -> None:
        drift = float(np.max(np.abs(np.asarray(totals) - 1.0)))
        if not drift <= NORM_TOL:
            self.problems.append(f"{label}: record norm drifts {drift:.3e} from 1")


def _table(text: str) -> tuple[list[str], np.ndarray]:
    """Header and float columns of a numeric CSV written by the CLI."""
    header, _, body = text.partition("\n")
    return header.split(","), np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _read_outputs(out_dir: Path, names, ref: dict, check: Check) -> dict:
    texts = {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            check.problems.append(f"{name}: missing")
            continue
        data = path.read_bytes()
        check.output_bytes += len(data)
        check.bytes_identical += data == ref[name]
        texts[name] = data.decode("utf-8")
    return texts


def _load_gz(directory: Path, names) -> dict:
    return {name: gzip.decompress((directory / (name + ".gz")).read_bytes()) for name in names}


class Workload:
    name: str
    #: span names an op must produce; every other traced name is predicted zero
    expected_spans: frozenset

    def make_inputs(self, seed: int, work_dir: Path) -> dict:
        return {}

    def run(self, inputs: dict, out_dir: Path):
        raise NotImplementedError

    def load_reference(self, seed: int, inputs: dict):
        raise NotImplementedError

    def verify(self, inputs: dict, out_dir: Path, result, ref) -> Check:
        raise NotImplementedError


class Repro(Workload):
    """``repro fig4`` then ``repro fig5`` at the defaults (steps 200, nk 512)."""

    name = "repro"
    expected_spans = frozenset({
        "cli.main", "cli.run_reproduction", "bands.band_structure",
        "diamond.transmission_closed_form", "lattice.build_lattice",
        "multiport.vertex_unitary", "walk.initial_state", "walk.evolve", "walk.step",
        "walk.cell_probabilities",
    })
    bands = tuple(f"fig4_band_{label}.csv" for label in "abcd")
    walks = ("fig5_boundary.csv", "fig5_uniform.csv")
    files = bands + ("fig4_summary.json",) + walks + ("fig5_summary.json",)

    def run(self, inputs, out_dir):
        return [cli.main(["repro", fig, "--out", str(out_dir)]) for fig in ("fig4", "fig5")]

    def load_reference(self, seed, inputs):
        raw = _load_gz(REF_DIR / self.name, self.files)
        ref = {"raw": raw}
        for name in self.bands + self.walks:
            ref[name] = _table(raw[name].decode())
        for name in ("fig4_summary.json", "fig5_summary.json"):
            ref[name] = json.loads(raw[name])
        return ref

    def verify(self, inputs, out_dir, result, ref):
        check = Check()
        check.equal("exit codes", result, [0, 0])
        texts = _read_outputs(out_dir, self.files, ref["raw"], check)
        for name in self.bands:
            if name in texts:
                header, cols = _table(texts[name])
                check.equal(f"{name} header", header, ref[name][0])
                check.close(name, cols, ref[name][1], GAP_TOL)
        for name in self.walks:
            if name in texts:
                header, cols = _table(texts[name])
                check.equal(f"{name} header", header, ref[name][0])
                check.close(f"{name} (t, m)", cols[:, :2], ref[name][1][:, :2], 0.0)
                check.close(f"{name} p", cols[:, 2], ref[name][1][:, 2], PROB_TOL)
                check.norms(name, np.bincount(cols[:, 0].astype(int), weights=cols[:, 2]))
        if "fig4_summary.json" in texts:
            got, want = json.loads(texts["fig4_summary.json"]), ref["fig4_summary.json"]
            check.equal("fig4 pairs", got["pairs"], want["pairs"])
            check.close("fig4 gaps", got["gaps"], want["gaps"], GAP_TOL)
        if "fig5_summary.json" in texts:
            got, want = json.loads(texts["fig5_summary.json"]), ref["fig5_summary.json"]
            for run in ("boundary", "uniform"):
                check.close(f"fig5 {run} p_boundary", got[run]["p_boundary"],
                            want[run]["p_boundary"], PROB_TOL)
        return check


class Sweep(Workload):
    """``sweep --grid 32 --nk 512``: 1024 phase pairs."""

    name = "sweep"
    expected_spans = frozenset({
        "cli.main", "bands.phase_diagram", "bands.band_structure", "bands.winding_number",
        "diamond.transmission_closed_form",
    })
    argv = ("sweep", "--grid", "32", "--nk", "512")
    files = ("sweep.csv",)

    def run(self, inputs, out_dir):
        return cli.main([*self.argv, "--out", str(out_dir / "sweep.csv")])

    @staticmethod
    def _rows(text: str):
        rows = list(csv.reader(io.StringIO(text)))
        body = rows[1:]
        return rows[0], np.array([[float(x) for x in r[:3]] for r in body]), [r[3:] for r in body]

    def load_reference(self, seed, inputs):
        raw = _load_gz(REF_DIR / self.name, self.files)
        return {"raw": raw, "rows": self._rows(raw["sweep.csv"].decode())}

    def verify(self, inputs, out_dir, result, ref):
        check = Check()
        check.equal("exit code", result, 0)
        texts = _read_outputs(out_dir, self.files, ref["raw"], check)
        if "sweep.csv" in texts:
            header, numbers, labels = self._rows(texts["sweep.csv"])
            want_header, want_numbers, want_labels = ref["rows"]
            check.equal("sweep.csv header", header, want_header)
            check.close("sweep phases", numbers[:, :2], want_numbers[:, :2], 0.0)
            check.close("sweep gaps", numbers[:, 2], want_numbers[:, 2], GAP_TOL)
            check.equal("sweep (nu, flag)", labels, want_labels)
            undefined = sum((nu == "") != (flag == "gap_closed") for nu, flag in labels)
            if undefined:
                check.problems.append(f"sweep: {undefined} rows where nu and flag disagree")
        return check


class WalkLarge(Workload):
    """``parse_config`` -> ``build_lattice`` -> ``audit_graph`` -> ``initial_state``
    -> ``evolve`` on a seeded two-region chain of half length 7000."""

    name = "walk_large"
    expected_spans = frozenset({
        "config.parse_config", "lattice.build_lattice", "lattice.audit_graph",
        "multiport.vertex_unitary", "walk.initial_state", "walk.evolve", "walk.step",
        "walk.cell_probabilities",
    })
    half_length = 7000
    records = 200
    # 200 records of 3 sub-steps reach 100 cells (6 sub-steps per cell); keep
    # the injection that far plus slack from the chain ends
    reach = 110
    interface_spread = 20

    def make_inputs(self, seed, work_dir):
        rng = random.Random(seed)
        half = self.half_length
        cell = rng.randint(-(half - self.reach), half - self.reach)
        interface = cell + rng.randint(-self.interface_spread, self.interface_spread)
        pa1, pb1, pa2, pb2 = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        config = {
            "half_length": half,
            "steps": self.records,
            "regions": [
                {"from": -half, "to": interface, "phi_a": pa1, "phi_b": pb1},
                {"from": interface + 1, "to": half, "phi_a": pa2, "phi_b": pb2},
            ],
        }
        text = json.dumps(config, indent=2, sort_keys=True) + "\n"
        path = Path(work_dir) / "walk_large.json"
        path.write_text(text, encoding="utf-8")
        return {
            "config_path": path,
            "config_text": text,
            "cell": cell,
            "subsite": rng.choice("ab"),
            "direction": rng.choice(("left", "right")),
        }

    def run(self, inputs, out_dir):
        config = dw.parse_config(inputs["config_path"].read_text(encoding="utf-8"))
        graph = dw.build_lattice(config.lattice_spec())
        report = dw.audit_graph(graph)
        state = dw.initial_state(graph, inputs["cell"], inputs["subsite"], inputs["direction"])
        return report, dw.evolve(state, graph, config.steps)

    def reference_window(self, inputs) -> tuple[int, int]:
        """Column range of ``p_cell`` that the light cone can reach."""
        centre = inputs["cell"] + self.half_length
        return centre - self.reach, centre + self.reach + 1

    def load_reference(self, seed, inputs):
        path = REF_DIR / self.name / f"seed{seed}.npz"
        if not path.is_file():
            return None  # invariant checks only
        with np.load(path) as data:
            return {"config": str(data["config"]), "p_window": data["p_window"]}

    def verify(self, inputs, out_dir, result, ref):
        check = Check()
        report, obs = result
        if not report.ok:
            check.problems.append("audit_graph: " + "; ".join(report.violations))
        check.equal("records", len(obs.records), self.records + 1)
        p = obs.p_cell
        check.norms("p_cell", p.sum(axis=1))
        if ref is not None:
            check.equal("reference config", ref["config"], inputs["config_text"])
            lo, hi = self.reference_window(inputs)
            check.close("p_cell", p[:, lo:hi], ref["p_window"], PROB_TOL)
            outside = float(p[:, :lo].sum() + p[:, hi:].sum())
            if not outside <= PROB_TOL:
                check.problems.append(f"p_cell: {outside:.3e} outside the light cone")
        return check


WORKLOADS = {w.name: w for w in (Repro(), Sweep(), WalkLarge())}
