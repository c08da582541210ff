"""Command-line front end.

Subcommands: ``scatter``, ``bands``, ``winding``, ``sweep``, ``walk``,
``repro {fig4|fig5}``, ``calibrate``.  All outputs are deterministic: CSV is
long format with floats at 17 significant digits, JSON is emitted with sorted
keys, and no randomness exists anywhere in the model.

Exit codes: 0 success, 2 configuration error, 3 numerical error (singular
system, closed gap, light-cone overflow, failed calibration), 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import walk as walk_mod
from .config import ConfigError, RunConfig, parse_config
from .diamond import (
    NoConventionMatches,
    SingularSystem,
    calibrate_edge_convention,
    oracle_deviation,
    solve_diamond,
    transmission_closed_form,
)
from .lattice import LatticeSpec, PhaseProfile, audit_graph, build_lattice

__all__ = ["main", "run_reproduction"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

_NUMERICAL_ERRORS = (
    SingularSystem,
    NoConventionMatches,
    bands_mod.GapClosed,
    walk_mod.LightConeOverflow,
)

FIG5_LEFT = (1.5, 2.5)
FIG5_RIGHT = (3.0 * math.pi / 4.0, 0.0)
# equal phases close the gap; the difference then opens it up to its maximum
# at |phi_a - phi_b| = pi (gaps 0, 0.06, 0.79, 1.6)
FIG4_PAIRS = ((0.0, 0.0), (0.0, 0.5), (0.0, 2.0), (0.0, math.pi))


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out`` (creating its directory) when given, else to stdout."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv(header: str, *columns: np.ndarray) -> str:
    """CSV text from equal-length arrays: floats at 17 significant digits, the rest by ``str``."""
    cells = [map("%.17g".__mod__ if c.dtype.kind == "f" else str, c.tolist()) for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _bands_csv(result: bands_mod.BandResult) -> str:
    return _csv("k,e_plus,e_minus,abs_ta,abs_tb", result.k_grid, result.e_plus,
                result.e_minus, result.abs_ta, result.abs_tb)


def cmd_scatter(args) -> int:
    scattering = solve_diamond(args.phi, args.k)
    closed = transmission_closed_form(args.phi, args.k)
    payload = {
        "phi": args.phi,
        "k": args.k,
        "r": [scattering.reflection.real, scattering.reflection.imag],
        "t": [scattering.transmission.real, scattering.transmission.imag],
        "abs_t": abs(scattering.transmission),
        "abs_t_closed_form": abs(closed),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_bands(args) -> int:
    result = bands_mod.band_structure(args.phi_a, args.phi_b, args.nk)
    _emit(_bands_csv(result), args.out)
    return EXIT_OK


def cmd_winding(args) -> int:
    result = bands_mod.winding_number(args.phi_a, args.phi_b, args.nk)
    gap = bands_mod.band_structure(args.phi_a, args.phi_b, args.nk).gap
    payload = {"nu": result.nu, "min_radius": result.min_radius, "gap": gap}
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    diagram = bands_mod.phase_diagram(grid, grid, args.nk)
    n_a, n_b = diagram.gap.shape
    nu = diagram.nu.ravel()
    nu_text = np.where(np.isnan(nu), "", np.nan_to_num(nu).astype(np.int64).astype(str))
    text = _csv("phi_a,phi_b,gap,nu,flag", np.repeat(diagram.phi_a, n_b),
                np.tile(diagram.phi_b, n_a), diagram.gap.ravel(), nu_text, diagram.flag.ravel())
    _emit(text, args.out)
    return EXIT_OK


def _walk_csv(obs: walk_mod.WalkObservables) -> str:
    n_records, n_cells = obs.p_cell.shape
    return _csv("t,m,p", np.repeat(obs.records, n_cells), np.tile(obs.cells, n_records),
                obs.p_cell.ravel())


def _walk_summary(obs: walk_mod.WalkObservables) -> dict:
    return {
        "substeps_per_record": obs.substeps_per_record,
        "sigma": [float(x) for x in obs.sigma],
        "mean": [float(x) for x in obs.mean],
        "p_boundary": [float(x) for x in obs.p_boundary],
    }


def _run_walk(config: RunConfig, steps: int, cell: int, subsite: str, direction: str):
    graph = build_lattice(config.lattice_spec())
    report = audit_graph(graph)
    if not report.ok:
        raise AssertionError("graph audit failed: " + "; ".join(report.violations))
    state = walk_mod.initial_state(graph, cell, subsite, direction)
    return walk_mod.evolve(state, graph, steps)


def cmd_walk(args) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    steps = args.steps if args.steps is not None else config.steps
    if steps is None:
        raise ConfigError("step count missing: pass --steps or add \"steps\" to the config")
    obs = _run_walk(config, steps, args.cell, args.subsite, args.direction)
    _emit(_walk_csv(obs), args.out)
    if args.summary:
        _emit(_json_text(_walk_summary(obs)), args.summary)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    convention = calibrate_edge_convention()
    payload = {
        "internal_length": convention.internal_length,
        "quarter_turns": convention.quarter_turns,
        "max_abs_deviation": oracle_deviation(convention, 32, 32),
    }
    _emit(_json_text(payload), None)
    return EXIT_OK


def run_reproduction(figure: str, out_dir: Path, steps: int = 200, nk: int = 512) -> dict:
    """Emit the plot-ready data behind the band and walk figures.

    ``fig4``: band CSVs for four phase pairs spanning gap-closed to
    gap-maximal.  ``fig5``: the boundary-interface and uniform 200-step walk
    CSVs plus a summary JSON with the localisation/spreading metrics.
    Returns the summary payload.
    """
    out_dir = Path(out_dir)
    if figure == "fig4":
        summary: dict = {"pairs": [], "gaps": []}
        for label, (pa, pb) in zip("abcd", FIG4_PAIRS):
            result = bands_mod.band_structure(pa, pb, nk)
            _emit(_bands_csv(result), out_dir / f"fig4_band_{label}.csv")
            summary["pairs"].append([pa, pb])
            summary["gaps"].append(result.gap)
        _emit(_json_text(summary), out_dir / "fig4_summary.json")
        return summary

    if figure == "fig5":
        per_record = LatticeSpec.internal_length + LatticeSpec.external_length
        half = walk_mod.auto_half_length(steps, per_record, 2 * per_record)
        boundary_spec = LatticeSpec(
            half_length=half,
            profile=PhaseProfile.two_region(FIG5_LEFT, FIG5_RIGHT, half, boundary=0),
        )
        uniform_spec = LatticeSpec(half_length=half, profile=PhaseProfile.uniform(0.0, 0.0, half))
        results = {}
        for name, spec in ("boundary", boundary_spec), ("uniform", uniform_spec):
            graph = build_lattice(spec)
            state = walk_mod.initial_state(graph, 0, "a", "right")
            obs = walk_mod.evolve(state, graph, steps)
            _emit(_walk_csv(obs), out_dir / f"fig5_{name}.csv")
            results[name] = obs

        pb_b = results["boundary"].p_boundary
        pb_u = results["uniform"].p_boundary
        last_quarter = slice(3 * steps // 4, steps + 1)
        mid_window = slice(steps // 4, steps // 2 + 1)
        summary = {
            "half_length": half,
            "steps": steps,
            "boundary": _walk_summary(results["boundary"]),
            "uniform": _walk_summary(results["uniform"]),
            "persistence": {
                "p_boundary_late": float(pb_b[last_quarter].mean()),
                "p_boundary_mid": float(pb_b[mid_window].mean()),
                "uniform_late": float(pb_u[last_quarter].mean()),
            },
        }
        _emit(_json_text(summary), out_dir / "fig5_summary.json")
        return summary

    raise ConfigError(f"unknown reproduction target {figure!r}")


def cmd_repro(args) -> int:
    run_reproduction(args.figure, Path(args.out), steps=args.steps, nk=args.nk)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondwalk",
        description="Quantum walks on chains of directionally-unbiased three-port diamonds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="S-matrix of one diamond at (phi, k)")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("bands", help="band structure over the Brillouin zone (CSV)")
    p.add_argument("--phi-a", type=float, required=True)
    p.add_argument("--phi-b", type=float, required=True)
    p.add_argument("--nk", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("winding", help="winding number, minimum radius and gap (JSON)")
    p.add_argument("--phi-a", type=float, required=True)
    p.add_argument("--phi-b", type=float, required=True)
    p.add_argument("--nk", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("sweep", help="gap/winding phase diagram over a square grid (CSV)")
    p.add_argument("--grid", type=int, default=9)
    p.add_argument("--nk", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("walk", help="time-domain walk from a JSON config (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--cell", type=int, default=0)
    p.add_argument("--subsite", choices=("a", "b"), default="a")
    p.add_argument("--direction", choices=("left", "right"), default="right")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("repro", help="emit the data behind the band/walk figures")
    p.add_argument("figure", choices=("fig4", "fig5"))
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--nk", type=int, default=512)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("calibrate", help="recalibrate the solver edge convention")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        # ValueError here means a module precondition rejected a CLI parameter;
        # OSError an unreadable config or an unwritable output path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
