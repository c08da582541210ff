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
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import walk as walk_mod
from .config import ConfigError, parse_config
from .diamond import (
    NoConventionMatches,
    SingularSystem,
    calibrate_edge_convention,
    oracle_deviation,
    solve_diamond,
    transmission_closed_form,
)
from .lattice import SUBSITES, LatticeSpec, audit_graph, build_lattice

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

# rows per `%` call in _csv: 512 to 16384 format the 16,384-row table of
# `sweep --grid 128` equally fast (11.5 ms), and the chunk bounds the per-call
# lists and tuple
_CSV_CHUNK_ROWS = 4096


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(chunks: str | Iterable[str], out: str | Path | None) -> None:
    """Write ``chunks``, one string or an iterable of strings, in order to the
    file ``out`` (creating its directory) when given, else to stdout.  The
    first chunk is taken before the file is created, so a generator that
    rejects its input up front leaves no file behind."""
    chunks = iter((chunks,) if isinstance(chunks, str) else chunks)
    first = next(chunks, "")
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write(first)
            f.writelines(chunks)
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _csv(header: str, *columns: np.ndarray) -> Iterator[str]:
    """CSV chunks from equal-length arrays: floats at 17 significant digits, the rest by ``str``.

    Yields the header line, then each chunk of rows as one ``%`` over a
    repeated row template, so the formatting runs in C and the temporaries are
    bounded by the chunk.
    """
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise AssertionError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    width = len(columns)
    yield header + "\n"
    for start in range(0, n_rows, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, n_rows)
        flat = [None] * ((stop - start) * width)
        for i, c in enumerate(columns):
            flat[i::width] = c[start:stop].tolist()
        yield (row * (stop - start)) % tuple(flat)


def _bands_csv(result: bands_mod.BandResult) -> Iterator[str]:
    return _csv("k,e_plus,e_minus,abs_ta,abs_tb", result.k_grid, result.e_plus,
                -result.e_plus, result.abs_ta, result.abs_tb)


def cmd_scatter(args) -> int:
    scattering = solve_diamond(args.phi, args.k)
    r, t = complex(scattering.reflection), complex(scattering.transmission)
    closed = transmission_closed_form(args.phi, args.k)
    payload = {
        "phi": args.phi,
        "k": args.k,
        "r": [r.real, r.imag],
        "t": [t.real, t.imag],
        "abs_t": abs(t),
        "abs_t_closed_form": abs(closed),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_bands(args) -> int:
    result = bands_mod.band_structure(args.phi_a, args.phi_b, args.nk)
    _emit(_bands_csv(result), args.out)
    return EXIT_OK


def cmd_winding(args) -> int:
    result, bands = bands_mod._winding_and_bands(args.phi_a, args.phi_b, args.nk)
    payload = {"nu": result.nu, "min_radius": result.min_radius, "gap": bands.gap}
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    diagram = bands_mod.phase_diagram(grid, grid, args.nk)
    n_a, n_b = diagram.gap.shape
    nu = diagram.nu.ravel()
    closed = np.isnan(nu)
    nu_text = np.where(closed, "", np.nan_to_num(nu).astype(np.int64).astype(str))
    _emit(_csv("phi_a,phi_b,gap,nu,flag", np.repeat(diagram.phi_a, n_b),
               np.tile(diagram.phi_b, n_a), diagram.gap.ravel(), nu_text,
               np.where(closed, "gap_closed", "")), args.out)
    return EXIT_OK


def _walk_csv(obs: walk_mod.WalkObservables) -> Iterator[str]:
    """The walk's ``t,m,p`` rows, a record at a time, as ``_csv`` would format them.

    A record's cells outside its ``cell_span`` hold exactly +0.0, which
    ``%.17g`` writes as ``0``, so each such run is one ``str.join`` over the
    cell labels; the span, read from ``p_span``, is one ``%`` over the
    cells' row fragments.
    """
    cells = [str(m) for m in obs.cells.tolist()]
    fragments = [f"{m},%.17g\n" for m in cells]
    yield "t,m,p\n"
    start = 0  # of the record's span in p_span
    for t, (first, last) in zip(obs.records.tolist(), obs.cell_span.tolist()):
        head, stop = f"{t},", start + last + 1 - first
        if first:
            yield head + (",0\n" + head).join(cells[:first]) + ",0\n"
        values = tuple(obs.p_span[start:stop].tolist())
        yield (head + head.join(fragments[first : last + 1])) % values
        start = stop
        if last + 1 < len(cells):
            yield head + (",0\n" + head).join(cells[last + 1 :]) + ",0\n"


def _walk_summary(obs: walk_mod.WalkObservables) -> dict:
    return {
        "substeps_per_record": obs.substeps_per_record,
        "sigma": obs.sigma.tolist(),
        "mean": obs.mean.tolist(),
        "p_boundary": obs.p_boundary.tolist(),
    }


def _run_walk(spec: LatticeSpec, steps: int, cell: int, subsite: str, direction: str):
    spec.diamond_index(cell, subsite)  # rejects a cell off the chain before the build
    graph = build_lattice(spec)
    report = audit_graph(graph)
    if not report.ok:
        raise AssertionError("graph audit failed: " + "; ".join(report.violations))
    try:  # the state is the first chain-sized allocation
        state = walk_mod.initial_state(graph, cell, subsite, direction)
    except MemoryError as exc:
        raise ConfigError(f"a state of {graph.dim} slots does not fit in memory "
                          f"(half_length {spec.half_length})") from exc
    return walk_mod.evolve(state, graph, steps)


def _check_steps(steps: int | None) -> None:
    """Reject a ``--steps`` below the config schema's minimum of 1 before any work."""
    if steps is not None and steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {steps}")


def cmd_walk(args) -> int:
    _check_steps(args.steps)
    for option, path in ("--out", args.out), ("--summary", args.summary):
        if path and Path(path).is_dir():  # would fail only after the walk, at the write
            raise ConfigError(f"{option} {path} is a directory")
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    steps = args.steps if args.steps is not None else config.steps
    if steps is None:
        raise ConfigError("step count missing: pass --steps or add \"steps\" to the config")
    obs = _run_walk(config.lattice_spec(), steps, args.cell, args.subsite, args.direction)
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
        half = walk_mod.auto_half_length(steps)
        boundary_spec = LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT, boundary=0)
        uniform_spec = LatticeSpec.uniform(half, 0.0, 0.0)
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
    _check_steps(args.steps)
    if args.nk < 16:  # band_structure's minimum, checked for both figures before any work
        raise ConfigError(f"--nk must be at least 16, got {args.nk}")
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
    p.add_argument("--subsite", choices=SUBSITES, default="a")
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
    except (OSError, ValueError) as exc:
        # ValueError (ConfigError among them) here means a config or a module
        # precondition rejected a CLI parameter; OSError an unreadable config or
        # an unwritable output path
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
