"""CLI output bytes: the chunked table CSV and the streamed walk CSV against
their per-cell reference, the walk CSV's memory while it is written, a pinned
walk whose light-cone window never reaches the chain ends, the pinned walk and
fig5 bytes written without the dense ``p_cell`` table, and a fig5 walk whose
values agree across BLAS kernels and SIMD levels."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import per_cell_csv
from test_golden import GOLDEN, README_WALK_CONFIG, WALK_CSV, WALK_SUMMARY
import diamondwalk
from diamondwalk import LatticeSpec, PhaseProfile, build_lattice
from diamondwalk import walk as walk_mod
from diamondwalk.cli import (
    _CSV_CHUNK_ROWS, FIG5_LEFT, FIG5_RIGHT, _csv, _emit, _walk_csv, main,
)

INT64 = np.iinfo(np.int64)
POOLS = {
    "f": np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, -2.5, 1.0]),
    "i": np.array([INT64.min, INT64.max, 0, -1, 7], dtype=np.int64),
    "b": np.array([False, True]),
    "U": np.array(["", "0", "1", "-1"]),
}
CHUNK = _CSV_CHUNK_ROWS


@pytest.mark.parametrize("n_rows", [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_csv_matches_per_cell_reference_across_chunk_edges(n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [rng.choice(POOLS[kind], n_rows) for kind in "fiUbf"]
    assert "".join(_csv("a,b,c,d,e", *columns)) == per_cell_csv("a,b,c,d,e", *columns)


ELEMENTS = (
    (st.floats(width=64), np.float64),
    (st.integers(int(INT64.min), int(INT64.max)), np.int64),
    (st.booleans(), bool),
    (st.sampled_from(POOLS["U"].tolist()), str),
)


@st.composite
def equal_length_columns(draw):
    n_rows = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=5))
    return [np.array(draw(st.lists(element, min_size=n_rows, max_size=n_rows)), dtype=dtype)
            for element, dtype in kinds]


@settings(max_examples=60, deadline=None)
@given(equal_length_columns())
def test_csv_matches_per_cell_reference_for_mixed_columns(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert "".join(_csv(header, *columns)) == per_cell_csv(header, *columns)


def test_csv_rejects_columns_of_different_lengths(tmp_path):
    out = tmp_path / "out" / "table.csv"
    with pytest.raises(AssertionError, match="differ in length"):
        _emit(_csv("a,b", np.arange(3), np.arange(2)), out)
    assert not out.exists()


def walk(half_length, cell, subsite, direction, n_record, *, regions=(FIG5_LEFT, FIG5_RIGHT),
         boundary=0, internal=2, external=1):
    """Observables of a two-region walk, cut one record before a light-cone overflow."""
    profile = PhaseProfile.two_region(*regions, half_length, boundary=boundary)
    graph = build_lattice(LatticeSpec(half_length=half_length, profile=profile,
                                      internal_length=internal, external_length=external))
    state = walk_mod.initial_state(graph, cell, subsite, direction)
    try:
        return walk_mod.evolve(state, graph, n_record)
    except walk_mod.LightConeOverflow as exc:
        overflow = int(re.search(r"at record (\d+);", str(exc)).group(1))
        return walk_mod.evolve(state, graph, overflow - 1)


def per_cell_walk_csv(obs):
    n_records, n_cells = obs.p_cell.shape
    return per_cell_csv("t,m,p", np.repeat(obs.records, n_cells), np.tile(obs.cells, n_records),
                        obs.p_cell.ravel())


@pytest.mark.parametrize("case", ["fig5-boundary", "fig5-uniform", "span-from-the-first-cell",
                                  "span-to-the-last-cell", "record-zero-only"])
def test_walk_csv_matches_per_cell_reference(case):
    fig5_half = walk_mod.auto_half_length(200)
    obs = {
        "fig5-boundary": lambda: walk(fig5_half, 0, "a", "right", 200),
        "fig5-uniform": lambda: walk(fig5_half, 0, "a", "right", 200, regions=((0.0, 0.0),) * 2),
        # next to an end the walk overflows at record 2
        "span-from-the-first-cell": lambda: walk(6, -5, "b", "left", 1),
        "span-to-the-last-cell": lambda: walk(6, 5, "a", "right", 1),
        "record-zero-only": lambda: walk(6, 0, "a", "right", 0),
    }[case]()
    first, last = obs.cell_span.min(axis=0)[0], obs.cell_span.max(axis=0)[1]
    if case == "span-from-the-first-cell":
        assert first == 0 and last < obs.cells.size - 1
    elif case == "span-to-the-last-cell":
        assert first > 0 and last == obs.cells.size - 1
    else:
        assert first > 0 and last < obs.cells.size - 1
    assert "".join(_walk_csv(obs)) == per_cell_walk_csv(obs)


PHASE = st.floats(0.0, 2 * math.pi)


@settings(max_examples=40, deadline=None)
@given(half=st.integers(2, 10), data=st.data())
def test_walk_csv_matches_per_cell_reference_on_random_chains(half, data):
    draw = data.draw
    regions = tuple((draw(PHASE), draw(PHASE)) for _ in range(2))
    obs = walk(half, draw(st.integers(1 - half, half - 1)), draw(st.sampled_from("ab")),
               draw(st.sampled_from(("left", "right"))), draw(st.integers(0, 2 * half + 8)),
               regions=regions, boundary=draw(st.integers(-half, half - 1)),
               internal=draw(st.integers(1, 3)), external=draw(st.integers(1, 2)))
    assert "".join(_walk_csv(obs)) == per_cell_walk_csv(obs)


def test_walk_csv_is_written_a_record_at_a_time(tmp_path):
    # measured with tracemalloc: writing these 6.6 MB of CSV text, whose longest
    # record is 36 kB, peaks at 466 kB, of which 390 kB are the cell labels and
    # row fragments built once per CSV; the whole-text builder that the stream
    # replaced peaked at 22.9 MB
    obs = walk(1500, 0, "a", "right", 200)
    out = tmp_path / "walk.csv"
    tracemalloc.start()
    try:
        _emit(_walk_csv(obs), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text == per_cell_walk_csv(obs)
    n_cells = obs.cells.size
    lines = np.array([len(line) for line in text.splitlines(keepends=True)[1:]])
    longest_record = lines.reshape(-1, n_cells).sum(axis=1).max()
    assert len(text) >= 5_000_000
    assert peak < 16 * longest_record


# 60 records grow the window one diamond per record from the injection
# cell's diamonds 300..301 to diamonds 240..361 of 602, so the chain ends are
# never stepped
INNER_WALK_CONFIG = {
    "half_length": 150,
    "steps": 60,
    "regions": [
        {"from": -150, "to": 0, "phi_a": 1.5, "phi_b": 2.5},
        {"from": 1, "to": 150, "phi_a": 3 * math.pi / 4, "phi_b": 0.0},
    ],
}
INNER_WALK_CSV = "0405b2550d7a672cb840ccb2d73f8cc2a588cda6f1a65bbffd40c6610a643f68"
INNER_WALK_SUMMARY = "5fc5f28f2154ae2608d3d3f3b8ba27a347ed4022e8f4c51f4e2cfe5ec9e16f64"


def test_walk_inside_its_chain_bytes_are_pinned(tmp_path, monkeypatch):
    windows, chains = [], set()
    step = walk_mod.step

    def recording_step(state, graph, *, window=None, out=None):
        windows.append(window)
        chains.add(graph.spec.n_diamonds)
        return step(state, graph, window=window, out=out)

    monkeypatch.setattr(walk_mod, "step", recording_step)
    config = tmp_path / "walk.json"
    config.write_text(json.dumps(INNER_WALK_CONFIG), encoding="utf-8")
    out, summary = tmp_path / "walk.csv", tmp_path / "walk_summary.json"
    assert main(["walk", "--config", str(config), "--out", str(out),
                 "--summary", str(summary)]) == 0
    (n_diamonds,) = chains
    assert 0 < min(lo for lo, _ in windows) and max(hi for _, hi in windows) < n_diamonds - 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INNER_WALK_CSV
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == INNER_WALK_SUMMARY


def test_walk_and_fig5_bytes_never_build_the_dense_p_cell(tmp_path, monkeypatch):
    def refuse(obs):
        raise RuntimeError("the dense p_cell table was built")

    monkeypatch.setattr(walk_mod.WalkObservables, "p_cell", property(refuse))
    config = tmp_path / "walk.json"
    config.write_text(json.dumps(README_WALK_CONFIG), encoding="utf-8")
    out, summary = tmp_path / "walk.csv", tmp_path / "walk_summary.json"
    assert main(["walk", "--config", str(config), "--out", str(out),
                 "--summary", str(summary)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WALK_CSV
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == WALK_SUMMARY
    assert main(["repro", "fig5", "--out", str(tmp_path / "fig5")]) == 0
    for name, digest in GOLDEN["fig5"].items():
        assert hashlib.sha256((tmp_path / "fig5" / name).read_bytes()).hexdigest() == digest


# each setting rounds the walk differently; measured here, each moves 690-750 of
# the 1,845 values by at most 3.3e-16 (Haswell), 2.8e-16 (Prescott), 2.2e-16 (SSE)
PORTABILITY_SETTINGS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-sse": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL,X86_V4,X86_V3"},
}


def test_fig5_walk_agrees_across_blas_kernels_and_simd_levels(tmp_path):
    """The walk's math, not its bytes, is portable: each setting runs in its own process."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(Path(diamondwalk.__file__).resolve().parents[1])
    p = {}
    for name, setting in PORTABILITY_SETTINGS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "diamondwalk.cli", "repro", "fig5", "--steps", "40",
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, timeout=60, env={**env, **setting},
        )
        assert proc.returncode == 0, (name, proc.stderr)
        csv = (tmp_path / name / "fig5_boundary.csv").read_text().splitlines()
        assert csv[0] == "t,m,p"
        p[name] = np.array([float(line.rsplit(",", 1)[1]) for line in csv[1:]])
    reference = p.pop("default")
    assert reference.size == 41 * 45  # (steps + 1) records x (2M + 1) cells
    for name, values in p.items():
        assert np.max(np.abs(values - reference)) <= 1e-15, name
