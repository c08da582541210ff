"""CLI output bytes: the chunked CSV builder against its per-cell reference,
a pinned walk whose light-cone window never reaches the chain ends, and a fig5
walk whose values agree across BLAS kernels and SIMD levels."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import per_cell_csv
import diamondwalk
from diamondwalk import walk as walk_mod
from diamondwalk.cli import _CSV_CHUNK_ROWS, _csv, main

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
    assert _csv("a,b,c,d,e", *columns) == per_cell_csv("a,b,c,d,e", *columns)


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
    assert _csv(header, *columns) == per_cell_csv(header, *columns)


def test_csv_rejects_columns_of_different_lengths():
    with pytest.raises(AssertionError, match="differ in length"):
        _csv("a,b", np.arange(3), np.arange(2))


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
