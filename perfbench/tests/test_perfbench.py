"""Tests of the benchmark itself (not of diamondwalk).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import diamondwalk  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from diamondwalk import bands, cli, walk  # noqa: E402


def test_same_seed_gives_same_config(tmp_path):
    walk_large = workloads.WORKLOADS["walk_large"]
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    first, second, other = (walk_large.make_inputs(s, d) for s, d in zip((3, 3, 4), dirs))
    keys = ("config_text", "cell", "subsite", "direction")
    assert [first[k] for k in keys] == [second[k] for k in keys]
    assert first["config_text"] != other["config_text"]
    assert first["config_path"].read_text() == first["config_text"]

    config = diamondwalk.parse_config(first["config_text"])
    assert config.half_length == walk_large.half_length
    assert len(config.regions) == 2
    assert abs(first["cell"]) <= walk_large.half_length - walk_large.reach


def test_wrapper_covers_every_binding():
    t = tracer.Tracer()
    originals = {id(fn) for fn in t.originals.values()}
    t.install()
    try:
        for mod in tracer.loaded_modules():
            leftover = [a for a, v in vars(mod).items() if id(v) in originals]
            assert not leftover, f"{mod.__name__} still binds originals: {leftover}"
        patched_names = {(m.__name__, a) for m, a, _ in t.patched}
        # the bindings made by name in other modules
        assert ("diamondwalk.cli", "build_lattice") in patched_names
        assert ("diamondwalk.cli", "audit_graph") in patched_names
        assert ("diamondwalk.bands", "transmission_closed_form") in patched_names
        assert ("diamondwalk", "evolve") in patched_names
        wrapped = {id(v) for _, _, v in t.patched}
        assert wrapped == originals, "a target has no binding"
    finally:
        t.uninstall()
    assert cli.build_lattice is t.originals["lattice.build_lattice"]
    assert bands.transmission_closed_form is t.originals["diamond.transmission_closed_form"]
    assert walk.step is t.originals["walk.step"]


def test_self_time_subtracts_children():
    spans = [("op", 0, 100, -1), ("a", 10, 60, 0), ("b", 20, 30, 1), ("b", 40, 45, 1)]
    summary = tracer.summarize(spans)
    assert summary["op"] == [1, 50, 100]
    assert summary["a"] == [1, 35, 50]
    assert summary["b"] == [2, 15, 15]


def test_every_expected_span_is_a_target():
    for w in workloads.WORKLOADS.values():
        assert w.expected_spans <= set(tracer.TARGETS), w.name


def test_traced_repro_op_meets_its_span_table(tmp_path):
    repro = workloads.WORKLOADS["repro"]
    t = tracer.Tracer()
    seconds, check, trace = worker.run_op(repro, {}, repro.load_reference(0, {}), tmp_path, t)
    assert check.ok, check.problems
    layers, unexpected, missing = worker._op_layers(repro, *trace, check)
    assert (unexpected, missing) == ([], [])
    assert layers["trace.span_table_mismatches"] == 0
    assert layers["lattice.build_lattice.calls"] == 2
    assert layers["walk.step.calls"] == layers["walk.substeps"] == 2 * 200 * 3
    assert layers["cli.bytes_identical"] == len(repro.files)
    assert 0 < layers["cli.self_s"] < seconds
    assert not t.patched


class _Corrupting(workloads.Repro):
    """repro whose op damages one probability of its walk output."""

    def run(self, inputs, out_dir):
        codes = super().run(inputs, out_dir)
        path = out_dir / "fig5_boundary.csv"
        lines = path.read_text().splitlines()
        t, m, p = lines[5].split(",")
        lines[5] = f"{t},{m},{float(p) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n")
        return codes


def test_corrupted_output_counts_as_failed(tmp_path):
    good, bad = workloads.WORKLOADS["repro"], _Corrupting()
    ref = good.load_reference(0, {})
    ops = []
    for w in (good, bad):
        seconds, check, _ = worker.run_op(w, {}, ref, tmp_path)
        ops.append({"kind": "warm", "s": seconds, "ok": check.ok})
    assert ops[0]["ok"] and not ops[1]["ok"]
    assert check.bytes_identical == len(good.files) - 1
    assert any("fig5_boundary.csv" in p for p in check.problems)

    result = run.Run(tmp_path, "repro", 0, 1.0)._result(ops, {}, {}, {})
    ratio = result["unbounded"]["failed_ops_ratio"]["value"]
    assert (result["attempted"], result["failed"], ratio) == (2, 1, 0.5)
    assert result["correct"] is False


def test_changed_sweep_label_fails(tmp_path):
    sweep = workloads.WORKLOADS["sweep"]
    ref = sweep.load_reference(0, {})
    text = ref["raw"]["sweep.csv"].decode()
    row = next(line for line in text.splitlines()[1:] if line.endswith(",1,"))
    (tmp_path / "sweep.csv").write_text(text.replace(row, row[:-3] + ",0,", 1))
    check = sweep.verify({}, tmp_path, 0, ref)
    assert not check.ok
    assert check.bytes_identical == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 20)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_import_times_reads_the_outermost_line():
    report = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       704 |     581105 |       scipy.optimize\n"
        "import time:       816 |     833206 |   diamondwalk\n"
        "import time:      4426 |     837632 | diamondwalk.cli\n"
    )
    assert run.import_times(report) == (0.837632, 0.581105)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.FRESH_WORKERS)
    assert list(run.FRESH_WORKERS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "repro", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [0, 7919])
def test_walk_reference_matches_its_generated_config(seed, tmp_path):
    walk_large = workloads.WORKLOADS["walk_large"]
    inputs = walk_large.make_inputs(seed, tmp_path)
    ref = walk_large.load_reference(seed, inputs)
    assert ref["config"] == inputs["config_text"]
    lo, hi = walk_large.reference_window(inputs)
    assert ref["p_window"].shape == (walk_large.records + 1, hi - lo)
