import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import diamondwalk
from diamondwalk import (
    DEFAULT_THETA, AuditReport, ConfigError, LatticeSpec, audit_graph, build_lattice, cli,
    diamond, multiport, parse_config,
)
from diamondwalk.cli import main
from diamondwalk.config import CONFIG_SCHEMA
from test_golden import README_WALK_CONFIG

FIG5_CONFIG = {
    "half_length": 8,
    "steps": 10,
    "regions": [
        {"from": -8, "to": 0, "phi_a": 1.5, "phi_b": 2.5},
        {"from": 1, "to": 8, "phi_a": 3 * math.pi / 4, "phi_b": 0.0},
    ],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def replaced(keys, value):
    """A copy of FIG5_CONFIG with the value at ``keys`` (a JSON path) replaced."""
    doc = json.loads(json.dumps(FIG5_CONFIG))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


class TestParseConfig:
    def test_valid_two_region_walk_config(self):
        config = parse_config(json.dumps(FIG5_CONFIG))
        assert config.half_length == 8
        assert config.steps == 10
        assert config.regions[0] == (-8, 0, 1.5, 2.5)
        graph = build_lattice(config.lattice_spec())
        assert graph.vertex_matrix.tobytes() == multiport.vertex_unitary(DEFAULT_THETA).tobytes()

    def test_defaults_applied_when_edge_lengths_omitted(self):
        config = parse_config(json.dumps(FIG5_CONFIG))
        assert config.internal_length == 2  # calibrated convention
        assert config.external_length == 1

    def test_non_numeric_phase_reports_field_path(self):
        bad = json.loads(json.dumps(FIG5_CONFIG))
        bad["regions"][0]["phi_a"] = "abc"
        with pytest.raises(ConfigError, match=r"regions\[0\]\.phi_a"):
            parse_config(json.dumps(bad))

    def test_unknown_key_rejected(self):
        bad = dict(FIG5_CONFIG, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            parse_config(json.dumps(bad))

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_gap_in_coverage_rejected(self):
        bad = dict(FIG5_CONFIG)
        bad["regions"] = [
            {"from": -8, "to": -1, "phi_a": 1.5, "phi_b": 2.5},
            {"from": 1, "to": 8, "phi_a": 0.0, "phi_b": 0.0},
        ]
        with pytest.raises(ConfigError, match="cover"):
            parse_config(json.dumps(bad))

    def test_non_finite_theta_rejected(self):
        bad = dict(FIG5_CONFIG, theta=math.inf)
        with pytest.raises(ConfigError, match="finite"):
            parse_config(json.dumps(bad))

    @pytest.mark.parametrize("doc, path", [
        (replaced(["half_length"], True), "half_length"),
        (replaced(["half_length"], 8.5), "half_length"),
        (replaced(["regions", 0, "phi_a"], True), "regions[0].phi_a"),
        (replaced(["edge_lengths"], {"internal": 2, "diagonal": 1}), "edge_lengths"),
        (replaced(["regions"], []), "regions"),
        (replaced(["theta"], 0.0), "theta"),  # the one vertex phase is -pi/2
        ([FIG5_CONFIG], "<document root>"),
    ], ids=["bool-half-length", "fractional-half-length", "bool-phase",
            "unknown-edge-length", "empty-regions", "theta-other-than-minus-pi-over-2",
            "non-object-root"])
    def test_schema_error_names_the_path(self, doc, path):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value).startswith(f"schema error at {path}: ")

    def test_empty_regions_names_the_item_minimum(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(replaced(["regions"], [])))
        assert str(info.value) == "schema error at regions: expected at least 1 items, got 0"

    def test_parsed_config_is_its_lattice_spec_plus_steps(self):
        config = parse_config(json.dumps(FIG5_CONFIG))
        assert isinstance(config, LatticeSpec)
        assert ([f.name for f in dataclasses.fields(config)]
                == [f.name for f in dataclasses.fields(LatticeSpec)] + ["steps"])
        spec = config.lattice_spec()
        assert type(spec) is LatticeSpec
        assert spec == LatticeSpec(8, ((-8, 0, 1.5, 2.5), (1, 8, 3 * math.pi / 4, 0.0)))
        assert repr(config) == repr(spec).replace("LatticeSpec(", "RunConfig(")[:-1] + ", steps=10)"

    def test_config_without_steps_has_no_step_count(self):
        doc = dict(FIG5_CONFIG)
        del doc["steps"]
        assert parse_config(json.dumps(doc)).steps is None

    @pytest.mark.parametrize("lengths, want", [
        ({"internal": 3, "external": 2}, (3, 2)),
        ({"internal": 3.0}, (3, 1)),
        ({"external": 2}, (2, 2)),
        ({}, (2, 1)),
    ])
    def test_given_edge_lengths_are_kept_and_the_rest_default(self, lengths, want):
        config = parse_config(json.dumps(dict(FIG5_CONFIG, edge_lengths=lengths)))
        spec = config.lattice_spec()
        assert (spec.internal_length, spec.external_length) == want
        assert type(spec.internal_length) is int


class TestCli:
    def test_scatter_emits_matching_magnitudes(self, tmp_path, capsys):
        assert main(["scatter", "--phi", "0.8", "--k", "1.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"phi", "k", "r", "t", "abs_t", "abs_t_closed_form"}
        assert payload["abs_t"] == pytest.approx(payload["abs_t_closed_form"], abs=1e-9)

    @pytest.mark.parametrize("argv,code,message", [
        (["--phi", "nan", "--k", "1.1"], 2, "config error: phi and k must be finite"),
        (["--phi", "0.8", "--k", "inf"], 2, "config error: phi and k must be finite"),
        (["--phi", "0", "--k", "0"], 3, "numerical error: scattering system is singular at "
                                        "(phi=0.0, k=0.0)"),
    ])
    def test_scatter_bad_point_exit_codes(self, capsys, argv, code, message):
        assert main(["scatter", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_bands_csv_row_count(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert main(["bands", "--phi-a", "1.0", "--phi-b", "2.0",
                     "--nk", "64", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,e_plus,e_minus,abs_ta,abs_tb"
        assert len(lines) == 65

    def test_winding_json(self, capsys):
        assert main(["winding", "--phi-a", "2.356194490192345", "--phi-b", "0",
                     "--nk", "256"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu"] == 1
        assert payload["gap"] > 0

    def test_winding_computes_the_bands_once(self, capsys, monkeypatch):
        calls = []
        band_structure = diamondwalk.bands.band_structure

        def counted(*args, **kwargs):
            calls.append(args)
            return band_structure(*args, **kwargs)

        monkeypatch.setattr(diamondwalk.bands, "band_structure", counted)
        assert main(["winding", "--phi-a", "1.5", "--phi-b", "2.5", "--nk", "256"]) == 0
        assert calls == [(1.5, 2.5, 256)]
        assert json.loads(capsys.readouterr().out)["gap"] > 0

    def test_winding_coarse_grid_is_config_error(self, capsys):
        assert main(["winding", "--phi-a", "1.0", "--phi-b", "2.0", "--nk", "32"]) == 2
        assert "n_k must be >= 64" in capsys.readouterr().err

    def test_winding_closed_gap_is_numerical_error(self, capsys):
        assert main(["winding", "--phi-a", "1.3", "--phi-b", "1.3", "--nk", "256"]) == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("phi_a,phi_b,nk", [
        ("1", "1", "513"),  # k = pi, where the gap closes, is off the odd grid
        ("0.6283185307179586", "3.141592653589793", "1024"),  # refined gap 6.2e-07
    ])
    def test_winding_closed_refined_gap_is_numerical_error(self, capsys, phi_a, phi_b, nk):
        assert main(["winding", "--phi-a", phi_a, "--phi-b", phi_b, "--nk", nk]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refined gap" in captured.err

    def test_sweep_flags_closed_refined_gap_off_the_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "4", "--nk", "513", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0,0,4.2146848510894035e-08,,gap_closed"

    def test_sweep_csv_dimensions(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "4", "--nk", "128", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi_a,phi_b,gap,nu,flag"
        assert len(lines) == 1 + 16

    @pytest.mark.parametrize("argv", [["--nk", "32"], ["--grid", "0"]], ids=["nk-32", "grid-0"])
    def test_sweep_bad_size_is_config_error_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_outputs_and_determinism(self, tmp_path):
        config = write_config(tmp_path, FIG5_CONFIG)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["walk", "--config", str(config), "--out", str(out1),
                     "--summary", str(s1)]) == 0
        assert main(["walk", "--config", str(config), "--out", str(out2),
                     "--summary", str(s2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,m,p"
        assert len(lines) == 1 + 11 * 17  # (steps+1) records x (2M+1) cells
        summary = json.loads(s1.read_text())
        assert len(summary["p_boundary"]) == 11

    def test_walk_builds_its_graph_from_a_plain_lattice_spec(self, tmp_path, monkeypatch):
        # a RunConfig would build too, but its graph's spec would carry the step count
        built = []
        build = diamondwalk.cli.build_lattice
        monkeypatch.setattr(diamondwalk.cli, "build_lattice",
                            lambda spec: built.append(spec) or build(spec))
        config = write_config(tmp_path, FIG5_CONFIG)
        assert main(["walk", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 0
        assert [type(spec) for spec in built] == [LatticeSpec]

    def test_walk_steps_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "w.csv"
        assert main(["walk", "--config", str(config), "--steps", "4",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 17

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_walk_steps_below_one_is_config_error_before_the_build(self, tmp_path, capsys,
                                                                    monkeypatch, steps):
        # the config schema's minimum for "steps"; a build would exit 4 here
        def no_build(spec):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli, "build_lattice", no_build)
        config = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "w.csv"
        assert main(["walk", "--config", str(config), "--steps", steps, "--out", str(out)]) == 2
        assert f"config error: --steps must be at least 1, got {steps}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["99", "-9"])
    def test_walk_cell_outside_the_chain_is_config_error_before_the_build(self, tmp_path, capsys,
                                                                         monkeypatch, cell):
        # the chain has cells -8 .. 8; a build would allocate the whole chain first
        def no_build(spec):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli, "build_lattice", no_build)
        config = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "w.csv"
        assert main(["walk", "--config", str(config), "--cell", cell, "--out", str(out)]) == 2
        assert f"config error: cell {cell} outside [-8, 8]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--out", "--summary"])
    def test_walk_output_directory_is_config_error_before_the_build(self, tmp_path, capsys,
                                                                    monkeypatch, option):
        def no_build(spec):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli, "build_lattice", no_build)
        config = write_config(tmp_path, FIG5_CONFIG)
        paths = {"--out": tmp_path / "w.csv", "--summary": tmp_path / "s.json"}
        paths[option].mkdir()
        assert main(["walk", "--config", str(config), "--out", str(paths["--out"]),
                     "--summary", str(paths["--summary"])]) == 2
        assert f"config error: {option} {paths[option]} is a directory" in capsys.readouterr().err
        assert paths["--out"].is_dir() if option == "--out" else not paths["--out"].exists()
        assert not paths["--summary"].is_file()

    def test_walk_theta_zero_is_config_error_and_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_build(spec):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli, "build_lattice", no_build)
        config = write_config(tmp_path, dict(FIG5_CONFIG, theta=0.0))
        out, summary = tmp_path / "w.csv", tmp_path / "s.json"
        assert main(["walk", "--config", str(config), "--out", str(out),
                     "--summary", str(summary)]) == 2
        assert "config error: schema error at theta: " in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    def test_repro_nk_below_sixteen_is_config_error_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch, figure):
        # fig5 never reads --nk and fig4 would reject it only inside band_structure
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "build_lattice", no_work)
        monkeypatch.setattr(cli.bands_mod, "band_structure", no_work)
        out = tmp_path / "out"
        assert main(["repro", figure, "--out", str(out), "--nk", "8"]) == 2
        assert "config error: --nk must be at least 16, got 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_repro_steps_below_one_is_config_error_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch, figure, steps):
        def no_build(spec):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli, "build_lattice", no_build)
        out = tmp_path / "out"
        assert main(["repro", figure, "--out", str(out), "--steps", steps]) == 2
        assert f"config error: --steps must be at least 1, got {steps}" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_audit_violation_is_invariant_error_and_writes_nothing(self, tmp_path, capsys,
                                                                        monkeypatch):
        def failing_audit(graph):
            return AuditReport(counts={}, violations=("forged violation",))

        monkeypatch.setattr(cli, "audit_graph", failing_audit)
        config = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "w.csv"
        assert main(["walk", "--config", str(config), "--out", str(out)]) == 4
        assert "internal invariant violation" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_reports_the_default_convention(self, capsys):
        assert main(["calibrate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["internal_length"] == 2 and payload["quarter_turns"] == 1
        assert payload["max_abs_deviation"] < 1e-12

    def test_calibrate_with_no_matching_convention_is_numerical_error(self, capsys, monkeypatch):
        # a theta = 0 vertex, which no edge convention fits to the closed form
        monkeypatch.setattr(diamond, "vertex_unitary", lambda theta: multiport.vertex_unitary(0.0))
        assert main(["calibrate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical error: best candidate" in captured.err

    def test_run_reproduction_rejects_an_unknown_figure(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown reproduction target 'fig6'"):
            cli.run_reproduction("fig6", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_run_reproduction_accepts_a_str_directory(self, tmp_path):
        summary = cli.run_reproduction("fig4", str(tmp_path), nk=64)
        assert len(summary["gaps"]) == 4
        assert (tmp_path / "fig4_summary.json").exists()

    def test_walk_missing_steps_is_config_error(self, tmp_path):
        payload = {k: v for k, v in FIG5_CONFIG.items() if k != "steps"}
        config = write_config(tmp_path, payload)
        assert main(["walk", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 2

    def test_walk_bad_config_exit_code(self, tmp_path):
        bad = json.loads(json.dumps(FIG5_CONFIG))
        bad["regions"][0]["phi_a"] = "abc"
        config = write_config(tmp_path, bad)
        assert main(["walk", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 2

    def test_walk_missing_config_file(self, tmp_path):
        assert main(["walk", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "w.csv")]) == 2

    def test_walk_config_directory_is_config_error(self, tmp_path, capsys):
        assert main(["walk", "--config", str(tmp_path), "--out", str(tmp_path / "w.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_under_a_file_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["bands", "--phi-a", "0", "--phi-b", "1", "--nk", "64",
                     "--out", str(blocker / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_walk_integral_float_config_matches_integer_config(self, tmp_path):
        floats = replaced(["regions", 0, "from"], -8.0)
        floats.update(half_length=8.0, steps=10.0)
        config = parse_config(json.dumps(floats))
        assert type(config.half_length) is int and type(config.steps) is int
        assert config == parse_config(json.dumps(FIG5_CONFIG))
        csv = []
        for name, payload in (("int", FIG5_CONFIG), ("float", floats)):
            path = write_config(tmp_path, payload, f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert main(["walk", "--config", str(path), "--out", str(out)]) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]

    def test_walk_light_cone_overflow_exit_code(self, tmp_path):
        payload = dict(FIG5_CONFIG, half_length=3, steps=40)
        payload["regions"] = [{"from": -3, "to": 3, "phi_a": 0.0, "phi_b": 0.0}]
        config = write_config(tmp_path, payload)
        assert main(["walk", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 3

    def test_walk_chain_too_long_to_allocate_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the build and the audit allocate nothing chain-sized; the state,
        # 4e16 slots here, is the first allocation that fails
        half = 10**15
        payload = dict(FIG5_CONFIG, half_length=half)
        payload["regions"] = [{"from": -half, "to": half, "phi_a": 0.0, "phi_b": 0.0}]
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e9:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing_zeros)
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, payload)
        assert main(["walk", "--config", str(config), "--out", str(out)]) == 2
        slots = build_lattice(LatticeSpec.uniform(half, 0.0, 0.0)).dim
        assert f"a state of {slots} slots does not fit in memory" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_too_long_to_allocate_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the state fits, but evolve's spans of 20001 records do not
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e5:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, FIG5_CONFIG)
        assert main(["walk", "--config", str(config), "--out", str(out),
                     "--steps", "20000"]) == 2
        slots = build_lattice(LatticeSpec.uniform(FIG5_CONFIG["half_length"], 0.0, 0.0)).dim
        assert (f"a walk of 20000 records on {slots} slots does not fit in memory"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_parameter_is_config_error(self, tmp_path, capsys):
        assert main(["bands", "--phi-a", "0", "--phi-b", "1", "--nk", "4",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "n_k" in capsys.readouterr().err

    def test_repro_fig4_gaps_span_closed_to_maximal(self, tmp_path):
        assert main(["repro", "fig4", "--out", str(tmp_path), "--nk", "64"]) == 0
        summary = json.loads((tmp_path / "fig4_summary.json").read_text())
        gaps = summary["gaps"]
        assert len(gaps) == 4
        assert gaps[0] <= 1e-9
        assert all(gaps[i] < gaps[i + 1] for i in range(3))
        for label in "abcd":
            assert (tmp_path / f"fig4_band_{label}.csv").exists()

    def test_repro_fig5_small_run_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["repro", "fig5", "--out", str(d1), "--steps", "30"]) == 0
        assert main(["repro", "fig5", "--out", str(d2), "--steps", "30"]) == 0
        for name in ("fig5_boundary.csv", "fig5_uniform.csv", "fig5_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_repro_fig5_too_long_to_allocate_is_config_error_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # 10**9 steps size both chains at half_length 500000002; as for walk,
        # the state is the first allocation that fails
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e9:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing_zeros)
        out = tmp_path / "out"
        assert main(["repro", "fig5", "--out", str(out), "--steps", "1000000000"]) == 2
        half = cli.walk_mod.auto_half_length(10**9)
        slots = build_lattice(LatticeSpec.uniform(half, 0.0, 0.0)).dim
        assert (f"a state of {slots} slots does not fit in memory (half_length {half})"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_repro_fig5_walk_too_long_to_allocate_is_config_error_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # 50000 steps size both chains at half_length 25002: the 16 MB state
        # fits, and the first walk's ~10 GB of spans is refused
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e8:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        out = tmp_path / "out"
        assert main(["repro", "fig5", "--out", str(out), "--steps", "50000"]) == 2
        half = cli.walk_mod.auto_half_length(50000)
        slots = build_lattice(LatticeSpec.uniform(half, 0.0, 0.0)).dim
        assert (f"a walk of 50000 records on {slots} slots does not fit in memory"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_repro_fig5_writes_nothing_when_its_second_walk_fails(self, tmp_path, capsys,
                                                                monkeypatch):
        evolve, calls = cli.walk_mod.evolve, []

        def overflowing_second_walk(*args):
            calls.append(args)
            if len(calls) == 2:
                raise cli.walk_mod.LightConeOverflow("forged overflow")
            return evolve(*args)

        monkeypatch.setattr(cli.walk_mod, "evolve", overflowing_second_walk)
        assert main(["repro", "fig5", "--out", str(tmp_path), "--steps", "30"]) == 3
        assert "numerical error: forged overflow" in capsys.readouterr().err
        assert len(calls) == 2 and not list(tmp_path.glob("fig5_*"))

    def test_repro_fig5_walks_only_lattices_that_pass_the_audit(self, tmp_path, monkeypatch):
        # repro fig5 runs no audit of its own yet; these are the paper figure's lattices
        built = []
        build = cli.build_lattice
        monkeypatch.setattr(cli, "build_lattice",
                            lambda spec: built.append(build(spec)) or built[-1])
        assert main(["repro", "fig5", "--out", str(tmp_path)]) == 0
        assert len(built) == 2
        for graph in built:
            report = audit_graph(graph)
            assert report.ok, report.violations


# both are test-only oracles; importing scipy cost about 0.45 s per process, jsonschema 0.08 s
@pytest.mark.parametrize("root", ["scipy", "jsonschema"])
def test_importing_the_cli_loads_no_test_only_package(root):
    code = (
        "import sys, diamondwalk.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {root!r}))"
    )
    src = str(Path(diamondwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# a build takes ~1 ms, and a `repro` op calls main twice
def test_main_builds_its_parser_once_per_process_and_importing_the_cli_builds_none(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["scatter", "--phi", "1.5", "--k", "1.0"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    code = "import diamondwalk.cli as cli; print(cli.build_parser.cache_info().misses)"
    src = str(Path(diamondwalk.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# numpy loads some modules on first use: np.unique, called without return_index,
# return_inverse or return_counts, imports numpy.ma (about 8 ms) on its first call
def test_no_command_imports_a_module_after_the_cli_and_its_parser(tmp_path):
    config = write_config(tmp_path, README_WALK_CONFIG)
    commands = [
        ["scatter", "--phi", "1.5", "--k", "1.0", "--out", f"{tmp_path}/scatter.json"],
        ["bands", "--phi-a", "0", "--phi-b", "0.5", "--nk", "64", "--out", f"{tmp_path}/bands.csv"],
        ["winding", "--phi-a", "1.5", "--phi-b", "2.5", "--out", f"{tmp_path}/winding.json"],
        ["sweep", "--grid", "3", "--nk", "64", "--out", f"{tmp_path}/sweep.csv"],
        ["repro", "fig4", "--nk", "64", "--out", f"{tmp_path}/fig4"],
        ["repro", "fig5", "--steps", "50", "--out", f"{tmp_path}/fig5"],
        ["walk", "--config", str(config), "--out", f"{tmp_path}/walk.csv",
         "--summary", f"{tmp_path}/walk_summary.json"],
        ["calibrate"],
    ]
    code = (
        "import json, sys, diamondwalk.cli as cli; cli.build_parser()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    before = set(sys.modules)\n"
        "    status = cli.main(argv)\n"
        "    print(json.dumps([argv[0], status, sorted(set(sys.modules) - before)]))\n"
    )
    src = str(Path(diamondwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    ran = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert [command for command, _, _ in ran] == [argv[0] for argv in commands]
    for command, status, loaded in ran:
        assert status == 0, (command, proc.stderr)
        assert loaded == [], f"{command} imported {loaded}"


def _random_mutation(doc, rng):
    """Swap a value, delete a key or item, or add one, at a random path of ``doc``."""
    values = [True, False, None, "abc", 0, 1, -1, 2, 8, 10, 8.0, -8.0, 0.0, 8.5, -0.5,
              [], [1], {}, {"internal": 2}, {"external": 1.5}, FIG5_CONFIG["regions"][1]]
    keys = ["half_length", "theta", "steps", "regions", "edge_lengths", "from", "to",
            "phi_a", "phi_b", "internal", "external", "extra"]
    paths, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        paths.append((path, node))
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack.extend((path + (key,), child) for key, child in items)
    path, node = rng.choice(paths)
    kind = rng.choice(["swap", "delete", "add"])
    value = json.loads(json.dumps(rng.choice(values)))
    if kind == "add" and isinstance(node, dict):
        node[rng.choice(keys)] = value
    elif kind == "add" and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1), value)
    elif not path:
        return value  # the root itself is swapped or deleted
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def test_parse_config_agrees_with_jsonschema_on_mutated_configs():
    # no mutation makes a number non-finite: JSON Schema accepts those, parse_config does not
    validator = Draft202012Validator(CONFIG_SCHEMA)
    rng = random.Random(2017)
    outcomes = {"accepted": 0, "bad_profile": 0, "schema_error": 0}
    for _ in range(3000):
        doc = json.loads(json.dumps(FIG5_CONFIG))
        for _ in range(rng.randint(1, 3)):
            doc = _random_mutation(doc, rng)
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        try:
            parse_config(json.dumps(doc))
            message = None
        except ConfigError as exc:
            message = str(exc)
        if errors:
            path = ""
            for part in errors[0].absolute_path:
                path += f"[{part}]" if isinstance(part, int) else f".{part}" if path else part
            assert message is not None, doc
            assert message.startswith(f"schema error at {path or '<document root>'}: "), doc
            outcomes["schema_error"] += 1
            continue
        # valid by the schema, so only the regions may still be refused
        try:
            LatticeSpec(int(doc["half_length"]), tuple(
                (r["from"], r["to"], r["phi_a"], r["phi_b"]) for r in doc["regions"]
            ))
            expected = None
        except ValueError as exc:
            expected = f"schema error at regions: {exc}"
        assert message == expected, doc
        outcomes["bad_profile" if expected else "accepted"] += 1
    assert min(outcomes.values()) >= 100, outcomes
