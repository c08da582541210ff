import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diamondwalk
from diamondwalk import ConfigError, parse_config
from diamondwalk.cli import main

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


class TestParseConfig:
    def test_valid_two_region_walk_config(self):
        config = parse_config(json.dumps(FIG5_CONFIG))
        assert config.half_length == 8
        assert config.steps == 10
        assert config.regions[0] == (-8, 0, 1.5, 2.5)
        spec = config.lattice_spec()
        assert spec.theta == pytest.approx(-math.pi / 2)

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


class TestCli:
    def test_scatter_emits_matching_magnitudes(self, tmp_path, capsys):
        assert main(["scatter", "--phi", "0.8", "--k", "1.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"phi", "k", "r", "t", "abs_t", "abs_t_closed_form"}
        assert payload["abs_t"] == pytest.approx(payload["abs_t_closed_form"], abs=1e-9)

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

    def test_walk_steps_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "w.csv"
        assert main(["walk", "--config", str(config), "--steps", "4",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 17

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

    def test_walk_light_cone_overflow_exit_code(self, tmp_path):
        payload = dict(FIG5_CONFIG, half_length=3, steps=40)
        payload["regions"] = [{"from": -3, "to": 3, "phi_a": 0.0, "phi_b": 0.0}]
        config = write_config(tmp_path, payload)
        assert main(["walk", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 3

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


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only; importing it cost about 0.45 s per process
    code = (
        "import sys, diamondwalk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(diamondwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
