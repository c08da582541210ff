"""Golden bytes: sha256 of every reproduction output at the CLI defaults.

Criterion 09 compares two runs of the same code; these hashes pin the bytes
across code changes, so a refactor that moves any output by one ulp fails here.
"""

import hashlib

import pytest

from diamondwalk.cli import main

GOLDEN = {
    "fig4": {
        "fig4_band_a.csv": "6c2c72c15e4bf28af381ef5c37066d8cd5f3dd3084bf0de9bf9ee41dd8e88b2f",
        "fig4_band_b.csv": "ea138d243f40d984d6749032996c397c18c5f20a5946981d6831d8427d747eaf",
        "fig4_band_c.csv": "2cfabaa352e70a9a4647b7eab6c0c715961d767e7505fa105ac1e05cf75e5218",
        "fig4_band_d.csv": "546b612125ebf0996612d8b48d83075724db7ef730fd1bbadebd4787464d0dca",
        "fig4_summary.json": "8746621b8e2526a8018f663c056c3211a1b9f0ba7b4f469a106f3fe0b71c7ac2",
    },
    "fig5": {
        "fig5_boundary.csv": "46d64bb169caed1f605f010ebdb891c8e1cd154a485ae340d9e77c86ee2a8098",
        "fig5_uniform.csv": "4ab1acb3fd33a396e3bb6e22a0172e1f01e04e303fd91e5277df3529e02767e2",
        "fig5_summary.json": "b5660e4f7f12933fb523aff64eb93df410dc648e37b2fa9dc4e4b1e6d8a3d25b",
    },
}
SWEEP_GRID_9 = "2af9798b31af75c3642ab687d611e3a3be46887039040b693716996bcdb91d02"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("figure", sorted(GOLDEN))
def test_repro_bytes_match_golden(figure, tmp_path):
    assert main(["repro", figure, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN[figure])
    for name, digest in GOLDEN[figure].items():
        assert sha256(tmp_path / name) == digest, name


def test_bands_stdout_is_fig4_band_b(capsys):
    assert main(["bands", "--phi-a", "0", "--phi-b", "0.5", "--nk", "512"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN["fig4"]["fig4_band_b.csv"]


def test_sweep_grid_9_bytes_match_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "9", "--out", str(out)]) == 0
    assert sha256(out) == SWEEP_GRID_9
