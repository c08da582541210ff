import numpy as np
import pytest

from diamondwalk import (
    GapClosed,
    band_structure,
    dispersion,
    hamiltonian_k,
    hopping_magnitude,
    phase_diagram,
    winding_from_hoppings,
    winding_number,
)
from diamondwalk.cli import FIG4_PAIRS, FIG5_LEFT, FIG5_RIGHT
import bands_oracle

SIGMA_Z = np.diag([1.0, -1.0])


@pytest.mark.parametrize(
    "phi_a,phi_b,k",
    [(0.3, 1.2, 0.5), (1.5, 2.5, 3.0), (5.9, 0.1, 2.2), (0.0, 0.0, 1.0)],
)
def test_hamiltonian_hermitian_zero_diagonal_chiral(phi_a, phi_b, k):
    h = hamiltonian_k(phi_a, phi_b, k)
    assert np.abs(h - h.conj().T).max() <= 1e-15
    assert abs(h[0, 0]) == 0.0 and abs(h[1, 1]) == 0.0
    assert np.abs(SIGMA_Z @ h @ SIGMA_Z + h).max() <= 1e-15


def test_hamiltonian_zero_at_phi_pi_pi():
    for k in (0.0, 1.0, 4.0):
        assert np.abs(hamiltonian_k(np.pi, np.pi, k)).max() <= 1e-12


def test_eigenvalues_match_dispersion_closed_form():
    rng = np.random.default_rng(3)
    ks = np.arange(64) * 2 * np.pi / 64
    for _ in range(6):
        phi_a, phi_b = rng.uniform(0.05, 2 * np.pi - 0.05, size=2)
        ta = hopping_magnitude(phi_a, ks)
        tb = hopping_magnitude(phi_b, ks)
        expected = dispersion(ta, tb, ks)
        for i, k in enumerate(ks):
            evals = np.linalg.eigvalsh(hamiltonian_k(phi_a, phi_b, float(k)))
            assert abs(evals[1] - expected[i]) <= 1e-12
            assert abs(evals[0] + expected[i]) <= 1e-12


def test_band_structure_chiral_pairing_and_gap_nonnegative():
    result = band_structure(1.0, 2.0, 128)
    assert np.array_equal(result.e_minus, -result.e_plus)
    assert result.gap >= 0.0
    assert result.k_grid.shape == (128,)


@pytest.mark.parametrize("phi", [0.3, 1.0, 2.0])
def test_gap_closes_for_equal_phases(phi):
    assert band_structure(phi, phi, 128).gap <= 1e-9


def test_gap_grows_with_phase_difference():
    gaps = [band_structure(0.0, d, 256).gap for d in (0.0, 0.5, 1.0, 2.0, np.pi)]
    assert all(gaps[i] <= gaps[i + 1] + 1e-12 for i in range(len(gaps) - 1))
    assert all(g > 1e-6 for g in gaps[1:])
    # maximal contrast: phi_b = pi kills one hopping, so the gap is 2 min|t_a|
    assert gaps[-1] == pytest.approx(1.6, abs=1e-9)


def test_gap_minimum_location_shifts_with_parameters():
    k1 = band_structure(0.0, 1.0, 512).gap_k
    k2 = band_structure(0.0, 2.0, 512).gap_k
    assert abs(k1 - k2) > 0.05


def test_band_structure_rejects_tiny_grid():
    with pytest.raises(ValueError):
        band_structure(0.0, 1.0, 8)


def test_synthetic_constant_hoppings_winding():
    assert winding_from_hoppings(0.3, 0.7, 256).nu == 1
    assert winding_from_hoppings(0.7, 0.3, 256).nu == 0


def test_synthetic_constant_hoppings_gap():
    # with k-independent hoppings the gap is 2|v - w|
    k = np.arange(256) * 2 * np.pi / 256
    gap = 2.0 * dispersion(0.3, 0.7, k).min()
    assert gap == pytest.approx(2 * abs(0.3 - 0.7), abs=1e-6)


def test_winding_values_for_figure_phase_pairs():
    # |t(1.5, k)| ~ 0.78 dominates |t(2.5, k)| ~ 0.14, so the d(k) loop stays
    # right of the origin; with (3pi/4, 0) the k-dependent hopping dominates
    # and the loop encloses it.  The two regions are topologically distinct.
    res_a = winding_number(1.5, 2.5, 1024)
    res_b = winding_number(3 * np.pi / 4, 0.0, 1024)
    assert res_a.nu == 0
    assert res_b.nu == 1
    assert res_a.min_radius > 0.1
    assert res_b.min_radius > 0.5


@pytest.mark.parametrize("n_k", [256, 512, 1024, 2048])
def test_winding_stable_under_grid_refinement(n_k):
    assert winding_number(1.5, 2.5, n_k).nu == 0
    assert winding_number(3 * np.pi / 4, 0.0, n_k).nu == 1


def test_winding_rejects_closed_gap():
    with pytest.raises(GapClosed):
        winding_number(1.3, 1.3, 256)


def test_winding_rejects_tiny_grid():
    with pytest.raises(ValueError):
        winding_number(1.0, 2.0, 32)


def test_winding_from_scalar_hoppings_radius():
    res = winding_from_hoppings(0.2, 0.9, 128)
    assert res.nu == 1
    assert res.min_radius == pytest.approx(0.7, abs=1e-12)


def test_phase_diagram_flags_diagonal_and_partitions():
    grid = np.linspace(0.3, 2 * np.pi - 0.3, 5)
    diagram = phase_diagram(grid, grid, n_k=128)
    for i in range(5):
        assert diagram.flag[i, i] == "gap_closed"
        assert np.isnan(diagram.nu[i, i])
        assert diagram.gap[i, i] <= 1e-9
    defined = ~np.isnan(diagram.nu)
    assert set(np.unique(diagram.nu[defined])) <= {0.0, 1.0}


def test_phase_diagram_rejects_empty_grid():
    with pytest.raises(ValueError):
        phase_diagram([], [1.0])


# The batched path against the per-point oracle, bit for bit.

GRID_9 = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
GRID_16 = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
GRID_5 = np.linspace(0.3, 2 * np.pi - 0.3, 5)
RANDOM_PHASES = np.random.default_rng(2024).uniform(0.0, 2 * np.pi, size=(2, 10))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_bits_equal(got, want, label):
    assert np.array_equal(bits(got), bits(want)), label


@pytest.mark.parametrize(
    "phi_a,phi_b,n_k",
    [
        (GRID_9, GRID_9, 128),
        (GRID_9, GRID_9, 512),
        (GRID_16, GRID_16, 128),
        (GRID_16, GRID_16, 512),
        (GRID_5, GRID_5, 128),
        ([0.0], GRID_16, 128),  # the phi = 0 row holds the removable points
        ([0.0], GRID_16, 512),
        (RANDOM_PHASES[0], RANDOM_PHASES[1], 512),
    ],
    ids=["9-128", "9-512", "16-128", "16-512", "5-128", "row0-128", "row0-512", "random-512"],
)
def test_phase_diagram_matches_per_point_oracle(phi_a, phi_b, n_k):
    got = phase_diagram(phi_a, phi_b, n_k)
    want = bands_oracle.phase_diagram(phi_a, phi_b, n_k)
    assert_bits_equal(got.gap, want.gap, "gap")
    assert_bits_equal(got.nu, want.nu, "nu")
    assert np.array_equal(got.flag, want.flag)
    assert got.flag.dtype == want.flag.dtype


def assert_pair_matches_oracle(phi_a, phi_b, n_k):
    got = band_structure(phi_a, phi_b, n_k)
    want = bands_oracle.band_structure(phi_a, phi_b, n_k)
    for name in ("gap", "gap_k", "e_plus"):
        assert_bits_equal(getattr(got, name), want[name], f"{name} at {(phi_a, phi_b, n_k)}")
    try:
        want_w = bands_oracle.winding_number(phi_a, phi_b, n_k)
    except GapClosed:
        with pytest.raises(GapClosed):
            winding_number(phi_a, phi_b, n_k)
        return
    got_w = winding_number(phi_a, phi_b, n_k)
    assert got_w.nu == want_w["nu"]
    assert_bits_equal(got_w.min_radius, want_w["min_radius"], "min_radius")


@pytest.mark.parametrize("n_k", [128, 256, 512, 1024])
def test_figure_pairs_match_per_point_oracle(n_k):
    for phi_a, phi_b in (*FIG4_PAIRS, FIG5_LEFT, FIG5_RIGHT):
        assert_pair_matches_oracle(phi_a, phi_b, n_k)


def test_random_pairs_match_per_point_oracle():
    rng = np.random.default_rng(7)
    for phi_a, phi_b in rng.uniform(0.0, 2 * np.pi, size=(100, 2)):
        assert_pair_matches_oracle(float(phi_a), float(phi_b), 256)


def test_phase_diagram_rejects_coarse_k_grid():
    with pytest.raises(ValueError, match="n_k"):
        phase_diagram([1.0], [2.0], n_k=32)
