import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import diamondwalk
from diamondwalk import bands
from diamondwalk import (
    GapClosed,
    band_structure,
    dispersion,
    phase_diagram,
    transmission_closed_form,
    winding_from_hoppings,
    winding_number,
)
from diamondwalk.cli import FIG4_PAIRS, FIG5_LEFT, FIG5_RIGHT
import bands_oracle
from bands_oracle import hamiltonian_k

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
        ta = np.abs(transmission_closed_form(phi_a, ks))
        tb = np.abs(transmission_closed_form(phi_b, ks))
        expected = dispersion(ta, tb, ks)
        for i, k in enumerate(ks):
            evals = np.linalg.eigvalsh(hamiltonian_k(phi_a, phi_b, float(k)))
            assert abs(evals[1] - expected[i]) <= 1e-12
            assert abs(evals[0] + expected[i]) <= 1e-12


def test_band_structure_chiral_pairing_and_gap_nonnegative():
    result = band_structure(1.0, 2.0, 128)
    assert np.all(result.e_plus >= 0.0)  # the lower band, -e_plus, mirrors it
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


def test_band_structure_rejects_tiny_grid():
    with pytest.raises(ValueError):
        band_structure(0.0, 1.0, 8)


def test_synthetic_constant_hoppings_winding():
    assert winding_from_hoppings(0.3, 0.7, 256).nu == 1
    assert winding_from_hoppings(0.7, 0.3, 256).nu == 0


@pytest.mark.parametrize("abs_ta,abs_tb", [
    (0.3, -0.7), (-0.3, 0.7), (0.3, np.nan), (np.inf, 0.7), (0.3, np.full(256, -1e-300)),
])
def test_winding_from_hoppings_rejects_negative_or_non_finite(abs_ta, abs_tb):
    # the crossing count reads the sign of d_y off sin k, which needs |t_b| >= 0
    with pytest.raises(ValueError, match="hopping"):
        winding_from_hoppings(abs_ta, abs_tb, 256)


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


def test_winding_from_hoppings_rejects_a_tiny_grid_and_a_curve_through_the_origin():
    with pytest.raises(ValueError, match="n_k"):
        winding_from_hoppings(0.5, 0.5, 32)
    # equal hoppings: d(k) passes through the origin at k = pi, a grid point
    with pytest.raises(GapClosed):
        winding_from_hoppings(0.5, 0.5, 256)


def test_winding_from_scalar_hoppings_radius():
    res = winding_from_hoppings(0.2, 0.9, 128)
    assert res.nu == 1
    assert res.min_radius == pytest.approx(0.7, abs=1e-12)


def test_phase_diagram_flags_diagonal_and_partitions():
    grid = np.linspace(0.3, 2 * np.pi - 0.3, 5)
    diagram = phase_diagram(grid, grid, n_k=128)
    for i in range(5):
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
GRID_11 = np.linspace(0.0, 2 * np.pi, 11, endpoint=False)
GRID_13 = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
GRID_17 = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)
GRID_20 = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
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
        # across block seams: 143 pairs in blocks of 64 + 64 + 15, 289 in 256 + 33
        (GRID_13, GRID_11, 512),
        (GRID_17, GRID_17, 128),
        # gaps of 9e-9 to 1.5e-6 next to phi = pi, and pi off the odd k grid
        (GRID_20, GRID_20, 1024),
        (GRID_9, GRID_9, 513),
    ],
    ids=["9-128", "9-512", "16-128", "16-512", "5-128", "row0-128", "row0-512", "random-512",
         "13x11-512", "17-128", "20-1024", "9-513"],
)
def test_phase_diagram_matches_per_point_oracle(phi_a, phi_b, n_k):
    got = phase_diagram(phi_a, phi_b, n_k)
    want = bands_oracle.phase_diagram(phi_a, phi_b, n_k)
    assert_bits_equal(got.gap, want.gap, "gap")
    assert_bits_equal(got.nu, want.nu, "nu")


def assert_pair_matches_oracle(phi_a, phi_b, n_k):
    got = band_structure(phi_a, phi_b, n_k)
    want = bands_oracle.band_structure(phi_a, phi_b, n_k)
    for name in ("gap", "e_plus"):
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


def test_brent_lanes_match_each_lane_run_alone():
    # phase_diagram refines every pair in one search, so a lane's bits must not
    # depend on its neighbours or on when they converge
    rng = np.random.default_rng(11)
    n = 40
    phi_a, phi_b = rng.uniform(0.0, 2 * np.pi, size=(2, n))
    phi_a[:8] = 0.0
    phi_b[:4] = 0.0
    dk = 2 * np.pi / 128
    centre = rng.integers(0, 128, size=n) * dk
    # at phi_a = phi_b = 0 the gap closes on the removable point k = pi
    centre[:4] = np.pi
    lo, hi = centre - dk, centre + dk
    x, f = bands._bounded_brent(bands._splitting, lo, hi, phi_a, phi_b)
    assert np.all(np.abs(x[:4] - np.pi) < 1e-9)
    for lane in range(n):
        one = slice(lane, lane + 1)
        x1, f1 = bands._bounded_brent(bands._splitting, lo[one], hi[one], phi_a[one], phi_b[one])
        assert_bits_equal(x1, x[one], f"x of lane {lane}")
        assert_bits_equal(f1, f[one], f"f of lane {lane}")


def lane_splitting(k, phi_a, phi_b):
    return float(bands._splitting(np.array([k]), np.array([phi_a]), np.array([phi_b]))[0])


@pytest.mark.parametrize("cap", [2, 3, 5, 8])
def test_brent_stops_at_the_evaluation_cap_as_scipy_does(monkeypatch, cap):
    # these lanes need 8 to 44 evaluations uncapped, so the cap stops almost
    # every one early, where scipy's bounded search with that maxiter stops
    rng = np.random.default_rng(27)
    n = 40
    phi_a, phi_b = rng.uniform(0.0, 2 * np.pi, size=(2, n))
    dk = 2 * np.pi / 128
    lo = rng.integers(0, 128, size=n) * dk - dk
    hi = lo + 2 * dk
    monkeypatch.setattr(bands, "_MAXITER", cap)
    x, f = bands._bounded_brent(bands._splitting, lo, hi, phi_a, phi_b)
    for lane in range(n):
        want = minimize_scalar(lane_splitting, bounds=(lo[lane], hi[lane]), method="bounded",
                               args=(phi_a[lane], phi_b[lane]),
                               options={"xatol": 1e-10, "maxiter": cap})
        assert_bits_equal([x[lane], f[lane]], [want.x, want.fun], f"lane {lane}")


@pytest.mark.parametrize("n", [32, 64])
def test_phase_diagram_peak_memory_is_a_few_blocks(n):
    # numpy reports its buffers to tracemalloc; (pairs, n_k) temporaries over
    # more than a few blocks of pairs would take the peak past the bound
    grid = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    tracemalloc.start()
    try:
        phase_diagram(grid, grid, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_phase_diagram_blocks_fault_in_no_fresh_pages():
    # the blocks share one workspace.  Blocks that allocated their own 256 KiB
    # temporaries took 1,300-18,500 minor faults per call on this grid,
    # depending on the heap's layout (which decides whether glibc hands freed
    # pages back); the workspace takes under 500 once two calls have settled
    # glibc's thresholds.  A fresh interpreter keeps the test runner's heap out
    code = (
        "import resource, numpy as np; from diamondwalk import phase_diagram\n"
        "grid = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)\n"
        "phase_diagram(grid, grid, 512)\n"
        "phase_diagram(grid, grid, 512)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "phase_diagram(grid, grid, 512)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(diamondwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_phase_diagram_third_call_stays_within_its_tracemalloc_budget():
    # numpy reports its buffers to tracemalloc, whatever glibc does with the
    # heap, so unlike the fault count this does not move with the heap's
    # layout.  The third 64 x 64 call at n_k 512 peaked at 2,563,817 bytes
    # (numpy 2.4.6), most of it the lockstep Brent search
    grid = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    phase_diagram(grid, grid, 512)
    phase_diagram(grid, grid, 512)
    tracemalloc.start()
    try:
        phase_diagram(grid, grid, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("n_k,route", [
    *(pytest.param(n_k, "fresh", id=str(n_k)) for n_k in (65, 129, 512, 513)),
    *(pytest.param(n_k, "reused", id=f"{n_k}-reused") for n_k in (65, 129, 512, 513)),
])
def test_winding_min_radius_is_the_smallest_hypot(n_k, route):
    # the crossing count against the sum of wrapped arctan2 increments, and
    # min_radius against the smallest hypot.  At odd n_k, constant hoppings put
    # the minimum on two mirror points whose squares and hypots can order
    # differently; jagged curves, curves through or next to the origin and
    # tiny circles follow.  "fresh" runs each row as winding_number does;
    # "reused" gathers the rows' cut columns out of one shuffled table, as
    # phase_diagram gathers its pairs from the |t| table
    rng = np.random.default_rng(n_k)
    ta = rng.uniform(0.0, 1.0, (600, 1)) * np.ones(n_k)
    tb = rng.uniform(0.0, 1.0, (600, 1)) * np.ones(n_k)
    ta[400:] = rng.uniform(0.0, 1.0, (200, n_k))
    tb[400:500] = ta[400:500] * (1.0 + rng.normal(0.0, 1e-9, (100, n_k)))
    ta[500:550] = 0.0
    tb[500:550] = rng.uniform(0.0, 1e-160, (50, 1))  # circles with subnormal squares
    k = bands._k_grid(n_k)
    d_x, d_y = ta + tb * np.cos(k), tb * np.sin(k)
    angles = np.arctan2(d_y, d_x)
    increments = np.diff(angles, append=angles[:, :1]) + math.pi
    turns = (increments % (2 * math.pi) - math.pi).sum(axis=-1) / (2 * math.pi)
    min_radius = np.hypot(d_x, d_y).min(axis=-1)
    # the count is defined where the gap is open; the tiny circles' cross
    # products underflow to 0, and at even n_k rows 400-500 pass k = pi at ~1e-9
    open_ = min_radius >= bands._MIN_RADIUS
    assert open_.sum() > 400
    assert np.abs(turns[open_] - np.round(turns[open_])).max() < 1e-9
    if route == "fresh":
        results = [bands._winding_result(ta[r], tb[r], k) for r in range(600)]
        nu = np.array([res.nu for res in results])
        assert_bits_equal([res.min_radius for res in results], min_radius, "min_radius")
    else:
        cols = bands._cut_columns(k)
        order = rng.permutation(1200)
        table = np.concatenate([ta, tb])[order][:, cols]
        rows = np.argsort(order)
        nu = bands._winding(table[rows[:600]], table[rows[600:]], k[cols])
    assert np.array_equal(nu[open_], np.round(turns[open_]))


def test_min_radius_where_squares_and_hypots_order_differently():
    # at k index 40 the squared radius is the smaller, at 10 the hypot is
    abs_ta, abs_tb = np.ones(64), np.zeros(64)
    abs_ta[[10, 40]] = 0.2482282301895045, 0.6254013533352044
    abs_tb[[10, 40]] = 0.31750524666346086, 0.675542004584831
    k = bands._k_grid(64)
    d_x, d_y = abs_ta + abs_tb * np.cos(k), abs_tb * np.sin(k)
    assert (d_x * d_x + d_y * d_y).argmin() == 40
    assert np.hypot(d_x, d_y).argmin() == 10
    got = winding_from_hoppings(abs_ta, abs_tb, 64).min_radius
    assert_bits_equal(got, np.hypot(d_x, d_y)[10], "min_radius")
