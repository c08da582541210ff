import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondwalk import diamond, multiport
from diamondwalk import (
    DEFAULT_CONVENTION,
    EdgeConvention,
    NoConventionMatches,
    SingularSystem,
    calibrate_edge_convention,
    oracle_deviation,
    solve_diamond,
    transmission_closed_form,
)
import bands_oracle

# magnitude at (phi=0, k=pi/3), frozen from the scattering-solver oracle
ABS_T_AT_0_PI3 = 0.8386278693775346


@pytest.mark.parametrize("k", [0.3, 1.0, 2.2, 5.9])
def test_closed_form_vanishes_at_phi_pi(k):
    assert abs(transmission_closed_form(np.pi, k)) <= 1e-12


def test_closed_form_full_transmission_limit_at_origin():
    # approach along k: |t| -> 1
    small = [abs(transmission_closed_form(0.0, k)) for k in (1e-3, 1e-4, 1e-5)]
    assert abs(small[-1] - 1.0) < 1e-8
    assert abs(small[0] - 1.0) < 1e-4
    # and the removable point itself evaluates to the limit
    assert abs(transmission_closed_form(0.0, 0.0) - 1.0) <= 1e-9


def test_solver_singular_at_bound_state_point():
    # the internal loop resonates exactly where the closed form has its 0/0
    with pytest.raises(SingularSystem):
        solve_diamond(0.0, 0.0)
    # a tiny k perturbation restores solvability, approaching |t| = 1
    assert abs(abs(solve_diamond(0.0, 1e-4).transmission) - 1.0) < 1e-6


def test_closed_form_vectorised_matches_scalar():
    ks = np.array([0.1, 0.7, np.pi, 5.0])
    vec = transmission_closed_form(1.2, ks)
    for i, k in enumerate(ks):
        assert vec[i] == transmission_closed_form(1.2, float(k))


def bits(z):
    return np.ascontiguousarray(z).view(np.int64)


def test_closed_form_array_phi_is_bitwise_a_loop_of_scalar_calls():
    # phi = 0 with k a multiple of pi/2 are the removable 0/0 points
    phis = np.concatenate([[0.0, np.pi, 2 * np.pi], np.random.default_rng(11).uniform(0, 7, 20)])
    ks = np.concatenate([[0.0, np.pi / 2, np.pi, 3 * np.pi / 2], np.linspace(0.01, 6.2, 40)])
    loop = np.array([[transmission_closed_form(float(p), float(k)) for k in ks] for p in phis])
    # the scalar calls themselves are the per-point closed form's
    oracle = np.array([[bands_oracle.transmission_closed_form(p, k) for k in ks] for p in phis])
    assert np.array_equal(bits(loop), bits(oracle))
    table = transmission_closed_form(phis[:, None], ks)
    assert table.shape == loop.shape
    assert np.array_equal(bits(table), bits(loop))
    # one (phi, k) per element
    p, k = np.meshgrid(phis, ks, indexing="ij")
    lanes = transmission_closed_form(p.ravel(), k.ravel())
    assert np.array_equal(bits(lanes), bits(loop.ravel()))
    # array phi against a scalar k
    column = transmission_closed_form(phis, np.pi / 2)
    assert np.array_equal(bits(column), bits(loop[:, 1]))


def test_closed_form_rejects_nan_anywhere_in_phi():
    with pytest.raises(ValueError, match="phi must be finite"):
        transmission_closed_form(np.array([0.3, np.nan, 1.0]), 0.5)
    with pytest.raises(ValueError, match="phi must be finite"):
        transmission_closed_form(np.array([[0.3], [np.inf]]), np.array([0.1, 0.2]))


def test_closed_form_rejects_a_non_finite_k():
    with pytest.raises(ValueError, match="k must be finite"):
        transmission_closed_form(1.0, np.inf)


def test_closed_form_scalar_inputs_return_complex():
    scalars = ((1.2, 0.7), (np.float64(1.2), np.float64(0.7)), (0.0, 0.0), (np.array(1.2), 0.7))
    for phi, k in scalars:
        assert type(transmission_closed_form(phi, k)) is complex


def test_solver_matches_closed_form_at_benchmark_point():
    s = solve_diamond(0.0, np.pi / 3)
    t_closed = transmission_closed_form(0.0, np.pi / 3)
    assert abs(abs(s.transmission) - abs(t_closed)) <= 1e-12
    assert abs(abs(s.transmission) - ABS_T_AT_0_PI3) <= 1e-12


def test_solver_s_matrix_is_read_only():
    s = solve_diamond(1.0, 0.3).s_matrix
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = 0.0


def test_solver_zero_transmission_at_phi_pi():
    s = solve_diamond(np.pi, 1.0)
    assert abs(s.transmission) <= 1e-12
    assert abs(abs(s.reflection) - 1.0) <= 1e-10


@pytest.mark.parametrize("phi,k", [(0.0, np.pi / 3), (1.5, 0.8), (2.5, 4.0), (4.4, 2.9)])
def test_solver_s_matrix_unitary_and_reciprocal(phi, k):
    s = solve_diamond(phi, k).s_matrix
    assert np.abs(s.conj().T @ s - np.eye(2)).max() <= 1e-10
    # identical vertices and a reciprocal shifter make the diamond symmetric
    assert abs(s[0, 1] - s[1, 0]) <= 1e-12
    assert abs(s[0, 0] - s[1, 1]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=6.2, allow_nan=False),
    st.floats(min_value=0.05, max_value=6.2, allow_nan=False),
)
def test_flux_conservation_property(phi, k):
    s = solve_diamond(phi, k).s_matrix
    column_flux = np.abs(s) ** 2
    assert np.abs(column_flux.sum(axis=0) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("phi,k", [(0.9, 0.4), (2.2, 3.7), (5.5, 1.1)])
def test_periodicity_in_k(phi, k):
    t1 = transmission_closed_form(phi, k)
    t2 = transmission_closed_form(phi, k + 2 * np.pi)
    assert abs(abs(t1) - abs(t2)) <= 1e-12
    s1 = solve_diamond(phi, k)
    s2 = solve_diamond(phi, k + 2 * np.pi)
    assert abs(abs(s1.transmission) - abs(s2.transmission)) <= 1e-12


def test_calibration_finds_the_shipped_convention():
    convention = calibrate_edge_convention()
    assert convention == DEFAULT_CONVENTION
    assert convention.internal_length == 2
    assert convention.quarter_turns == 1


def test_calibration_negative_control_wrong_vertex(monkeypatch):
    # the closed form is the theta = -pi/2 diamond's; no convention fits theta = 0
    monkeypatch.setattr(diamond, "vertex_unitary", lambda theta: multiport.vertex_unitary(0.0))
    with pytest.raises(NoConventionMatches):
        calibrate_edge_convention()


def test_calibrated_convention_on_holdout_points():
    rng = np.random.default_rng(7)
    for _ in range(10):
        phi = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        k = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        t_solver = abs(solve_diamond(phi, k).transmission)
        t_closed = abs(transmission_closed_form(phi, k))
        assert abs(t_solver - t_closed) <= 1e-9


def test_oracle_deviation_small_on_coarse_grid():
    assert oracle_deviation(DEFAULT_CONVENTION, 12, 12) <= 1e-12


@pytest.mark.parametrize("n_phi,n_k", [(0, 5), (5, 0), (-1, 5), (5, -3)])
def test_oracle_deviation_rejects_empty_grid(n_phi, n_k):
    # an empty grid has no deviation to take the max of, not a deviation of 0
    with pytest.raises(ValueError, match="n_phi and n_k"):
        oracle_deviation(DEFAULT_CONVENTION, n_phi, n_k)


@pytest.mark.parametrize("n_phi,n_k,name", [(2.5, 4, "n_phi"), (True, 4, "n_phi"),
                                            (4, "3", "n_k"), (4, None, "n_k")])
def test_oracle_deviation_rejects_a_count_that_is_not_an_integral_number(n_phi, n_k, name):
    with pytest.raises(ValueError, match=f"{name} has a value"):
        oracle_deviation(DEFAULT_CONVENTION, n_phi, n_k)


def test_oracle_deviation_takes_an_integral_count_as_its_int():
    want = oracle_deviation(DEFAULT_CONVENTION, 12, 12)
    assert oracle_deviation(DEFAULT_CONVENTION, 12.0, np.int64(12)) == want


def test_solver_batch_is_bitwise_a_loop_of_scalar_calls():
    rng = np.random.default_rng(20)
    phis = np.concatenate([rng.uniform(-10.0, 10.0, 600), rng.uniform(0.0, 2 * np.pi, 600)])
    ks = np.concatenate([rng.uniform(-10.0, 10.0, 600), rng.uniform(0.0, 2 * np.pi, 600)])
    for convention in (DEFAULT_CONVENTION, EdgeConvention(internal_length=3, quarter_turns=2)):
        batch = solve_diamond(phis, ks, convention).s_matrix
        loop = np.array([solve_diamond(float(p), float(k), convention).s_matrix
                         for p, k in zip(phis, ks)])
        assert batch.shape == loop.shape == (len(phis), 2, 2)
        assert np.array_equal(bits(batch), bits(loop))
    # broadcast (phi, 1) against (k,): lane (i, j) is the call at (phis[i], ks[j])
    grid = solve_diamond(phis[:30, None], ks[:40], DEFAULT_CONVENTION)
    assert grid.s_matrix.shape == (30, 40, 2, 2)
    assert grid.transmission.shape == grid.reflection.shape == (30, 40)
    assert np.array_equal(bits(grid.s_matrix[7, 11]),
                          bits(solve_diamond(phis[7], ks[11]).s_matrix))


def test_solver_batch_names_its_first_singular_lane_as_plain_floats():
    phi = np.array([[0.3, 1.0, 0.0], [0.0, 2.0, 0.5]])
    k = np.array([[0.5, 0.2, 0.0], [np.pi / 2, 0.1, 0.4]])
    with pytest.raises(SingularSystem, match=r"at \(phi=0\.0, k=0\.0\); perturb k$"):
        solve_diamond(phi, k)
    with pytest.raises(SingularSystem, match=r"at \(phi=0\.0, k=1\.5707963267948966\)"):
        solve_diamond(phi[1], k[1])


def test_solver_rejects_a_non_finite_lane_before_any_solve(monkeypatch):
    def no_linalg(*args, **kwargs):
        raise AssertionError("linear algebra ran on a non-finite input")

    monkeypatch.setattr(np.linalg, "cond", no_linalg)
    monkeypatch.setattr(np.linalg, "solve", no_linalg)
    for phi, k in ((np.array([0.3, np.nan, 1.0]), 0.5), (0.4, np.array([[0.1], [np.inf]])),
                   (float("nan"), 0.5), (0.5, float("-inf"))):
        with pytest.raises(ValueError, match=r"^phi and k must be finite$"):
            solve_diamond(phi, k)


def test_solver_matches_closed_form_on_a_dense_grid():
    assert oracle_deviation(DEFAULT_CONVENTION, 256, 256) <= 1e-13


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
def test_solver_matches_closed_form_near_the_removable_points(delta):
    # the closed form's 0/0 points are phi = 0, k = j pi / 2, where the solver is singular
    phis = np.array([0.0, delta, -delta])
    ks = np.array([j * np.pi / 2 + sign * delta for j in range(4) for sign in (-1, 1)])
    t_solver = np.abs(solve_diamond(phis[:, None], ks).transmission)
    t_closed = np.abs(transmission_closed_form(phis[:, None], ks))
    assert np.abs(t_solver - t_closed).max() <= 1e-14


def test_wrong_convention_has_large_deviation():
    assert oracle_deviation(EdgeConvention(internal_length=1, quarter_turns=0), 8, 8) > 1e-3


def test_edge_convention_validation():
    with pytest.raises(ValueError):
        EdgeConvention(internal_length=0)
