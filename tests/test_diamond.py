import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_closed_form_scalar_inputs_return_complex():
    scalars = ((1.2, 0.7), (np.float64(1.2), np.float64(0.7)), (0.0, 0.0), (np.array(1.2), 0.7))
    for phi, k in scalars:
        assert type(transmission_closed_form(phi, k)) is complex


def test_solver_matches_closed_form_at_benchmark_point():
    s = solve_diamond(0.0, np.pi / 3)
    t_closed = transmission_closed_form(0.0, np.pi / 3)
    assert abs(abs(s.transmission) - abs(t_closed)) <= 1e-12
    assert abs(abs(s.transmission) - ABS_T_AT_0_PI3) <= 1e-12


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


def test_calibration_negative_control_wrong_vertex():
    with pytest.raises(NoConventionMatches):
        calibrate_edge_convention(theta=0.0)


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


def test_wrong_convention_has_large_deviation():
    assert oracle_deviation(EdgeConvention(internal_length=1, quarter_turns=0), 8, 8) > 1e-3


def test_edge_convention_validation():
    with pytest.raises(ValueError):
        EdgeConvention(internal_length=0)
