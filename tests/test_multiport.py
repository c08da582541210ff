import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondwalk import check_unitary, vertex_unitary

QUARTER_WAVE = -np.pi / 2.0


def quarter_wave_expected():
    return (-1j / 3.0) * np.array(
        [[1, -2, -2], [-2, 1, -2], [-2, -2, 1]], dtype=complex
    )


def test_quarter_wave_matrix_entrywise():
    u = vertex_unitary(QUARTER_WAVE)
    assert np.abs(u - quarter_wave_expected()).max() <= 1e-15


def test_quarter_wave_entries_purely_imaginary():
    u = vertex_unitary(QUARTER_WAVE)
    assert np.abs(u.real).max() <= 1e-15


def test_strictly_unbiased_exit_probabilities():
    u = vertex_unitary(np.pi / 6.0)
    assert np.abs(np.abs(u) ** 2 - 1.0 / 3.0).max() <= 1e-12


def test_unitary_for_100_random_thetas():
    rng = np.random.default_rng(20240817)
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=100):
        assert check_unitary(vertex_unitary(float(theta)), 1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, -np.pi / 2, np.pi / 6, 3.1, 2 * np.pi])
def test_port_exchange_symmetry(theta):
    m = vertex_unitary(theta)
    diag = np.diag(m)
    off = m[~np.eye(3, dtype=bool)]
    # the construction broadcasts a single value into each group
    assert np.all(diag == diag[0])
    assert np.all(off == off[0])
    assert abs(diag[0] - off[0]) > 1e-3  # and the two groups genuinely differ


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_unitarity_property(theta):
    assert check_unitary(vertex_unitary(theta), 1e-12)


def test_vertex_unitary_rejects_non_finite():
    with pytest.raises(ValueError):
        vertex_unitary(np.inf)


def test_check_unitary_identity():
    assert check_unitary(np.eye(3), 1e-12)


def test_check_unitary_quarter_wave_matrix():
    assert check_unitary(quarter_wave_expected(), 1e-12)


def test_check_unitary_detects_broken_matrix():
    m = quarter_wave_expected().copy()
    m[0, 1] = 0.0
    assert not check_unitary(m, 1e-6)


def test_check_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 3)))
