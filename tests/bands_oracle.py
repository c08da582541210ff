"""Independent oracle for the momentum-space layer: the per-point path.

One scalar closed form per (phi, k), scipy's bounded ``minimize_scalar`` for
each gap, the winding as a sum of wrapped ``arctan2`` angle increments over
the whole grid, and a Python double loop over the phase grid.  The library
computes the same numbers batched (one ``|t|`` table over all phases, a
lockstep Brent search over all pairs, a crossing count on four grid columns);
the tests require the two to agree bit for bit.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from diamondwalk import GapClosed, PhaseDiagram

_SINGULAR_DENOM_TOL = 1e-8
_LIMIT_OFFSET = 1e-6
_MIN_RADIUS = 1e-6
_INTEGER_SLACK = 0.1


def _closed_form_raw(phi: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = np.exp(-1j * phi)
    w = np.exp(-4j * k)
    num = 4.0 * (1.0 + q) * (1.0 - q * w)
    den = w * (1.0 + q) ** 2 - (3.0 * q * w - 1.0) ** 2
    return num, den


def transmission_closed_form(phi: float, k):
    """``t(phi, k)`` for one scalar ``phi``, 0/0 points limit-evaluated one by one."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if not np.all(np.isfinite(k_arr)):
        raise ValueError("k must be finite")

    num, den = _closed_form_raw(phi, k_arr)
    singular = np.abs(den) < _SINGULAR_DENOM_TOL
    out = np.empty_like(num)
    ok = ~singular
    out[ok] = num[ok] / den[ok]

    if np.any(singular):
        for idx in np.flatnonzero(singular):
            k0 = k_arr[idx]
            lo_n, lo_d = _closed_form_raw(phi, np.array([k0 - _LIMIT_OFFSET]))
            hi_n, hi_d = _closed_form_raw(phi, np.array([k0 + _LIMIT_OFFSET]))
            out[idx] = 0.5 * (lo_n[0] / lo_d[0] + hi_n[0] / hi_d[0])

    if np.ndim(k) == 0:
        return complex(out[0])
    return out


def hopping_magnitude(phi: float, k):
    return np.abs(transmission_closed_form(phi, k))


def hamiltonian_k(phi_a: float, phi_b: float, k: float) -> np.ndarray:
    """2x2 momentum-space Hamiltonian at quasi-momentum k (1/N prefactor dropped)."""
    off = hopping_magnitude(phi_a, k) + hopping_magnitude(phi_b, k) * np.exp(-1j * k)
    return np.array([[0.0, off], [np.conj(off), 0.0]], dtype=complex)


def dispersion(ta, tb, k):
    return np.sqrt(np.maximum(ta**2 + tb**2 + 2.0 * ta * tb * np.cos(k), 0.0))


def _k_grid(n_k: int) -> np.ndarray:
    return np.arange(n_k) * 2.0 * math.pi / n_k


def band_structure(phi_a: float, phi_b: float, n_k: int = 512) -> dict:
    """``e_plus`` and ``gap``: the coarse minimum refined by scipy."""
    k = _k_grid(n_k)
    abs_ta = hopping_magnitude(phi_a, k)
    abs_tb = hopping_magnitude(phi_b, k)
    e_plus = dispersion(abs_ta, abs_tb, k)

    i_min = int(np.argmin(e_plus))
    dk = 2.0 * math.pi / n_k

    def splitting(kk: float) -> float:
        ta = hopping_magnitude(phi_a, kk)
        tb = hopping_magnitude(phi_b, kk)
        return 2.0 * float(dispersion(ta, tb, kk))

    refined = minimize_scalar(
        splitting,
        bounds=(k[i_min] - dk, k[i_min] + dk),
        method="bounded",
        options={"xatol": 1e-10},
    )
    gap = min(2.0 * float(e_plus[i_min]), float(refined.fun))
    return {"e_plus": e_plus, "gap": gap}


def winding_number(phi_a: float, phi_b: float, n_k: int = 1024) -> dict:
    """``nu`` and ``min_radius``; raises :class:`GapClosed` where the scipy gap is
    below 2e-6, a sampled point comes within 1e-6 of the origin, or the angle
    sum is not near an integer."""
    gap = band_structure(phi_a, phi_b, n_k)["gap"]
    if gap < 2.0 * _MIN_RADIUS:
        raise GapClosed(f"refined gap {gap:.2e} is closed")
    k = _k_grid(n_k)
    ta = hopping_magnitude(phi_a, k)
    tb = hopping_magnitude(phi_b, k)

    d_x = ta + tb * np.cos(k)
    d_y = tb * np.sin(k)
    min_radius = float(np.hypot(d_x, d_y).min())
    if min_radius < _MIN_RADIUS:
        raise GapClosed(f"d(k) curve passes within {min_radius:.2e} of the origin")

    angles = np.angle(d_x + 1j * d_y)
    increments = np.diff(np.concatenate([angles, angles[:1]]))
    increments = (increments + math.pi) % (2.0 * math.pi) - math.pi
    turns = float(increments.sum() / (2.0 * math.pi))
    nu = round(turns)
    if abs(turns - nu) > _INTEGER_SLACK:
        raise GapClosed(f"angle sum {turns:.4f} turns is not close to an integer")
    return {"nu": int(nu), "min_radius": min_radius}


def phase_diagram(phi_a_grid, phi_b_grid, n_k: int = 512) -> PhaseDiagram:
    """Gap and winding point by point over the (phi_a, phi_b) grid."""
    phi_a_grid = np.atleast_1d(np.asarray(phi_a_grid, dtype=float))
    phi_b_grid = np.atleast_1d(np.asarray(phi_b_grid, dtype=float))
    shape = (phi_a_grid.size, phi_b_grid.size)
    gap = np.empty(shape)
    nu = np.full(shape, np.nan)
    for i, pa in enumerate(phi_a_grid):
        for j, pb in enumerate(phi_b_grid):
            gap[i, j] = band_structure(pa, pb, n_k)["gap"]
            try:
                nu[i, j] = winding_number(pa, pb, n_k)["nu"]
            except GapClosed:
                pass  # a closed gap keeps nu = NaN
    return PhaseDiagram(phi_a=phi_a_grid, phi_b=phi_b_grid, gap=gap, nu=nu)
