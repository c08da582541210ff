"""Scattering of a single diamond graph.

A diamond graph is a pair of directionally-unbiased three-ports joined on two
internal edges, one of which carries a phase shifter ``phi``; the two free
ports act as input/output leads.  As a two-port it is characterised by a 2x2
S-matrix whose transmission magnitude ``|t(phi, k)|`` depends on the quasi-
momentum ``k`` of the incident wave.

Two independent routes to that transmission are implemented:

* :func:`transmission_closed_form` evaluates the known closed-form amplitude.
* :func:`solve_diamond` sets up and solves the stationary-scattering linear
  system on the two-vertex graph from first principles.

The closed form leaves its internal path-length bookkeeping implicit, so the
solver carries an explicit :class:`EdgeConvention` (sub-steps per internal
edge plus a quarter-wave phase per traversal that absorbs the vertex matrix's
overall phase).  :func:`calibrate_edge_convention` recovers the convention
empirically by scanning candidates against the closed form; the shipped
default is the calibrated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiport import DEFAULT_THETA, _count, _integral, vertex_unitary

__all__ = [
    "SingularSystem",
    "NoConventionMatches",
    "EdgeConvention",
    "DEFAULT_CONVENTION",
    "DiamondScattering",
    "transmission_closed_form",
    "solve_diamond",
    "oracle_deviation",
    "calibrate_edge_convention",
]

# |denominator| below this is treated as a removable 0/0 point of the closed
# form; the k-offset used for the directional limit sits well outside it.
_SINGULAR_DENOM_TOL = 1e-8
_LIMIT_OFFSET = 1e-6


class SingularSystem(ArithmeticError):
    """The stationary-scattering system is rank deficient (bound-state condition)."""


class NoConventionMatches(RuntimeError):
    """No candidate edge convention reproduces the closed-form transmission."""


@dataclass(frozen=True)
class EdgeConvention:
    """Internal-edge bookkeeping used by the scattering solver.

    ``internal_length``: sub-steps (unit edge lengths) per internal diamond
    edge.  ``quarter_turns``: extra quarter waves (multiples of pi/2) applied
    per internal-edge traversal; this absorbs the global phase of the vertex
    unitary, which the closed form accounts for as path length.
    """

    internal_length: int = 2
    quarter_turns: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (("internal_length", 1), ("quarter_turns", -math.inf)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))

    @property
    def traversal_phase(self) -> float:
        """Phase accumulated per internal-edge traversal on top of k-propagation."""
        return self.quarter_turns * math.pi / 2.0


#: Result of calibrate_edge_convention(); used as the package-wide default.
DEFAULT_CONVENTION = EdgeConvention()


@dataclass(frozen=True)
class DiamondScattering:
    """S-matrices of one diamond at each (phi, k) lane.

    ``s_matrix[..., :, :]`` columns are responses to unit input from the left /
    right lead: ``[[r_left, t_right_to_left], [t_left_to_right, r_right]]``.
    """

    s_matrix: np.ndarray

    @property
    def reflection(self) -> np.ndarray:
        return self.s_matrix[..., 0, 0]

    @property
    def transmission(self) -> np.ndarray:
        return self.s_matrix[..., 1, 0]


def _product(a, b) -> np.ndarray:
    """``a * b`` written out as the plain product that ``*`` and ``** 2`` compute on
    complex scalars; numpy's array multiply loop uses FMAs and rounds differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _closed_form_raw(phi, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the closed-form transmission amplitude."""
    q = np.exp(-1j * phi)
    w = np.exp(-4j * k)
    s = 1.0 + q
    num = 4.0 * s * (1.0 - q * w)
    den = w * _product(s, s) - (3.0 * q * w - 1.0) ** 2
    return num, den


def transmission_closed_form(phi, k):
    """Closed-form transmission amplitude ``t(phi, k)`` of one diamond.

    ``phi`` and ``k`` may be scalars or arrays that broadcast against each
    other; every element equals the call with that element's scalar ``phi``
    and ``k``.  Two scalars give a ``complex``.  The formula has removable 0/0
    points (only at ``phi = 0 mod 2pi``, ``k = 0 mod pi/2``, where
    ``|t| -> 1``); those are evaluated as the symmetric numerical limit along
    k, accurate to about 1e-10.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi_arr)):
        raise ValueError(f"phi must be finite, got {phi!r}")
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if not np.all(np.isfinite(k_arr)):
        raise ValueError("k must be finite")

    num, den = _closed_form_raw(phi_arr, k_arr)
    singular = np.abs(den) < _SINGULAR_DENOM_TOL
    out = num / np.where(singular, 1.0, den)

    if np.any(singular):
        phi_s = np.broadcast_to(phi_arr, out.shape)[singular]
        k_s = np.broadcast_to(k_arr, out.shape)[singular]
        lo_n, lo_d = _closed_form_raw(phi_s, k_s - _LIMIT_OFFSET)
        hi_n, hi_d = _closed_form_raw(phi_s, k_s + _LIMIT_OFFSET)
        out[singular] = 0.5 * (lo_n / lo_d + hi_n / hi_d)

    if np.ndim(k) == 0 and phi_arr.ndim == 0:
        return complex(out[0])
    return out


def solve_diamond(phi, k, convention: EdgeConvention = DEFAULT_CONVENTION) -> DiamondScattering:
    """Solve the stationary scattering problem of one diamond from first principles.

    Both vertices are the ``DEFAULT_THETA = -pi/2`` three-port, the one the
    closed form describes.  The unknowns are the six amplitudes leaving the
    two vertices through their three ports.  A wave leaving one vertex on an
    internal edge arrives at the other multiplied by ``exp(i(k*ell + chi))``
    (``ell``, ``chi`` from the convention), with an extra ``exp(i phi)`` on the
    shifted edge; each vertex then scatters incoming into outgoing amplitudes
    through the three-port unitary.  Solving the resulting 6x6 linear system for unit input from the
    left and from the right yields the full 2x2 S-matrix.

    ``phi`` and ``k`` may be scalars or arrays that broadcast against each
    other; the systems of all lanes are stacked and solved at once, and every
    lane equals the call with that lane's scalar ``phi`` and ``k``.

    Raises :class:`SingularSystem`, naming the first such lane, when a system
    is rank deficient, which signals an internal bound-state resonance.
    """
    phi, k = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(k, dtype=float))
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(k))):
        raise ValueError("phi and k must be finite")
    u = vertex_unitary(DEFAULT_THETA)
    edge = np.exp(1j * (k * convention.internal_length + convention.traversal_phase))
    hop = np.zeros(phi.shape + (3, 3), dtype=complex)
    hop[..., 1, 1] = edge
    hop[..., 2, 2] = _product(edge, np.exp(1j * phi))

    system = np.broadcast_to(np.eye(6, dtype=complex), phi.shape + (6, 6)).copy()
    coupling = u @ hop
    system[..., 0:3, 3:6] -= coupling
    system[..., 3:6, 0:3] -= coupling

    rhs = np.zeros((6, 2), dtype=complex)
    source = u @ np.array([1.0, 0.0, 0.0], dtype=complex)
    rhs[0:3, 0] = source  # incident from the left lead
    rhs[3:6, 1] = source  # incident from the right lead

    singular = np.linalg.cond(system) > 1e12
    if np.any(singular):
        lane = np.argmax(singular)  # the first singular lane in C order
        raise SingularSystem(f"scattering system is singular at (phi={float(phi.flat[lane])!r}, "
                             f"k={float(k.flat[lane])!r}); perturb k")
    s_matrix = np.linalg.solve(system, rhs)[..., [0, 3], :]
    s_matrix.setflags(write=False)
    return DiamondScattering(s_matrix=s_matrix)


def oracle_deviation(convention: EdgeConvention, n_phi: int = 32, n_k: int = 32) -> float:
    """Max over a (phi, k) grid of ``| |t_solver| - |t_closed_form| |``.

    The grid is midpoint-sampled over (0, 2pi)^2 so it keeps a radius of at
    least pi/n away from the closed form's removable singularities.  Counts
    follow the package's integer rule; an empty grid is rejected: it would
    score as perfect agreement.
    """
    n_phi, n_k = _integral(n_phi, "n_phi has a value"), _integral(n_k, "n_k has a value")
    if n_phi < 1 or n_k < 1:
        raise ValueError(f"n_phi and n_k must be >= 1, got {n_phi} and {n_k}")
    phis = (np.arange(n_phi)[:, None] + 0.5) * 2.0 * math.pi / n_phi
    ks = (np.arange(n_k) + 0.5) * 2.0 * math.pi / n_k
    t_solver = np.abs(solve_diamond(phis, ks, convention).transmission)
    t_closed = np.abs(transmission_closed_form(phis, ks))
    return float(np.abs(t_solver - t_closed).max())


def calibrate_edge_convention() -> EdgeConvention:
    """Recover the edge convention that makes the solver reproduce the closed form.

    Scans internal edge lengths 1-4 and per-traversal quarter-wave counts,
    scoring each candidate by its worst ``|t|`` deviation from the closed form
    over a 16x16 (phi, k) grid.  Returns the best candidate; raises
    :class:`NoConventionMatches` if even the best deviates by more than 1e-6,
    which indicates a construction error rather than a tolerance problem.
    """
    candidates = [EdgeConvention(internal_length=length, quarter_turns=quarter)
                  for length in (1, 2, 3, 4) for quarter in range(4)]
    # min keeps the first of equal scores, so the scan order breaks ties
    dev, convention = min(((oracle_deviation(c, 16, 16), c) for c in candidates),
                          key=lambda scored: scored[0])
    if dev > 1e-6:
        raise NoConventionMatches(
            f"best candidate {convention} still deviates by {dev:.3e} (> 1.0e-06)"
        )
    return convention
