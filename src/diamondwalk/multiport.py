"""Unitary scattering matrices of directionally-unbiased optical three-ports.

A directionally-unbiased three-port routes light arriving at any of its three
ports (A, B, C) back out through all three, including the port it came in by.
When the internal phase shift theta is the same at every mirror unit, the
device is described by a single 3x3 unitary whose diagonal entries (reflection
back out the input port) are all equal and whose off-diagonal entries
(transmission to either other port) are all equal.

Port indexing is fixed as (A, B, C) -> (0, 1, 2) throughout the package.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["DEFAULT_THETA", "vertex_unitary"]

# the quarter-wave vertex used by the diamond chain simulations
DEFAULT_THETA = -math.pi / 2.0


def vertex_unitary(theta: float) -> np.ndarray:
    """The read-only three-port unitary for internal phase shift ``theta``.

    It maps incoming port amplitudes to outgoing ones, ``out = U @ in``, and
    is ``e^{i theta}/(2 + i e^{i theta})`` times a symmetric pattern with 1 on
    the diagonal and ``i e^{-i theta} - 1`` off it.  It is unitary for every
    real theta.  Two special values:

    * ``theta = -pi/2``: every entry purely imaginary, ``-i/3`` on the
      diagonal and ``2i/3`` off it.  This is the vertex used by the diamond
      chain simulations.
    * ``theta = pi/6``: all nine exit probabilities equal 1/3 (the strictly
      unbiased operating point).
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    phase = np.exp(1j * theta)
    prefactor = phase / (2.0 + 1j * phase)
    off = 1j * np.exp(-1j * theta) - 1.0
    matrix = np.full((3, 3), off, dtype=complex)
    np.fill_diagonal(matrix, 1.0)
    matrix *= prefactor
    matrix.setflags(write=False)
    return matrix


def _integral(value, what: str) -> int:
    """``value`` as an int: an integer (numpy's too) or an integral float such
    as ``8.0``; anything else, a bool or a string included, raises
    :class:`ValueError` that says ``what`` has that value."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} that is not an integral number")


def _count(value, name: str, minimum: float) -> int:
    """The count ``name`` read by :func:`_integral`; below ``minimum``, a :class:`ValueError`."""
    count = _integral(value, f"{name} has a value")
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return count
