"""Momentum-space analysis of the diamond chain: bands, gap, winding number.

In momentum space the chain reduces to a 2x2 Hamiltonian on the (a, b)
subsite space with zero diagonal (reflection terms only set the energy zero
and are dropped) and off-diagonal ``|t_a(k)| + |t_b(k)| exp(-ik)``, where the
hopping magnitudes are the k-dependent diamond transmissions.  Quasi-energies
come in chiral pairs ``E_-(k) = -E_+(k)``; the minimum splitting over the
Brillouin zone [0, 2pi) is the band gap.  The ``a``-diamond is the intracell
bond and the ``b``-diamond the intercell one.

Writing ``H(k) = d(k) . sigma`` gives the planar curve

    d_x(k) = |t_a(k)| + |t_b(k)| cos k,      d_y(k) = |t_b(k)| sin k,

whose winding about the origin over one Brillouin zone is the integer
topological invariant: nonzero exactly when the k-dependent hopping dominates
(|t_b| > |t_a|, for weakly k-dependent magnitudes).  The winding is computed
by accumulating wrapped angle increments along the sampled curve, which
avoids differentiating the transmission magnitudes (they are not smooth in
closed form near the removable points of the transmission formula).

An overall 1/N normalisation of the momentum-space Hamiltonian is dropped
throughout: it rescales all energies uniformly and affects no gap ratio,
band shape, or winding conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diamond import transmission_closed_form

__all__ = [
    "GapClosed",
    "BandResult",
    "WindingResult",
    "PhaseDiagram",
    "hopping_magnitude",
    "hamiltonian_k",
    "dispersion",
    "band_structure",
    "winding_from_hoppings",
    "winding_number",
    "phase_diagram",
]

_MIN_RADIUS = 1e-6
_INTEGER_SLACK = 0.1
# gap refinement: k tolerance and iteration cap of the bounded Brent search
_XATOL = 1e-10
_MAXITER = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# phase_diagram evaluates at most this many (phi_a, phi_b) pairs at once, so
# its working memory is bounded by the block and n_k, not by the grid
_PAIR_BLOCK = 512


class GapClosed(ArithmeticError):
    """The d(k) curve passes through the origin; the winding is undefined."""


@dataclass(frozen=True)
class BandResult:
    k_grid: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    abs_ta: np.ndarray
    abs_tb: np.ndarray
    gap: float
    gap_k: float  # location of the refined gap minimum


@dataclass(frozen=True)
class WindingResult:
    nu: int
    min_radius: float


@dataclass(frozen=True)
class PhaseDiagram:
    phi_a: np.ndarray
    phi_b: np.ndarray
    gap: np.ndarray  # (len(phi_a), len(phi_b))
    nu: np.ndarray  # float array, NaN where the winding is undefined
    flag: np.ndarray  # '' or 'gap_closed'


def hopping_magnitude(phi, k) -> np.ndarray | float:
    """|t(phi, k)|: the hopping strength contributed by a diamond at phase phi."""
    return np.abs(transmission_closed_form(phi, k))


def hamiltonian_k(phi_a: float, phi_b: float, k: float) -> np.ndarray:
    """2x2 momentum-space Hamiltonian at quasi-momentum k (1/N prefactor dropped)."""
    off = hopping_magnitude(phi_a, k) + hopping_magnitude(phi_b, k) * np.exp(-1j * k)
    return np.array([[0.0, off], [np.conj(off), 0.0]], dtype=complex)


def dispersion(ta, tb, k):
    """Upper quasi-energy band ``E_+ = sqrt(ta^2 + tb^2 + 2 ta tb cos k)``."""
    return np.sqrt(np.maximum(ta**2 + tb**2 + 2.0 * ta * tb * np.cos(k), 0.0))


def _k_grid(n_k: int) -> np.ndarray:
    return np.arange(n_k) * 2.0 * math.pi / n_k


def _splitting(x: np.ndarray, phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """Band splitting ``2 E_+`` at one k per lane, squaring as a scalar float does."""
    n = x.size
    t = hopping_magnitude(np.concatenate([phi_a, phi_b]), np.concatenate([x, x]))
    # a scalar float's ** 2 is libm pow, as is float_power's loop; the array
    # x**2 is x*x, which differs in the last bit for about 0.1% of inputs
    sq = np.float_power(t, 2.0)
    ta, tb = t[:n], t[n:]
    return 2.0 * np.sqrt(np.maximum(sq[:n] + sq[n:] + 2.0 * ta * tb * np.cos(x), 0.0))


def _bounded_brent(func, lo: np.ndarray, hi: np.ndarray, *args: np.ndarray):
    """Minimise ``func`` on each interval ``[lo, hi]``; returns ``(x, f(x))`` per lane.

    Brent's bounded search (golden section with parabolic steps, as in
    ``fminbound``; x tolerance ``_XATOL``, at most ``_MAXITER`` evaluations),
    run on every lane in lockstep with the floating-point operations of the
    scalar algorithm, so each lane gets the bits a scalar search would.
    ``func(x, *args)`` evaluates the lanes still searching; ``args`` are
    per-lane arrays that follow them.  Converged lanes leave the active set.
    """
    n = lo.size
    x_out = np.empty(n)
    f_out = np.empty(n)
    idx = np.arange(n)
    a, b = lo, hi
    xf = a + _GOLDEN_MEAN * (b - a)
    nfc = fulc = xf
    fx = func(xf, *args)
    fnfc = ffulc = fx
    rat = e = np.zeros(n)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        live = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if num >= _MAXITER:
            live[:] = False
        if not live.all():
            x_out[idx[~live]] = xf[~live]
            f_out[idx[~live]] = fx[~live]
            if not live.any():
                return x_out, f_out
            idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2 = (
                v[live] for v in (idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2)
            )
            args = tuple(v[live] for v in args)

        # parabolic fit through the three best points, where the last steps allow one
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        rat_p = (p + 0.0) / np.where(parabolic, q, 1.0)
        x = xf + rat_p
        si = np.sign(xm - xf) + ((xm - xf) == 0)
        rat_p = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * si, rat_p)
        # otherwise a golden-section step into the larger part
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        rat = np.where(parabolic, rat_p, _GOLDEN_MEAN * e_golden)

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x, *args)
        num += 1

        better = fu <= fx
        right = x >= xf
        a = np.where(better, np.where(right, xf, a), np.where(right, a, x))
        b = np.where(better, np.where(right, b, xf), np.where(right, x, b))
        # worse: the new point replaces the second or the third best, if either
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)


def _refined_gap(phi_a: np.ndarray, phi_b: np.ndarray, e_plus: np.ndarray, k: np.ndarray):
    """Gap and its location per pair: the coarse minimum of ``2 e_plus`` along
    the last axis, refined by the bounded Brent search within one grid step."""
    i_min = np.argmin(e_plus, axis=-1)
    coarse = 2.0 * e_plus[np.arange(i_min.size), i_min]
    k_min = k[i_min]
    dk = 2.0 * math.pi / k.size
    x, fun = _bounded_brent(_splitting, k_min - dk, k_min + dk, phi_a, phi_b)
    gap = np.where(fun < coarse, fun, coarse)
    gap_k = np.where(coarse <= fun, k_min, x) % (2.0 * math.pi)
    return gap, gap_k


def _winding(ta, tb, k):
    """Winding turns and minimum radius of the d(k) curve along the last axis."""
    d_x = ta + tb * np.cos(k)
    d_y = tb * np.sin(k)
    angles = np.arctan2(d_y, d_x)
    increments = np.diff(angles, axis=-1, append=angles[..., :1])
    increments = (increments + math.pi) % (2.0 * math.pi) - math.pi
    turns = increments.sum(axis=-1) / (2.0 * math.pi)
    return turns, np.hypot(d_x, d_y).min(axis=-1)


def band_structure(phi_a: float, phi_b: float, n_k: int = 512) -> BandResult:
    """Sample E+-(k) over the Brillouin zone and locate the band gap.

    The gap is the coarse-grid minimum of the band splitting refined by a
    bounded Brent search (k tolerance 1e-10) within one grid step of it; the
    search is the lockstep one :func:`phase_diagram` runs over all its pairs,
    here on a batch of one.  Removable points of the transmission formula are
    limit-evaluated, so every grid point yields a value and no exclusions
    arise.
    """
    if n_k < 16:
        raise ValueError("n_k must be >= 16")
    k = _k_grid(n_k)
    abs_ta = hopping_magnitude(phi_a, k)
    abs_tb = hopping_magnitude(phi_b, k)
    e_plus = dispersion(abs_ta, abs_tb, k)
    gap, gap_k = _refined_gap(np.array([phi_a], dtype=float), np.array([phi_b], dtype=float),
                              e_plus[None], k)
    return BandResult(
        k_grid=k,
        e_plus=e_plus,
        e_minus=-e_plus,
        abs_ta=abs_ta,
        abs_tb=abs_tb,
        gap=float(gap[0]),
        gap_k=float(gap_k[0]),
    )


def winding_from_hoppings(abs_ta, abs_tb, n_k: int = 1024) -> WindingResult:
    """Winding of the d(k) curve for given hopping magnitudes.

    ``abs_ta``/``abs_tb`` may be scalars (SSH-like constant hoppings) or
    arrays over the Brillouin-zone grid.  Raises
    :class:`GapClosed` when the curve approaches the origin or when the
    accumulated angle does not settle on an integer multiple of 2pi (which
    means the sampled curve jumped past the origin).
    """
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    k = _k_grid(n_k)
    ta = np.broadcast_to(abs_ta, k.shape).astype(float)
    tb = np.broadcast_to(abs_tb, k.shape).astype(float)

    turns, min_radius = _winding(ta, tb, k)
    min_radius = float(min_radius)
    if min_radius < _MIN_RADIUS:
        raise GapClosed(
            f"d(k) curve passes within {min_radius:.2e} of the origin; winding undefined"
        )
    turns = float(turns)
    nu = round(turns)
    if abs(turns - nu) > _INTEGER_SLACK:
        raise GapClosed(
            f"angle sum {turns:.4f} turns is not close to an integer; "
            "refine n_k or treat the gap as closed"
        )
    return WindingResult(nu=int(nu), min_radius=min_radius)


def winding_number(phi_a: float, phi_b: float, n_k: int = 1024) -> WindingResult:
    """Winding number of the chain with phase shifts (phi_a, phi_b)."""
    k = _k_grid(n_k)
    return winding_from_hoppings(hopping_magnitude(phi_a, k), hopping_magnitude(phi_b, k), n_k)


def phase_diagram(phi_a_grid, phi_b_grid, n_k: int = 512) -> PhaseDiagram:
    """Gap and winding over a (phi_a, phi_b) grid; closed-gap points are flagged.

    Each point gets the gap of :func:`band_structure` and the winding of
    :func:`winding_number` at the same ``n_k``, bit for bit.  ``|t(phi, k)|``
    is tabulated in one call over the distinct phases; the splitting, gap
    refinement and winding then run over blocks of pairs at once.
    """
    phi_a_grid = np.atleast_1d(np.asarray(phi_a_grid, dtype=float))
    phi_b_grid = np.atleast_1d(np.asarray(phi_b_grid, dtype=float))
    if phi_a_grid.size == 0 or phi_b_grid.size == 0:
        raise ValueError("phase grids must be nonempty")
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    k = _k_grid(n_k)
    phases, which = np.unique(np.concatenate([phi_a_grid, phi_b_grid]), return_inverse=True)
    table = hopping_magnitude(phases[:, None], k)
    row_a, row_b = which[: phi_a_grid.size], which[phi_a_grid.size :]

    shape = (phi_a_grid.size, phi_b_grid.size)
    n_pairs = phi_a_grid.size * phi_b_grid.size
    gap = np.empty(n_pairs)
    turns = np.empty(n_pairs)
    min_radius = np.empty(n_pairs)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        pairs = np.arange(start, min(start + _PAIR_BLOCK, n_pairs))
        i, j = np.divmod(pairs, phi_b_grid.size)
        ta, tb = table[row_a[i]], table[row_b[j]]
        gap[pairs], _ = _refined_gap(phi_a_grid[i], phi_b_grid[j], dispersion(ta, tb, k), k)
        turns[pairs], min_radius[pairs] = _winding(ta, tb, k)

    nu = np.round(turns) + 0.0  # + 0.0: -0.0 -> 0.0, as round() gives
    closed = (min_radius < _MIN_RADIUS) | (np.abs(turns - nu) > _INTEGER_SLACK)
    nu[closed] = np.nan
    flag = np.where(closed, "gap_closed", "").astype(object)
    return PhaseDiagram(
        phi_a=phi_a_grid,
        phi_b=phi_b_grid,
        gap=gap.reshape(shape),
        nu=nu.reshape(shape),
        flag=flag.reshape(shape),
    )
