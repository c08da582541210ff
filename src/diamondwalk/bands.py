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
(|t_b| > |t_a|, for weakly k-dependent magnitudes).  As |t_b| >= 0, d_y has
the sign of sin k, so the sampled curve can cross the negative x axis only on
the two grid segments where sin k changes sign, next to k = pi and across
k = 0; the winding is the signed count of those crossings, which avoids
differentiating the transmission magnitudes (they are not smooth in closed
form near the removable points of the transmission formula).  The winding is
defined only while the gap is open: a gap is closed where the refined gap is
below 2e-6, that is where |d(k)| comes within 1e-6 of the origin.

An overall 1/N normalisation of the momentum-space Hamiltonian is dropped
throughout: it rescales all energies uniformly and affects no gap ratio,
band shape, or winding conclusion.

Every ``n_k`` is read by the package's integer rule before any array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diamond import transmission_closed_form
from .multiport import _integral

__all__ = [
    "GapClosed",
    "BandResult",
    "WindingResult",
    "PhaseDiagram",
    "dispersion",
    "band_structure",
    "winding_from_hoppings",
    "winding_number",
    "phase_diagram",
]

_MIN_RADIUS = 1e-6
# gap refinement: k tolerance and iteration cap of the bounded Brent search
_XATOL = 1e-10
_MAXITER = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# floats in each (pairs, n_k) array of phase_diagram's block workspace.  Every
# block reuses the one workspace, so its pages stay faulted in, and at 256 KiB
# per array its four arrays stay in L2; on a 32x32 sweep at n_k 512, 2**13 to
# 2**17 took 4.5, 4.3, 4.3, 4.2 and 4.2 ms (median of 6 rounds of min of 15,
# 2 vCPU AMD EPYC)
_BLOCK_FLOATS = 1 << 15


class GapClosed(ArithmeticError):
    """The d(k) curve passes through the origin; the winding is undefined."""


@dataclass(frozen=True)
class BandResult:
    k_grid: np.ndarray
    e_plus: np.ndarray  # upper band; the lower band is -e_plus
    abs_ta: np.ndarray  # np.abs(transmission_closed_form(phi_a, k_grid))
    abs_tb: np.ndarray
    gap: float


@dataclass(frozen=True)
class WindingResult:
    nu: int
    min_radius: float


@dataclass(frozen=True)
class PhaseDiagram:
    """Gap and winding over a phase grid; ``nu = NaN`` marks a closed gap."""

    phi_a: np.ndarray
    phi_b: np.ndarray
    gap: np.ndarray  # (len(phi_a), len(phi_b))
    nu: np.ndarray  # float array, NaN where the gap is closed: the sweep CSV's gap_closed


def dispersion(ta, tb, k):
    """Upper quasi-energy band ``E_+ = sqrt(ta^2 + tb^2 + 2 ta tb cos k)``."""
    # a leading axis of 1 keeps each row an array when all three are scalars
    work = np.empty((4, 1, *np.broadcast_shapes(np.shape(ta), np.shape(tb), np.shape(k))))
    work[0], work[1], work[2], work[3] = ta, tb, ta**2, tb**2
    return _dispersion(work, np.cos(k))[0]


def _dispersion(work: np.ndarray, cos_k) -> np.ndarray:
    """``E_+`` in place: ``work`` holds ``ta, tb, ta^2, tb^2`` along its first
    axis; ``work[2]`` receives and returns ``E_+`` and ``work[3]`` is scratch.

    The order of operations is that of ``ta**2 + tb**2 + 2.0 * ta * tb * cos k``;
    the callers square, since a scalar's ``** 2`` is libm pow and an array's is
    ``x * x``, which differ in the last bit for about 0.1% of inputs.
    """
    ta, tb, out, tmp = work
    out += tmp
    np.multiply(2.0, ta, out=tmp)
    tmp *= tb
    tmp *= cos_k
    out += tmp
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _k_grid(n_k: int) -> np.ndarray:
    return np.arange(n_k) * 2.0 * math.pi / n_k


def _splitting(x: np.ndarray, phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """Band splitting ``2 E_+`` at one k per lane, squaring as a scalar float does."""
    t = np.abs(transmission_closed_form(np.concatenate([phi_a, phi_b]), np.concatenate([x, x])))
    # float_power's loop is libm pow, as a scalar float's ** 2 is
    work = np.concatenate([t, np.float_power(t, 2.0)]).reshape(4, x.size)
    return 2.0 * _dispersion(work, np.cos(x))


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


def _coarse_gap(e_plus: np.ndarray):
    """Grid index and value of the minimum of ``2 e_plus`` along the last axis."""
    i_min = np.argmin(e_plus, axis=-1)
    return i_min, 2.0 * e_plus[np.arange(i_min.size), i_min]


def _refined_gap(phi_a, phi_b, i_min, coarse, k: np.ndarray):
    """Gap per pair: the coarse minimum from :func:`_coarse_gap` refined by the
    bounded Brent search within one grid step, all pairs at once."""
    k_min = k[i_min]
    dk = 2.0 * math.pi / k.size
    _, fun = _bounded_brent(_splitting, k_min - dk, k_min + dk, phi_a, phi_b)
    return np.where(fun < coarse, fun, coarse)


def _closed(gap):
    """The gap rule: a refined gap below ``2 _MIN_RADIUS`` is closed."""
    return gap < 2.0 * _MIN_RADIUS


def _cut_columns(k: np.ndarray) -> np.ndarray:
    """Grid indices ``[m - 1, m, -1, 0]``: the two segments where ``signbit(sin k)``
    flips, 0 -> 1 next to ``k = pi`` and 1 -> 0 across ``k = 0``."""
    m = int(np.signbit(np.sin(k)).argmax())
    return np.array([m - 1, m, -1, 0])


def _winding(ta, tb, k):
    """Winding of each row's d(k) curve from ``ta``, ``tb`` at the four ``k`` of
    :func:`_cut_columns` (the last axis).

    With ``tb >= +0``, ``d_y = tb sin k`` has the sign bit of ``sin k``, so the
    sampled curve crosses ``arctan2``'s cut, the negative x axis, only on those
    two segments.  A segment whose sign bit flips 0 -> 1 crosses it turning
    counterclockwise (``x1 y2 - x2 y1 > 0``), one turn up; one that flips
    1 -> 0 crosses it turning clockwise, one turn down.  The count is the sum
    of wrapped ``arctan2`` increments over the whole grid, divided by 2pi.
    """
    d_x = ta + tb * np.cos(k)
    d_y = tb * np.sin(k)
    cross = d_x[..., ::2] * d_y[..., 1::2] - d_x[..., 1::2] * d_y[..., ::2]
    return (cross[..., 0] > 0.0).astype(np.int64) - (cross[..., 1] < 0.0)


def _winding_result(ta, tb, k: np.ndarray) -> WindingResult:
    cols = _cut_columns(k)
    nu = int(_winding(ta[cols], tb[cols], k[cols]))
    d_x, d_y = ta + tb * np.cos(k), tb * np.sin(k)
    return WindingResult(nu=nu, min_radius=float(np.hypot(d_x, d_y).min()))


def band_structure(phi_a: float, phi_b: float, n_k: int = 512) -> BandResult:
    """Sample E+-(k) over the Brillouin zone and locate the band gap.

    The gap is the coarse-grid minimum of the band splitting refined by a
    bounded Brent search (k tolerance 1e-10) within one grid step of it; the
    search is the lockstep one :func:`phase_diagram` runs over all its pairs,
    here on a batch of one.  Removable points of the transmission formula are
    limit-evaluated, so every grid point yields a value and no exclusions
    arise.
    """
    n_k = _integral(n_k, "n_k has a value")
    if n_k < 16:
        raise ValueError("n_k must be >= 16")
    k = _k_grid(n_k)
    abs_ta = np.abs(transmission_closed_form(phi_a, k))
    abs_tb = np.abs(transmission_closed_form(phi_b, k))
    e_plus = dispersion(abs_ta, abs_tb, k)
    gap = _refined_gap(np.array([phi_a], dtype=float), np.array([phi_b], dtype=float),
                       *_coarse_gap(e_plus[None]), k)
    return BandResult(
        k_grid=k,
        e_plus=e_plus,
        abs_ta=abs_ta,
        abs_tb=abs_tb,
        gap=float(gap[0]),
    )


def winding_from_hoppings(abs_ta, abs_tb, n_k: int = 1024) -> WindingResult:
    """Winding of the d(k) curve for given hopping magnitudes.

    ``abs_ta``/``abs_tb`` may be scalars (SSH-like constant hoppings) or
    arrays over the Brillouin-zone grid; they must be finite and non-negative.
    With only these samples to go on, it raises :class:`GapClosed` when a
    sampled point of the curve comes within 1e-6 of the origin.
    """
    n_k = _integral(n_k, "n_k has a value")
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    k = _k_grid(n_k)
    ta, tb, _ = np.broadcast_arrays(np.asarray(abs_ta, float), np.asarray(abs_tb, float), k)
    if not np.all(np.isfinite(ta) & np.isfinite(tb) & (ta >= 0.0) & (tb >= 0.0)):
        raise ValueError("hopping magnitudes must be finite and non-negative")
    result = _winding_result(ta, tb, k)
    if result.min_radius < _MIN_RADIUS:
        raise GapClosed(
            f"d(k) curve passes within {result.min_radius:.2e} of the origin; winding undefined"
        )
    return result


def _winding_and_bands(phi_a: float, phi_b: float,
                       n_k: int) -> tuple[WindingResult, BandResult]:
    """:func:`winding_number` and the :func:`band_structure` it was read from."""
    n_k = _integral(n_k, "n_k has a value")
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    bands = band_structure(phi_a, phi_b, n_k)
    if _closed(bands.gap):
        raise GapClosed(f"refined gap {bands.gap:.2e} is closed; winding undefined")
    return _winding_result(bands.abs_ta, bands.abs_tb, bands.k_grid), bands


def winding_number(phi_a: float, phi_b: float, n_k: int = 1024) -> WindingResult:
    """Winding number of the chain with phase shifts (phi_a, phi_b).

    Raises :class:`GapClosed` where the refined gap of :func:`band_structure`
    at the same ``n_k`` is below 2e-6, where :func:`phase_diagram` gives ``nu = NaN``.
    """
    return _winding_and_bands(phi_a, phi_b, n_k)[0]


def _scan_blocks(table: np.ndarray, row_a: np.ndarray, row_b: np.ndarray, k: np.ndarray):
    """Coarse gap of each pair ``(table[row_a], table[row_b])``.

    The pairs run in blocks of ``_BLOCK_FLOATS // n_k`` through one workspace,
    allocated here once, so no block faults in fresh pages; it is freed on
    return, before the gap search.
    """
    n, n_k = row_a.size, k.size
    cos_k = np.cos(k)
    i_min = np.empty(n, dtype=np.intp)
    coarse = np.empty(n)
    block = max(1, _BLOCK_FLOATS // n_k)
    workspace = np.empty((4, min(block, n), n_k))
    for start in range(0, n, block):
        pairs = slice(start, min(start + block, n))
        work = workspace[:, : pairs.stop - start]
        ta, tb, sq_a, sq_b = work
        # mode="clip" writes straight into out; the default "raise" buffers it
        np.take(table, row_a[pairs], axis=0, out=ta, mode="clip")
        np.take(table, row_b[pairs], axis=0, out=tb, mode="clip")
        np.multiply(ta, ta, out=sq_a)
        np.multiply(tb, tb, out=sq_b)
        i_min[pairs], coarse[pairs] = _coarse_gap(_dispersion(work, cos_k))
    return i_min, coarse


def phase_diagram(phi_a_grid, phi_b_grid, n_k: int = 512) -> PhaseDiagram:
    """Gap and winding over a (phi_a, phi_b) grid; closed-gap points get ``nu = NaN``.

    Each point gets the gap of :func:`band_structure` and the winding of
    :func:`winding_number` at the same ``n_k``, bit for bit, and ``nu = NaN``
    by the same rule: its refined gap is below 2e-6 (``gap_closed`` in the CSV).
    ``|t(phi, k)|`` is tabulated over the distinct phases, a block of phases
    per call; the splitting and its gap minimum then run over blocks of
    ``_BLOCK_FLOATS // n_k`` pairs, one lockstep Brent search refines the gaps
    of all pairs, and the winding reads four columns of the table.
    """
    n_k = _integral(n_k, "n_k has a value")
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    phi_a_grid = np.atleast_1d(np.asarray(phi_a_grid, dtype=float))
    phi_b_grid = np.atleast_1d(np.asarray(phi_b_grid, dtype=float))
    if phi_a_grid.size == 0 or phi_b_grid.size == 0:
        raise ValueError("phase grids must be nonempty")
    k = _k_grid(n_k)
    phases, which = np.unique(np.concatenate([phi_a_grid, phi_b_grid]), return_inverse=True)
    # in blocks of phases whose complex temporaries are each the size of a
    # workspace array: one block up to 32 phases at n_k 512.  At 64x64 one
    # call's 512 KiB temporaries left glibc's heap growing for three calls:
    # the third took 0-1,089 minor faults, as the heap layout that the
    # checkout's path length sets fell; in blocks, 0-7
    table = np.empty((phases.size, n_k))
    rows = max(1, _BLOCK_FLOATS // (2 * n_k))
    for start in range(0, phases.size, rows):
        block = slice(start, start + rows)
        np.abs(transmission_closed_form(phases[block, None], k), out=table[block])
    i, j = np.divmod(np.arange(phi_a_grid.size * phi_b_grid.size), phi_b_grid.size)
    row_a, row_b = which[: phi_a_grid.size][i], which[phi_a_grid.size :][j]
    i_min, coarse = _scan_blocks(table, row_a, row_b, k)
    gap = _refined_gap(phi_a_grid[i], phi_b_grid[j], i_min, coarse, k)
    cols = _cut_columns(k)
    ends = table[:, cols]

    shape = (phi_a_grid.size, phi_b_grid.size)
    nu = _winding(ends[row_a], ends[row_b], k[cols]).astype(float)
    nu[_closed(gap)] = np.nan
    return PhaseDiagram(
        phi_a=phi_a_grid,
        phi_b=phi_b_grid,
        gap=gap.reshape(shape),
        nu=nu.reshape(shape),
    )
