"""Discrete-time single-photon walk on the diamond chain.

State model: one complex amplitude per slot of the layout that
:mod:`diamondwalk.lattice` defines (edge, direction, position along the
edge); that module alone does slot arithmetic.  Each directed edge's slots
are contiguous and in travel order, so one sub-step is a shift of the whole
state by one slot, followed by the vertex scatter and the mirrors, which
overwrite the first slot of every edge: amplitudes reaching a vertex scatter
through the three-port unitary into the first slots of the outgoing edges
(picking up the phase of any shifter on the edge they enter), and amplitudes
reaching a chain-end mirror reverse with phase -1.  Every ingredient is
unitary, so the norm is conserved to rounding.

The step is strictly local: amplitude moves one slot per sub-step, so it
crosses at most one vertex per sub-step and one diamond per record.  So a
sub-step acts on a window of diamonds, and the whole chain is the window
``(0, n_diamonds - 1)``.  :func:`evolve` advances and measures only a window
that holds all the nonzero amplitude, grown by one diamond on each side per
record, the photon's own speed.  Slots outside the window are exactly zero,
so the windowed probabilities are bit-identical to the full-chain ones.

Observables are recorded stroboscopically: the natural recording cadence is
one record per diamond-to-diamond travel time (``internal_length +
external_length`` sub-steps), which matches the walk-time unit used by the
cell-resolved probability plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGraph, _window_cells, _window_slots

__all__ = [
    "LightConeOverflow",
    "WalkState",
    "WalkObservables",
    "auto_half_length",
    "initial_state",
    "step",
    "cell_probabilities",
    "evolve",
]

_END_LEAK_TOL = 1e-9


class LightConeOverflow(RuntimeError):
    """Probability reached the chain ends; the open-boundary insulation is void."""


@dataclass
class WalkState:
    """Amplitudes over all slots of a lattice graph; the norm is
    ``np.sqrt(np.sum(np.abs(amplitudes) ** 2))``."""

    amplitudes: np.ndarray


@dataclass(frozen=True)
class WalkObservables:
    """Cell-resolved probabilities and summary statistics per recorded time.

    ``p_cell[r, i]`` is the probability in cell ``cells[i]`` at record ``r``
    (record 0 is the initial state).  ``cell_span[r]`` is the first and last
    column (inclusive) that record ``r``'s light-cone window counts toward;
    every entry of row ``r`` outside it is exactly +0.0.  ``p_boundary`` sums
    cells |m| <= 1.
    """

    cells: np.ndarray
    records: np.ndarray
    substeps_per_record: int
    p_cell: np.ndarray
    cell_span: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray
    p_boundary: np.ndarray


def auto_half_length(n_record: int) -> int:
    """Half length that keeps ``n_record`` records' light cone (a diamond per
    record, two per cell) inside, with two cells to spare."""
    return (n_record + 1) // 2 + 2


def initial_state(graph: LatticeGraph, cell: int, subsite: str, direction: str) -> WalkState:
    """Unit amplitude on the external directed edge entering the named diamond.

    ``direction='right'`` places a right-moving photon on the external edge to
    the diamond's left, ``'left'`` a left-moving photon on the edge to its
    right; either way the amplitude sits one sub-step before its first
    collision with that diamond, in the slot that feeds port A of the
    diamond's left vertex (``2d``) or right vertex (``2d + 1``).
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    d = graph.spec.diamond_index(cell, subsite)  # validates cell and subsite
    amplitudes = np.zeros(graph.dim, dtype=complex)
    amplitudes[graph.in_slot[2 * d + (direction == "left"), 0]] = 1.0
    return WalkState(amplitudes=amplitudes)


def _check_state(state: WalkState, graph: LatticeGraph) -> None:
    if state.amplitudes.dtype != complex:
        raise ValueError(f"state has dtype {state.amplitudes.dtype}, not complex128")
    if state.amplitudes.shape != (graph.dim,):
        raise ValueError(f"state has shape {state.amplitudes.shape}, but the graph has "
                         f"{graph.dim} slots: it was built on another graph")


def step(state: WalkState, graph: LatticeGraph, *, window: tuple[int, int] | None = None,
         out: np.ndarray | None = None) -> WalkState:
    """Advance diamonds ``window=(lo, hi)`` (the whole chain when None) one
    sub-step into ``out`` (a new zeroed array when None); the input is not
    modified.  Raises :class:`ValueError`, before any write, when ``out`` is
    not a complex128 array of ``graph.dim`` slots or may share memory with the
    input's amplitudes.

    Only the window's slots (see :func:`~diamondwalk.lattice._window_slots`)
    are read and written, and the vertex and mirror writes cover every one the
    shift does not (:func:`~diamondwalk.lattice.audit_graph` checks this).
    This is exact when ``state`` is zero outside the slots of diamonds
    ``lo + 1 .. hi - 1``; where the window reaches a chain end, that end needs
    no such margin.
    """
    _check_state(state, graph)
    lo, hi, internal, external = _window_slots(graph, window)
    old = state.amplitudes
    if out is not None and (out.dtype, out.shape) != (old.dtype, old.shape):
        raise ValueError(f"out has dtype {out.dtype} and shape {out.shape}, not the state's")
    if out is not None and np.may_share_memory(out, old):
        raise ValueError("out may share memory with the input state; pass a separate array")
    new = np.zeros_like(old) if out is None else out
    new[internal.start + 1 : internal.stop] = old[internal.start : internal.stop - 1]
    new[external.start + 1 : external.stop] = old[external.start : external.stop - 1]
    # the forward start of external edge lo is written by vertex 2 lo - 1,
    # outside the window, which reads only zeros (or by the left mirror)
    new[external.start] = 0
    rows = slice(2 * lo, 2 * hi + 2)
    outgoing = old[graph.in_slot[rows]] @ graph.vertex_matrix.T  # out[p] = sum_q U[p, q] in[q]
    outgoing[:, 2] *= graph.port_c_phase[rows]  # port C enters the phase-shifted bottom edge
    new[graph.out_slot[rows]] = outgoing
    ends = slice(lo != 0, 1 + (hi == graph.spec.n_diamonds - 1))  # mirrors the window reaches
    if ends.start < ends.stop:  # most windows reach neither chain end
        new[graph.mirror_dst[ends]] = -old[graph.mirror_src[ends]]
    return WalkState(amplitudes=new)


def cell_probabilities(graph: LatticeGraph, state: WalkState, *,
                       window: tuple[int, int] | None = None) -> np.ndarray:
    """Probability per cell: each slot's ``|amplitude|^2`` summed into its
    ``graph.slot_cell``, so gap amplitudes count toward the diamond they approach.

    Only the slots of ``window`` (see :func:`~diamondwalk.lattice._window_slots`)
    are summed, in their full-state order, so when every other slot is zero
    the result is bit-identical to the full sum.  Rejects a state built on
    another graph.
    """
    _check_state(state, graph)
    _, _, internal, external = _window_slots(graph, window)
    amplitudes, slot_cell = state.amplitudes, graph.slot_cell
    p = np.bincount(slot_cell[internal], weights=np.abs(amplitudes[internal]) ** 2,
                    minlength=graph.spec.n_cells)
    # the external slots follow the internal ones in the full state: add.at adds
    # them one at a time in that order, as one bincount over both would
    np.add.at(p, slot_cell[external], np.abs(amplitudes[external]) ** 2)
    return p


def evolve(state: WalkState, graph: LatticeGraph, n_record: int) -> WalkObservables:
    """Run the walk for ``n_record`` records and collect observables.

    Records the initial state and then one row per diamond-to-diamond travel
    time (``graph.spec.substeps_per_hop`` sub-steps).  Each sub-step advances
    only the light-cone window: the diamonds of the cells holding the input's
    nonzero amplitude, grown by one diamond on each side per record up to the
    whole chain.  The input state is not modified.  Raises :class:`ValueError` for
    a state with no nonzero amplitude or a NaN or infinite one, and
    :class:`LightConeOverflow` as soon as more than 1e-9 probability reaches
    either end cell, since then the mirror terminations are no longer
    unobservable.  Holds ``p_cell`` (exactly zero outside each record's
    ``cell_span``), two state-sized buffers and one row buffer for the moments.
    """
    if n_record < 0:
        raise ValueError("n_record must be >= 0")
    _check_state(state, graph)
    nonzero = np.flatnonzero(state.amplitudes)
    if not nonzero.size:
        raise ValueError("state has no nonzero amplitude")
    if not np.isfinite(state.amplitudes[nonzero]).all():
        raise ValueError("state has a NaN or infinite amplitude")
    substeps_per_record = graph.spec.substeps_per_hop

    # The window starts at the diamonds of the cells holding amplitude and
    # grows by one diamond on each side at the start of every record.  That is
    # exact: a cell's slots, external edges included, lie in the interior of
    # its diamonds grown by one, and vertices and mirrors read only edge ends
    # and write only edge starts (audit_graph checks this), so amplitude in the
    # grown window's interior, diamonds lo + 1 .. hi - 1, where each record
    # starts, enters diamond lo one sub-step later and diamond lo - 1 no
    # sooner than a record after that (likewise at hi).
    # Both buffers stay zero outside the window: a windowed step rewrites
    # every slot of the window, and the window never shrinks.
    last = graph.spec.n_diamonds - 1
    occupied = graph.slot_cell[nonzero]
    lo, hi = 2 * int(occupied.min()), 2 * int(occupied.max()) + 1
    state = WalkState(amplitudes=state.amplitudes.copy())
    spare = np.zeros_like(state.amplitudes)

    half = graph.spec.half_length
    cells = np.arange(-half, half + 1)
    m = cells.astype(float)
    m2 = m**2
    n_rows = n_record + 1
    p_cell = np.empty((n_rows, m.size))
    cell_span = np.empty((n_rows, 2), dtype=int)
    # per record, through one row buffer: the total and the sums of p m and
    # p m^2, each over the full row (a sum over the window changes the bits)
    sums, buf = np.empty((3, n_rows)), np.empty_like(m)
    for r in range(n_rows):
        if r > 0:
            lo, hi = max(lo - 1, 0), min(hi + 1, last)
            for _ in range(substeps_per_record):
                state, spare = step(state, graph, window=(lo, hi), out=spare), state.amplitudes
        p_cell[r] = row = cell_probabilities(graph, state, window=(lo, hi))
        cell_span[r] = _window_cells(graph, (lo, hi))
        sums[:, r] = (row.sum(), np.multiply(row, m, out=buf).sum(),
                      np.multiply(row, m2, out=buf).sum())
        if row[0] + row[-1] > _END_LEAK_TOL:
            raise LightConeOverflow(
                f"end-cell probability {row[0] + row[-1]:.3e} at record {r}; "
                "increase half_length (see auto_half_length)"
            )

    total, first, second = sums
    mean = first / total
    var = second / total - mean**2
    sigma = np.sqrt(np.maximum(var, 0.0))
    p_boundary = p_cell[:, half - 1 : half + 2].sum(axis=1)

    return WalkObservables(
        cells=cells,
        records=np.arange(n_rows),
        substeps_per_record=substeps_per_record,
        p_cell=p_cell,
        cell_span=cell_span,
        mean=mean,
        sigma=sigma,
        p_boundary=p_boundary,
    )
