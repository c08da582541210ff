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

from .lattice import LatticeGraph, _slot_cells, _window, _window_cells

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
# numpy's pairwise summation (PW_BLOCKSIZE): a node of at most this many
# contiguous float64 is a leaf, summed in eight interleaved accumulators
_PAIRWISE_LEAF = 128


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

    ``cell_span[r]`` is the first and last position in ``cells`` (inclusive)
    that record ``r``'s light-cone window counts toward (record 0 is the
    initial state); every cell outside it holds exactly +0.0 probability, so
    only the spans are stored.  ``p_span`` holds each record's span of cell
    probabilities in record order: record ``r``'s values are the next
    ``cell_span[r, 1] - cell_span[r, 0] + 1`` entries.  ``p_boundary`` sums
    cells |m| <= 1.
    """

    cells: np.ndarray
    records: np.ndarray
    substeps_per_record: int
    p_span: np.ndarray
    cell_span: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray
    p_boundary: np.ndarray

    @property
    def p_cell(self) -> np.ndarray:
        """The dense ``(records, cells)`` table: ``p_cell[r, i]`` is the
        probability in cell ``cells[i]`` at record ``r``.  Each access
        allocates a new table of ``records × n_cells`` floats, zero outside
        the spans, so the library itself never reads it."""
        columns = np.arange(self.cells.size)
        p_cell = np.zeros((self.records.size, columns.size))
        inside = (columns >= self.cell_span[:, :1]) & (columns <= self.cell_span[:, 1:])
        p_cell[inside] = self.p_span
        return p_cell


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
    amplitudes[_window(graph, (d, d))[2].in_slot[int(direction == "left"), 0]] = 1.0
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

    Only the window's slots (see :func:`~diamondwalk.lattice._window`) are
    read and written, through the window's rows of the graph's memo, and the
    vertex and mirror writes cover every one the shift does not
    (:func:`~diamondwalk.lattice.audit_graph` checks this).
    This is exact when ``state`` is zero outside the slots of diamonds
    ``lo + 1 .. hi - 1``; where the window reaches a chain end, that end needs
    no such margin.
    """
    _check_state(state, graph)
    internal, external, rows = _window(graph, window)
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
    outgoing = old[rows.in_slot] @ graph.vertex_matrix.T  # out[p] = sum_q U[p, q] in[q]
    outgoing[:, 2] *= rows.port_c_phase  # port C enters the phase-shifted bottom edge
    new[rows.out_slot] = outgoing
    ends = slice(rows.lo != 0, 1 + (rows.hi == graph.spec.n_diamonds - 1))  # mirrors reached
    if ends.start < ends.stop:  # most windows reach neither chain end
        new[graph.mirror_dst[ends]] = -old[graph.mirror_src[ends]]
    return WalkState(amplitudes=new)


def cell_probabilities(graph: LatticeGraph, state: WalkState, *,
                       window: tuple[int, int] | None = None) -> np.ndarray:
    """Probability per cell: each slot's ``|amplitude|^2`` summed into its
    cell, so gap amplitudes count toward the diamond they approach.

    Only the slots of ``window`` (see :func:`~diamondwalk.lattice._window`)
    are summed, by one ``np.bincount`` in their full-state order, so when every
    other slot is zero the result is bit-identical to the full sum.  Rejects a
    state built on another graph.
    """
    _check_state(state, graph)
    internal, external, rows = _window(graph, window)
    amplitudes = state.amplitudes
    cells = np.concatenate((rows.internal_cell, rows.external_cell))
    # |amplitude|^2 of both ranges, squared in place: no complex temporary
    weights = np.empty(cells.size)
    np.abs(amplitudes[internal], out=weights[: rows.internal_cell.size])
    np.abs(amplitudes[external], out=weights[rows.internal_cell.size :])
    return np.bincount(cells, weights=np.square(weights, out=weights),
                       minlength=graph.spec.n_cells)


def _sum_node(n: int, first: int, last: int) -> tuple[int, int]:
    """``(start, stop)`` of the smallest node of numpy's pairwise summation tree
    over ``n`` contiguous float64 that holds positions ``first .. last``.

    ``np.sum`` of such an array starts from +0.0 and adds its pairwise sum: a
    node of more than ``_PAIRWISE_LEAF`` elements is the sum of its two
    children, split at the half rounded down to a multiple of 8.  When every
    element outside ``first .. last`` is +0.0 or -0.0, the other nodes sum to
    a zero, and ``x + 0.0 == x`` for any nonzero ``x``, so summing this node
    alone gives the full sum's bits (a zero sum is +0.0 either way).
    ``tests/test_walk.py::test_sum_node_sums_equal_the_full_row_sums`` checks
    this against the installed numpy.
    """
    start = 0
    while n > _PAIRWISE_LEAF:
        split = n // 2 - (n // 2) % 8
        if last < start + split:
            n = split
        elif first >= start + split:
            start, n = start + split, n - split
        else:
            break
    return start, start + n


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
    unobservable.  Holds each record's span of cell probabilities (its
    ``cell_span``, outside which every cell is exactly zero), two state-sized
    buffers and the graph's rows of the final window, so its memory scales
    with ``dim + records × span``, not with ``records × n_cells``.  Both buffers
    come zeroed from the allocator and only the window's slots are copied into
    or stepped, so of their pages only those the light cone reaches are
    faulted in.  Each record's moments are summed over the node of numpy's
    pairwise summation tree that holds its span (see :func:`_sum_node`), not
    over the whole row, with the full row's bits.
    """
    if n_record < 0:
        raise ValueError("n_record must be >= 0")
    _check_state(state, graph)
    nonzero = np.flatnonzero(state.amplitudes != 0)  # NaN != 0: refused below
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
    # So the input is zero outside the first window's slots, and only those
    # are copied.  Both buffers stay zero outside the window: a windowed step
    # rewrites every slot of the window, and the window never shrinks.
    last = graph.spec.n_diamonds - 1
    occupied = _slot_cells(graph, nonzero)
    lo, hi = 2 * int(occupied.min()), 2 * int(occupied.max()) + 1
    n_rows = n_record + 1

    def window_at(r: int) -> tuple[int, int]:
        return max(lo - r, 0), min(hi + r, last)

    grown = np.arange(n_rows)
    cell_span = np.stack(_window_cells(graph, (np.maximum(lo - grown, 0),
                                               np.minimum(hi + grown, last))), axis=1)
    del grown  # of the record-sized arrays, only the spans outlive the set-up
    p_span = np.empty(int((cell_span[:, 1] - cell_span[:, 0] + 1).sum()))
    half = graph.spec.half_length
    m = np.arange(-half, half + 1, dtype=float)
    m2 = m**2
    # per record: the total and the sums of p m and p m^2, each over the
    # pairwise-summation node that holds the record's span, which has the
    # full row's bits (any other slice changes them)
    sums = np.empty((3, n_rows))
    p_boundary, mean, sigma = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
    # fresh zeroed pages from calloc, faulted in only where the window writes.
    # They come after every array the walk returns (the cells take m's place
    # below them), so once freed they can merge back into the heap's free top
    # for the caller's next large array: with the cells above them, a
    # walk_large-like op, run again and again, held ~5 MiB more resident.
    amplitudes, spare = np.zeros(graph.dim, complex), np.zeros(graph.dim, complex)
    for slots in _window(graph, window_at(0))[:2]:
        amplitudes[slots] = state.amplitudes[slots]
    state = WalkState(amplitudes=amplitudes)

    start = 0  # of the record's span in p_span
    for r in range(n_rows):
        window = window_at(r)
        if r > 0:
            for _ in range(substeps_per_record):
                state, spare = step(state, graph, window=window, out=spare), state.amplitudes
        row = cell_probabilities(graph, state, window=window)
        span_lo, span_hi = cell_span[r].tolist()
        node = slice(*_sum_node(row.size, span_lo, span_hi))
        p = row[node]
        sums[:, r] = p.sum(), (p * m[node]).sum(), (p * m2[node]).sum()
        p_boundary[r] = row[half - 1 : half + 2].sum()
        span = row[span_lo : span_hi + 1]
        p_span[start : start + span.size] = span
        start += span.size
        if row[0] + row[-1] > _END_LEAK_TOL:
            raise LightConeOverflow(
                f"end-cell probability {row[0] + row[-1]:.3e} at record {r}; "
                "increase half_length (see auto_half_length)"
            )
        del row, p, span  # so that two rows are never held at once

    total, first, second = sums
    np.divide(first, total, out=mean)
    np.sqrt(np.maximum(second / total - mean**2, 0.0), out=sigma)
    del m, m2  # the cells take m's place, below the two buffers
    return WalkObservables(
        cells=np.arange(-half, half + 1),
        records=np.arange(n_rows),
        substeps_per_record=substeps_per_record,
        p_span=p_span,
        cell_span=cell_span,
        mean=mean,
        sigma=sigma,
        p_boundary=p_boundary,
    )
