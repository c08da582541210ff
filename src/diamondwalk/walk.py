"""Discrete-time single-photon walk on the diamond chain.

State model: one complex amplitude per (directed edge, position-along-edge)
slot.  Each directed edge's slots are contiguous and in travel order, so one
sub-step is a shift of the whole state by one slot, followed by the vertex
scatter and the mirrors, which overwrite the first slot of every edge:
amplitudes reaching a vertex scatter through the three-port unitary into the
first slots of the outgoing edges (picking up the phase of any shifter on the
edge they enter), and amplitudes reaching a chain-end mirror reverse with
phase -1.  Every ingredient is unitary, so the norm is conserved to rounding.

Observables are recorded stroboscopically: the natural recording cadence is
one record per diamond-to-diamond travel time (``internal_length +
external_length`` sub-steps), which matches the walk-time unit used by the
cell-resolved probability plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SUBSITES, LatticeGraph

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
    """Amplitudes over all slots of a lattice graph at integer sub-step time."""

    amplitudes: np.ndarray
    time: int = 0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class WalkObservables:
    """Cell-resolved probabilities and summary statistics per recorded time.

    ``p_cell[r, i]`` is the probability in cell ``cells[i]`` at record ``r``
    (record 0 is the initial state).  ``p_boundary`` sums cells |m| <= 1.
    """

    cells: np.ndarray
    records: np.ndarray
    substeps_per_record: int
    p_cell: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray
    p_boundary: np.ndarray


def auto_half_length(n_record: int, substeps_per_record: int, substeps_per_cell: int) -> int:
    """Half length that keeps the light cone (<= 1 sub-step per step) inside,
    with two cells to spare."""
    return math.ceil(n_record * substeps_per_record / substeps_per_cell) + 2


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
    d = graph.diamond_index(cell, subsite)  # validates cell and subsite
    amplitudes = np.zeros(graph.dim, dtype=complex)
    amplitudes[graph.in_slot[2 * d + (direction == "left"), 0]] = 1.0
    return WalkState(amplitudes=amplitudes, time=0)


def step(state: WalkState, graph: LatticeGraph) -> WalkState:
    """Advance one sub-step.  Returns a new state; the input is not modified.

    The vertex and mirror writes cover every slot the shift does not
    (:func:`~diamondwalk.lattice.audit_graph` checks this), so no slot of
    ``new`` is left unwritten.
    """
    old = state.amplitudes
    new = np.empty_like(old)
    new[1:] = old[:-1]
    incoming = old[graph.in_slot]                      # (n_vertices, 3)
    outgoing = incoming @ graph.vertex_matrix.T        # out[p] = sum_q U[p, q] in[q]
    new[graph.out_slot] = outgoing * graph.out_phase
    new[graph.mirror_dst] = -old[graph.mirror_src]
    return WalkState(amplitudes=new, time=state.time + 1)


def cell_probabilities(graph: LatticeGraph, state: WalkState) -> np.ndarray:
    """Probability per cell: each slot's ``|amplitude|^2`` summed into its
    ``graph.slot_cell``, so gap amplitudes count toward the diamond they approach."""
    return np.bincount(graph.slot_cell, weights=np.abs(state.amplitudes) ** 2,
                       minlength=graph.n_cells)


def evolve(state: WalkState, graph: LatticeGraph, n_record: int) -> WalkObservables:
    """Run the walk for ``n_record`` records and collect observables.

    Records the initial state and then one row per diamond-to-diamond travel
    time (``graph.spec.substeps_per_hop`` sub-steps).  Raises
    :class:`LightConeOverflow` as soon as more than 1e-9 probability reaches
    either end cell, since then the mirror terminations are no longer
    unobservable.
    """
    if n_record < 0:
        raise ValueError("n_record must be >= 0")
    substeps_per_record = graph.spec.substeps_per_hop

    m = graph.cells.astype(float)
    n_rows = n_record + 1
    p_cell = np.empty((n_rows, graph.n_cells))
    p_cell[0] = cell_probabilities(graph, state)
    for r in range(n_rows):
        if r > 0:
            for _ in range(substeps_per_record):
                state = step(state, graph)
            p_cell[r] = cell_probabilities(graph, state)
        if p_cell[r, 0] + p_cell[r, -1] > _END_LEAK_TOL:
            raise LightConeOverflow(
                f"end-cell probability {p_cell[r, 0] + p_cell[r, -1]:.3e} at record {r}; "
                "increase half_length (see auto_half_length)"
            )

    total = p_cell.sum(axis=1)
    mean = (p_cell * m).sum(axis=1) / total
    var = (p_cell * m**2).sum(axis=1) / total - mean**2
    sigma = np.sqrt(np.maximum(var, 0.0))
    half = graph.half_length
    p_boundary = p_cell[:, half - 1 : half + 2].sum(axis=1)

    return WalkObservables(
        cells=graph.cells,
        records=np.arange(n_rows),
        substeps_per_record=substeps_per_record,
        p_cell=p_cell,
        mean=mean,
        sigma=sigma,
        p_boundary=p_boundary,
    )
