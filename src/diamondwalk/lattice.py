"""Construction of the diamond-chain lattice and its slot layout.

The chain realises an SSH-like lattice: each cell ``m`` holds two subsites
``a`` and ``b``, each subsite is one diamond graph (two three-port vertices
joined on two internal edges, one carrying the subsite's phase shift), and
consecutive diamonds are joined by external edges.  Order along the chain is
``a_{-M}, b_{-M}, a_{-M+1}, ..., b_{M}``, so the ``a``-diamond is the
intracell bond and ``b_m`` joins cell ``m`` to cell ``m + 1``.  The two
dangling external edges at the chain ends are terminated by perfect mirrors
(reflection phase -1), which keeps the induced evolution unitary without
enlarging the state space.

One frozen :class:`LatticeSpec` describes the chain, e.g.
``LatticeSpec.two_region(half, left, right)`` for two phase regions that meet
at a boundary state; it refuses regions that leave a cell uncovered when it is
built, before any table is allocated.

Indexing is fully deterministic:

* diamonds: ``d = 2*(m + M) + s`` with subsite ``s`` = 0 for a, 1 for b;
* vertices: diamond d owns left vertex ``2d`` and right vertex ``2d + 1``;
* edges: diamond d has a plain top and a bottom internal edge, the bottom one
  carrying ``exp(i phi_d)``; external edge ``j`` (``0 .. n_d``) runs from
  diamond ``j - 1`` to diamond ``j``, so edges 0 and ``n_d`` are the
  mirror-terminated end stubs;
* amplitude slots: an edge of length L holds L slots in each direction, in
  travel order, one per sub-step.  The ``dim`` slots of a state are two
  reshaped views, internal slots first:

  - ``state[:n_int].reshape(n_d, 2, 2, L_int)``, indexed by diamond,
    top/bottom, direction and position;
  - ``state[n_int:].reshape(n_d + 1, 2, L_ext)``, indexed by external edge,
    direction and position;

  with direction 0 left-to-right (right-moving) and 1 right-to-left, and
  ``n_int = 4 * n_d * L_int``.

This layout is the one wiring model, not an implementation detail: the walk's
free propagation is a shift by one slot, :func:`build_lattice` reads every
step table off these views of ``np.arange(dim)``, and the tests' oracle
(``tests/step_oracle.py``) restates the wiring from the spec alone.

Ports follow the (A, B, C) -> (0, 1, 2) convention: port A faces the external
edge, ports B and C the top and bottom internal edges.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .diamond import DEFAULT_CONVENTION
from .multiport import DEFAULT_THETA, vertex_unitary

__all__ = [
    "SUBSITES",
    "LatticeSpec",
    "LatticeGraph",
    "AuditReport",
    "build_lattice",
    "audit_graph",
]

SUBSITES = ("a", "b")


@dataclass(frozen=True)
class LatticeSpec:
    """The chain: half length M (cells -M..M), phase regions and edge lengths in
    sub-steps (internal from the calibrated convention); every vertex is theta = -pi/2.

    ``regions`` is a sequence of ``(m_from, m_to, phi_a, phi_b)`` with inclusive
    cell ranges.  They must be disjoint and together cover cells -M..M, which is
    checked when the spec is built; one may reach past a chain end.
    """

    half_length: int
    regions: tuple[tuple[int, int, float, float], ...]
    internal_length: int = DEFAULT_CONVENTION.internal_length
    external_length: int = 1

    def __post_init__(self) -> None:
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        if self.internal_length < 1 or self.external_length < 1:
            raise ValueError("edge lengths must be >= 1")
        if not self.regions:
            raise ValueError("profile needs at least one region")
        norm = tuple(
            (int(lo), int(hi), float(pa), float(pb)) for lo, hi, pa, pb in self.regions
        )
        object.__setattr__(self, "regions", norm)
        for lo, hi, pa, pb in norm:
            if lo > hi:
                raise ValueError(f"region range [{lo}, {hi}] is empty")
            if not (math.isfinite(pa) and math.isfinite(pb)):
                raise ValueError(f"non-finite phases ({pa!r}, {pb!r}) in region [{lo}, {hi}]")
        ordered = sorted(norm)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur[0] <= prev[1]:
                raise ValueError(
                    f"regions [{prev[0]}, {prev[1]}] and [{cur[0]}, {cur[1]}] overlap"
                )
        m = -self.half_length  # the first cell that no sorted region covers yet
        for lo, hi, _, _ in ordered:
            if lo <= m and hi >= m:
                m = hi + 1
        if m <= self.half_length:
            raise ValueError(
                f"profile does not cover cell {m} of [-{self.half_length}, {self.half_length}]"
            )

    @classmethod
    def uniform(cls, half_length: int, phi_a: float, phi_b: float) -> "LatticeSpec":
        return cls(half_length, ((-half_length, half_length, phi_a, phi_b),))

    @classmethod
    def two_region(cls, half_length: int, left: tuple[float, float],
                   right: tuple[float, float], boundary: int = 0) -> "LatticeSpec":
        """Left region covers cells <= boundary, right region the rest."""
        return cls(half_length, ((-half_length, boundary, left[0], left[1]),
                                 (boundary + 1, half_length, right[0], right[1])))

    @property
    def n_cells(self) -> int:
        return 2 * self.half_length + 1

    @property
    def n_diamonds(self) -> int:
        return 2 * self.n_cells

    @property
    def substeps_per_hop(self) -> int:
        """Sub-steps from entering one diamond to entering the next."""
        return self.internal_length + self.external_length

    def diamond_index(self, cell: int, subsite: str) -> int:
        """Diamond ``d = 2*(cell + M) + s`` of the named subsite; raises
        :class:`ValueError` for a cell outside ``-M..M`` or an unknown subsite."""
        if subsite not in SUBSITES:
            raise ValueError(f"subsite must be one of {SUBSITES}, got {subsite!r}")
        if not -self.half_length <= cell <= self.half_length:
            raise ValueError(
                f"cell {cell} outside [-{self.half_length}, {self.half_length}]"
            )
        return 2 * (cell + self.half_length) + SUBSITES.index(subsite)


@dataclass(frozen=True)
class LatticeGraph:
    """The built chain and the read-only tables the walk and the audit read.

    Every table is read off the slot layout of the module docstring, with
    ``n_diamonds = spec.n_diamonds``; the graph restates nothing of the spec,
    whose ``half_length`` gives the cells ``-M..M`` and whose ``diamond_index``
    numbers the diamonds.  A state is
    ``state[:n_int].reshape(n_diamonds, 2, 2, L_int)``
    (diamond, top/bottom, direction, position) followed by
    ``state[n_int:].reshape(n_diamonds + 1, 2, L_ext)`` (external edge,
    direction, position).  Vertices and mirrors read the last slot of an edge
    and write the first slot of the same edge traversed the other way; the
    walk shifts every other slot by one.  ``dim``, the slots in a state, is
    ``slot_cell.size``.  The fields cannot be rebound and every array is
    read-only, so a graph is safe to share between concurrent evolutions.
    """

    spec: LatticeSpec
    vertex_matrix: np.ndarray  # the 3x3 DEFAULT_THETA unitary every vertex shares
    in_slot: np.ndarray  # (2 * n_diamonds, 3) last slot of the edge arriving at each port
    out_slot: np.ndarray  # (2 * n_diamonds, 3) first slot of the edge leaving each port
    port_c_phase: np.ndarray  # (2 * n_diamonds,) exp(i phi_d) port C applies on the bottom edge
    mirror_src: np.ndarray  # (2,) last slots running into the left and right mirror
    mirror_dst: np.ndarray  # (2,) first slots they reflect into

    # (dim,) cell position (m + M) each slot's probability counts toward: gap
    # amplitudes count toward the diamond they are moving toward
    slot_cell: np.ndarray

    @property
    def dim(self) -> int:
        return self.slot_cell.size


def _n_internal(spec: LatticeSpec) -> int:
    """Slots of the internal edges, which come first in a state: ``n_int``."""
    return 4 * spec.n_diamonds * spec.internal_length


def _n_slots(spec: LatticeSpec) -> int:
    return _n_internal(spec) + 2 * (spec.n_diamonds + 1) * spec.external_length


def _slot_views(slots: np.ndarray, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The internal view ``[diamond, top/bottom, direction, position]`` and the
    external view ``[edge, direction, position]`` of a per-slot array."""
    n_internal = _n_internal(spec)
    return (slots[:n_internal].reshape(spec.n_diamonds, 2, 2, spec.internal_length),
            slots[n_internal:].reshape(spec.n_diamonds + 1, 2, spec.external_length))


def _window_slots(graph: LatticeGraph,
                  window: tuple[int, int] | None) -> tuple[int, int, slice, slice]:
    """``(lo, hi)`` of the window (the whole chain when None), then the slots of
    diamonds ``lo .. hi``: rows ``lo .. hi`` of the internal view, then rows
    ``lo .. hi + 1`` (the external edges around them) of the external view,
    each a contiguous range of the state.
    Raises :class:`ValueError` unless ``0 <= lo <= hi <= n_diamonds - 1``."""
    last = graph.spec.n_diamonds - 1
    lo, hi = (0, last) if window is None else map(operator.index, window)
    if not 0 <= lo <= hi <= last:
        raise ValueError(f"window {window} is not within diamonds 0 .. {last}")
    internal, external = graph.spec.internal_length, graph.spec.external_length
    external_base = _n_internal(graph.spec)
    return (lo, hi, slice(4 * lo * internal, 4 * (hi + 1) * internal),
            slice(external_base + 2 * lo * external, external_base + 2 * (hi + 2) * external))


def _window_cells(graph: LatticeGraph, window: tuple[int, int]) -> tuple[int, int]:
    """First and last cell position that the slots of ``window`` count toward:
    those of the left-moving slots of external edge ``lo`` and of the
    right-moving slots of external edge ``hi + 1``, the window's outermost."""
    _, _, _, external = _window_slots(graph, window)
    length = graph.spec.external_length
    return (int(graph.slot_cell[external.start + length]),
            int(graph.slot_cell[external.stop - 2 * length]))


def _diamond_phases(spec: LatticeSpec) -> np.ndarray:
    """``exp(i phi_d)``, the phase of each diamond's bottom edge, in diamond order."""
    half = spec.half_length
    table = np.empty((spec.n_cells, 2))  # (phi_a, phi_b) per cell; the spec covers each
    for lo, hi, phi_a, phi_b in spec.regions:  # clipped: one outside the chain writes no row
        table[max(lo + half, 0):max(hi + half + 1, 0)] = phi_a, phi_b
    return np.exp(1j * table.ravel())


def build_lattice(spec: LatticeSpec) -> LatticeGraph:
    """Materialise the chain described by ``spec``.

    Every diamond is wired the same way, so each table is a slice of the slot
    layout's views of ``np.arange(dim)``, with no per-element loop.  Rebuilding
    from an equal spec yields identical arrays.
    """
    n_diamonds = spec.n_diamonds
    dim = _n_slots(spec)
    internal, external = _slot_views(np.arange(dim), spec)

    # Tables indexed [diamond, side, port], vertex 2d + side.  Port A sits on
    # external edge d + side, ports B, C on diamond d's top and bottom edges.
    # A left vertex (side 0) writes forward into its diamond and backward out
    # of it, a right vertex the reverse; each port reads the last slot of the
    # edge it writes, traversed the other way.
    in_slot = np.empty((n_diamonds, 2, 3), dtype=int)
    out_slot = np.empty_like(in_slot)
    in_slot[:, 0, 0], in_slot[:, 1, 0] = external[:-1, 0, -1], external[1:, 1, -1]
    out_slot[:, 0, 0], out_slot[:, 1, 0] = external[:-1, 1, 0], external[1:, 0, 0]
    in_slot[:, :, 1:] = internal[:, :, ::-1, -1].transpose(0, 2, 1)
    out_slot[:, :, 1:] = internal[:, :, :, 0].transpose(0, 2, 1)

    # mirror terminations: the backward end of the left stub and the forward
    # end of the right stub, each reflected into the opposite direction
    mirror_src = external[[0, -1], [1, 0], -1]
    mirror_dst = external[[0, -1], [0, 1], 0]

    # Cell attribution of probability for observables.  Amplitude inside a
    # diamond belongs to that diamond's cell.  Amplitude travelling in a gap
    # between diamonds belongs to the diamond it is about to collide with
    # (left-movers to the left neighbour, right-movers to the right); this is
    # the only single-valued rule that both puts an injected photon wholly in
    # its target subsite's cell and keeps P(m, t) exactly mirror symmetric.
    # At a mirror stub the amplitude counts toward the end diamond.
    slot_cell = np.empty(dim, dtype=int)
    internal_cell, external_cell = _slot_views(slot_cell, spec)
    edge = np.arange(n_diamonds + 1)
    internal_cell[...] = (edge[:-1] // 2)[:, None, None, None]
    external_cell[:, 0] = (np.minimum(edge, n_diamonds - 1) // 2)[:, None]
    external_cell[:, 1] = (np.maximum(edge - 1, 0) // 2)[:, None]

    tables = dict(in_slot=in_slot.reshape(-1, 3), out_slot=out_slot.reshape(-1, 3),
                  port_c_phase=_diamond_phases(spec).repeat(2), mirror_src=mirror_src,
                  mirror_dst=mirror_dst, slot_cell=slot_cell)
    for arr in tables.values():
        arr.setflags(write=False)

    return LatticeGraph(
        spec=spec,
        vertex_matrix=vertex_unitary(DEFAULT_THETA),
        **tables,
    )


@dataclass(frozen=True)
class AuditReport:
    counts: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# vertex rows per block of the locality check.  Each of its int64 temporaries
# (3 entries per row, 96 KiB) stays under glibc's 128 KiB mmap threshold, so
# every block reuses the same heap pages instead of faulting in fresh ones;
# at half_length 7000, 1024, 2048, 3072, 4096 and 5460 rows took 2.66, 2.21,
# 2.06, 2.06 and 2.03 ms per audit (min of 5 x 10, 2 vCPU AMD EPYC)
_AUDIT_ROWS = 4096


def _marks(table: np.ndarray, mirrors: np.ndarray, dim: int) -> np.ndarray | None:
    """Which of the ``dim`` slots ``table`` or ``mirrors`` holds, one byte per
    slot; None if an entry is out of range."""
    if min(table.min(), mirrors.min()) < 0 or max(table.max(), mirrors.max()) >= dim:
        return None
    marks = np.zeros(dim, dtype=bool)
    marks[table] = True
    marks[mirrors] = True
    return marks


def _bijection_violations(graph: LatticeGraph) -> list[str]:
    """The sub-step is a bijection of slots: vertices and mirrors read distinct
    edge ends and write distinct edge starts, the last slot is an end, and
    every slot is written exactly once, by a start or by the shift from a
    non-end at s - 1.  Allocates one byte per slot for the ends and one for
    the starts, and one more for the comparison."""
    ends = _marks(graph.in_slot, graph.mirror_src, graph.dim)
    starts = _marks(graph.out_slot, graph.mirror_dst, graph.dim)
    if ends is None or starts is None:
        return ["step slot tables point outside the state"]
    violations = []
    distinct = (np.count_nonzero(ends) == graph.in_slot.size + graph.mirror_src.size
                and np.count_nonzero(starts) == graph.out_slot.size + graph.mirror_dst.size)
    if not distinct:
        violations.append("a slot is read or written by more than one vertex port or mirror")
    # with equal-sized tables a repeated entry leaves some slot not written once
    if not (distinct and starts[0] and ends[-1] and np.array_equal(starts[1:], ends[:-1])):
        violations.append("step does not write every slot exactly once")
    return violations


def _edge_layout(writes: np.ndarray, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray,
                                                                  np.ndarray]:
    """For each slot of ``writes``, from the slot layout alone: the last slot of
    the reverse edge (directed edge ``e ^ 1``) if the slot starts its edge,
    else -1; the lowest diamond whose window holds it; and whether it is on an
    external edge."""
    n_internal = _n_internal(spec)
    external = writes >= n_internal
    length = np.where(external, spec.external_length, spec.internal_length)
    base = n_internal * external
    edge, pos = np.divmod(writes - base, length)  # directed edge within its part
    reverse = np.where(pos != 0, -1, base + (edge ^ 1) * length + length - 1)
    # an internal directed edge is 4 d + 2 top/bottom + direction, so in
    # diamond d's window; an external one 2 j + direction, lowest in j - 1's
    lowest = (edge >> (2 - external)) - external
    return reverse, lowest, external


def _write_blocks(graph: LatticeGraph):
    """``(reads, writes, owner)`` for blocks of ``_AUDIT_ROWS`` vertex rows and
    then for the two mirrors: the slots each vertex port or mirror reads and
    writes, and the diamond it belongs to."""
    rows = graph.out_slot.shape[0]
    for start in range(0, rows, _AUDIT_ROWS):
        stop = min(start + _AUDIT_ROWS, rows)
        yield (graph.in_slot[start:stop], graph.out_slot[start:stop],
               np.arange(start, stop)[:, None] // 2)
    yield graph.mirror_src, graph.mirror_dst, np.array([0, graph.spec.n_diamonds - 1])


def _locality_violations(graph: LatticeGraph) -> list[str]:
    """Locality: a vertex port or mirror reads the last slot of the edge it
    writes, traversed the other way, and writes that edge's first slot, within
    its own diamond's window (its internal edges and the external edges on
    either side).  So amplitude needs a record to cross a diamond, and the
    walk's light-cone window grows one diamond per record.  Meaningful only
    once the slots are a bijection.  Works each write out from the slot layout
    a block of vertex rows at a time, so it allocates nothing slot-sized."""
    reads_own_edge = inside_window = True
    for reads, writes, owner in _write_blocks(graph):
        reverse, lowest, external = _edge_layout(writes, graph.spec)
        reads_own_edge = reads_own_edge and np.array_equal(reads, reverse)
        offset = owner - lowest
        inside_window = inside_window and not np.any((offset < 0) | (offset > external))
    violations = []
    if not reads_own_edge:
        violations.append("a vertex port or mirror does not read the edge it writes")
    if not inside_window:
        violations.append("a vertex port or mirror writes outside its diamond's window")
    return violations


def audit_graph(graph: LatticeGraph) -> AuditReport:
    """Structural audit of the step tables against the spec's slot layout.

    Checks that one sub-step is a bijection of slots, that every vertex port
    and mirror is local, that each vertex's port-C phase is its diamond's
    ``exp(i phi_d)`` and that every slot counts toward a cell.  Returns the
    spec's counts and a list of violations; an intact graph reports none.
    Allocates no slot-sized int64 array: the bijection check marks a byte per
    slot, and the locality check reuses one block-sized set of temporaries on
    the heap, so of fresh pages it faults in little more than those marks.
    """
    violations: list[str] = []
    spec = graph.spec
    n_diamonds = spec.n_diamonds
    if graph.dim != _n_slots(spec):
        violations.append(f"{graph.dim} slots, but the spec's layout has {_n_slots(spec)}")
    # each check's tables are freed when it returns, before the next allocates
    violations += _bijection_violations(graph)
    if not violations and graph.out_slot.size == 6 * n_diamonds:
        violations += _locality_violations(graph)

    # port C enters the bottom edge, whose phase is the diamond's exp(i phi_d);
    # diamond d's vertices are 2d and 2d + 1
    phases = _diamond_phases(spec)
    if not (np.array_equal(graph.port_c_phase[::2], phases)
            and np.array_equal(graph.port_c_phase[1::2], phases)):
        violations.append("port_c_phase differs from the phase of each vertex's diamond")

    # every slot's probability is attributed to a cell of the chain
    if np.any((graph.slot_cell < 0) | (graph.slot_cell >= spec.n_cells)):
        violations.append("slot owner cell out of range")

    counts = {
        "cells": spec.n_cells,
        "diamonds": n_diamonds,
        "vertices": 2 * n_diamonds,
        "internal_edges": 2 * n_diamonds,
        "external_edges": n_diamonds + 1,
        "directed_edges": 2 * (3 * n_diamonds + 1),
        "slots": graph.dim,
    }
    return AuditReport(counts=counts, violations=tuple(violations))
