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
    "PhaseProfile",
    "LatticeSpec",
    "LatticeGraph",
    "AuditReport",
    "build_lattice",
    "audit_graph",
]

SUBSITES = ("a", "b")


@dataclass(frozen=True)
class PhaseProfile:
    """Piecewise-constant map from cell index to the pair (phi_a, phi_b).

    ``regions`` is a sequence of ``(m_from, m_to, phi_a, phi_b)`` with
    inclusive cell ranges.  Regions must be disjoint; together they must cover
    every cell of the lattice they are applied to.
    """

    regions: tuple[tuple[int, int, float, float], ...]

    def __post_init__(self) -> None:
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

    @classmethod
    def uniform(cls, phi_a: float, phi_b: float, half_length: int) -> "PhaseProfile":
        return cls(((-half_length, half_length, phi_a, phi_b),))

    @classmethod
    def two_region(
        cls,
        left: tuple[float, float],
        right: tuple[float, float],
        half_length: int,
        boundary: int = 0,
    ) -> "PhaseProfile":
        """Left region covers cells <= boundary, right region the rest."""
        return cls(
            (
                (-half_length, boundary, left[0], left[1]),
                (boundary + 1, half_length, right[0], right[1]),
            )
        )

    def phases(self, half_length: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell (phi_a, phi_b) arrays for cells -M..M; rejects gaps."""
        n = 2 * half_length + 1
        phi_a = np.full(n, np.nan)
        phi_b = np.full(n, np.nan)
        for lo, hi, pa, pb in self.regions:
            lo_i = max(lo, -half_length) + half_length
            hi_i = min(hi, half_length) + half_length
            if lo_i > hi_i:
                continue
            phi_a[lo_i : hi_i + 1] = pa
            phi_b[lo_i : hi_i + 1] = pb
        if np.any(np.isnan(phi_a)):
            missing = int(np.flatnonzero(np.isnan(phi_a))[0]) - half_length
            raise ValueError(
                f"profile does not cover cell {missing} of [-{half_length}, {half_length}]"
            )
        return phi_a, phi_b


@dataclass(frozen=True)
class LatticeSpec:
    """Chain geometry: half length M (cells -M..M), phase profile and edge lengths in
    sub-steps (internal from the calibrated convention); every vertex is theta = -pi/2."""

    half_length: int
    profile: PhaseProfile
    internal_length: int = DEFAULT_CONVENTION.internal_length
    external_length: int = 1

    def __post_init__(self) -> None:
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        if self.internal_length < 1 or self.external_length < 1:
            raise ValueError("edge lengths must be >= 1")

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
    walk shifts every other slot by one.  The fields cannot be rebound and
    every array is read-only, so a graph is safe to share between concurrent
    evolutions.
    """

    spec: LatticeSpec
    vertex_matrix: np.ndarray  # the 3x3 DEFAULT_THETA unitary every vertex shares
    dim: int  # slots in a state; audit_graph checks it against the spec's layout
    in_slot: np.ndarray  # (2 * n_diamonds, 3) last slot of the edge arriving at each port
    out_slot: np.ndarray  # (2 * n_diamonds, 3) first slot of the edge leaving each port
    port_c_phase: np.ndarray  # (2 * n_diamonds,) exp(i phi_d) port C applies on the bottom edge
    mirror_src: np.ndarray  # (2,) last slots running into the left and right mirror
    mirror_dst: np.ndarray  # (2,) first slots they reflect into

    # (dim,) cell position (m + M) each slot's probability counts toward: gap
    # amplitudes count toward the diamond they are moving toward
    slot_cell: np.ndarray


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
    return np.exp(1j * np.column_stack(spec.profile.phases(spec.half_length)).ravel())


def build_lattice(spec: LatticeSpec) -> LatticeGraph:
    """Materialise the chain described by ``spec``.

    Every diamond is wired the same way, so each table is a slice of the slot
    layout's views of ``np.arange(dim)``, with no per-element loop.  Rejects
    profiles that do not cover all cells.  Rebuilding from an equal spec yields
    identical arrays.
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
        dim=dim,
        **tables,
    )


@dataclass(frozen=True)
class AuditReport:
    counts: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _multiplicity(table: np.ndarray, size: int) -> np.ndarray | None:
    """How often each of ``0 .. size - 1`` occurs in ``table``; None if an entry is out of range."""
    flat = table.ravel()
    if np.any((flat < 0) | (flat >= size)):
        return None
    return np.bincount(flat, minlength=size)


def audit_graph(graph: LatticeGraph) -> AuditReport:
    """Structural audit of the step tables against the spec's slot layout.

    Checks that one sub-step is a bijection of slots, that every vertex port
    and mirror is local, that each vertex's port-C phase is its diamond's
    ``exp(i phi_d)`` and that every slot counts toward a cell.  Returns the
    spec's counts and a list of violations; an intact graph reports none.
    """
    violations: list[str] = []
    spec = graph.spec
    n_diamonds = spec.n_diamonds
    if graph.dim != _n_slots(spec):
        violations.append(f"{graph.dim} slots, but the spec's layout has {_n_slots(spec)}")

    # the sub-step is a bijection of slots: vertices and mirrors read distinct
    # edge ends and write distinct edge starts, the last slot is an end, and
    # every slot is written exactly once, by a start or by the shift from a
    # non-end at s - 1
    ends = _multiplicity(np.concatenate((graph.in_slot.ravel(), graph.mirror_src)), graph.dim)
    starts = _multiplicity(np.concatenate((graph.out_slot.ravel(), graph.mirror_dst)), graph.dim)
    if ends is None or starts is None:
        violations.append("step slot tables point outside the state")
    else:
        if max(ends.max(), starts.max()) > 1:
            violations.append("a slot is read or written by more than one vertex port or mirror")
        written = starts.copy()
        written[1:] += ends[:-1] == 0
        if ends[-1] != 1 or np.any(written != 1):
            violations.append("step does not write every slot exactly once")

    # locality: a vertex port or mirror reads the last slot of the edge it
    # writes, traversed the other way, and writes that edge's first slot,
    # within its own diamond's window (its internal edges and the external
    # edges on either side).  So amplitude needs a record to cross a diamond,
    # and the walk's light-cone window grows one diamond per record.  Checked
    # once the slots are a bijection.
    if not violations and graph.out_slot.size == 6 * n_diamonds:
        reverse_end = np.full(graph.dim, -1)  # at each edge's first slot
        lowest = np.empty(graph.dim, dtype=int)  # lowest diamond whose window holds a slot
        internal, external = _slot_views(np.arange(graph.dim), spec)
        reverse_internal, reverse_external = _slot_views(reverse_end, spec)
        reverse_internal[..., 0] = internal[:, :, ::-1, -1]
        reverse_external[..., 0] = external[:, ::-1, -1]
        lowest_internal, lowest_external = _slot_views(lowest, spec)
        lowest_internal[...] = np.arange(n_diamonds)[:, None, None, None]
        lowest_external[...] = np.arange(-1, n_diamonds)[:, None, None]
        if not (np.array_equal(graph.in_slot, reverse_end[graph.out_slot])
                and np.array_equal(graph.mirror_src, reverse_end[graph.mirror_dst])):
            violations.append("a vertex port or mirror does not read the edge it writes")
        writes = np.concatenate((graph.out_slot.ravel(), graph.mirror_dst))
        owner = np.concatenate((np.arange(n_diamonds).repeat(6), [0, n_diamonds - 1]))
        offset = owner - lowest[writes]
        if np.any((offset < 0) | (offset > (writes >= internal.size))):
            violations.append("a vertex port or mirror writes outside its diamond's window")

    # port C enters the bottom edge, whose phase is the diamond's exp(i phi_d)
    if not np.array_equal(graph.port_c_phase, _diamond_phases(spec).repeat(2)):
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
