"""Construction of the diamond-chain lattice as an explicit directed graph.

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
* undirected edges: the two internal edges of each diamond first (top edge
  ``2d`` plain, bottom edge ``2d+1`` carrying ``exp(i phi)``), then the
  external edges left-to-right (index 0 is the left mirror stub, index 2N the
  right one);
* directed edges: ``2*edge + direction`` with direction 0 = left-to-right
  (right-moving) and 1 = right-to-left;
* amplitude slots: each directed edge of length L owns L consecutive slots,
  one per sub-step of travel.

Ports follow the (A, B, C) -> (0, 1, 2) convention: port A faces the external
edge, ports B and C the top and bottom internal edges.
"""

from __future__ import annotations

import math
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

# edge kind codes
KIND_INTERNAL_TOP = 0
KIND_INTERNAL_BOTTOM = 1
KIND_EXTERNAL = 2


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
    """Chain geometry: half length M (cells -M..M), phase profile, vertex phase,
    and edge lengths in sub-steps (internal from the calibrated convention)."""

    half_length: int
    profile: PhaseProfile
    theta: float = DEFAULT_THETA
    internal_length: int = DEFAULT_CONVENTION.internal_length
    external_length: int = 1

    def __post_init__(self) -> None:
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.internal_length < 1 or self.external_length < 1:
            raise ValueError("edge lengths must be >= 1")

    @property
    def n_cells(self) -> int:
        return 2 * self.half_length + 1

    @property
    def substeps_per_hop(self) -> int:
        """Sub-steps from entering one diamond to entering the next."""
        return self.internal_length + self.external_length


@dataclass
class LatticeGraph:
    """The built chain and the index tables the walk and the audit read.

    Every table is one diamond's fixed wiring tiled along the chain (see
    :func:`build_lattice`).  Immutable by convention after
    :func:`build_lattice`; safe to share read-only between concurrent
    evolutions.
    """

    spec: LatticeSpec
    n_cells: int
    n_diamonds: int
    n_vertices: int
    vertex_matrix: np.ndarray  # shared 3x3 unitary (theta is global)
    diamond_phi: np.ndarray  # (n_diamonds,)

    # undirected edge tables
    edge_length: np.ndarray
    edge_phase: np.ndarray
    edge_kind: np.ndarray
    edge_vertex: np.ndarray  # (n_edges, 2) left/right endpoint vertex, -1 = mirror

    # directed-edge slot machinery
    slot_base: np.ndarray  # (2*n_edges,)
    dir_length: np.ndarray  # (2*n_edges,)
    dim: int
    leaving: np.ndarray  # (n_vertices, 3) directed edge leaving via port
    arriving: np.ndarray  # (n_vertices, 3) directed edge arriving via port
    in_slot: np.ndarray  # (n_vertices, 3) final slot of the arriving edge
    out_slot: np.ndarray  # (n_vertices, 3) first slot of the leaving edge
    out_phase: np.ndarray  # (n_vertices, 3) phase applied on entering the leaving edge
    adv_src: np.ndarray
    adv_dst: np.ndarray
    mirror_src: np.ndarray
    mirror_dst: np.ndarray

    # (dim,) cell position (m + M) each slot's probability counts toward: gap
    # amplitudes count toward the diamond they are moving toward
    slot_cell: np.ndarray

    cells: np.ndarray  # cell indices -M..M

    @property
    def half_length(self) -> int:
        return self.spec.half_length

    def diamond_index(self, cell: int, subsite: str) -> int:
        if subsite not in SUBSITES:
            raise ValueError(f"subsite must be one of {SUBSITES}, got {subsite!r}")
        if not -self.half_length <= cell <= self.half_length:
            raise ValueError(
                f"cell {cell} outside [-{self.half_length}, {self.half_length}]"
            )
        return 2 * (cell + self.half_length) + SUBSITES.index(subsite)

    def external_edge(self, j: int) -> int:
        """Undirected index of external edge j (0..n_diamonds); j enters diamond j."""
        return 2 * self.n_diamonds + j

    def directed(self, edge: int, direction: int) -> int:
        return 2 * edge + direction

    def slots(self, directed_edge: int) -> slice:
        base = int(self.slot_base[directed_edge])
        return slice(base, base + int(self.dir_length[directed_edge]))


def build_lattice(spec: LatticeSpec) -> LatticeGraph:
    """Materialise the chain described by ``spec``.

    Every diamond is wired the same way, so each table is one diamond's wiring
    shifted by the diamond index: index arithmetic on ``np.arange``, with no
    per-element loop.  Rejects profiles that do not cover all cells.
    Rebuilding from an equal spec yields identical arrays.
    """
    m_half = spec.half_length
    n_cells = spec.n_cells
    n_diamonds = 2 * n_cells
    n_vertices = 2 * n_diamonds
    n_internal = 2 * n_diamonds
    n_external = n_diamonds + 1
    n_edges = n_internal + n_external
    diamond_phi = np.column_stack(spec.profile.phases(m_half)).ravel()  # a_m, b_m per cell

    # Internal edges 2d (top) and 2d+1 (bottom, phase-shifted) join vertices
    # 2d and 2d+1; external edge j joins vertex 2j-1 to vertex 2j, with
    # mirrors (-1) beyond the chain ends.
    edge_length = np.repeat([spec.internal_length, spec.external_length], [n_internal, n_external])
    edge_kind = np.full(n_edges, KIND_EXTERNAL)
    edge_kind[:n_internal] = np.tile([KIND_INTERNAL_TOP, KIND_INTERNAL_BOTTOM], n_diamonds)
    edge_phase = np.ones(n_edges, dtype=complex)
    edge_phase[1:n_internal:2] = np.exp(1j * diamond_phi)
    edge_vertex = np.concatenate((
        np.arange(n_vertices).reshape(n_diamonds, 2).repeat(2, axis=0),
        np.arange(-1, n_vertices + 1).reshape(n_external, 2),
    ))
    edge_vertex[-1, 1] = -1

    # Vertex 2d + side takes port A from external edge d + side and ports B, C
    # from internal edges 2d, 2d + 1.  A left vertex (side 0) sends forward
    # into its diamond and backward out of it; a right vertex the reverse.
    d = np.arange(n_diamonds)[:, None, None]
    side = np.arange(2)[:, None]
    on_external = np.arange(3) == 0
    edge = np.where(on_external, n_internal + d + side, 2 * d + np.arange(3) - 1)
    leaving = (2 * edge + (side ^ on_external)).reshape(n_vertices, 3)
    arriving = leaving ^ 1  # the same edge traversed the other way

    # directed edges and slots
    dir_length = np.repeat(edge_length, 2)
    slot_base = np.cumsum(dir_length) - dir_length
    slot_last = slot_base + dir_length - 1
    dim = int(dir_length.sum())
    in_slot = slot_last[arriving]
    out_slot = slot_base[leaving]
    out_phase = edge_phase[leaving // 2]

    # intra-edge advancement: every slot but the last of each directed edge
    adv_src = np.delete(np.arange(dim), slot_last)
    adv_dst = adv_src + 1

    # mirror terminations: the backward end of the left stub, then the forward
    # end of the right stub, each reflected into the opposite direction
    mirror_src = slot_last[[2 * n_internal + 1, 2 * n_edges - 2]]
    mirror_dst = slot_base[[2 * n_internal, 2 * n_edges - 1]]

    # Cell attribution of probability for observables.  Amplitude inside a
    # diamond belongs to that diamond's cell.  Amplitude travelling in a gap
    # between diamonds belongs to the diamond it is about to collide with
    # (left-movers to the left neighbour, right-movers to the right); this is
    # the only single-valued rule that both puts an injected photon wholly in
    # its target subsite's cell and keeps P(m, t) exactly mirror symmetric.
    # So a directed edge counts toward the cell of the vertex it runs into, or
    # at a mirror stub of the vertex it left; vertex v sits in cell v // 4.
    head = edge_vertex[:, ::-1].ravel()
    tail = edge_vertex.ravel()
    slot_cell = np.repeat(np.where(head >= 0, head, tail) // 4, dir_length)

    for arr in (edge_length, edge_phase, edge_kind, edge_vertex, slot_base, dir_length,
                leaving, arriving, in_slot, out_slot, out_phase, adv_src, adv_dst,
                mirror_src, mirror_dst, slot_cell, diamond_phi):
        arr.setflags(write=False)

    return LatticeGraph(
        spec=spec,
        n_cells=n_cells,
        n_diamonds=n_diamonds,
        n_vertices=n_vertices,
        vertex_matrix=vertex_unitary(spec.theta),
        diamond_phi=diamond_phi,
        edge_length=edge_length,
        edge_phase=edge_phase,
        edge_kind=edge_kind,
        edge_vertex=edge_vertex,
        slot_base=slot_base,
        dir_length=dir_length,
        dim=dim,
        leaving=leaving,
        arriving=arriving,
        in_slot=in_slot,
        out_slot=out_slot,
        out_phase=out_phase,
        adv_src=adv_src,
        adv_dst=adv_dst,
        mirror_src=mirror_src,
        mirror_dst=mirror_dst,
        slot_cell=slot_cell,
        cells=np.arange(-m_half, m_half + 1),
    )


@dataclass(frozen=True)
class AuditReport:
    counts: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _has_repeats(table: np.ndarray) -> bool:
    ordered = np.sort(table, axis=None)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def _fills_complement(ends: np.ndarray, mirror: np.ndarray) -> bool:
    """True iff the directed edges listed in ``ends`` are exactly those not in ``mirror``."""
    ends = ends.ravel()
    if np.any((ends < 0) | (ends >= mirror.size)):
        return False
    wired = np.zeros(mirror.size, dtype=bool)
    wired[ends] = True
    return bool(np.array_equal(wired, ~mirror))


def audit_graph(graph: LatticeGraph) -> AuditReport:
    """Structural audit: degrees, edge partition, chain linearity, counts.

    Returns counts and a list of violations; an intact graph reports none.
    """
    violations: list[str] = []
    n_directed = 2 * len(graph.edge_length)

    # every vertex has its three ports wired to distinct directed edges
    if graph.leaving.shape != (graph.n_vertices, 3):
        violations.append("leaving table has wrong shape")
    if np.any(graph.leaving < 0) or np.any(graph.arriving < 0):
        bad = np.argwhere(graph.leaving < 0).tolist() + np.argwhere(graph.arriving < 0).tolist()
        violations.append(f"unwired vertex ports at {bad[:5]}")
    if _has_repeats(graph.leaving):
        violations.append("a directed edge leaves more than one (vertex, port)")
    if _has_repeats(graph.arriving):
        violations.append("a directed edge arrives at more than one (vertex, port)")

    # directed edges not touching a vertex must be exactly the mirror ends;
    # directed edge 2e + direction has its tail at edge_vertex[e, direction]
    mirror_tailed = graph.edge_vertex.ravel() < 0
    mirror_headed = graph.edge_vertex[:, ::-1].ravel() < 0
    if not _fills_complement(graph.leaving, mirror_tailed):
        violations.append("directed-edge tails do not partition between vertices and mirrors")
    if not _fills_complement(graph.arriving, mirror_headed):
        violations.append("directed-edge heads do not partition between vertices and mirrors")
    n_mirrors = int(mirror_headed.sum())
    if n_mirrors != 2:
        violations.append(f"expected 2 mirror terminations, found {n_mirrors}")

    # every slot's probability is attributed to a cell of the chain
    if np.any((graph.slot_cell < 0) | (graph.slot_cell >= graph.n_cells)):
        violations.append("slot owner cell out of range")

    # chain linearity: external edge j joins vertex 2j - 1 to vertex 2j, left
    # to right, with mirrors beyond both ends
    external = np.flatnonzero(graph.edge_kind == KIND_EXTERNAL)
    rank = np.arange(external.size)
    expect = np.stack((2 * rank - 1, 2 * rank), axis=1)
    expect[-1:, 1] = -1
    wired = graph.edge_vertex[external]
    miswired = np.flatnonzero(np.any(wired != expect, axis=1))
    if miswired.size:
        lv, rv = wired[miswired[0]]
        violations.append(f"external edge {miswired[0]} wired to ({lv}, {rv})")

    expected_vertices = 4 * graph.n_cells  # four three-ports per cell
    expected_internal = 2 * graph.n_diamonds
    counts = {
        "cells": graph.n_cells,
        "diamonds": graph.n_diamonds,
        "vertices": graph.n_vertices,
        "internal_edges": int(np.sum(graph.edge_kind != KIND_EXTERNAL)),
        "external_edges": int(np.sum(graph.edge_kind == KIND_EXTERNAL)),
        "directed_edges": n_directed,
        "slots": graph.dim,
    }
    if counts["vertices"] != expected_vertices:
        violations.append(f"vertex count {counts['vertices']} != {expected_vertices}")
    if counts["diamonds"] != 2 * graph.n_cells:
        violations.append("diamond count mismatch")
    if counts["internal_edges"] != expected_internal:
        violations.append("internal edge count mismatch")
    if counts["external_edges"] != graph.n_diamonds + 1:
        violations.append("external edge count mismatch")

    return AuditReport(counts=counts, violations=tuple(violations))
