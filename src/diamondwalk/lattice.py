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
built.  The built :class:`LatticeGraph` adds only what the spec does not fix,
diamond 0's wiring and the mirrors; neither holds anything chain-sized.

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
free propagation is a shift by one slot; every diamond is wired alike, so
:func:`build_lattice` reads diamond 0's wiring off these views and each other
diamond's is the same moved by whole diamonds, the period :func:`_stride`
(``4 L_int`` slots on an internal edge, ``2 L_ext`` on an external one); and
the tests' oracle (``tests/step_oracle.py``) restates the wiring from the
spec alone.

Ports follow the (A, B, C) -> (0, 1, 2) convention: port A faces the external
edge, ports B and C the top and bottom internal edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .diamond import DEFAULT_CONVENTION
from .multiport import DEFAULT_THETA, _count, _integral, vertex_unitary

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
    checked when the spec is built; one may reach past a chain end.  The sizes
    and the region bounds are integers or integral floats, stored as ``int``;
    anything else raises :class:`ValueError` naming the field.
    """

    half_length: int
    regions: tuple[tuple[int, int, float, float], ...]
    internal_length: int = DEFAULT_CONVENTION.internal_length
    external_length: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_length", _count(self.half_length, "half_length", 1))
        for name in ("internal_length", "external_length"):
            object.__setattr__(self, name, _integral(getattr(self, name), f"{name} has a value"))
        if self.internal_length < 1 or self.external_length < 1:
            raise ValueError("edge lengths must be >= 1")
        if not self.regions:
            raise ValueError("profile needs at least one region")
        norm = tuple(
            (_integral(lo, what), _integral(hi, what), float(pa), float(pb))
            for region in self.regions for lo, hi, pa, pb in [region]
            for what in [f"region {tuple(region)!r} has a bound"]
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
        :class:`ValueError` for an unknown subsite, a cell that is not an
        integral number or one outside ``-M..M``."""
        if subsite not in SUBSITES:
            raise ValueError(f"subsite must be one of {SUBSITES}, got {subsite!r}")
        cell = _integral(cell, "cell has a value")
        if not -self.half_length <= cell <= self.half_length:
            raise ValueError(
                f"cell {cell} outside [-{self.half_length}, {self.half_length}]"
            )
        return 2 * (cell + self.half_length) + SUBSITES.index(subsite)


class _Rows(NamedTuple):
    """Diamonds ``lo .. hi``: their vertices' step-table rows and port-C
    phases (vertex ``2d + side`` in row ``2 (d - lo) + side``), and the cell
    of each slot of their internal edges and of external edges ``lo .. hi + 1``."""

    lo: int
    hi: int
    in_slot: np.ndarray  # (2 n, 3) last slot of the edge arriving at each port
    out_slot: np.ndarray  # (2 n, 3) first slot of the edge leaving each port
    port_c_phase: np.ndarray  # (2 n,) exp(i phi_d) port C applies on the bottom edge
    internal_cell: np.ndarray
    external_cell: np.ndarray


@dataclass(frozen=True)
class LatticeGraph:
    """The built chain: diamond 0's wiring, which every diamond repeats.

    Vertex ``2d + side`` (side 0 the left vertex) reads, per port (A, B, C),
    the slots ``in_template[side] + d * _stride(spec)`` and writes
    ``out_template[side] + d * _stride(spec)``: the last slot of an edge, and
    the first of the same edge traversed back, as the mirrors do; the walk
    shifts every other slot by one.  Port C enters the bottom edge, whose
    phase is ``exp(i phi)`` of the diamond's subsite in the region of
    ``spec.regions`` that holds its cell.  The spec gives the cells
    ``-M..M``, numbers the diamonds and fixes the period; ``dim`` is the
    state's slots.

    Nothing in it is chain-sized: :func:`_window` builds the rows of the
    diamonds a walk reaches into the graph's memo.  The fields cannot be
    rebound, every array, the memo's too, is read-only, and the memo and the
    last window served are replaced whole, never written, so a graph is safe
    to share between concurrent evolutions.  :func:`dataclasses.replace`
    gives an empty memo.
    """

    spec: LatticeSpec
    vertex_matrix: np.ndarray  # the 3x3 DEFAULT_THETA unitary every vertex shares
    in_template: np.ndarray  # (2, 3) the in_slot rows of diamond 0's vertices
    out_template: np.ndarray  # (2, 3) their out_slot rows
    mirror_src: np.ndarray  # (2,) last slots running into the left and right mirror
    mirror_dst: np.ndarray  # (2,) first slots they reflect into
    _memo: _Rows | None = field(default=None, init=False, repr=False, compare=False)
    _served: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def dim(self) -> int:
        return _n_internal(self.spec) + 2 * (self.spec.n_diamonds + 1) * self.spec.external_length


def _n_internal(spec: LatticeSpec) -> int:
    """Slots of the internal edges, which come first in a state: ``n_int``."""
    return 4 * spec.n_diamonds * spec.internal_length


def _stride(spec: LatticeSpec) -> np.ndarray:
    """The period: the slots the edge of each port (A, B, C) moves per
    diamond, ``(2 L_ext, 4 L_int, 4 L_int)``."""
    return np.array([2 * spec.external_length, 4 * spec.internal_length,
                     4 * spec.internal_length])


def _slot_cells(spec: LatticeSpec, slots: np.ndarray) -> np.ndarray:
    """The cell each of ``slots`` (an int array) counts toward.

    Amplitude in a diamond belongs to its cell, and in a gap to the diamond
    it is about to collide with (left-movers to the left neighbour), the only
    single-valued rule that puts an injected photon wholly in its subsite's
    cell and keeps P(m, t) exactly mirror symmetric.  At a mirror stub the
    amplitude counts toward the end diamond."""
    base = _n_internal(spec)
    edge, left = np.divmod((slots - base) // spec.external_length, 2)  # external edge, direction
    ahead = np.where(left == 1, np.maximum(edge - 1, 0), np.minimum(edge, spec.n_diamonds - 1))
    return np.where(slots >= base, ahead, slots // (4 * spec.internal_length)) // 2


def _rows(graph: LatticeGraph, lo: int, hi: int) -> _Rows:
    """The rows of diamonds ``lo .. hi``, read-only: template rows moved by the period."""
    spec = graph.spec
    shift = np.arange(lo, hi + 1)[:, None, None] * _stride(spec)
    # one phase per cell and subsite of the range; the spec covers each cell
    half, first = spec.half_length, lo // 2
    table = np.empty((hi // 2 - first + 1, 2), dtype=complex)
    # one exp per region and subsite: an element's bits do not depend on the
    # array it is exponentiated in
    phases = np.exp(1j * np.array([region[2:] for region in spec.regions]))
    for (r_lo, r_hi, _, _), phase in zip(spec.regions, phases):
        # clipped: a region outside the range writes no row
        table[max(r_lo + half - first, 0):max(r_hi + half + 1 - first, 0)] = phase
    internal, external, base = spec.internal_length, spec.external_length, _n_internal(spec)
    rows = _Rows(lo, hi, (graph.in_template + shift).reshape(-1, 3),
                 (graph.out_template + shift).reshape(-1, 3),
                 table.ravel()[lo - 2 * first : hi + 1 - 2 * first].repeat(2),
                 _slot_cells(spec, np.arange(4 * lo * internal, 4 * (hi + 1) * internal)),
                 _slot_cells(spec, np.arange(base + 2 * lo * external,
                                             base + 2 * (hi + 2) * external)))
    for arr in rows[2:]:
        arr.setflags(write=False)
    return rows


def _window(graph: LatticeGraph,
            window: tuple[int, int] | None) -> tuple[slice, slice, _Rows]:
    """The slots of diamonds ``window=(lo, hi)`` (the whole chain when None),
    rows ``lo .. hi`` of the internal view and rows ``lo .. hi + 1`` of the
    external view, each a contiguous range of the state, and their
    :class:`_Rows`, views of the graph's memo.  A window outside the memo
    replaces it with the window's own rows: ``evolve`` asks for its final
    window before its first record, and that holds every later one.  The
    last window served is kept with its views: a walk asks for each window
    several times.  Raises :class:`ValueError` for a bound that is not an
    integral number (a bool included) and unless ``0 <= lo <= hi <= n_diamonds - 1``."""
    spec = graph.spec
    last = spec.n_diamonds - 1
    lo, hi = (0, last) if window is None else window
    lo, hi = _integral(lo, "window has a bound"), _integral(hi, "window has a bound")
    served = graph._served
    if served is not None and served[0] == (lo, hi):
        return served[1]
    if not 0 <= lo <= hi <= last:
        raise ValueError(f"window {window} is not within diamonds 0 .. {last}")
    memo = graph._memo
    if memo is None or lo < memo.lo or hi > memo.hi:
        memo = _rows(graph, lo, hi)
        object.__setattr__(graph, "_memo", memo)  # replaced whole, never written
    internal, external = spec.internal_length, spec.external_length
    i, j, base = lo - memo.lo, hi + 1 - memo.lo, _n_internal(spec)
    result = (slice(4 * lo * internal, 4 * (hi + 1) * internal),
              slice(base + 2 * lo * external, base + 2 * (hi + 2) * external),
              _Rows(lo, hi, memo.in_slot[2 * i : 2 * j], memo.out_slot[2 * i : 2 * j],
                    memo.port_c_phase[2 * i : 2 * j],
                    memo.internal_cell[4 * i * internal : 4 * j * internal],
                    memo.external_cell[2 * i * external : 2 * (j + 1) * external]))
    object.__setattr__(graph, "_served", ((lo, hi), result))
    return result


def _lowest(spec: LatticeSpec, slots: np.ndarray) -> np.ndarray:
    """The lowest diamond whose window holds each slot (-1 for external edge 0)."""
    base = _n_internal(spec)
    return np.where(slots >= base, (slots - base) // (2 * spec.external_length) - 1,
                    slots // (4 * spec.internal_length))


def build_lattice(spec: LatticeSpec) -> LatticeGraph:
    """Describe the chain of ``spec`` by diamond 0's wiring, which the
    spec's period repeats, and the mirrors: a few small arrays at any chain
    length.  Rebuilding from an equal spec yields identical arrays."""
    internal, external, n_diamonds = spec.internal_length, spec.external_length, spec.n_diamonds
    # diamond 0's internal edges and external edges 0 and 1, and the stub n_d
    inner = np.arange(4 * internal).reshape(2, 2, internal)
    outer = _n_internal(spec) + np.arange(4 * external).reshape(2, 2, external)
    stub = outer[0] + 2 * n_diamonds * external

    # Rows [side, port].  Port A sits on external edge side, ports B, C on
    # the top and bottom edges.  A left vertex (side 0) writes forward into
    # its diamond and backward out of it, a right vertex the reverse; each
    # port reads the last slot of the edge it writes, traversed back.
    # Mirror terminations: the backward end of the left stub and the forward
    # end of the right stub, each reflected into the opposite direction.
    tables = dict(in_template=np.column_stack((outer[[0, 1], [0, 1], -1], inner[:, ::-1, -1].T)),
                  out_template=np.column_stack((outer[[0, 1], [1, 0], 0], inner[:, :, 0].T)),
                  mirror_src=np.array([outer[0, 1, -1], stub[0, -1]]),
                  mirror_dst=np.array([outer[0, 0, 0], stub[1, 0]]))
    for arr in tables.values():
        arr.setflags(write=False)
    return LatticeGraph(spec=spec, vertex_matrix=vertex_unitary(DEFAULT_THETA), **tables)


@dataclass(frozen=True)
class AuditReport:
    counts: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _reverse_ends(spec: LatticeSpec, starts: np.ndarray) -> np.ndarray:
    """Per slot: the last slot of the edge that holds it, traversed back."""
    base = _n_internal(spec)
    length = np.where(starts >= base, spec.external_length, spec.internal_length)
    offset = base * (starts >= base)
    edge = (starts - offset) // length
    return offset + (edge ^ 1) * length + length - 1


def _step_table_violations(graph: LatticeGraph) -> list[str]:
    """The step-table checks of :func:`audit_graph`, in its order."""
    spec, dim, base = graph.spec, graph.dim, _n_internal(graph.spec)
    n_diamonds, internal, external = spec.n_diamonds, spec.internal_length, spec.external_length
    templates, stride = (graph.in_template, graph.out_template), _stride(spec)
    period = ["a vertex is not wired as diamond 0's, moved onto its own diamond's edges"]
    if ([t.shape for t in (*templates, graph.mirror_src, graph.mirror_dst)]
            != [(2, 3), (2, 3), (2,), (2,)]):
        return period  # every check below relies on these shapes
    mirrors = np.concatenate((graph.mirror_src, graph.mirror_dst))
    # an entry is affine in the diamond: it lies between diamond 0's and the last's
    entries = np.concatenate([*templates, *(t + (n_diamonds - 1) * stride for t in templates)])
    if min(entries.min(), mirrors.min()) < 0 or max(entries.max(), mirrors.max()) >= dim:
        return ["step slot tables point outside the state"]
    # port A on external edges 0 and 1 (two periods), ports B and C on
    # diamond 0's edges (one)
    own_lo = np.array([base, 0, 0])
    if not all(np.all((own_lo <= t) & (t < own_lo + [2, 1, 1] * stride)) for t in templates):
        return period

    # So all diamonds' internal edges, and all external edges between two
    # diamonds, are read and written alike, but at the chain ends, on the
    # edges holding a mirror slot and on the edges after them (the shift
    # writes their first slot).  So the windows of the end diamonds and of
    # the diamonds around each mirror slot cover every case: the lowest
    # window of each run of them past diamond 0 holds edges of each kind
    # that no mirror slot touches.  Only the rows of diamonds next to those
    # windows read or write their slots and the slot before each.  The checks
    # count per slot, so a slot sampled twice counts alike each time; a
    # reader taken twice would read and write its slots twice.
    near = _lowest(spec, mirrors)[:, None] + [-1, 0, 1, 2]
    sampled = np.concatenate(([0, n_diamonds - 1], near.ravel()))
    sampled = sampled[(sampled >= 0) & (sampled < n_diamonds)]
    slots = np.sort(np.concatenate(
        ((sampled[:, None] * 4 * internal + np.arange(4 * internal)).ravel(),
         (base + sampled[:, None] * 2 * external + np.arange(4 * external)).ravel())))
    readers = sorted({d for d in (sampled[:, None] + [-2, -1, 0, 1]).ravel().tolist()
                      if 0 <= d < n_diamonds})
    shift = np.array(readers)[:, None, None] * stride
    ends = np.sort(np.concatenate(((graph.in_template + shift).ravel(), graph.mirror_src)))
    starts = np.sort(np.concatenate(((graph.out_template + shift).ravel(), graph.mirror_dst)))

    def count(table, at):  # occurrences of each slot of ``at`` in a sorted table
        return np.searchsorted(table, at, "right") - np.searchsorted(table, at, "left")

    n_ends, n_starts = count(ends, slots), count(starts, slots)
    violations = []
    if max(n_ends.max(), n_starts.max()) > 1:
        violations.append("a slot is read or written by more than one vertex port or mirror")
    written = n_starts + ((slots >= 1) & (count(ends, slots - 1) == 0))
    if n_ends[-1] != 1 or np.any(written != 1):  # slots[-1] is the state's last slot
        violations.append("step does not write every slot exactly once")
    if violations:
        return violations

    # every vertex writes within its own window, and diamond 0's stand for all
    if not (np.array_equal(graph.in_template, _reverse_ends(spec, graph.out_template))
            and np.array_equal(graph.mirror_src, _reverse_ends(spec, graph.mirror_dst))):
        violations.append("a vertex port or mirror does not read the edge it writes")
    # the end diamonds own the mirrors, each writing in its window
    offset = np.array([0, n_diamonds - 1]) - _lowest(spec, graph.mirror_dst)
    if np.any((offset < 0) | (offset > (graph.mirror_dst >= base))):
        violations.append("a vertex port or mirror writes outside its diamond's window")
    return violations


def audit_graph(graph: LatticeGraph) -> AuditReport:
    """Structural audit of the graph against the spec's slot layout.

    Checks that every vertex is wired as diamond 0's, moved onto its own
    diamond's edges; then that one sub-step is a bijection of slots
    (vertices and mirrors read distinct edge ends and write distinct edge
    starts, the last slot is an end, and the shift from a non-end at s - 1
    or a start writes each slot once) and local (each vertex port or mirror
    reads the last slot of the edge it writes, traversed back, within its
    diamond's window), on the few windows that stand for all.  The period
    and the phases are the spec's, which the graph does not restate.
    Returns the spec's counts and the violations; none for an intact graph.
    Its work and memory do not grow with the chain.
    """
    spec, n_diamonds = graph.spec, graph.spec.n_diamonds
    violations = _step_table_violations(graph)
    counts = {"cells": spec.n_cells, "diamonds": n_diamonds, "vertices": 2 * n_diamonds,
              "internal_edges": 2 * n_diamonds, "external_edges": n_diamonds + 1,
              "directed_edges": 2 * (3 * n_diamonds + 1), "slots": graph.dim}
    return AuditReport(counts=counts, violations=tuple(violations))
