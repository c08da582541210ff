"""Independent oracles for the walk: slot addressing and the chain's wiring
from the spec, the one-sub-step operator assembled entry by entry, and the
plain full-chain sub-step, which reads the whole chain's tables as
:func:`dense_tables` materialises them.

The addressing helpers and :func:`wiring` restate the documented layout and
wiring of :mod:`diamondwalk.lattice` from
:class:`~diamondwalk.lattice.LatticeSpec` alone and read no table of the
graph: undirected edges are the internal edges ``2d`` (top) and ``2d + 1``
(bottom) of every diamond ``d``, then the external edges; directed edge
``2e + direction``; each directed edge owns as many consecutive slots as its
length, and slot bases are the cumulative sum of the lengths.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from diamondwalk.lattice import _window


def dense_tables(graph) -> SimpleNamespace:
    """The graph with its whole chain's rows materialised, as ``step`` reads
    them for the window of every diamond: ``in_slot``, ``out_slot`` and
    ``port_c_phase`` per vertex, ``slot_cell`` per slot, and the graph's
    ``spec``, ``dim``, mirrors and ``vertex_matrix``.  They are built on a
    copy of the graph, whose own memo stays as it was."""
    _, _, rows = _window(dataclasses.replace(graph), None)
    return SimpleNamespace(
        spec=graph.spec, dim=graph.dim, vertex_matrix=graph.vertex_matrix,
        in_slot=rows.in_slot, out_slot=rows.out_slot, port_c_phase=rows.port_c_phase,
        slot_cell=np.concatenate((rows.internal_cell, rows.external_cell)),
        mirror_src=graph.mirror_src, mirror_dst=graph.mirror_dst)


def external_edge(spec, j: int) -> int:
    """Undirected index of external edge j (0..n_diamonds); j enters diamond j."""
    return 2 * (2 * spec.n_cells) + j


def directed(edge: int, direction: int) -> int:
    return 2 * edge + direction


def slots(spec, directed_edge: int) -> slice:
    """Slots of a directed edge, in travel order."""
    n_internal_directed = 2 * external_edge(spec, 0)
    if directed_edge < n_internal_directed:
        base, length = directed_edge * spec.internal_length, spec.internal_length
    else:
        base = (n_internal_directed * spec.internal_length
                + (directed_edge - n_internal_directed) * spec.external_length)
        length = spec.external_length
    return slice(base, base + length)


def leaving(spec, vertex: int, port: int) -> int:
    """Directed edge leaving ``vertex`` through ``port`` (A, B, C = 0, 1, 2).

    Vertex ``2d + side`` sends port A onto external edge ``d + side``, outward
    from its diamond, and ports B and C onto the diamond's top and bottom
    edges, inward: a left vertex (side 0) sends left on its external edge and
    right on its internal edges, a right vertex the reverse.
    """
    d, side = divmod(vertex, 2)
    if port == 0:
        return directed(external_edge(spec, d + side), 1 - side)
    return directed(2 * d + port - 1, side)


def edge_phase(spec, edge: int) -> complex:
    """Phase of undirected edge ``edge``: ``exp(i phi)`` of its diamond's
    subsite on a bottom internal edge, 1 elsewhere.  The phase is read off the
    one region of ``spec.regions`` holding the diamond's cell."""
    if edge >= external_edge(spec, 0) or edge % 2 == 0:
        return 1.0
    position, subsite = divmod(edge // 2, 2)
    cell = position - spec.half_length
    (region,) = [r for r in spec.regions if r[0] <= cell <= r[1]]
    return np.exp(1j * region[2 + subsite])


def wiring(spec) -> dict:
    """The step tables restated from the spec: each port reads the last slot
    of the edge it sends on, traversed the other way, and writes the first
    slot of that edge times its phase; each mirror reads the last slot of the
    stub running into it and writes the first slot of the reverse stub."""
    n_vertices = 4 * spec.n_cells
    in_slot = np.empty((n_vertices, 3), dtype=int)
    out_slot = np.empty((n_vertices, 3), dtype=int)
    out_phase = np.empty((n_vertices, 3), dtype=complex)
    for v in range(n_vertices):
        for port in range(3):
            de = leaving(spec, v, port)
            in_slot[v, port] = slots(spec, de ^ 1).stop - 1
            out_slot[v, port] = slots(spec, de).start
            out_phase[v, port] = edge_phase(spec, de // 2)
    # the left stub's leftward end and the right stub's rightward end
    into_mirror = [directed(external_edge(spec, 0), 1),
                   directed(external_edge(spec, 2 * spec.n_cells), 0)]
    return {
        "in_slot": in_slot,
        "out_slot": out_slot,
        "out_phase": out_phase,
        "mirror_src": np.array([slots(spec, de).stop - 1 for de in into_mirror]),
        "mirror_dst": np.array([slots(spec, de ^ 1).start for de in into_mirror]),
    }


def plain_step(amplitudes: np.ndarray, graph) -> np.ndarray:
    """One sub-step of the whole chain with no window: shift every slot by
    one, then the vertex scatter and the mirrors overwrite the first slot of
    every edge."""
    graph = dense_tables(graph)
    new = np.empty_like(amplitudes)
    new[1:] = amplitudes[:-1]
    outgoing = amplitudes[graph.in_slot] @ graph.vertex_matrix.T
    outgoing[:, 2] *= graph.port_c_phase
    new[graph.out_slot] = outgoing
    new[graph.mirror_dst] = -amplitudes[graph.mirror_src]
    return new


def assemble_step_operator(graph) -> sp.csr_matrix:
    """Explicit one-sub-step operator over the slot basis.

    Built entry by entry from the spec's slot layout and the :func:`wiring`
    restated from the spec (an independent code path from
    :func:`diamondwalk.walk.step`, which reads the graph's slot tables):
    intra-edge advancement contributes 1s, each vertex contributes a 3x3
    unitary block from the final slots of its incoming edges to the first
    slots of its outgoing edges (times the entered edge's phase), and each
    mirror contributes a -1 from the end of the edge running into it to the
    start of the reverse edge.  The result is unitary in the slot basis.
    Loops in Python, so keep graphs small.
    """
    spec = graph.spec
    n_directed = 2 * (external_edge(spec, 2 * spec.n_cells) + 1)
    dim = slots(spec, n_directed - 1).stop
    tables = wiring(spec)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []

    for de in range(n_directed):
        span = slots(spec, de)
        for s in range(span.start, span.stop - 1):
            rows.append(s + 1)
            cols.append(s)
            vals.append(1.0)

    u = graph.vertex_matrix
    for v in range(4 * spec.n_cells):
        for p_in in range(3):
            for p_out in range(3):
                rows.append(tables["out_slot"][v, p_out])
                cols.append(tables["in_slot"][v, p_in])
                vals.append(u[p_out, p_in] * tables["out_phase"][v, p_out])

    for src, dst in zip(tables["mirror_src"], tables["mirror_dst"]):
        rows.append(dst)
        cols.append(src)
        vals.append(-1.0)

    return sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(dim, dim))
