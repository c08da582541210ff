"""Independent oracles for the walk: slot addressing from the spec, the
one-sub-step operator assembled entry by entry, and the plain full-chain
sub-step.

The addressing helpers restate the documented layout of
:mod:`diamondwalk.lattice` from :class:`~diamondwalk.lattice.LatticeSpec`
alone and read none of the graph's slot tables: undirected edges are the
internal edges ``2d`` (top) and ``2d + 1`` (bottom) of every diamond ``d``,
then the external edges; directed edge ``2e + direction``; each directed edge
owns as many consecutive slots as its length, and slot bases are the
cumulative sum of the lengths.
"""

import numpy as np
import scipy.sparse as sp


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


def plain_step(amplitudes: np.ndarray, graph) -> np.ndarray:
    """One sub-step of the whole chain with no window: shift every slot by
    one, then the vertex scatter and the mirrors overwrite the first slot of
    every edge."""
    new = np.empty_like(amplitudes)
    new[1:] = amplitudes[:-1]
    new[graph.out_slot] = (amplitudes[graph.in_slot] @ graph.vertex_matrix.T) * graph.out_phase
    new[graph.mirror_dst] = -amplitudes[graph.mirror_src]
    return new


def assemble_step_operator(graph) -> sp.csr_matrix:
    """Explicit one-sub-step operator over the slot basis.

    Built entry by entry from the spec's slot layout, the vertex port wiring
    ``leaving``, the edge phases and the mirror-marked ``edge_vertex`` (an
    independent code path from :func:`diamondwalk.walk.step`, which reads the
    graph's slot tables): intra-edge advancement contributes 1s, each vertex
    contributes a 3x3 unitary block between the final slots of its incoming
    edges (``leaving ^ 1``) and the first slots of its outgoing edges (times
    the entered edge's phase), and each mirror contributes a -1 from the end
    of the edge running into it to the start of the reverse edge.  The result
    is unitary in the slot basis.  Loops in Python, so keep graphs small.
    """
    spec = graph.spec
    n_directed = 2 * (external_edge(spec, 2 * spec.n_cells) + 1)
    dim = slots(spec, n_directed - 1).stop
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
    for v in range(graph.n_vertices):
        for p_in in range(3):
            src = slots(spec, int(graph.leaving[v, p_in]) ^ 1).stop - 1
            for p_out in range(3):
                de_out = int(graph.leaving[v, p_out])
                rows.append(slots(spec, de_out).start)
                cols.append(src)
                vals.append(u[p_out, p_in] * graph.edge_phase[de_out // 2])

    # directed edge 2e + direction runs into edge_vertex[e, 1 - direction]
    for e, direction in np.argwhere(graph.edge_vertex[:, ::-1] < 0):
        rows.append(slots(spec, directed(e, 1 - direction)).start)
        cols.append(slots(spec, directed(e, direction)).stop - 1)
        vals.append(-1.0)

    return sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(dim, dim))
