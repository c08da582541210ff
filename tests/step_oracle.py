"""Independent oracle for the walk: the one-sub-step operator assembled entry by entry."""

import numpy as np
import scipy.sparse as sp


def assemble_step_operator(graph) -> sp.csr_matrix:
    """Explicit one-sub-step operator over the slot basis.

    Built entry by entry from the edge tables (an independent code path from
    :func:`diamondwalk.walk.step`): intra-edge advancement contributes 1s,
    each vertex contributes a 3x3 unitary block between the final slots of its
    incoming edges and the first slots of its outgoing edges (times the
    entered edge's phase), and each mirror contributes a -1.  The result is
    unitary in the slot basis.  Loops in Python, so keep graphs small.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []

    n_edges = len(graph.edge_length)
    for e in range(n_edges):
        for direction in (0, 1):
            de = graph.directed(e, direction)
            span = graph.slots(de)
            for s in range(span.start, span.stop - 1):
                rows.append(s + 1)
                cols.append(s)
                vals.append(1.0)

    u = graph.vertex_matrix
    for v in range(graph.n_vertices):
        for p_in in range(3):
            src = int(graph.in_slot[v, p_in])
            for p_out in range(3):
                de_out = int(graph.leaving[v, p_out])
                dst = int(graph.slot_base[de_out])
                rows.append(dst)
                cols.append(src)
                vals.append(u[p_out, p_in] * graph.edge_phase[de_out // 2])

    for src, dst in zip(graph.mirror_src, graph.mirror_dst):
        rows.append(int(dst))
        cols.append(int(src))
        vals.append(-1.0)

    return sp.csr_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(graph.dim, graph.dim)
    )
