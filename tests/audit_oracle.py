"""Independent oracle for the audit's step-table checks: dense per-slot tables.

The bijection check counts how often each slot is read and written with one
``np.bincount`` per table set; the locality check writes each edge start's
reverse edge end and each slot's lowest window diamond into ``dim``-sized
tables through the slot layout's views of ``np.arange(dim)``, then gathers
them at the written slots.  :func:`diamondwalk.lattice.audit_graph` marks one
byte per slot and works the layout out a block of vertex rows at a time
instead; the tests require the two to report the same violations.
"""

import numpy as np

from diamondwalk.lattice import _slot_views


def _multiplicity(table: np.ndarray, size: int) -> np.ndarray | None:
    """How often each of ``0 .. size - 1`` occurs in ``table``; None if an entry is out of range."""
    flat = table.ravel()
    if np.any((flat < 0) | (flat >= size)):
        return None
    return np.bincount(flat, minlength=size)


def bijection_violations(graph) -> list[str]:
    """Vertices and mirrors read distinct edge ends and write distinct edge
    starts, the last slot is an end, and every slot is written exactly once,
    by a start or by the shift from a non-end at s - 1."""
    ends = _multiplicity(np.concatenate((graph.in_slot.ravel(), graph.mirror_src)), graph.dim)
    starts = _multiplicity(np.concatenate((graph.out_slot.ravel(), graph.mirror_dst)), graph.dim)
    if ends is None or starts is None:
        return ["step slot tables point outside the state"]
    violations = []
    if max(ends.max(), starts.max()) > 1:
        violations.append("a slot is read or written by more than one vertex port or mirror")
    written = starts.copy()
    written[1:] += ends[:-1] == 0
    if ends[-1] != 1 or np.any(written != 1):
        violations.append("step does not write every slot exactly once")
    return violations


def locality_violations(graph) -> list[str]:
    """A vertex port or mirror reads the last slot of the edge it writes,
    traversed the other way, and writes that edge's first slot, within its
    own diamond's window."""
    spec = graph.spec
    n_diamonds = spec.n_diamonds
    violations = []
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
    return violations


def step_table_violations(graph) -> tuple[str, ...]:
    """The audit's step-table violations in its order: the bijection's, then,
    if there are none and every vertex row is whole, the locality's."""
    violations = bijection_violations(graph)
    if not violations and graph.out_slot.size == 6 * graph.spec.n_diamonds:
        violations += locality_violations(graph)
    return tuple(violations)
