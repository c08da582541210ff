import dataclasses
import tracemalloc

import numpy as np
import pytest

from diamondwalk import (
    LatticeSpec,
    PhaseProfile,
    audit_graph,
    build_lattice,
)
from diamondwalk.lattice import _AUDIT_ROWS
from audit_oracle import step_table_violations
from step_oracle import directed, external_edge, slots, wiring

FIG5_PAIRS = ((1.5, 2.5), (3 * np.pi / 4, 0.0))


def small_graph(half_length=2, profile=None):
    if profile is None:
        profile = PhaseProfile.uniform(0.0, 0.0, half_length)
    return build_lattice(LatticeSpec(half_length=half_length, profile=profile))


def test_counts_m1():
    g = small_graph(half_length=1)
    report = audit_graph(g)
    assert report.ok
    assert report.counts["cells"] == 3
    assert report.counts["diamonds"] == 6
    assert report.counts["vertices"] == 12
    assert report.counts["internal_edges"] == 12
    # 5 connecting gaps plus the two mirror-terminated end stubs
    assert report.counts["external_edges"] == 7


def test_every_vertex_has_three_wired_ports():
    g = small_graph(half_length=1)
    assert np.all(g.in_slot >= 0) and np.all(g.out_slot >= 0)
    assert g.in_slot.shape == g.out_slot.shape == (2 * g.spec.n_diamonds, 3)
    assert g.port_c_phase.shape == (2 * g.spec.n_diamonds,)


def test_counts_m50():
    g = small_graph(half_length=50)
    report = audit_graph(g)
    assert report.ok
    assert report.counts["vertices"] == 4 * 101 == 404
    assert report.counts["diamonds"] == 2 * 101


def test_profile_maps_to_diamond_phases():
    profile = PhaseProfile.two_region(FIG5_PAIRS[0], FIG5_PAIRS[1], 2, boundary=0)
    g = small_graph(half_length=2, profile=profile)
    for m, expected in ((0, FIG5_PAIRS[0]), (1, FIG5_PAIRS[1]), (-2, FIG5_PAIRS[0])):
        for subsite, phi in zip("ab", expected):
            d = g.spec.diamond_index(m, subsite)
            # port C of both vertices writes the diamond's bottom edge
            assert g.port_c_phase[[2 * d, 2 * d + 1]] == pytest.approx(np.exp(1j * phi))


def test_shifted_edge_carries_the_phase():
    g = small_graph(half_length=1, profile=PhaseProfile.uniform(0.7, 0.7, 1))
    d = g.spec.diamond_index(0, "a")
    vertices = [2 * d, 2 * d + 1]
    # ports A and B write the external and top edges, which carry no phase;
    # port C writes the bottom edge
    assert g.port_c_phase[vertices] == pytest.approx(np.exp(0.7j))


def test_rebuild_is_deterministic():
    profile = PhaseProfile.two_region((1.5, 2.5), (0.4, 0.0), 3)
    a = build_lattice(LatticeSpec(half_length=3, profile=profile))
    b = build_lattice(LatticeSpec(half_length=3, profile=profile))
    tables = [f.name for f in dataclasses.fields(a) if isinstance(getattr(a, f.name), np.ndarray)]
    assert {"slot_cell", "in_slot", "vertex_matrix"} <= set(tables)
    for name in tables:
        # the graph is shared between walks
        assert not getattr(a, name).flags.writeable, name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_graph_fields_cannot_be_rebound():
    # read-only arrays protect a shared graph only if its fields stay bound to them
    g = small_graph(half_length=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.in_slot = g.in_slot.copy()


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_slot_cell_counts_gap_amplitude_toward_the_diamond_ahead(internal, external):
    spec = LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2),
                       internal_length=internal, external_length=external)
    g = build_lattice(spec)
    expected = np.empty(g.dim, dtype=int)
    for d in range(g.spec.n_diamonds):
        for e in (2 * d, 2 * d + 1):
            for direction in (0, 1):
                expected[slots(spec, directed(e, direction))] = d // 2
    for j in range(g.spec.n_diamonds + 1):
        e = external_edge(spec, j)
        expected[slots(spec, directed(e, 0))] = min(j, g.spec.n_diamonds - 1) // 2
        expected[slots(spec, directed(e, 1))] = max(j - 1, 0) // 2
    assert np.array_equal(g.slot_cell, expected)


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_step_tables_equal_the_wiring_restated_from_the_spec(internal, external):
    profile = PhaseProfile.two_region(FIG5_PAIRS[0], FIG5_PAIRS[1], 2, boundary=0)
    spec = LatticeSpec(half_length=2, profile=profile,
                       internal_length=internal, external_length=external)
    g = build_lattice(spec)
    tables = wiring(spec)
    out_phase = tables.pop("out_phase")
    for name, table in tables.items():
        assert getattr(g, name).dtype == table.dtype, name
        assert np.array_equal(getattr(g, name), table), name
    # the graph keeps only port C's phase: ports A and B enter unshifted edges
    assert g.port_c_phase.dtype == out_phase.dtype
    assert np.array_equal(g.port_c_phase, out_phase[:, 2])
    assert np.all(out_phase[:, :2] == 1.0)


def test_rejects_profile_not_covering_chain():
    profile = PhaseProfile(((-1, 1, 0.0, 0.0),))
    with pytest.raises(ValueError, match="does not cover"):
        build_lattice(LatticeSpec(half_length=3, profile=profile))


def test_profile_skips_a_region_wholly_outside_the_chain():
    # listed after the covering region, so writing it clipped would overwrite cells -8..7
    profile = PhaseProfile(((-8, 8, 1.0, 2.0), (-100, -10, 9.0, 9.0)))
    phi_a, phi_b = profile.phases(8)
    assert np.all(phi_a == 1.0) and np.all(phi_b == 2.0)


def test_profile_rejects_an_empty_region_list():
    with pytest.raises(ValueError, match="at least one region"):
        PhaseProfile(())


def test_profile_rejects_overlap_and_empty_range():
    with pytest.raises(ValueError, match="overlap"):
        PhaseProfile(((-2, 0, 0.0, 0.0), (0, 2, 1.0, 1.0)))
    with pytest.raises(ValueError, match="empty"):
        PhaseProfile(((2, 1, 0.0, 0.0),))
    with pytest.raises(ValueError, match="finite"):
        PhaseProfile(((0, 1, np.nan, 0.0),))


def test_spec_validation():
    profile = PhaseProfile.uniform(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        LatticeSpec(half_length=0, profile=profile)
    with pytest.raises(ValueError):
        LatticeSpec(half_length=1, profile=profile, external_length=0)


def test_audit_clean_on_m5():
    report = audit_graph(small_graph(half_length=5))
    assert report.ok
    assert report.violations == ()


def test_audit_peak_memory_holds_one_check_at_a_time():
    # numpy reports its buffers to tracemalloc.  The bijection check holds a
    # byte per slot for the ends, one for the starts and one for comparing
    # them; the locality check one block of vertex rows' temporaries, whatever
    # the chain's length.  So at this length the audit's peak stays below one
    # int64 per slot
    half_length = 7000
    g = small_graph(half_length, profile=PhaseProfile.two_region(*FIG5_PAIRS, half_length))
    tracemalloc.start()
    try:
        report = audit_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < np.dtype(np.int64).itemsize * g.dim


def test_audit_flags_deleted_adjacency():
    g = small_graph(half_length=2)
    broken_in_slot = g.in_slot.copy()
    broken_in_slot[3, 1] = -1
    report = audit_graph(dataclasses.replace(g, in_slot=broken_in_slot))
    assert not report.ok
    assert "step slot tables point outside the state" in report.violations


def test_audit_flags_a_slot_written_twice_first():
    g = small_graph(half_length=2)
    out_slot = g.out_slot.copy()
    out_slot[1] = out_slot[0]
    report = audit_graph(dataclasses.replace(g, out_slot=out_slot))
    assert report.violations[0] == "a slot is read or written by more than one vertex port or mirror"


def test_audit_flags_a_slot_count_off_the_spec_first():
    g = small_graph(half_length=3)
    report = audit_graph(dataclasses.replace(g, slot_cell=g.slot_cell[:-1]))
    assert report.violations[0] == "141 slots, but the spec's layout has 142"


def test_audit_flags_slot_cell_out_of_range():
    g = small_graph(half_length=2)
    for bad_cell in (-1, g.spec.n_cells):
        broken_cells = g.slot_cell.copy()
        broken_cells[7] = bad_cell
        report = audit_graph(dataclasses.replace(g, slot_cell=broken_cells))
        assert not report.ok
        assert "slot owner cell out of range" in report.violations


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_corrupted_step_tables(internal, external):
    g = build_lattice(LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2),
                                  internal_length=internal, external_length=external))
    in_slot, out_slot, mirror_dst = g.in_slot.copy(), g.out_slot.copy(), g.mirror_dst.copy()
    in_slot[5, 1] = in_slot[3, 2]  # one edge end read twice, another never
    out_slot[4, 0] += 1  # a vertex writes one slot past an edge start
    mirror_dst[0] = g.mirror_src[0]  # the left mirror reflects into its own input
    for broken in (dataclasses.replace(g, in_slot=in_slot),
                   dataclasses.replace(g, out_slot=out_slot),
                   dataclasses.replace(g, mirror_dst=mirror_dst)):
        report = audit_graph(broken)
        assert not report.ok
        assert "step does not write every slot exactly once" in report.violations


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_a_wrong_output_phase(internal, external):
    profile = PhaseProfile.two_region(FIG5_PAIRS[0], FIG5_PAIRS[1], 2, boundary=0)
    g = build_lattice(LatticeSpec(half_length=2, profile=profile,
                                  internal_length=internal, external_length=external))
    message = ("port_c_phase differs from the phase of each vertex's diamond",)
    port_c_phase = g.port_c_phase.copy()
    port_c_phase[8] = 2.0  # not the phase of vertex 8's bottom edge, nor unimodular
    assert audit_graph(dataclasses.replace(g, port_c_phase=port_c_phase)).violations == message
    port_c_phase = g.port_c_phase.copy()
    port_c_phase[3] = g.port_c_phase[4]  # unimodular, but the next diamond's phase
    assert port_c_phase[3] != g.port_c_phase[3]
    assert audit_graph(dataclasses.replace(g, port_c_phase=port_c_phase)).violations == message


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_a_port_reading_another_edge(internal, external):
    g = build_lattice(LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2),
                                  internal_length=internal, external_length=external))
    # still a bijection of slots, but vertices 4 and 6 read each other's edges
    in_slot = g.in_slot.copy()
    in_slot[[4, 6]] = in_slot[[6, 4]]
    report = audit_graph(dataclasses.replace(g, in_slot=in_slot))
    assert report.violations == ("a vertex port or mirror does not read the edge it writes",)
    mirror_src = g.mirror_src[::-1].copy()
    report = audit_graph(dataclasses.replace(g, mirror_src=mirror_src))
    assert report.violations == ("a vertex port or mirror does not read the edge it writes",)
    # vertices 4 and 6 trade their whole wiring: every port still reads the
    # edge it writes, but each now writes the other's diamond
    out_slot = g.out_slot.copy()
    out_slot[[4, 6]] = out_slot[[6, 4]]
    report = audit_graph(dataclasses.replace(g, in_slot=in_slot, out_slot=out_slot))
    assert report.violations == ("a vertex port or mirror writes outside its diamond's window",)


# more vertex rows (8 M + 4) than one audit block, and a part-filled tail block
BLOCKED_HALF_LENGTH = 520


def two_region_graph(half_length, internal, external):
    return build_lattice(LatticeSpec(half_length=half_length,
                                     profile=PhaseProfile.two_region(*FIG5_PAIRS, half_length),
                                     internal_length=internal, external_length=external))


def corrupt(rng, table, dim):
    """``table`` with one entry made out of range, a duplicate of another
    entry, swapped with another entry, or moved by one slot."""
    table = table.copy()
    flat = table.reshape(-1)
    i = rng.integers(flat.size)
    j = (i + rng.integers(1, flat.size)) % flat.size  # any other entry
    kind = rng.integers(4)
    if kind == 0:
        flat[i] = rng.choice([-1 - rng.integers(3), dim + rng.integers(3)])
    elif kind == 1:
        flat[i] = flat[j]
    elif kind == 2:
        flat[[i, j]] = flat[[j, i]]
    else:
        flat[i] += rng.choice([-1, 1])
    return table


@pytest.mark.parametrize("half_length,internal,external",
                         [(2, 1, 1), (3, 2, 1), (BLOCKED_HALF_LENGTH, 1, 1),
                          (BLOCKED_HALF_LENGTH, 2, 1), (BLOCKED_HALF_LENGTH, 3, 2)])
def test_audit_matches_the_dense_table_oracle_on_corrupted_step_tables(half_length, internal,
                                                                       external):
    g = two_region_graph(half_length, internal, external)
    assert audit_graph(g).violations == step_table_violations(g) == ()
    rng = np.random.default_rng(half_length * 100 + internal * 10 + external)
    for _ in range(200):
        for name in ("in_slot", "out_slot", "mirror_src", "mirror_dst"):
            broken = dataclasses.replace(g, **{name: corrupt(rng, getattr(g, name), g.dim)})
            expected = step_table_violations(broken)
            assert expected, name  # every single-entry corruption is caught
            assert audit_graph(broken).violations == expected, name


def swapped(table, a, b):
    """``table`` with its entries at indices ``a`` and ``b`` exchanged."""
    table = table.copy()
    table[a], table[b] = table[b], table[a]
    return table


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_checks_the_tail_block_and_the_mirrors(internal, external):
    g = two_region_graph(BLOCKED_HALF_LENGTH, internal, external)
    rows = g.out_slot.shape[0]
    assert rows > _AUDIT_ROWS and rows % _AUDIT_ROWS >= 3  # the last 3 rows: the tail block
    last = g.spec.n_diamonds - 1
    reads = ("a vertex port or mirror does not read the edge it writes",)
    window = ("a vertex port or mirror writes outside its diamond's window",)
    cases = [
        # the last vertex's ports B and C read each other's edges
        (reads, dict(in_slot=swapped(g.in_slot, (-1, 1), (-1, 2)))),
        # each mirror reads the other's stub
        (reads, dict(mirror_src=g.mirror_src[::-1].copy())),
        # port A of the last diamond's left vertex trades wiring with port B
        # of the diamond before's right vertex, which then writes an internal
        # edge of the diamond before: only the window's upper bound fails
        (window, dict(in_slot=swapped(g.in_slot, (2 * last, 0), (2 * last - 1, 1)),
                      out_slot=swapped(g.out_slot, (2 * last, 0), (2 * last - 1, 1)))),
        # port A of the diamond before's right vertex trades wiring with port
        # B of the last diamond's left vertex, and so writes an edge of the
        # last diamond: only the window's lower bound fails
        (window, dict(in_slot=swapped(g.in_slot, (2 * last - 1, 0), (2 * last, 1)),
                      out_slot=swapped(g.out_slot, (2 * last - 1, 0), (2 * last, 1)))),
        # the two mirrors trade wiring: each reads and writes the far stub
        (window, dict(mirror_src=g.mirror_src[::-1].copy(),
                      mirror_dst=g.mirror_dst[::-1].copy())),
    ]
    for expected, tables in cases:
        broken = dataclasses.replace(g, **tables)
        assert step_table_violations(broken) == expected
        assert audit_graph(broken).violations == expected


def test_audit_flags_a_first_slot_never_written_and_a_last_slot_never_read():
    g = small_graph(half_length=2)
    message = ("step does not write every slot exactly once",)
    # vertex 0 writes the left mirror's output in place of slot 0, and the
    # left mirror writes nothing: every other slot is still written once
    out_slot = g.out_slot.copy()
    assert out_slot[0, 1] == 0
    out_slot[0, 1] = g.mirror_dst[0]
    broken = dataclasses.replace(g, out_slot=out_slot, mirror_dst=g.mirror_dst[1:])
    assert step_table_violations(broken) == audit_graph(broken).violations == message
    # the last vertex reads the right mirror's input in place of the state's
    # last slot, and the right mirror reads nothing: the last slot is no end
    in_slot = g.in_slot.copy()
    assert in_slot[-1, 0] == g.dim - 1
    in_slot[-1, 0] = g.mirror_src[1]
    broken = dataclasses.replace(g, in_slot=in_slot, mirror_src=g.mirror_src[:1])
    assert step_table_violations(broken) == audit_graph(broken).violations == message


def test_diamond_index_bounds():
    spec = LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2))
    with pytest.raises(ValueError):
        spec.diamond_index(3, "a")
    with pytest.raises(ValueError):
        spec.diamond_index(0, "c")


def test_diamond_index_names_the_subsites():
    spec = LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2))
    with pytest.raises(ValueError, match=r"one of \('a', 'b'\), got 'c'"):
        spec.diamond_index(0, "c")
