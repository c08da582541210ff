import dataclasses

import numpy as np
import pytest

from diamondwalk import (
    LatticeSpec,
    PhaseProfile,
    audit_graph,
    build_lattice,
)
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


def test_audit_flags_deleted_adjacency():
    g = small_graph(half_length=2)
    broken_in_slot = g.in_slot.copy()
    broken_in_slot[3, 1] = -1
    report = audit_graph(dataclasses.replace(g, in_slot=broken_in_slot))
    assert not report.ok
    assert "step slot tables point outside the state" in report.violations


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


def test_diamond_index_bounds():
    spec = LatticeSpec(half_length=2, profile=PhaseProfile.uniform(0.0, 0.0, 2))
    with pytest.raises(ValueError):
        spec.diamond_index(3, "a")
    with pytest.raises(ValueError):
        spec.diamond_index(0, "c")
