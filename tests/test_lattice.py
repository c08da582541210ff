import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from diamondwalk import (
    LatticeSpec,
    audit_graph,
    build_lattice,
)
from diamondwalk.lattice import _AUDIT_ROWS
from audit_oracle import step_table_violations
from step_oracle import directed, external_edge, slots, wiring

FIG5_PAIRS = ((1.5, 2.5), (3 * np.pi / 4, 0.0))


def small_graph(half_length=2):
    return build_lattice(LatticeSpec.uniform(half_length, 0.0, 0.0))


def with_lengths(spec, internal, external):
    return dataclasses.replace(spec, internal_length=internal, external_length=external)


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
    g = build_lattice(LatticeSpec.two_region(2, FIG5_PAIRS[0], FIG5_PAIRS[1], boundary=0))
    for m, expected in ((0, FIG5_PAIRS[0]), (1, FIG5_PAIRS[1]), (-2, FIG5_PAIRS[0])):
        for subsite, phi in zip("ab", expected):
            d = g.spec.diamond_index(m, subsite)
            # port C of both vertices writes the diamond's bottom edge
            assert g.port_c_phase[[2 * d, 2 * d + 1]] == pytest.approx(np.exp(1j * phi))


def test_port_c_phase_has_the_bits_of_each_diamonds_own_exp():
    # the phases are exponentiated once per region, the same bits as one
    # exp per diamond
    rng = np.random.default_rng(30)
    bounds = np.sort(rng.choice(np.arange(-19, 20), 6, replace=False))
    regions = [(lo, hi - 1, *rng.uniform(-2 * np.pi, 2 * np.pi, 2))
               for lo, hi in zip([-20, *bounds], [*bounds, 21])]
    g = build_lattice(LatticeSpec(20, regions[::-1]))
    want = [np.exp(1j * phi) for lo, hi, *phis in regions for _ in range(lo, hi + 1)
            for phi in phis]
    assert g.port_c_phase.tobytes() == np.repeat(want, 2).tobytes()


def test_shifted_edge_carries_the_phase():
    g = build_lattice(LatticeSpec.uniform(1, 0.7, 0.7))
    d = g.spec.diamond_index(0, "a")
    vertices = [2 * d, 2 * d + 1]
    # ports A and B write the external and top edges, which carry no phase;
    # port C writes the bottom edge
    assert g.port_c_phase[vertices] == pytest.approx(np.exp(0.7j))


def test_rebuild_is_deterministic():
    a = build_lattice(LatticeSpec.two_region(3, (1.5, 2.5), (0.4, 0.0)))
    b = build_lattice(LatticeSpec.two_region(3, (1.5, 2.5), (0.4, 0.0)))
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
    spec = with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external)
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
    spec = with_lengths(LatticeSpec.two_region(2, *FIG5_PAIRS, boundary=0), internal, external)
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
    with pytest.raises(ValueError, match="does not cover"):
        LatticeSpec(half_length=3, regions=((-1, 1, 0.0, 0.0),))


@pytest.mark.parametrize("regions,missing", [
    (((-2, 3, 0.0, 0.0),), -3),  # the left end cell
    (((-3, -1, 0.0, 0.0), (1, 3, 1.0, 1.0)), 0),  # a cell between two regions
    (((-3, 0, 0.0, 0.0), (1, 2, 1.0, 1.0)), 3),  # the right end cell
    (((1, 3, 1.0, 1.0), (-3, -1, 0.0, 0.0), (-9, -5, 2.0, 2.0)), 0),  # listed out of order
])
def test_spec_names_the_first_uncovered_cell(regions, missing):
    with pytest.raises(ValueError) as exc:
        LatticeSpec(half_length=3, regions=regions)
    assert str(exc.value) == f"profile does not cover cell {missing} of [-3, 3]"


def test_spec_accepts_one_cell_regions_and_regions_past_the_ends():
    # each region ends on the cell the next one starts after; the outer two
    # reach past the chain's ends
    spec = LatticeSpec(3, ((-9, -2, 0.1, 0.2), (-1, -1, 0.3, 0.4), (0, 0, 0.5, 0.6),
                           (1, 9, 0.7, 0.8)))
    g = build_lattice(spec)
    for m, phases in ((-3, (0.1, 0.2)), (-2, (0.1, 0.2)), (-1, (0.3, 0.4)), (0, (0.5, 0.6)),
                      (1, (0.7, 0.8)), (3, (0.7, 0.8))):
        for subsite, phi in zip("ab", phases):
            d = spec.diamond_index(m, subsite)
            assert g.port_c_phase[2 * d] == pytest.approx(np.exp(1j * phi))


def test_spec_refuses_an_uncovered_chain_before_allocating_it():
    # numpy reports its buffers to tracemalloc: a check with a per-cell array
    # would peak at 16 bytes per cell and more, 224 KB here
    regions = ((-7000, -1, 0.0, 0.0), (1, 7000, 1.0, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not cover cell 0 of"):
            LatticeSpec(half_length=7000, regions=regions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_profile_skips_a_region_wholly_outside_the_chain():
    # listed after the covering regions, so writing it clipped would overwrite cells
    for outside in ((-100, -10, 9.0, 9.0), (10, 100, 9.0, 9.0)):
        g = build_lattice(LatticeSpec(8, ((-8, 0, 1.0, 2.0), (1, 8, 1.0, 2.0), outside)))
        assert g.port_c_phase[0::4] == pytest.approx(np.exp(1j)), outside  # a, left vertex
        assert g.port_c_phase[2::4] == pytest.approx(np.exp(2j)), outside  # b, left vertex


def test_spec_normalises_its_regions():
    spec = LatticeSpec(1, [(-1.0, 1, 0, 1)])
    assert spec.regions == ((-1, 1, 0.0, 1.0),)
    assert [type(v) for v in spec.regions[0]] == [int, int, float, float]
    assert spec == LatticeSpec.uniform(1, 0.0, 1.0)


@pytest.mark.parametrize("lo,hi", [(-3.0, 3.0), (np.int32(-3), np.int64(3)),
                                   (np.float64(-3.0), np.uint8(3))])
def test_spec_accepts_integral_float_and_numpy_integer_bounds(lo, hi):
    spec = LatticeSpec(3, ((lo, hi, 0.5, 1.5),))
    assert spec.regions == ((-3, 3, 0.5, 1.5),)
    assert [type(v) for v in spec.regions[0]] == [int, int, float, float]


@pytest.mark.parametrize("lo,hi,bad", [(-3.7, 3.9, -3.7), (-3, 3.5, 3.5), ("-3", 3, "'-3'"),
                                       (-3, "3", "'3'"), (-3, float("inf"), "inf"),
                                       (-3, float("nan"), "nan"), (True, 3, "True")])
def test_spec_refuses_a_bound_that_is_not_an_integral_number(lo, hi, bad):
    # int() would truncate -3.7 to -3 and read the string '3' as 3
    region = (lo, hi, 0.0, 0.0)
    with pytest.raises(ValueError, match=re.escape(
            f"region {region!r} has a bound {bad} that is not an integral number")):
        LatticeSpec(3, (region,))


def test_profile_rejects_an_empty_region_list():
    with pytest.raises(ValueError, match="at least one region"):
        LatticeSpec(2, ())


def test_profile_rejects_overlap_and_empty_range():
    with pytest.raises(ValueError, match="overlap"):
        LatticeSpec(2, ((-2, 0, 0.0, 0.0), (0, 2, 1.0, 1.0)))
    with pytest.raises(ValueError, match="empty"):
        LatticeSpec(2, ((2, 1, 0.0, 0.0),))
    with pytest.raises(ValueError, match="finite"):
        LatticeSpec(2, ((0, 1, np.nan, 0.0),))


def test_spec_validation():
    spec = LatticeSpec.uniform(1, 0.0, 0.0)
    with pytest.raises(ValueError, match="half_length must be >= 1"):
        LatticeSpec.uniform(0, 0.0, 0.0)
    with pytest.raises(ValueError, match="edge lengths must be >= 1"):
        dataclasses.replace(spec, external_length=0)
    with pytest.raises(ValueError, match="does not cover cell -2"):
        dataclasses.replace(spec, half_length=2)


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
    g = build_lattice(LatticeSpec.two_region(half_length, *FIG5_PAIRS))
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
    g = build_lattice(with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external))
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
    g = build_lattice(with_lengths(LatticeSpec.two_region(2, *FIG5_PAIRS, boundary=0),
                                   internal, external))
    message = ("port_c_phase differs from the phase of each vertex's diamond",)
    port_c_phase = g.port_c_phase.copy()
    port_c_phase[8] = 2.0  # not the phase of vertex 8's bottom edge, nor unimodular
    assert audit_graph(dataclasses.replace(g, port_c_phase=port_c_phase)).violations == message
    port_c_phase = g.port_c_phase.copy()
    port_c_phase[3] = g.port_c_phase[4]  # unimodular, but the next diamond's phase
    assert port_c_phase[3] != g.port_c_phase[3]
    assert audit_graph(dataclasses.replace(g, port_c_phase=port_c_phase)).violations == message
    # one phase too few or too many, and every entry there is still right
    for port_c_phase in (g.port_c_phase[:-1], np.append(g.port_c_phase, g.port_c_phase[-1]),
                         np.append(g.port_c_phase, g.port_c_phase[-2:])):
        assert audit_graph(dataclasses.replace(g, port_c_phase=port_c_phase)).violations == message


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_a_port_reading_another_edge(internal, external):
    g = build_lattice(with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external))
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
    return build_lattice(with_lengths(LatticeSpec.two_region(half_length, *FIG5_PAIRS),
                                      internal, external))


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
    spec = LatticeSpec.uniform(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        spec.diamond_index(3, "a")
    with pytest.raises(ValueError):
        spec.diamond_index(0, "c")


def test_diamond_index_names_the_subsites():
    spec = LatticeSpec.uniform(2, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"one of \('a', 'b'\), got 'c'"):
        spec.diamond_index(0, "c")
