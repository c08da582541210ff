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
from diamondwalk.lattice import _distinct
from audit_oracle import step_table_violations
from step_oracle import dense_tables, directed, external_edge, slots, wiring

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
    g = dense_tables(small_graph(half_length=1))
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
    g = dense_tables(build_lattice(LatticeSpec.two_region(2, *FIG5_PAIRS, boundary=0)))
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
    g = dense_tables(build_lattice(LatticeSpec(20, regions[::-1])))
    want = [np.exp(1j * phi) for lo, hi, *phis in regions for _ in range(lo, hi + 1)
            for phi in phis]
    assert g.port_c_phase.tobytes() == np.repeat(want, 2).tobytes()


def test_shifted_edge_carries_the_phase():
    g = dense_tables(build_lattice(LatticeSpec.uniform(1, 0.7, 0.7)))
    d = g.spec.diamond_index(0, "a")
    vertices = [2 * d, 2 * d + 1]
    # ports A and B write the external and top edges, which carry no phase;
    # port C writes the bottom edge
    assert g.port_c_phase[vertices] == pytest.approx(np.exp(0.7j))


def test_rebuild_is_deterministic():
    a = build_lattice(LatticeSpec.two_region(3, (1.5, 2.5), (0.4, 0.0)))
    b = build_lattice(LatticeSpec.two_region(3, (1.5, 2.5), (0.4, 0.0)))
    tables = [f.name for f in dataclasses.fields(a) if isinstance(getattr(a, f.name), np.ndarray)]
    # the period and the phases are the spec's, so the graph holds neither
    assert set(tables) == {"vertex_matrix", "in_template", "out_template", "mirror_src",
                           "mirror_dst"}
    for name in tables:
        # the graph is shared between walks
        assert not getattr(a, name).flags.writeable, name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_graph_fields_cannot_be_rebound():
    # read-only arrays protect a shared graph only if its fields stay bound to them
    g = small_graph(half_length=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.in_template = g.in_template.copy()


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_slot_cell_counts_gap_amplitude_toward_the_diamond_ahead(internal, external):
    spec = with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external)
    g = dense_tables(build_lattice(spec))
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
    g = dense_tables(build_lattice(spec))
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
    g = dense_tables(build_lattice(spec))
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
        g = dense_tables(build_lattice(LatticeSpec(8, ((-8, 0, 1.0, 2.0), (1, 8, 1.0, 2.0),
                                                       outside))))
        assert g.port_c_phase[0::4] == pytest.approx(np.exp(1j)), outside  # a, left vertex
        assert g.port_c_phase[2::4] == pytest.approx(np.exp(2j)), outside  # b, left vertex


def test_spec_normalises_its_regions():
    spec = LatticeSpec(1, [(-1.0, 1, 0, 1)])
    assert spec.regions == ((-1, 1, 0.0, 1.0),)
    assert [type(v) for v in spec.regions[0]] == [int, int, float, float]
    assert spec == LatticeSpec.uniform(1, 0.0, 1.0)
    sized = LatticeSpec(np.int64(1), spec.regions, 2.0, np.uint8(1))
    assert sized == spec
    assert [type(v) for v in (sized.half_length, sized.internal_length,
                              sized.external_length)] == [int, int, int]


@pytest.mark.parametrize("field", ["half_length", "internal_length", "external_length"])
@pytest.mark.parametrize("bad", [2.5, True, "3", None, float("nan")])
def test_spec_refuses_a_size_that_is_not_an_integral_number(field, bad):
    # before the range checks: 2.5 would otherwise pass them and fail in numpy
    sizes = {"half_length": 3, "internal_length": 2, "external_length": 1, field: bad}
    with pytest.raises(ValueError, match=re.escape(
            f"{field} has a value {bad!r} that is not an integral number")):
        LatticeSpec(regions=((-3, 3, 0.0, 0.0),), **sizes)


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


def test_distinct_equals_np_unique():
    rng = np.random.default_rng(7)
    cases = [rng.integers(-20, 20, size=n) for n in (2, 7, 50, 300)]
    cases += [np.array([], dtype=np.int64), np.array([5]), np.full(9, -3),
              np.arange(-4, 12), np.arange(6).repeat(3), np.array([[3, 1], [1, -2]])]
    for values in cases:
        want, got = np.unique(values), _distinct(values)
        assert got.dtype == want.dtype and got.shape == want.shape, values
        assert np.array_equal(got, want), values


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


def build_and_audit_peak(half_length):
    """The tracemalloc peak of building and auditing a fig5 chain."""
    spec = LatticeSpec.two_region(half_length, *FIG5_PAIRS)
    tracemalloc.start()
    try:
        report = audit_graph(build_lattice(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    return peak


def test_audit_peak_memory_holds_one_check_at_a_time():
    # numpy reports its buffers to tracemalloc.  The audit reads diamond 0's
    # wiring and the few windows it checks, so at half length 7000 (280k
    # slots) its peak is far below one byte per slot
    g = build_lattice(LatticeSpec.two_region(7000, *FIG5_PAIRS))
    tracemalloc.start()
    try:
        report = audit_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 64 * 1024 < g.dim


def test_build_and_audit_peak_memory_does_not_grow_with_the_chain():
    build_and_audit_peak(700)  # the first build imports and caches what it needs
    short, long = build_and_audit_peak(700), build_and_audit_peak(350_000)
    assert abs(long - short) <= 16 * 1024, (short, long)


def corrupted(graph, **tables):
    """``graph`` with the given fields replaced, and its dense tables."""
    broken = dataclasses.replace(graph, **tables)
    return broken, dense_tables(broken)


def test_audit_flags_deleted_adjacency():
    g = small_graph(half_length=2)
    in_template = g.in_template.copy()
    in_template[1, 1] = -1
    report = audit_graph(dataclasses.replace(g, in_template=in_template))
    assert not report.ok
    assert "step slot tables point outside the state" in report.violations


def test_audit_flags_a_slot_written_twice_first():
    # the left vertex writes the right vertex's slots too, on its own edges
    g = small_graph(half_length=2)
    out_template = g.out_template.copy()
    out_template[1] = out_template[0]
    broken, dense = corrupted(g, out_template=out_template)
    message = "a slot is read or written by more than one vertex port or mirror"
    assert audit_graph(broken).violations[0] == step_table_violations(dense)[0] == message


def test_audit_reports_a_mis_shaped_wiring_field_as_a_period_violation():
    # no dense tables can be built from such fields to judge them by; the
    # audit reports them instead of failing to broadcast
    g = small_graph(half_length=2)
    period = ("a vertex is not wired as diamond 0's, moved onto its own diamond's edges",)
    for name, value in (("in_template", g.in_template[:, :2]), ("in_template", g.in_template.ravel()),
                        ("out_template", g.out_template[:1]), ("mirror_src", g.mirror_src[:1]),
                        ("mirror_dst", np.append(g.mirror_dst, 0))):
        assert audit_graph(dataclasses.replace(g, **{name: value})).violations == period, name


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_corrupted_step_tables(internal, external):
    g = build_lattice(with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external))
    in_template = g.in_template.copy()
    out_template, mirror_dst = g.out_template.copy(), g.mirror_dst.copy()
    in_template[1, 1] = in_template[0, 2]  # one edge end read twice, another never
    out_template[0, 0] += 1  # a vertex writes one slot past an edge start
    mirror_dst[0] = g.mirror_src[0]  # the left mirror reflects into its own input
    for broken in (dataclasses.replace(g, in_template=in_template),
                   dataclasses.replace(g, out_template=out_template),
                   dataclasses.replace(g, mirror_dst=mirror_dst)):
        report = audit_graph(broken)
        assert not report.ok
        assert "step does not write every slot exactly once" in report.violations


def test_audit_ignores_the_phases_of_a_region_outside_the_chain():
    # such a region holds no vertex, so no table the walk reads changes
    spec = LatticeSpec(3, ((-3, 3, 0.5, 1.5), (4, 9, 1.0, 2.0), (-9, -4, 1.0, 2.0)))
    g = build_lattice(spec)
    other = build_lattice(LatticeSpec(3, spec.regions[:1] + ((4, 9, 2.0, 2.0), (-9, -4, 2.0, 2.0))))
    assert audit_graph(g).ok and audit_graph(other).ok
    assert dense_tables(other).port_c_phase.tobytes() == dense_tables(g).port_c_phase.tobytes()


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_flags_a_port_reading_another_edge(internal, external):
    g = build_lattice(with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), internal, external))
    reads = ("a vertex port or mirror does not read the edge it writes",)
    # still a bijection of slots, but each diamond's two vertices read each
    # other's edges, and then each mirror the other's stub
    for tables in (dict(in_template=g.in_template[::-1].copy()),
                   dict(mirror_src=g.mirror_src[::-1].copy())):
        broken, dense = corrupted(g, **tables)
        assert audit_graph(broken).violations == step_table_violations(dense) == reads
    # the mirrors trade their whole wiring: each reads the stub it writes, but
    # that is the far one, outside its end diamond's window
    broken, dense = corrupted(g, mirror_src=g.mirror_src[::-1].copy(),
                              mirror_dst=g.mirror_dst[::-1].copy())
    window = ("a vertex port or mirror writes outside its diamond's window",)
    assert audit_graph(broken).violations == step_table_violations(dense) == window


# a chain long enough that the audit checks only some of its windows
BLOCKED_HALF_LENGTH = 520
FIELDS = ("in_template", "out_template", "mirror_src", "mirror_dst")


def two_region_graph(half_length, internal, external):
    return build_lattice(with_lengths(LatticeSpec.two_region(half_length, *FIG5_PAIRS),
                                      internal, external))


def corrupt(rng, table, dim):
    """``table`` with one entry made out of range, a duplicate of another
    entry, swapped with another entry, moved by one slot, moved to any slot
    of the state, or moved by a few slots; never ``table`` itself."""
    while True:
        broken = table.copy()
        flat = broken.reshape(-1)
        i = rng.integers(flat.size)
        j = (i + rng.integers(1, flat.size)) % flat.size  # any other entry
        kind = rng.integers(6)
        if kind == 0:
            flat[i] = rng.choice([-1 - rng.integers(3), dim + rng.integers(3)])
        elif kind == 1:
            flat[i] = flat[j]
        elif kind == 2:
            flat[[i, j]] = flat[[j, i]]
        elif kind == 3:
            flat[i] += rng.choice([-1, 1])
        elif kind == 4:
            flat[i] = rng.integers(dim)
        else:
            flat[i] += rng.choice([-2, -1, 1, 2]) * rng.integers(2, 5)
        if not np.array_equal(broken, table):
            return broken


@pytest.mark.parametrize("half_length,internal,external",
                         [(2, 1, 1), (3, 2, 1), (BLOCKED_HALF_LENGTH, 1, 1),
                          (BLOCKED_HALF_LENGTH, 2, 1), (BLOCKED_HALF_LENGTH, 3, 2)])
def test_audit_matches_the_dense_table_oracle_on_corrupted_step_tables(half_length, internal,
                                                                       external):
    # each of diamond 0's wiring and the mirrors corrupted alone, and every
    # fifth case a second field too, judged on the whole chain's tables
    g = two_region_graph(half_length, internal, external)
    assert audit_graph(g).violations == step_table_violations(dense_tables(g)) == ()
    rng = np.random.default_rng(half_length * 100 + internal * 10 + external)
    for case in range(1000):
        tables = {FIELDS[case % len(FIELDS)]: None}
        if case % 5 == 4:
            tables[FIELDS[rng.integers(len(FIELDS))]] = None
        for name in tables:
            tables[name] = corrupt(rng, getattr(g, name), g.dim)
        broken, dense = corrupted(g, **tables)
        expected = step_table_violations(dense)
        assert expected or len(tables) > 1, tables  # every single-field corruption is caught
        assert audit_graph(broken).violations == expected, tables


@pytest.mark.parametrize("internal,external", [(1, 1), (2, 1), (3, 2)])
def test_audit_checks_the_tail_block_and_the_mirrors(internal, external):
    # the right chain end, the mirrors, and mirror slots moved into the bulk
    g = two_region_graph(BLOCKED_HALF_LENGTH, internal, external)
    last = g.dim - 1
    reads = ("a vertex port or mirror does not read the edge it writes",)
    window = ("a vertex port or mirror writes outside its diamond's window",)
    period = ("a vertex is not wired as diamond 0's, moved onto its own diamond's edges",)
    both = ("a slot is read or written by more than one vertex port or mirror",
            "step does not write every slot exactly once")
    middle = g.dim // 3  # a slot of a diamond in the bulk
    cases = [
        # the right vertices' ports B and C read each other's edges
        (reads, dict(in_template=swapped(g.in_template, (1, 1), (1, 2)))),
        # each mirror reads the other's stub
        (reads, dict(mirror_src=g.mirror_src[::-1].copy())),
        # the two mirrors trade wiring: each reads and writes the far stub
        (window, dict(mirror_src=g.mirror_src[::-1].copy(),
                      mirror_dst=g.mirror_dst[::-1].copy())),
        # port A of the left vertex reads port B's edge, an internal one,
        # each diamond 2 L_ext slots on, and so not its own diamond's
        (period, dict(in_template=with_entry(g.in_template, (0, 0), g.in_template[0, 1]))),
        # the right mirror reads the state's last slot, which the last right
        # vertex reads too, and no longer the end of the right stub
        (both, dict(mirror_src=np.array([g.mirror_src[0], last]))),
        # both mirrors read and write one slot of the bulk, twice over
        (both, dict(mirror_src=np.array([middle, middle]), mirror_dst=np.array([middle, middle]))),
    ]
    for expected, tables in cases:
        broken, dense = corrupted(g, **tables)
        assert step_table_violations(dense) == expected
        assert audit_graph(broken).violations == expected


def with_entry(table, index, value):
    """``table`` with its entry at ``index`` set to ``value``."""
    table = table.copy()
    table[index] = value
    return table


def swapped(table, a, b):
    """``table`` with its entries at indices ``a`` and ``b`` exchanged."""
    table = table.copy()
    table[a], table[b] = table[b], table[a]
    return table


def test_audit_flags_a_first_slot_never_written_and_a_last_slot_never_read():
    message = ("step does not write every slot exactly once",)
    # each diamond's left vertex writes its top edge's second slot for the
    # first: the state's first slot is never written, every other slot is
    g = small_graph(half_length=2)
    out_template = g.out_template.copy()
    assert out_template[0, 1] == 0 and g.spec.internal_length == 2
    out_template[0, 1] = 1
    broken, dense = corrupted(g, out_template=out_template)
    assert step_table_violations(dense) == audit_graph(broken).violations == message
    # each right vertex reads the second-to-last slot of its port A edge,
    # so the state's last slot is no end
    g = build_lattice(with_lengths(LatticeSpec.uniform(2, 0.0, 0.0), 2, 2))
    in_template = g.in_template.copy()
    assert dense_tables(g).in_slot[-1, 0] == g.dim - 1
    in_template[1, 0] -= 1
    broken, dense = corrupted(g, in_template=in_template)
    assert step_table_violations(dense) == audit_graph(broken).violations == message


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
