import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from diamondwalk import (
    LatticeSpec,
    LightConeOverflow,
    auto_half_length,
    build_lattice,
    evolve,
    initial_state,
    step,
)
from diamondwalk import lattice, walk
from diamondwalk.lattice import _window_cells
from diamondwalk.walk import WalkState, cell_probabilities
from step_oracle import (assemble_step_operator, dense_tables, directed, external_edge,
                         plain_step, slots)

FIG5_LEFT = (1.5, 2.5)
FIG5_RIGHT = (3 * np.pi / 4, 0.0)
# (internal, external) edge lengths in sub-steps; (2, 1) is the default
EDGE_LENGTHS = [(1, 1), (2, 1), (3, 2)]


def graph_for(spec, internal=2, external=1):
    """The chain of ``spec``, or of uniform phases 0 if ``spec`` is a half
    length, with the given edge lengths."""
    if not isinstance(spec, LatticeSpec):
        spec = LatticeSpec.uniform(spec, 0.0, 0.0)
    return build_lattice(dataclasses.replace(spec, internal_length=internal,
                                             external_length=external))


def boundary_graph(half_length):
    return graph_for(LatticeSpec.two_region(half_length, FIG5_LEFT, FIG5_RIGHT, boundary=0))


def test_initial_state_probability_and_norm():
    g = graph_for(4)
    state = initial_state(g, 0, "a", "right")
    p = cell_probabilities(g, state)
    assert p[g.spec.half_length] == pytest.approx(1.0, abs=1e-15)
    assert np.delete(p, g.spec.half_length).max() == 0.0
    assert np.sqrt(np.sum(np.abs(state.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_initial_state_sits_one_substep_before_its_diamond(internal, external):
    g = graph_for(3, internal=internal, external=external)
    for cell in range(-3, 4):
        for subsite in ("a", "b"):
            d = g.spec.diamond_index(cell, subsite)
            for direction, edge, sense, vertex in (("right", d, 0, 2 * d),
                                                   ("left", d + 1, 1, 2 * d + 1)):
                state = initial_state(g, cell, subsite, direction)
                expected = np.zeros(g.dim, dtype=complex)
                expected[slots(g.spec, directed(external_edge(g.spec, edge), sense)).stop - 1] = 1.0
                assert np.array_equal(state.amplitudes, expected)
                after = step(state, g)
                support = np.flatnonzero(after.amplitudes)
                assert np.array_equal(support, np.sort(dense_tables(g).out_slot[vertex]))


@pytest.mark.parametrize("cell,subsite", [(5, "a"), (-5, "b")])
def test_initial_state_rejects_out_of_range(cell, subsite):
    g = graph_for(4)
    with pytest.raises(ValueError):
        initial_state(g, cell, subsite, "right")


def test_initial_state_rejects_bad_direction():
    g = graph_for(2)
    with pytest.raises(ValueError):
        initial_state(g, 0, "a", "up")


def test_single_step_preserves_norm():
    g = boundary_graph(4)
    state = initial_state(g, 0, "a", "right")
    after = step(state, g)
    assert abs(np.sqrt(np.sum(np.abs(after.amplitudes) ** 2)) - 1.0) <= 1e-12


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_step_operator_unitary_and_magnitude_sums(internal, external):
    g = graph_for(2, internal=internal, external=external)
    op = assemble_step_operator(g).toarray()
    assert np.abs(op.conj().T @ op - np.eye(g.dim)).max() <= 1e-12
    mags = np.abs(op) ** 2
    assert np.abs(mags.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(mags.sum(axis=1) - 1.0).max() <= 1e-12


# an injection, and a seeded random state whose full support sends every slot
# through the shift or a vertex, including slot 0, the last slot and every
# edge boundary
STEP_STARTS = [(i, e, None) for i, e in EDGE_LENGTHS] + [(i, e, 2017) for i, e in EDGE_LENGTHS]


@pytest.mark.parametrize("internal,external,seed", STEP_STARTS,
                         ids=[f"{i}-{e}" + ("" if seed is None else "-random")
                              for i, e, seed in STEP_STARTS])
def test_step_matches_operator_powers_20_steps(internal, external, seed):
    g = graph_for(LatticeSpec.two_region(2, FIG5_LEFT, FIG5_RIGHT, boundary=0), internal, external)
    op = assemble_step_operator(g)
    if seed is None:
        state = initial_state(g, 0, "a", "right")
    else:
        rng = np.random.default_rng(seed)
        amplitudes = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        state = WalkState(amplitudes=amplitudes / np.linalg.norm(amplitudes))
    vec = state.amplitudes.copy()
    worst = 0.0
    for _ in range(20):
        plain = plain_step(state.amplitudes, g)
        state = step(state, g)
        assert np.array_equal(state.amplitudes.view(np.int64), plain.view(np.int64))
        vec = op @ vec
        worst = max(worst, np.abs(state.amplitudes - vec).max())
    assert worst <= 1e-12


def test_state_from_another_graph_is_rejected():
    small, large = graph_for(5), graph_for(6)
    state = initial_state(large, 0, "a", "right")
    with pytest.raises(ValueError, match="another graph"):
        evolve(state, small, 3)
    with pytest.raises(ValueError, match="another graph"):
        step(state, small)
    for foreign in (state, WalkState(amplitudes=np.ones(small.dim - 1, dtype=complex))):
        with pytest.raises(ValueError, match="another graph"):
            cell_probabilities(small, foreign)


def test_step_rejects_an_out_sharing_memory_with_the_input():
    g = graph_for(2)
    rng = np.random.default_rng(2017)
    backing = rng.normal(size=g.dim + 1) + 1j * rng.normal(size=g.dim + 1)
    kept = backing.copy()
    state = WalkState(amplitudes=backing[: g.dim])
    for out in (state.amplitudes, state.amplitudes[:], backing[1:]):
        with pytest.raises(ValueError, match="share memory"):
            step(state, g, out=out)
    assert np.array_equal(backing.view(np.int64), kept.view(np.int64))  # nothing written


def test_a_state_or_out_that_is_not_complex128_of_the_graph_is_rejected():
    # a float array would keep only the real parts and lose probability
    g = graph_for(3)
    state = initial_state(g, 0, "a", "right")
    real = WalkState(amplitudes=state.amplitudes.real.copy())
    with pytest.raises(ValueError, match="dtype float64, not complex128"):
        step(real, g)
    with pytest.raises(ValueError, match="dtype float64, not complex128"):
        evolve(real, g, 3)
    with pytest.raises(ValueError, match="dtype float64, not complex128"):
        cell_probabilities(g, real)
    for out in (np.full(g.dim, np.nan), np.full(g.dim, np.nan, dtype=np.complex64),
                np.full(g.dim + 5, np.nan, dtype=complex)):
        with pytest.raises(ValueError, match=re.escape(f"dtype {out.dtype} and shape {out.shape}")):
            step(state, g, out=out)
        assert np.isnan(out).all()  # nothing written


def plain_records(state, graph, n_record):
    """The full-chain walk: each slot's ``|amplitude|^2`` summed per cell
    after every ``substeps_per_hop`` calls of ``plain_step``, up to record
    ``n_record`` or the first record whose end cells hold over 1e-9; returns
    the rows and the overflow message (None if there was none)."""
    amplitudes, slot_cell = state.amplitudes, dense_tables(graph).slot_cell
    rows = []
    while True:
        rows.append(np.bincount(slot_cell, weights=np.abs(amplitudes) ** 2,
                                minlength=graph.spec.n_cells))
        leak = rows[-1][0] + rows[-1][-1]
        if leak > 1e-9:
            return np.array(rows), f"end-cell probability {leak:.3e} at record {len(rows) - 1};"
        if len(rows) > n_record:
            return np.array(rows), None
        for _ in range(graph.spec.substeps_per_hop):
            amplitudes = plain_step(amplitudes, graph)


def window_mask(spec, lo, hi):
    """Slots of diamonds lo..hi: their internal edges and external edges lo..hi+1."""
    mask = np.zeros(slots(spec, directed(external_edge(spec, 2 * spec.n_cells), 1)).stop, bool)
    mask[slots(spec, directed(2 * lo, 0)).start : slots(spec, directed(2 * hi + 1, 1)).stop] = True
    mask[slots(spec, directed(external_edge(spec, lo), 0)).start
         : slots(spec, directed(external_edge(spec, hi + 1), 1)).stop] = True
    return mask


def assert_evolve_matches_plain(state, graph, n_record):
    """``evolve`` gives the plain walk's rows, and the full-width formulas'
    mean, sigma and boundary probability on those rows, bit for bit, or
    raises the plain walk's overflow at the same record with the same
    message."""
    before = state.amplitudes.copy()
    rows, overflow = plain_records(state, graph, n_record)
    if overflow is not None:
        with pytest.raises(LightConeOverflow, match=re.escape(overflow)):
            evolve(state, graph, n_record)
        rows = rows[:-1]
    if len(rows):
        obs = evolve(state, graph, len(rows) - 1)
        half = graph.spec.half_length
        m = np.arange(-half, half + 1).astype(float)
        total = rows.sum(axis=1)
        mean = (rows * m).sum(axis=1) / total
        var = (rows * m**2).sum(axis=1) / total - mean**2
        for got, want in ((obs.p_cell, rows), (obs.mean, mean),
                          (obs.sigma, np.sqrt(np.maximum(var, 0.0))),
                          (obs.p_boundary, rows[:, half - 1 : half + 2].sum(axis=1))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(state.amplitudes, before)


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_windowed_evolve_matches_plain_walk_on_random_chains(internal, external):
    rng = np.random.default_rng(internal * 10 + external)
    for _ in range(4):
        half = int(rng.integers(3, 25))
        spec = LatticeSpec.two_region(half, tuple(rng.uniform(0, 2 * np.pi, 2)),
                                      tuple(rng.uniform(0, 2 * np.pi, 2)),
                                      boundary=int(rng.integers(-half, half)))
        g = graph_for(spec, internal, external)
        state = initial_state(g, int(rng.integers(1 - half, half)), str(rng.choice(["a", "b"])),
                              str(rng.choice(["left", "right"])))
        assert_evolve_matches_plain(state, g, int(rng.integers(1, 2 * half + 8)))


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_windowed_walk_matches_plain_walk_next_to_the_chain_ends(internal, external):
    # the window reaches a chain end on the first sub-step, so the mirrors run
    half = 12
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    last = g.spec.n_diamonds - 1
    for cell, direction in ((1 - half, "left"), (half - 1, "right")):
        for subsite in ("a", "b"):
            state = initial_state(g, cell, subsite, direction)
            assert_evolve_matches_plain(state, g, 40)
            # Step by step through a reflection at the mirror.  A windowed
            # step writes every slot of its window and reads no other slot,
            # so NaN outside the window stays there and never leaks in.
            n_substeps = 5 * g.spec.substeps_per_hop
            d = g.spec.diamond_index(cell, subsite)
            window = ((0, d + n_substeps + 2) if direction == "left"
                      else (d - n_substeps - 2, last))
            inside = window_mask(g.spec, *window)
            mirrored = g.mirror_dst[0 if direction == "left" else 1]
            plain, windowed = state.amplitudes, state
            reflected = False
            for _ in range(n_substeps):
                plain = plain_step(plain, g)
                out = np.full(g.dim, np.nan, dtype=complex)
                windowed = step(windowed, g, window=window, out=out)
                assert windowed.amplitudes is out
                assert np.array_equal(out[inside], plain[inside])
                assert np.isnan(out[~inside]).all() and not plain[~inside].any()
                reflected |= plain[mirrored] != 0
            assert reflected


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_window_cells_are_the_cells_its_slots_count_toward(internal, external):
    g = graph_for(4, internal=internal, external=external)
    last = g.spec.n_diamonds - 1
    for lo in range(last + 1):
        for hi in range(lo, last + 1):
            owners = dense_tables(g).slot_cell[window_mask(g.spec, lo, hi)]
            assert _window_cells(g, (lo, hi)) == (owners.min(), owners.max())


def test_window_cells_rejects_a_window_off_the_chain():
    g = graph_for(4)
    last = g.spec.n_diamonds - 1
    for lo, hi in ((-1, 3), (5, 4), (2, last + 1), (np.array([0, -1]), np.array([3, 3]))):
        with pytest.raises(ValueError, match="not within diamonds"):
            _window_cells(g, (lo, hi))


def assert_zero_outside_cell_span(obs):
    """Every ``p_cell`` entry outside its record's ``cell_span`` is +0.0 (all
    bits clear), and no entry anywhere is -0.0 or another negative number."""
    n_rows, n_cells = obs.p_cell.shape
    assert obs.cell_span.shape == (n_rows, 2)
    columns = np.arange(n_cells)
    outside = (columns < obs.cell_span[:, :1]) | (columns > obs.cell_span[:, 1:])
    assert not obs.p_cell.view(np.int64)[outside].any()
    assert not np.signbit(obs.p_cell).any()


@pytest.mark.parametrize("walk_name", ["boundary", "uniform"])
def test_fig5_walk_is_zero_outside_its_cell_span(walk_name):
    half = auto_half_length(200)
    g = boundary_graph(half) if walk_name == "boundary" else graph_for(half)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 200)
    assert_zero_outside_cell_span(obs)
    assert 0 < obs.cell_span.min() and obs.cell_span.max() < g.spec.n_cells - 1


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_walk_next_to_the_chain_ends_is_zero_outside_its_cell_span(internal, external):
    rng = np.random.default_rng(100 + internal * 10 + external)
    for _ in range(4):
        half = int(rng.integers(3, 12))
        spec = LatticeSpec.two_region(half, tuple(rng.uniform(0, 2 * np.pi, 2)),
                                      tuple(rng.uniform(0, 2 * np.pi, 2)),
                                      boundary=int(rng.integers(-half, half)))
        g = graph_for(spec, internal, external)
        for cell, direction in ((1 - half, "left"), (half - 1, "right")):
            state = initial_state(g, cell, str(rng.choice(["a", "b"])), direction)
            n_record = 0
            while True:  # every record count up to the light-cone overflow
                try:
                    obs = evolve(state, g, n_record)
                except LightConeOverflow:
                    break
                assert_zero_outside_cell_span(obs)
                n_record += 1
            assert n_record > 0
            end_cell = 0 if direction == "left" else g.spec.n_cells - 1
            assert (obs.cell_span == end_cell).any()  # the span reached the chain's end


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_windowed_step_without_out_matches_plain_step_and_is_zero_outside(internal, external):
    half = 20
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    last = g.spec.n_diamonds - 1
    d = g.spec.diamond_index(0, "a")
    rng = np.random.default_rng(2017)
    for window in ((d - 2, d + 2), (0, 5), (last - 5, last), (0, last), None):
        lo, hi = (0, last) if window is None else window
        # a full-support state that the window can step exactly: zero outside
        # diamonds lo + 1 .. hi - 1, or up to a chain end the window reaches
        support = window_mask(g.spec, lo + (lo > 0), hi - (hi < last))
        amplitudes = np.where(support, rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim), 0)
        result = step(WalkState(amplitudes=amplitudes), g, window=window).amplitudes
        plain = plain_step(amplitudes, g)
        inside = window_mask(g.spec, lo, hi)
        # exact equality, not bits: the window zeroes the forward start of
        # external edge lo, where the plain step scatters zeros, maybe as -0.0
        assert np.array_equal(result[inside], plain[inside])
        assert not result[~inside].any()


@pytest.mark.parametrize("window", [(-1, 5), (0, 18), (0, 21), (6, 5)])
def test_window_out_of_range_is_rejected_before_any_write(window):
    g = graph_for(4)
    assert g.spec.n_diamonds == 18
    state = initial_state(g, 0, "a", "right")
    out = np.full(g.dim, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="window"):
        step(state, g, window=window, out=out)
    assert np.isnan(out).all()
    with pytest.raises(ValueError, match="window"):
        cell_probabilities(g, state, window=window)


@pytest.mark.parametrize("entry", ["step", "cell_probabilities"])
@pytest.mark.parametrize("window", [(True, 13), (1, "13"), (1.5, 13), (1, None), (np.True_, 13)],
                         ids=["bool", "str", "fraction", "none", "numpy-bool"])
def test_window_bound_that_is_not_an_integral_number_is_rejected_before_any_write(entry, window):
    g = graph_for(4)
    state = initial_state(g, 0, "a", "right")
    step(state, g, window=(1, 13))  # served last: True == 1, but a bool is no bound
    out = np.full(g.dim, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="window has a bound"):
        if entry == "step":
            step(state, g, window=window, out=out)
        else:
            cell_probabilities(g, state, window=window)
    assert np.isnan(out).all()


@pytest.mark.parametrize("entry", ["step", "cell_probabilities"])
@pytest.mark.parametrize("window", [(2.0, 13), (np.int64(2), 13.0), (2, np.float64(13))],
                         ids=["float", "numpy-int", "numpy-float"])
def test_window_bound_that_is_an_integral_number_is_taken_as_its_int(entry, window):
    g = graph_for(4)
    state = initial_state(g, 0, "a", "right")

    def run(bounds):
        if entry == "step":
            return step(state, g, window=bounds).amplitudes
        return cell_probabilities(g, state, window=bounds)

    want = run((2, 13))
    assert run(window).tobytes() == want.tobytes()


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_windowed_evolve_matches_plain_walk_from_full_support(internal, external):
    # every slot is nonzero, so the window is the whole chain from the start;
    # a Gaussian envelope keeps the end cells under the overflow threshold
    half = 30
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    rng = np.random.default_rng(2017)
    envelope = np.exp(-0.5 * ((dense_tables(g).slot_cell - half) / 4.0) ** 2)
    amplitudes = (rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)) * envelope
    state = WalkState(amplitudes=amplitudes / np.linalg.norm(amplitudes))
    assert np.all(state.amplitudes != 0)
    assert_evolve_matches_plain(state, g, 12)


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_windowed_evolve_starts_from_the_state_support(internal, external):
    # one nonzero slot inside an internal edge, which no initial_state gives
    half = 15
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    bottom_backward = directed(2 * g.spec.diamond_index(3, "b") + 1, 1)
    amplitudes = np.zeros(g.dim, dtype=complex)
    amplitudes[slots(g.spec, bottom_backward).start + internal // 2] = 1.0
    assert_evolve_matches_plain(WalkState(amplitudes=amplitudes), g, 40)


# EDGE_LENGTHS and two whose internal and external lengths differ more
HOP_EDGE_LENGTHS = EDGE_LENGTHS + [(1, 3), (4, 1)]


@pytest.mark.parametrize("internal,external", HOP_EDGE_LENGTHS)
def test_windowed_evolve_is_exact_from_every_phase_of_a_hop(internal, external):
    # The window grows one diamond per record, the speed at which amplitude
    # crosses diamonds.  Start from each slot of one diamond's edges, so a
    # record begins at every phase of a hop, and from full support on a range
    # of cells, which holds the slots farthest out on both sides.
    half = 8
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    d = g.spec.diamond_index(0, "a")
    for edge in (2 * d, 2 * d + 1, external_edge(g.spec, d), external_edge(g.spec, d + 1)):
        for direction in (0, 1):
            for slot in range(g.dim)[slots(g.spec, directed(edge, direction))]:
                amplitudes = np.zeros(g.dim, dtype=complex)
                amplitudes[slot] = 1.0
                assert_evolve_matches_plain(WalkState(amplitudes=amplitudes), g, 6)
    rng = np.random.default_rng(2017)
    support = np.abs(dense_tables(g).slot_cell - half) <= 1  # cells -1..1
    amplitudes = np.where(support, rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim), 0)
    assert_evolve_matches_plain(WalkState(amplitudes=amplitudes / np.linalg.norm(amplitudes)),
                                g, 6)


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_window_grows_one_diamond_on_each_side_per_record(monkeypatch, internal, external):
    # from initial_state at cell index c, every sub-step of record r runs on
    # diamonds 2c - r .. 2c + 1 + r, clipped to the chain; next to an end
    # the walk overflows at record 2, after stepping it on a clipped window
    half = 6
    g = graph_for(LatticeSpec.two_region(half, FIG5_LEFT, FIG5_RIGHT), internal, external)
    last, substeps = g.spec.n_diamonds - 1, g.spec.substeps_per_hop
    windows = []

    def recording_step(state, graph, *, window=None, out=None):
        windows.append(window)
        return step(state, graph, window=window, out=out)

    monkeypatch.setattr(walk, "step", recording_step)
    for cell, subsite, direction, overflow in ((0, "a", "right", None), (-5, "b", "left", 2),
                                               (5, "a", "right", 2)):
        windows.clear()
        state = initial_state(g, cell, subsite, direction)
        if overflow is None:
            n_record = 10
            evolve(state, g, n_record)
        else:
            n_record = overflow
            with pytest.raises(LightConeOverflow, match=f"at record {overflow};"):
                evolve(state, g, 10)
        c = cell + half
        assert windows == [(max(2 * c - r, 0), min(2 * c + 1 + r, last))
                           for r in range(1, n_record + 1) for _ in range(substeps)]


@pytest.mark.parametrize("value", [None, np.nan, np.inf, complex(1.0, -np.inf)],
                         ids=["zero", "nan", "inf", "complex-inf"])
def test_evolve_rejects_a_zero_or_non_finite_state_before_allocating(value):
    # a zero state would give NaN moments, and NaN never exceeds the end-leak
    # tolerance, so neither may reach the walk
    g = graph_for(1500)
    amplitudes = np.zeros(g.dim, dtype=complex)
    if value is not None:
        amplitudes[g.in_template[0, 0]] = 1.0
        amplitudes[-1] = value
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no nonzero" if value is None else "NaN or inf"):
            evolve(WalkState(amplitudes=amplitudes), g, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < amplitudes.nbytes  # neither p_cell nor the state's copy


def test_windowed_evolve_matches_plain_walk_on_a_long_chain():
    # rows of 6,001 cells, far wider than the window, whose moments are
    # summed over the pairwise-summation node that holds the span
    g = boundary_graph(3000)
    assert_evolve_matches_plain(initial_state(g, 0, "a", "right"), g, 24)


def pairwise_nodes(start, n):
    """Every node ``(start, stop)`` of numpy's pairwise summation tree over
    ``n`` contiguous float64 from ``start``: a node of more than 128 elements
    has two children, split at ``n // 2`` rounded down to a multiple of 8."""
    yield start, start + n
    if n > 128:
        split = n // 2 - (n // 2) % 8
        yield from pairwise_nodes(start, split)
        yield from pairwise_nodes(start + split, n - split)


def assert_node_sums_equal_full_sums(row, m, first, last):
    node = slice(*walk._sum_node(row.size, first, last))
    m2 = m**2
    for got, want in ((row[node].sum(), row.sum()),
                      ((row[node] * m[node]).sum(), (row * m).sum()),
                      ((row[node] * m2[node]).sum(), (row * m2).sum())):
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_sum_node_is_the_smallest_tree_node_holding_the_span():
    rng = np.random.default_rng(30)
    for n in [1, 8, 127, 128, 129, 135, 257, 1001, 14001, 40000]:
        nodes = list(pairwise_nodes(0, n))
        for _ in range(20):
            first, last = sorted(rng.integers(0, n, 2))
            if n > 1 and rng.random() < 0.3:  # a span at either end of the row
                first, last = (0, last) if rng.random() < 0.5 else (first, n - 1)
            holding = [(a, b) for a, b in nodes if a <= first and last < b]
            assert walk._sum_node(n, int(first), int(last)) == min(holding,
                                                                    key=lambda ab: ab[1] - ab[0])


def test_sum_node_sums_equal_the_full_row_sums():
    # The moments of evolve rest on this: a row that is +0.0 outside
    # first .. last sums over _sum_node's node to the bits of the full sum.
    # It fails if numpy's float64 reduction changes its pairwise tree.
    rng = np.random.default_rng(2017)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 130, 255, 256, 257, 1001, 3001, 14001, 40000]
    for n in sizes + list(rng.integers(1, 40001, 20)):
        n = int(n)
        for _ in range(12):
            first, last = sorted(int(i) for i in rng.integers(0, n, 2))
            if rng.random() < 0.4:  # a span at either end of the row
                first, last = (0, last) if rng.random() < 0.5 else (first, n - 1)
            row = np.zeros(n)
            inside = rng.random(last - first + 1) ** 4
            inside[rng.random(inside.size) < 0.2] = 0.0  # exact zeros inside the span
            row[first : last + 1] = inside
            # negative m: products outside the span are -0.0, inside it mixed signs
            m = np.arange(n, dtype=float) - int(rng.integers(0, n))
            assert_node_sums_equal_full_sums(row, m, first, last)


def test_sum_node_sums_keep_an_exact_cancellation():
    # a symmetric row of dyadic weights around m = 0, so every partial sum is
    # exact and sum(p m) is exactly 0 in both orders; a zero sum is +0.0
    for n, centre, reach in ((14001, 7000, 100), (14001, 6990, 40), (300, 150, 3), (9, 4, 4)):
        row = np.zeros(n)
        weights = np.arange(1, reach + 2) / 64
        row[centre - reach : centre + reach + 1] = np.concatenate((weights, weights[-2::-1]))
        m = np.arange(n, dtype=float) - centre
        assert (row * m).sum() == 0 and not np.signbit((row * m).sum())
        assert_node_sums_equal_full_sums(row, m, centre - reach, centre + reach)


def test_off_centre_evolve_keeps_the_full_row_moments(monkeypatch):
    # a walk far from the chain's centre on 3,001-cell rows, where the nodes
    # summed are proper subtrees of the row; the reference sums the dense rows
    # as evolve did before it summed nodes
    spec = LatticeSpec.two_region(1500, FIG5_LEFT, FIG5_RIGHT, boundary=-700)
    g = build_lattice(spec)
    half = g.spec.half_length
    sum_node, nodes = walk._sum_node, []

    def recording_sum_node(n, first, last):
        nodes.append(sum_node(n, first, last))
        return nodes[-1]

    monkeypatch.setattr(walk, "_sum_node", recording_sum_node)
    for cell, direction in ((-700, "right"), (-700, "left"), (1234, "right")):
        nodes.clear()
        obs = evolve(initial_state(g, cell, "b", direction), g, 200)
        assert len(nodes) == 201 and max(b - a for a, b in nodes) < g.spec.n_cells
        m = obs.cells.astype(float)
        total, first, second, p_boundary = np.array(
            [(row.sum(), np.multiply(row, m).sum(), np.multiply(row, m**2).sum(),
              row[half - 1 : half + 2].sum()) for row in obs.p_cell]).T
        mean = first / total
        sigma = np.sqrt(np.maximum(second / total - mean**2, 0.0))
        for got, want in ((obs.mean, mean), (obs.sigma, sigma), (obs.p_boundary, p_boundary)):
            assert got.tobytes() == want.tobytes()


def test_evolve_peak_memory_is_p_cell_two_states_and_one_row():
    # numpy reports its buffers to tracemalloc; a temporary the size of p_cell
    # would take the peak past the bound
    g = boundary_graph(1500)
    state = initial_state(g, 0, "a", "right")
    tracemalloc.start()
    try:
        obs = evolve(state, g, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the moments' row buffer is 24 KiB here; the rest of the 256 KiB is the
    # cell weights and the window's temporaries (a 21-row block would not fit)
    assert peak < obs.p_cell.nbytes + 2 * state.amplitudes.nbytes + 2**18


def test_evolve_peak_memory_is_two_states_and_the_spans():
    # each record keeps only its light-cone span, so the 201 x 3,001 table
    # (4.8 MB) would take the peak far past the bound
    g = boundary_graph(1500)
    state = initial_state(g, 0, "a", "right")
    tracemalloc.start()
    try:
        obs = evolve(state, g, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.amplitudes.nbytes + obs.p_span.nbytes + 2**18


def test_evolve_sigma_is_zero_where_the_variance_rounds_below_zero():
    # all the probability sits in one cell, m = 5, so the variance is 0; with
    # the norm 0.81 it rounds to -7.1e-15, which sigma clamps to 0, not to
    # sqrt(|var|) ~ 8e-8
    g = graph_for(10)
    state = initial_state(g, 5, "a", "right")
    obs = evolve(WalkState(amplitudes=0.9 * state.amplitudes), g, 0)
    assert obs.mean[0] == pytest.approx(5.0, abs=1e-14)
    assert obs.sigma[0] == 0.0


def test_evolve_record_zero_only():
    g = graph_for(3)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 0)
    assert obs.p_cell.shape == (1, g.spec.n_cells)
    assert obs.p_cell[0, g.spec.half_length] == pytest.approx(1.0)


def test_evolve_rejects_a_negative_record_count():
    g = graph_for(3)
    with pytest.raises(ValueError, match="n_record must be >= 0"):
        evolve(initial_state(g, 0, "a", "right"), g, -1)


@pytest.mark.parametrize("name", ["n_record", "cell"])
@pytest.mark.parametrize("bad", [True, 2.5, "3", None, float("nan")])
def test_a_count_or_cell_that_is_not_an_integral_number_fails_before_allocating(name, bad):
    # True would run one record or inject at cell 1, 2.5 fail deep in numpy;
    # the check comes before the state's nonzero scan or the state
    g = graph_for(1500)
    state = initial_state(g, 0, "a", "right")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"{name} has a value {bad!r} that is not an integral number")):
            if name == "n_record":
                evolve(state, g, bad)
            else:
                initial_state(g, bad, "a", "right")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.dim // 2, peak  # a bool per slot, the scan's size


def test_an_integral_float_or_numpy_count_and_cell_are_their_ints():
    g = graph_for(5)
    want = evolve(initial_state(g, 1, "b", "left"), g, 3)
    for cell, n_record in ((1.0, 3.0), (np.int32(1), np.uint8(3))):
        obs = evolve(initial_state(g, cell, "b", "left"), g, n_record)
        assert obs.records.tolist() == [0, 1, 2, 3]
        assert obs.p_span.tobytes() == want.p_span.tobytes()


def test_evolve_norm_and_positivity():
    g = boundary_graph(20)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 35)
    assert np.abs(obs.p_cell.sum(axis=1) - 1.0).max() <= 1e-10
    assert obs.p_cell.min() >= 0.0
    assert obs.p_boundary.shape == (36,)


def test_light_cone_overflow_signalled():
    g = graph_for(3)
    with pytest.raises(LightConeOverflow):
        evolve(initial_state(g, 0, "a", "right"), g, 40)


def test_auto_half_length_insulates():
    half = auto_half_length(30)
    g = graph_for(half)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 30)
    assert obs.p_cell[:, 0].max() <= 1e-9
    assert obs.p_cell[:, -1].max() <= 1e-9


def test_mirror_symmetry_exact():
    half = 25
    original = boundary_graph(half)
    # spatial reflection maps (m, a) <-> (-m, b), so swap subsite phases and
    # mirror the region ranges
    mirrored = graph_for(LatticeSpec(half, (
        (-half, -1, FIG5_RIGHT[1], FIG5_RIGHT[0]),
        (0, half, FIG5_LEFT[1], FIG5_LEFT[0]),
    )))
    obs_o = evolve(initial_state(original, 0, "a", "right"), original, 40)
    obs_m = evolve(initial_state(mirrored, 0, "b", "left"), mirrored, 40)
    assert np.abs(obs_m.p_cell - obs_o.p_cell[:, ::-1]).max() <= 1e-12


def test_wall_at_injection_sustains_boundary_probability():
    # interface between winding-0 and winding-1 regions placed on the very
    # edge the photon is injected into: a large probability fraction stays
    # pinned there, peaked at the interface cell
    half = auto_half_length(120)
    g = graph_for(LatticeSpec(
        half, ((-half, -1, FIG5_LEFT[0], FIG5_LEFT[1]), (0, half, FIG5_RIGHT[0], FIG5_RIGHT[1]))
    ))
    obs = evolve(initial_state(g, 0, "a", "right"), g, 120)
    late = obs.p_boundary[90:121].mean()
    mid = obs.p_boundary[30:61].mean()
    assert late > 0.35
    assert late >= 0.8 * mid
    assert obs.cells[np.argmax(obs.p_cell[-1])] == 0


def test_uniform_walk_drifts_forward():
    half = auto_half_length(60)
    g = graph_for(half)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 60)
    assert obs.mean[-1] > 5.0  # strong forward bias of the quarter-wave vertex
    assert obs.sigma[-1] > obs.sigma[10]


def test_a_walk_reads_the_same_rows_through_a_wider_or_disjoint_memo():
    # the graph's memo of rows is only a cache: a walk on a graph whose memo
    # already holds the whole chain, or only diamonds the walk never reaches,
    # gives a fresh graph's records bit for bit
    spec = LatticeSpec.two_region(60, FIG5_LEFT, FIG5_RIGHT, boundary=3)
    fresh, wider, disjoint = (build_lattice(spec) for _ in range(3))
    want = evolve(initial_state(fresh, 0, "a", "right"), fresh, 40)
    step(initial_state(wider, 0, "a", "right"), wider)  # the whole chain's window
    assert (wider._memo.lo, wider._memo.hi) == (0, spec.n_diamonds - 1)
    evolve(initial_state(disjoint, -45, "b", "left"), disjoint, 8)
    assert disjoint._memo.hi < fresh._memo.lo
    for g in (wider, disjoint):
        obs = evolve(initial_state(g, 0, "a", "right"), g, 40)
        for name in ("p_span", "cell_span", "mean", "sigma", "p_boundary"):
            assert getattr(obs, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_replaced_graph_starts_with_an_empty_memo():
    g = graph_for(5)
    step(initial_state(g, 0, "a", "right"), g)
    assert g._memo is not None
    assert dataclasses.replace(g)._memo is None
    assert dataclasses.replace(g, mirror_src=g.mirror_src[::-1].copy())._memo is None


def test_the_memo_builds_only_the_windows_it_does_not_hold(monkeypatch):
    g = graph_for(LatticeSpec.two_region(40, FIG5_LEFT, FIG5_RIGHT, boundary=-20))
    last = g.spec.n_diamonds - 1
    built, build = [], lattice._rows
    monkeypatch.setattr(lattice, "_rows",
                        lambda graph, lo, hi: built.append((lo, hi)) or build(graph, lo, hi))
    state = initial_state(g, -20, "b", "right")
    d = g.spec.diamond_index(-20, "b")
    # a window past either end of the memo, or apart from it, builds its own rows
    for window in ((d - 5, d + 5), (d - 8, d + 2), (d - 4, d + 9), (0, 3), (last - 3, last)):
        built.clear()
        step(state, g, window=window)
        assert built == [window] and (g._memo.lo, g._memo.hi) == window
    # a window the memo holds builds nothing, and asked for again, the same
    # window is served the same views
    built.clear()
    window = (last - 2, last - 1)
    step(state, g, window=window)
    assert not built
    assert lattice._window(g, window)[2] is lattice._window(g, window)[2]


def test_each_walk_builds_its_rows_once(monkeypatch):
    # initial_state reads its slot off diamond 0's wiring and the period, the
    # cell rule is arithmetic, and evolve builds the rows of its final window,
    # which hold every earlier one, before its first record
    half = auto_half_length(200)
    g = boundary_graph(half)
    built, build = [], lattice._rows
    monkeypatch.setattr(lattice, "_rows",
                        lambda graph, lo, hi: built.append((lo, hi)) or build(graph, lo, hi))
    state = initial_state(g, 0, "a", "right")
    assert _window_cells(g, (0, g.spec.n_diamonds - 1)) == (0, 2 * half)
    assert not built and g._memo is None
    evolve(state, g, 200)
    d = g.spec.diamond_index(0, "a")
    assert built == [(d - 200, d + 1 + 200)] == [(4, 405)]


def test_the_memo_after_a_long_chain_walk_covers_at_most_twice_the_final_window():
    g = boundary_graph(350_000)
    evolve(initial_state(g, 0, "a", "right"), g, 200)
    d = g.spec.diamond_index(0, "a")
    final = (d - 200, d + 1 + 200)
    assert g._memo.lo <= final[0] and final[1] <= g._memo.hi
    assert g._memo.hi - g._memo.lo + 1 <= 2 * (final[1] - final[0] + 1)
