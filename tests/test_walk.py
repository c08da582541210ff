import numpy as np
import pytest

from diamondwalk import (
    LatticeSpec,
    LightConeOverflow,
    PhaseProfile,
    auto_half_length,
    build_lattice,
    evolve,
    initial_state,
    step,
)
from diamondwalk.walk import cell_probabilities
from step_oracle import assemble_step_operator

FIG5_LEFT = (1.5, 2.5)
FIG5_RIGHT = (3 * np.pi / 4, 0.0)
# (internal, external) edge lengths in sub-steps; (2, 1) is the default
EDGE_LENGTHS = [(1, 1), (2, 1), (3, 2)]


def graph_for(half_length, profile=None, internal=2, external=1):
    if profile is None:
        profile = PhaseProfile.uniform(0.0, 0.0, half_length)
    return build_lattice(LatticeSpec(half_length=half_length, profile=profile,
                                     internal_length=internal, external_length=external))


def boundary_graph(half_length):
    profile = PhaseProfile.two_region(FIG5_LEFT, FIG5_RIGHT, half_length, boundary=0)
    return graph_for(half_length, profile)


def test_initial_state_probability_and_norm():
    g = graph_for(4)
    state = initial_state(g, 0, "a", "right")
    p = cell_probabilities(g, state)
    assert p[g.half_length] == pytest.approx(1.0, abs=1e-15)
    assert np.delete(p, g.half_length).max() == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_initial_state_sits_one_substep_before_its_diamond(internal, external):
    g = graph_for(3, internal=internal, external=external)
    for cell in range(-3, 4):
        for subsite in ("a", "b"):
            d = g.diamond_index(cell, subsite)
            for direction, edge, sense, vertex in (("right", d, 0, 2 * d),
                                                   ("left", d + 1, 1, 2 * d + 1)):
                state = initial_state(g, cell, subsite, direction)
                expected = np.zeros(g.dim, dtype=complex)
                expected[g.slots(g.directed(g.external_edge(edge), sense)).stop - 1] = 1.0
                assert np.array_equal(state.amplitudes, expected)
                after = step(state, g)
                support = np.flatnonzero(after.amplitudes)
                assert np.array_equal(support, np.sort(g.out_slot[vertex]))


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
    assert abs(after.norm() - 1.0) <= 1e-12
    assert after.time == 1


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_step_operator_unitary_and_magnitude_sums(internal, external):
    g = graph_for(2, internal=internal, external=external)
    op = assemble_step_operator(g).toarray()
    assert np.abs(op.conj().T @ op - np.eye(g.dim)).max() <= 1e-12
    mags = np.abs(op) ** 2
    assert np.abs(mags.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(mags.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("internal,external", EDGE_LENGTHS)
def test_step_matches_operator_powers_20_steps(internal, external):
    profile = PhaseProfile.two_region(FIG5_LEFT, FIG5_RIGHT, 2, boundary=0)
    g = graph_for(2, profile, internal, external)
    op = assemble_step_operator(g)
    state = initial_state(g, 0, "a", "right")
    vec = state.amplitudes.copy()
    worst = 0.0
    for _ in range(20):
        state = step(state, g)
        vec = op @ vec
        worst = max(worst, np.abs(state.amplitudes - vec).max())
    assert worst <= 1e-12


def test_evolve_record_zero_only():
    g = graph_for(3)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 0)
    assert obs.p_cell.shape == (1, g.n_cells)
    assert obs.p_cell[0, g.half_length] == pytest.approx(1.0)


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
    half = auto_half_length(30, 3, 6)
    g = graph_for(half)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 30)
    assert obs.p_cell[:, 0].max() <= 1e-9
    assert obs.p_cell[:, -1].max() <= 1e-9


def test_mirror_symmetry_exact():
    half = 25
    original = boundary_graph(half)
    # spatial reflection maps (m, a) <-> (-m, b), so swap subsite phases and
    # mirror the region ranges
    mirrored_profile = PhaseProfile(
        (
            (-half, -1, FIG5_RIGHT[1], FIG5_RIGHT[0]),
            (0, half, FIG5_LEFT[1], FIG5_LEFT[0]),
        )
    )
    mirrored = graph_for(half, mirrored_profile)
    obs_o = evolve(initial_state(original, 0, "a", "right"), original, 40)
    obs_m = evolve(initial_state(mirrored, 0, "b", "left"), mirrored, 40)
    assert np.abs(obs_m.p_cell - obs_o.p_cell[:, ::-1]).max() <= 1e-12


def test_wall_at_injection_sustains_boundary_probability():
    # interface between winding-0 and winding-1 regions placed on the very
    # edge the photon is injected into: a large probability fraction stays
    # pinned there, peaked at the interface cell
    half = auto_half_length(120, 3, 6)
    profile = PhaseProfile(
        ((-half, -1, FIG5_LEFT[0], FIG5_LEFT[1]), (0, half, FIG5_RIGHT[0], FIG5_RIGHT[1]))
    )
    g = graph_for(half, profile)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 120)
    late = obs.p_boundary[90:121].mean()
    mid = obs.p_boundary[30:61].mean()
    assert late > 0.35
    assert late >= 0.8 * mid
    assert obs.cells[np.argmax(obs.p_cell[-1])] == 0


def test_uniform_walk_drifts_forward():
    half = auto_half_length(60, 3, 6)
    g = graph_for(half)
    obs = evolve(initial_state(g, 0, "a", "right"), g, 60)
    assert obs.mean[-1] > 5.0  # strong forward bias of the quarter-wave vertex
    assert obs.sigma[-1] > obs.sigma[10]
