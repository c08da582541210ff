"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The reference states its Fig. 5 inputs and labels (criteria 5 to 8) in
its own subsite labelling, where the ``b``-diamond is the intracell bond; the
package's cell takes the ``a``-diamond as intracell.  Those inputs pass through
one translation, ``package_pair``/``package_subsite``, and every stated value
and threshold is asserted unchanged.
"""

import json
import math
import time

import numpy as np
import pytest

from diamondwalk import (
    DEFAULT_CONVENTION,
    LatticeSpec,
    auto_half_length,
    band_structure,
    build_lattice,
    dispersion,
    evolve,
    initial_state,
    phase_diagram,
    solve_diamond,
    step,
    transmission_closed_form,
    vertex_unitary,
    winding_from_hoppings,
    winding_number,
)
from diamondwalk.cli import run_reproduction
from bands_oracle import hamiltonian_k
from step_oracle import assemble_step_operator

# Fig. 5 of the reference, in the reference's labels: (phi_a, phi_b) left of
# the split after cell 0 and right of it, and injection at cell 0, subsite a,
# moving right.
FIG5_LEFT = (1.5, 2.5)
FIG5_RIGHT = (3 * math.pi / 4, 0.0)
FIG5_HALF = auto_half_length(200)
LATE = slice(150, 201)
MID = slice(50, 101)


# Reference -> package labels.  The package orders each cell a_m, b_m with the
# a-diamond as the intracell bond (off-diagonal |t_a| + |t_b| e^{-ik}); the
# reference's statements hold with its b-diamond intracell.  So the reference's
# b is the package's a in the same cell, and vice versa.
def package_pair(reference_pair: tuple[float, float]) -> tuple[float, float]:
    phi_a, phi_b = reference_pair
    return phi_b, phi_a


def package_subsite(reference_subsite: str) -> str:
    return {"a": "b", "b": "a"}[reference_subsite]


FIG5_INJECTION = (0, package_subsite("a"), "right")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def walk_with_uniform(spec, injection):
    """200-record walks on ``spec`` and, with the same injection, on the
    uniform (0, 0) chain; returns (graph, observables, uniform observables)."""
    graph = build_lattice(spec)
    uniform_graph = build_lattice(LatticeSpec.uniform(FIG5_HALF, 0.0, 0.0))
    obs = evolve(initial_state(graph, *injection), graph, 200)
    uniform_obs = evolve(initial_state(uniform_graph, *injection), uniform_graph, 200)
    return graph, obs, uniform_obs


def persistence(obs, uniform_obs) -> tuple[float, float, float]:
    """Late and mid window means of p_boundary, and the uniform run's late mean."""
    return (
        float(obs.p_boundary[LATE].mean()),
        float(obs.p_boundary[MID].mean()),
        float(uniform_obs.p_boundary[LATE].mean()),
    )


@pytest.fixture(scope="module")
def fig5_runs():
    """The two 200-record walks shared by criteria 6, 7 and 8 (plus their cost)."""
    start = time.perf_counter()
    spec = LatticeSpec.two_region(
        FIG5_HALF, package_pair(FIG5_LEFT), package_pair(FIG5_RIGHT), boundary=0
    )
    boundary_graph, boundary_obs, uniform_obs = walk_with_uniform(spec, FIG5_INJECTION)
    elapsed = time.perf_counter() - start
    return boundary_graph, boundary_obs, uniform_obs, elapsed


def test_criterion_01_unitary_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    unitaries = [vertex_unitary(float(t)) for t in rng.uniform(0.0, 2.0 * math.pi, 100)]
    all_unitary = all(np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12 for u in unitaries)
    expected = (-1j / 3.0) * np.array([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
    quarter_dev = np.abs(vertex_unitary(-math.pi / 2) - expected).max()
    unbiased_dev = np.abs(np.abs(vertex_unitary(math.pi / 6)) ** 2 - 1 / 3).max()
    elapsed = time.perf_counter() - start
    ok = all_unitary and quarter_dev <= 1e-15 and unbiased_dev <= 1e-12 and elapsed < 1.0
    report(1, ok, f"unitary construction (quarter-wave dev {quarter_dev:.1e}, "
                  f"equal-probability dev {unbiased_dev:.1e}, {elapsed:.2f} s)")
    assert all_unitary
    assert quarter_dev <= 1e-15
    assert unbiased_dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_diamond_oracle_equivalence():
    start = time.perf_counter()
    n = 32
    phis = (np.arange(n) + 0.5) * 2 * math.pi / n
    ks = (np.arange(n) + 0.5) * 2 * math.pi / n
    s = solve_diamond(phis[:, None], ks, DEFAULT_CONVENTION)
    closed = np.abs(transmission_closed_form(phis[:, None], ks))
    worst_t = np.abs(np.abs(s.transmission) - closed).max()
    s_dagger_s = np.swapaxes(s.s_matrix.conj(), -1, -2) @ s.s_matrix
    worst_unitarity = np.abs(s_dagger_s - np.eye(2)).max()
    elapsed = time.perf_counter() - start
    ok = worst_t <= 1e-9 and worst_unitarity <= 1e-10 and elapsed < 5.0
    report(2, ok, f"diamond oracle equivalence (|t| dev {worst_t:.1e}, "
                  f"S unitarity dev {worst_unitarity:.1e}, {elapsed:.2f} s)")
    assert worst_t <= 1e-9
    assert worst_unitarity <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_gap_closing_and_monotonicity():
    start = time.perf_counter()
    closed_gaps = [band_structure(p, p, 256).gap for p in (0.3, 1.0, 2.0)]
    deltas = (0.0, 0.5, 1.0, 2.0, math.pi)
    gaps = [band_structure(0.0, d, 256).gap for d in deltas]
    elapsed = time.perf_counter() - start
    closing_ok = all(g <= 1e-9 for g in closed_gaps)
    monotone_ok = all(gaps[i] <= gaps[i + 1] + 1e-12 for i in range(len(gaps) - 1))
    positive_ok = all(g > 1e-9 for g in gaps[1:])
    ok = closing_ok and monotone_ok and positive_ok and elapsed < 5.0
    report(3, ok, f"gap closing/monotonicity (gaps {['%.4f' % g for g in gaps]}, {elapsed:.2f} s)")
    assert closing_ok, f"equal-phase gaps not closed: {closed_gaps}"
    assert monotone_ok, f"gaps not nondecreasing: {gaps}"
    assert positive_ok
    assert elapsed < 5.0


def test_criterion_04_eigenvalue_cross_check():
    rng = np.random.default_rng(11)
    ks = np.arange(512) * 2 * math.pi / 512
    worst = 0.0
    for _ in range(10):
        phi_a, phi_b = (float(x) for x in rng.uniform(0.05, 2 * math.pi - 0.05, 2))
        ta = np.abs(transmission_closed_form(phi_a, ks))
        tb = np.abs(transmission_closed_form(phi_b, ks))
        closed = dispersion(ta, tb, ks)
        for i, k in enumerate(ks):
            evals = np.linalg.eigvalsh(hamiltonian_k(phi_a, phi_b, float(k)))
            worst = max(worst, abs(evals[1] - closed[i]), abs(evals[0] + closed[i]))
    ok = worst <= 1e-12
    report(4, ok, f"eigenvalue cross-check (max dev {worst:.1e})")
    assert worst <= 1e-12


def test_criterion_05_winding_numbers():
    grids = (256, 1024, 4096)
    # Stated in the reference's labels: nu(3pi/4, 0) = 0 and nu(1.5, 2.5) = 1.
    nu_right = {n: winding_number(*package_pair(FIG5_RIGHT), n).nu for n in grids}
    nu_left = {n: winding_number(*package_pair(FIG5_LEFT), n).nu for n in grids}
    # The same pairs in the package's own labels, as `diamondwalk winding` and
    # the README print them: the translation must not hide a change in these.
    own_right = {n: winding_number(*FIG5_RIGHT, n).nu for n in grids}
    own_left = {n: winding_number(*FIG5_LEFT, n).nu for n in grids}
    stable = len(set(nu_right.values())) == 1 and len(set(nu_left.values())) == 1
    synthetic_ok = (
        winding_from_hoppings(0.3, 0.7, 256).nu == 1
        and winding_from_hoppings(0.7, 0.3, 256).nu == 0
    )
    stated_ok = nu_right[4096] == 0 and nu_left[4096] == 1
    own_ok = all(own_right[n] == 1 and own_left[n] == 0 for n in grids)
    ok = stable and synthetic_ok and stated_ok and own_ok
    report(5, ok, f"winding numbers (reference labels nu(3pi/4,0)={nu_right[4096]}, "
                  f"nu(1.5,2.5)={nu_left[4096]}; package labels {own_right[4096]}, "
                  f"{own_left[4096]}; refinement-stable={stable}, "
                  f"synthetic rule holds={synthetic_ok})")
    assert stable, "winding not stable under k-grid refinement"
    assert synthetic_ok, "synthetic constant-hopping windings wrong"
    # |t(1.5, k)| ~ 0.78 > |t(2.5, k)| ~ 0.14, so by the |t_b| > |t_a| rule the
    # reference's (1.5, 2.5) winds only with 1.5 on the k-dependent (intercell)
    # bond: its b-diamond is intracell, hence the translation.
    assert stated_ok, (
        f"stated winding labels not reproduced: nu(3pi/4,0)={nu_right}, "
        f"nu(1.5,2.5)={nu_left} in the reference's labels"
    )
    assert own_ok, (
        f"package-labelled windings changed: nu(3pi/4,0)={own_right}, "
        f"nu(1.5,2.5)={own_left}; expected 1 and 0"
    )


def test_criterion_06_walk_unitarity(fig5_runs):
    boundary_graph, _, _, _ = fig5_runs
    state = initial_state(boundary_graph, *FIG5_INJECTION)
    drift = 0.0
    for _ in range(200):
        for _ in range(3):
            state = step(state, boundary_graph)
        drift = max(drift, abs(np.sqrt(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0))
    norm_ok = drift <= 1e-10

    small = build_lattice(LatticeSpec.two_region(
        2, package_pair(FIG5_LEFT), package_pair(FIG5_RIGHT), boundary=0
    ))
    op = assemble_step_operator(small)
    s = initial_state(small, *FIG5_INJECTION)
    vec = s.amplitudes.copy()
    worst = 0.0
    for _ in range(20):
        s = step(s, small)
        vec = op @ vec
        worst = max(worst, np.abs(s.amplitudes - vec).max())
    operator_ok = worst <= 1e-12

    ok = norm_ok and operator_ok
    report(6, ok, f"walk unitarity (norm drift {drift:.1e}, operator dev {worst:.1e})")
    assert norm_ok
    assert operator_ok


def test_criterion_07_boundary_state_persistence(fig5_runs):
    start = time.perf_counter()
    _, boundary_obs, uniform_obs, walk_elapsed = fig5_runs
    pb_late, pb_mid, pb_uniform_late = persistence(boundary_obs, uniform_obs)
    persistence_ok = pb_late >= 0.5 * pb_mid
    contrast_ok = pb_late >= 10.0 * pb_uniform_late
    elapsed = walk_elapsed + time.perf_counter() - start

    # Controls, each with its own injection repeated on the uniform chain.
    # Negative: the same injection with no wall, one region's pair on both
    # sides.  The contrast alone exceeds 10x here, so only the ratio detects
    # the wall.  Positive: the package-labelled pairs with injection on their
    # own wall site, between b_0 and a_1.
    left, right = package_pair(FIG5_LEFT), package_pair(FIG5_RIGHT)
    negative = {
        f"no wall {pair}": persistence(
            *walk_with_uniform(LatticeSpec.uniform(FIG5_HALF, *pair), FIG5_INJECTION)[1:]
        )
        for pair in (left, right)
    }
    positive = persistence(*walk_with_uniform(
        LatticeSpec.two_region(FIG5_HALF, FIG5_LEFT, FIG5_RIGHT, boundary=0), (1, "a", "right")
    )[1:])
    negative_ok = all(late < 0.5 * mid for late, mid, _ in negative.values())
    positive_ok = positive[0] >= 0.5 * positive[1] and positive[0] >= 10.0 * positive[2]
    controls = "; ".join(
        f"{name} ratio {late / mid:.3f}, contrast {late / uni:.1f}x"
        for name, (late, mid, uni) in (*negative.items(), ("package wall", positive))
    )

    ok = persistence_ok and contrast_ok and elapsed < 30.0 and negative_ok and positive_ok
    report(7, ok, f"boundary-state persistence (late {pb_late:.4f}, mid {pb_mid:.4f}, "
                  f"ratio {pb_late / pb_mid:.3f}, uniform contrast "
                  f"{pb_late / pb_uniform_late:.1f}x, {elapsed:.2f} s; controls: {controls})")
    assert contrast_ok, (
        f"boundary run not >= 10x uniform: {pb_late:.4f} vs {pb_uniform_late:.4f}"
    )
    # Stated expectation: late average >= 0.5 x records-50..100 average.  In
    # the package's labels the wall lies between b_0 and a_1, right after the
    # injected diamond b_0, and the photon stays pinned there (ratio ~0.89).
    assert persistence_ok, (
        f"persistence ratio {pb_late / pb_mid:.3f} < 0.5 for the stated "
        "region/injection combination"
    )
    assert elapsed < 30.0
    assert negative_ok, f"ratio >= 0.5 without a wall: {controls}"
    assert positive_ok, f"no persistence at the package-labelled wall: {controls}"


def test_criterion_08_ballistic_spreading(fig5_runs):
    _, _, uniform_obs, _ = fig5_runs
    t = np.arange(50, 201, dtype=float)
    sigma = uniform_obs.sigma[50:201]
    design = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(design, sigma, rcond=None)
    residual = sigma - design @ coef
    r_squared = 1.0 - (residual**2).sum() / ((sigma - sigma.mean()) ** 2).sum()
    mean_final = float(uniform_obs.mean[200])
    ok = r_squared > 0.99 and mean_final > 0.0
    report(8, ok, f"ballistic spreading (R^2 {r_squared:.6f}, slope {coef[0]:.4f}, "
                  f"final mean {mean_final:.1f})")
    assert r_squared > 0.99
    assert mean_final > 0.0


def test_criterion_09_reproduction_determinism(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_reproduction("fig5", first)
    run_reproduction("fig5", second)
    names = ("fig5_boundary.csv", "fig5_uniform.csv", "fig5_summary.json")
    identical = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    payload = json.loads((first / "fig5_summary.json").read_text())
    report(9, identical, f"reproduction determinism (3 files byte-identical, "
                         f"steps {payload['steps']})")
    assert identical


def test_criterion_10_phase_diagram_consistency():
    start = time.perf_counter()
    grid = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
    diagram = phase_diagram(grid, grid, n_k=512)
    violations = []
    for i in range(9):
        for j in range(9):
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 > 8 or j2 > 8:
                    continue
                nu_a, nu_b = diagram.nu[i, j], diagram.nu[i2, j2]
                if math.isnan(nu_a) or math.isnan(nu_b) or nu_a == nu_b:
                    continue
                segment = [
                    band_structure(pa, pb, 256).gap
                    for pa, pb in zip(
                        np.linspace(grid[i], grid[i2], 5),
                        np.linspace(grid[j], grid[j2], 5),
                    )
                ]
                if min(segment) >= 0.05:
                    violations.append(((i, j), (i2, j2), min(segment)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    report(10, ok, f"phase-diagram consistency (0 winding jumps without a gap "
                   f"minimum, {elapsed:.2f} s)" if ok else
                   f"phase-diagram consistency violated: {violations}")
    assert not violations, violations
    assert elapsed < 120.0
