"""Quantum walks on chains of directionally-unbiased three-port diamonds.

Simulates SSH-like lattices built from diamond graphs of linear-optical
three-ports: single-diamond scattering, band structure and winding numbers in
momentum space, and time-domain walk dynamics exhibiting gap closing and
topologically protected boundary states.
"""

from .bands import (
    BandResult,
    GapClosed,
    PhaseDiagram,
    WindingResult,
    band_structure,
    dispersion,
    hamiltonian_k,
    hopping_magnitude,
    phase_diagram,
    winding_from_hoppings,
    winding_number,
)
from .config import ConfigError, RunConfig, parse_config
from .diamond import (
    DEFAULT_CONVENTION,
    DiamondScattering,
    EdgeConvention,
    NoConventionMatches,
    SingularPoint,
    SingularSystem,
    calibrate_edge_convention,
    oracle_deviation,
    solve_diamond,
    transmission_closed_form,
)
from .lattice import (
    AuditReport,
    LatticeGraph,
    LatticeSpec,
    PhaseProfile,
    audit_graph,
    build_lattice,
)
from .multiport import VertexUnitary, check_unitary, vertex_unitary
from .walk import (
    LightConeOverflow,
    WalkObservables,
    WalkState,
    auto_half_length,
    evolve,
    initial_state,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BandResult",
    "GapClosed",
    "PhaseDiagram",
    "WindingResult",
    "band_structure",
    "dispersion",
    "hamiltonian_k",
    "hopping_magnitude",
    "phase_diagram",
    "winding_from_hoppings",
    "winding_number",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "DEFAULT_CONVENTION",
    "DiamondScattering",
    "EdgeConvention",
    "NoConventionMatches",
    "SingularPoint",
    "SingularSystem",
    "calibrate_edge_convention",
    "oracle_deviation",
    "solve_diamond",
    "transmission_closed_form",
    "AuditReport",
    "LatticeGraph",
    "LatticeSpec",
    "PhaseProfile",
    "audit_graph",
    "build_lattice",
    "VertexUnitary",
    "check_unitary",
    "vertex_unitary",
    "LightConeOverflow",
    "WalkObservables",
    "WalkState",
    "auto_half_length",
    "evolve",
    "initial_state",
    "step",
]
