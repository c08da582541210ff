"""Strict JSON configuration for lattice/walk runs.

Schema (unknown keys rejected)::

    {
      "half_length": int >= 1,          required
      "theta": number,                  default -pi/2
      "steps": int >= 1,                optional (walk record count)
      "regions": [                      required, disjoint, covering [-M, M]
        {"from": int, "to": int, "phi_a": number, "phi_b": number}, ...
      ],
      "edge_lengths": {"internal": int >= 1, "external": int >= 1}
                                        default from the calibrated convention
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import jsonschema

from .diamond import DEFAULT_CONVENTION
from .lattice import LatticeSpec, PhaseProfile
from .multiport import DEFAULT_THETA

__all__ = ["ConfigError", "RunConfig", "parse_config", "CONFIG_SCHEMA"]

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["half_length", "regions"],
    "properties": {
        "half_length": {"type": "integer", "minimum": 1},
        "theta": {"type": "number"},
        "steps": {"type": "integer", "minimum": 1},
        "regions": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["from", "to", "phi_a", "phi_b"],
                "properties": {
                    "from": {"type": "integer"},
                    "to": {"type": "integer"},
                    "phi_a": {"type": "number"},
                    "phi_b": {"type": "number"},
                },
            },
        },
        "edge_lengths": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "internal": {"type": "integer", "minimum": 1},
                "external": {"type": "integer", "minimum": 1},
            },
        },
    },
}


class ConfigError(ValueError):
    """Configuration document rejected; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; physical checks done before any computation."""

    half_length: int
    theta: float
    regions: tuple[tuple[int, int, float, float], ...]
    internal_length: int
    external_length: int
    steps: int | None = None

    def lattice_spec(self) -> LatticeSpec:
        return LatticeSpec(
            half_length=self.half_length,
            profile=PhaseProfile(self.regions),
            theta=self.theta,
            internal_length=self.internal_length,
            external_length=self.external_length,
        )


def _path_of(error: jsonschema.ValidationError) -> str:
    parts = []
    for item in error.absolute_path:
        if isinstance(item, int):
            parts.append(f"[{item}]")
        else:
            parts.append(("." if parts else "") + str(item))
    return "".join(parts) or "<document root>"


def parse_config(document: str) -> RunConfig:
    """Parse and validate a JSON config document into a :class:`RunConfig`."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not well-formed JSON: {exc}") from None

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        raise ConfigError(f"schema error at {_path_of(first)}: {first.message}")

    half_length = raw["half_length"]
    theta = float(raw.get("theta", DEFAULT_THETA))
    lengths = raw.get("edge_lengths", {})
    internal = int(lengths.get("internal", DEFAULT_CONVENTION.internal_length))
    external = int(lengths.get("external", 1))
    regions = tuple(
        (r["from"], r["to"], float(r["phi_a"]), float(r["phi_b"])) for r in raw["regions"]
    )

    if not math.isfinite(theta):
        raise ConfigError("schema error at theta: value must be finite")
    for i, (_, _, pa, pb) in enumerate(regions):
        if not math.isfinite(pa):
            raise ConfigError(f"schema error at regions[{i}].phi_a: value must be finite")
        if not math.isfinite(pb):
            raise ConfigError(f"schema error at regions[{i}].phi_b: value must be finite")

    try:
        profile = PhaseProfile(regions)
        profile.phases(half_length)  # disjoint + coverage of [-M, M]
    except ValueError as exc:
        raise ConfigError(f"schema error at regions: {exc}") from None

    return RunConfig(
        half_length=half_length,
        theta=theta,
        regions=regions,
        internal_length=internal,
        external_length=external,
        steps=raw.get("steps"),
    )
