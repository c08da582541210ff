"""Strict JSON configuration for lattice/walk runs.

:data:`CONFIG_SCHEMA` describes the format (unknown keys rejected).  The regions
are a :class:`LatticeSpec`'s, as ``LatticeSpec.two_region(half, left, right)`` builds
them, so they must also be disjoint and cover cells [-half_length, half_length].
``edge_lengths`` defaults to :class:`LatticeSpec`'s; ``theta``, if present, must be
-pi/2 (``-1.5707963267948966``, the one vertex phase), and any other value is rejected.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .lattice import LatticeSpec
from .multiport import DEFAULT_THETA

__all__ = ["ConfigError", "RunConfig", "parse_config", "CONFIG_SCHEMA"]

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["half_length", "regions"],
    "properties": {
        "half_length": {"type": "integer", "minimum": 1},
        "theta": {"type": "number", "const": DEFAULT_THETA},
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
    regions: tuple[tuple[int, int, float, float], ...]
    internal_length: int
    external_length: int
    steps: int | None = None

    def lattice_spec(self) -> LatticeSpec:
        return LatticeSpec(self.half_length, self.regions, self.internal_length,
                           self.external_length)


def _first_violation(value, schema: dict, path: str = "") -> tuple[str, str] | None:
    """The first way ``value`` breaks ``schema``, as ``(path, message)``, or None.

    Covers the keywords :data:`CONFIG_SCHEMA` uses, with JSON Schema's type
    rules (a bool is not a number; an integral float is an integer), and also
    rejects numbers that are not finite doubles.  Violations are ordered by
    path: a node's own before its children's, object keys sorted, array items
    by index, as jsonschema's errors sorted by ``absolute_path``.
    """
    kind = schema["type"]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not {
        "object": isinstance(value, dict),
        "array": isinstance(value, list),
        "number": is_number,
        "integer": is_number and (isinstance(value, int) or value.is_integer()),
    }[kind]:
        return path, f"{json.dumps(value)} is not of type {kind!r}"
    if kind == "number" and not abs(value) <= sys.float_info.max:
        return path, "value must be finite"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if "minimum" in schema and value < schema["minimum"]:
        return path, f"{value} is less than the minimum of {schema['minimum']}"
    children = []
    if kind == "object":
        properties = schema["properties"]
        unknown = sorted(set(value) - set(properties))
        if unknown and schema["additionalProperties"] is False:
            return path, "unknown keys: " + ", ".join(unknown)
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        children = [
            (f"{path}.{key}" if path else key, value[key], properties[key]) for key in sorted(value)
        ]
    elif kind == "array":
        if len(value) < schema.get("minItems", 0):
            return path, f"expected at least {schema['minItems']} items, got {len(value)}"
        children = [(f"{path}[{i}]", item, schema["items"]) for i, item in enumerate(value)]
    for child_path, child, child_schema in children:
        found = _first_violation(child, child_schema, child_path)
        if found:
            return found
    return None


def parse_config(document: str) -> RunConfig:
    """Parse and validate a JSON config document into a :class:`RunConfig`."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not well-formed JSON: {exc}") from None

    found = _first_violation(raw, CONFIG_SCHEMA)
    if found:
        path, message = found
        raise ConfigError(f"schema error at {path or '<document root>'}: {message}")

    lengths = raw.get("edge_lengths", {})
    try:
        # the schema has checked the lengths, so only the regions can fail here
        spec = LatticeSpec(
            half_length=int(raw["half_length"]),
            regions=tuple((r["from"], r["to"], r["phi_a"], r["phi_b"]) for r in raw["regions"]),
            internal_length=int(lengths.get("internal", LatticeSpec.internal_length)),
            external_length=int(lengths.get("external", LatticeSpec.external_length)),
        )
    except ValueError as exc:
        raise ConfigError(f"schema error at regions: {exc}") from None

    return RunConfig(
        half_length=spec.half_length,
        regions=spec.regions,  # (int, int, float, float) each
        internal_length=spec.internal_length,
        external_length=spec.external_length,
        steps=int(raw["steps"]) if "steps" in raw else None,
    )
