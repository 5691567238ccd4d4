"""Tydi-spec: logical types and physical stream mapping.

This package implements the type system of the Tydi specification
(Peltenburg et al., IEEE Micro 2020) that Tydi-lang builds on:

* :class:`~repro.spec.logical_types.Null` -- empty data.
* :class:`~repro.spec.logical_types.Bit` -- ``x`` hardware bits.
* :class:`~repro.spec.logical_types.Group` -- product type (sum of widths).
* :class:`~repro.spec.logical_types.Union` -- sum type (max width + tag).
* :class:`~repro.spec.logical_types.Stream` -- stream-space properties of a
  logical type: dimensionality, direction, synchronicity, complexity,
  throughput and clock domain.

It also provides the mapping from a Stream type to the physical signal bundle
(:mod:`repro.spec.physical`) used by the VHDL backend and the type
compatibility rules (:mod:`repro.spec.compat`) used by the design rule check.
"""

from repro import lazy_exports

__all__ = [
    "Bit",
    "Group",
    "LogicalType",
    "Null",
    "Stream",
    "Union",
    "Complexity",
    "Direction",
    "Synchronicity",
    "Throughput",
    "PhysicalSignal",
    "PhysicalStream",
    "expand_stream",
    "CompatibilityReport",
    "check_connection_compatibility",
    "structurally_equal",
    "strictly_equal",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.spec.logical_types": ("Bit", "Group", "LogicalType", "Null", "Stream", "Union"),
        "repro.spec.stream_params": ("Complexity", "Direction", "Synchronicity", "Throughput"),
        "repro.spec.physical": ("PhysicalSignal", "PhysicalStream", "expand_stream"),
        "repro.spec.compat": (
            "CompatibilityReport",
            "check_connection_compatibility",
            "structurally_equal",
            "strictly_equal",
        ),
    },
)
