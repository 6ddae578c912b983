"""Shared utilities used across all ``repro`` subsystems.

This package deliberately stays tiny and dependency-free (numpy only):
error hierarchy, monotonic identifiers and deterministic random-number
helpers; its ``framing``, ``atomic`` and ``scope`` modules hold the
framed-message codec, crash-safe file publication and the ambient
configuration scope.  Everything
higher up the stack (CDMS data model, rendering, workflow engine, DV3D)
builds on these primitives.
"""

from repro.util.errors import (
    ReproError,
    CDMSError,
    WorkflowError,
    ProvenanceError,
    RenderingError,
    HyperwallError,
    SpreadsheetError,
)
from repro.util.ids import IdGenerator
from repro.util.rng import deterministic_rng

__all__ = [
    "ReproError",
    "CDMSError",
    "WorkflowError",
    "ProvenanceError",
    "RenderingError",
    "HyperwallError",
    "SpreadsheetError",
    "IdGenerator",
    "deterministic_rng",
]
