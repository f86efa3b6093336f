"""Discontinuous Galerkin solver for Darcy flow through a porous matrix
cut by a single fracture of varying aperture.

The package provides the non-reduced reference model, which meshes the
fracture as a thin slab, and a family of reduced models that collapse the
fracture onto its midsurface and couple the two matrix blocks through
interface conditions.
"""

from .geometry import (
    ApertureProfile,
    PermeabilityData,
    check_wellposedness,
)
from .mesh import Mesh, build_bulk_mesh, build_interface_grid
from .assembly import DGSpace, SparseSystem, assemble_full, assemble_reduced
from .solver import SolveReport, solve
from .models import (
    MODEL_NAMES,
    ModelVariant,
    ProblemPreset,
    ReducedProblem,
    constant_aperture_preset,
    effective_velocity,
    preset_by_name,
    run_full,
    run_reduced,
)
from .postproc import (
    ErrorTable,
    aperture_sweep,
    average_across_fracture,
    l2_error_bulk,
    l2_error_gamma,
    write_fields,
)

__version__ = "0.1.0"

__all__ = [
    "ApertureProfile",
    "PermeabilityData",
    "check_wellposedness",
    "Mesh",
    "build_bulk_mesh",
    "build_interface_grid",
    "DGSpace",
    "SparseSystem",
    "assemble_full",
    "assemble_reduced",
    "SolveReport",
    "solve",
    "MODEL_NAMES",
    "ModelVariant",
    "ProblemPreset",
    "ReducedProblem",
    "constant_aperture_preset",
    "effective_velocity",
    "preset_by_name",
    "run_full",
    "run_reduced",
    "ErrorTable",
    "aperture_sweep",
    "average_across_fracture",
    "l2_error_bulk",
    "l2_error_gamma",
    "write_fields",
]
