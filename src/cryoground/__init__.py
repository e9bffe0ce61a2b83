"""Finite-element simulation of heat conduction with water-ice phase change
in heterogeneous ground, with seasonal freezing columns around warm wells.
"""

from .fem import Assembler, DirichletPlan, LinearSystem, TemperatureField, nodes_for_tags
from .linalg import CsrMatrix, SolveReport, cg_solve
from .mesh import (
    BoxMeshPlan,
    BoxMeshSpec,
    Mesh,
    carve_box,
    generate_box,
    paint_region,
    read_msh,
    tet_volume,
    write_msh,
)
from .physics import (
    ColumnController,
    Material,
    MaterialTable,
    PhaseModel,
    SeasonalForcing,
    air_temperature,
    apparent_coefficients,
    columns_active,
    effective_capacity,
    frozen_thawed_coeffs,
    phi_delta,
    phi_delta_prime,
)
from .simulate import Simulation, SimulationConfig, StepRecord, initialize, run
from .verify import (
    MmsCase,
    NeumannCase,
    erf,
    neumann_lambda,
    run_neumann_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "Assembler",
    "BoxMeshPlan",
    "BoxMeshSpec",
    "ColumnController",
    "CsrMatrix",
    "DirichletPlan",
    "LinearSystem",
    "Material",
    "MaterialTable",
    "Mesh",
    "MmsCase",
    "NeumannCase",
    "PhaseModel",
    "SeasonalForcing",
    "Simulation",
    "SimulationConfig",
    "SolveReport",
    "StepRecord",
    "TemperatureField",
    "air_temperature",
    "apparent_coefficients",
    "carve_box",
    "cg_solve",
    "columns_active",
    "effective_capacity",
    "erf",
    "frozen_thawed_coeffs",
    "generate_box",
    "initialize",
    "neumann_lambda",
    "nodes_for_tags",
    "paint_region",
    "phi_delta",
    "phi_delta_prime",
    "read_msh",
    "run",
    "run_neumann_benchmark",
    "tet_volume",
    "write_msh",
]
