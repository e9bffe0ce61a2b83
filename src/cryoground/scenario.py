"""Desk-scale stand-in for the well thermal-stabilization scenario.

The reference problem is a 40 m box of freezing soil with a warm oil well
through the middle, a cement casing, a sand cap, a polystyrene insulation
slab near the well and eight seasonal freezing columns reaching 14 m deep.
At desk resolution (2 m cells by default) the curved geometry becomes
tagged prisms: the well and the columns are carved from the box (their
exposed triangles become Dirichlet surfaces) and the layers are painted
region tags.  Region tags: 1 soil, 2 sand, 3 polystyrene, 4 cement.
Boundary tags: 1..6 box faces, 101 well wall, 201 column walls.

Soil porosity and the ice coefficients are not part of the published
parameter set; the values here are conventional for wet frozen ground.
"""

from __future__ import annotations

from .mesh import BoxMeshPlan, BoxMeshSpec
from .physics import (
    DAYS_PER_YEAR,
    SECONDS_PER_DAY,
    ColumnController,
    Material,
    MaterialTable,
    PhaseModel,
    SeasonalForcing,
)
from .simulate import SimulationConfig

WELL_TAG = 101
COLUMN_TAG = 201

SOIL, SAND, POLYSTYRENE, CEMENT = 1, 2, 3, 4

OIL_TEMPERATURE = 20.0  # deg C, held at the well wall
INITIAL_TEMPERATURE = -5.0  # deg C

DEFAULT_POROSITY = 0.35
ICE_CRHO = 1.9e6  # J/(m^3 K)
ICE_LAMBDA = 2.2  # W/(m K)


def default_materials(porosity: float = DEFAULT_POROSITY, delta: float = 1.0) -> MaterialTable:
    """Material table with the published coefficients (soil skeleton, water,
    sand, polystyrene, cement) plus conventional ice values."""
    soil = Material.freezing_porous(
        porosity=porosity,
        crho_sc=2.17e6,
        crho_w=2.42e6,
        crho_i=ICE_CRHO,
        lambda_sc=2.43,
        lambda_w=2.22,
        lambda_i=ICE_LAMBDA,
    )
    sand = Material.single_phase(crho=1.34e6, lam=0.47)
    polystyrene = Material.single_phase(crho=0.20e6, lam=0.03)
    cement = Material.single_phase(crho=0.80e6, lam=0.21)
    phase = PhaseModel(t_star=0.0, delta=delta, latent_volumetric=1.04e8)
    return MaterialTable(
        {SOIL: soil, SAND: sand, POLYSTYRENE: polystyrene, CEMENT: cement}, phase
    )


def well_mesh_plan(divisions: tuple[int, int, int] = (20, 20, 20)) -> BoxMeshPlan:
    """40 m box with painted layers and carved well/column prisms.

    With the default 20^3 divisions (2 m cells) this yields about 48k cells.
    The cement casing is one cell ring around the carved 4 m well core; the
    eight columns are single-cell prisms on a ring of radius about 7 m,
    carved through the top 14 m.  Divisions must keep cell faces on the
    2 m feature grid (i.e. each axis count a multiple of 20) or the carved
    prisms will not line up with whole cells.
    """
    box = BoxMeshSpec((40.0, 40.0, 40.0), tuple(int(d) for d in divisions))
    paint = (
        (SAND, (0.0, 40.0, 0.0, 40.0, 38.0, 40.0)),  # 2 m cap
        (POLYSTYRENE, (14.0, 26.0, 14.0, 26.0, 36.0, 38.0)),  # slab under the cap
        (CEMENT, (16.0, 24.0, 16.0, 24.0, 0.0, 40.0)),  # casing band
    )
    column_footprints = [
        (26.0, 28.0, 20.0, 22.0),
        (12.0, 14.0, 18.0, 20.0),
        (20.0, 22.0, 26.0, 28.0),
        (18.0, 20.0, 12.0, 14.0),
        (24.0, 26.0, 24.0, 26.0),
        (14.0, 16.0, 14.0, 16.0),
        (14.0, 16.0, 24.0, 26.0),
        (24.0, 26.0, 14.0, 16.0),
    ]
    carve = [(WELL_TAG, (18.0, 22.0, 18.0, 22.0, 0.0, 40.0))]
    carve += [
        (COLUMN_TAG, (x0, x1, y0, y1, 26.0, 40.0)) for x0, x1, y0, y1 in column_footprints
    ]
    return BoxMeshPlan(box=box, region=SOIL, paint=paint, carve=tuple(carve))


def build_well_scenario(
    divisions: tuple[int, int, int] = (20, 20, 20),
    years: float = 5.0,
    tau: float = SECONDS_PER_DAY,
    controller_mode: str = "seasonal",
    delta: float = 1.0,
    workers: int = 1,
    output_dir=None,
    cadence: int = 30,
    solver_tol: float = 1e-8,
) -> SimulationConfig:
    """Full simulation config for the well scenario.

    The controller probe sits 1 m below the surface next to the +x column;
    probes are also placed mid-depth near the well and near a column.
    """
    controller = ColumnController(
        column_tags=frozenset({COLUMN_TAG}),
        mode=controller_mode,
        probe_point=(25.0, 21.0, 39.0),
    )
    return SimulationConfig(
        mesh=well_mesh_plan(divisions),
        table=default_materials(delta=delta),
        forcing=SeasonalForcing(),
        controller=controller,
        tau=tau,
        t_max=years * DAYS_PER_YEAR * SECONDS_PER_DAY,
        initial_temperature=INITIAL_TEMPERATURE,
        dirichlet={WELL_TAG: OIL_TEMPERATURE},
        cadence=cadence,
        probe_points=((24.0, 20.0, 20.0), (26.0, 20.0, 38.0), (10.0, 20.0, 30.0)),
        output_dir=output_dir,
        solver_tol=solver_tol,
        workers=workers,
    )
