"""Time integration: advance the implicit scheme, drive the seasonal
forcing and column switching, and emit snapshots.

Each step performs, in order: advance the clock by tau, save the previous
field, recompute the air temperature, decide whether the freezing columns
are active and so the Dirichlet constraints that are live this step (static
tags always, column tags only while active), then assemble A = M/tau + K
from the previous level with those constraints eliminated, solve with CG,
and snapshot on the output cadence.  CG starts from the previous field
moved along the last increment T^n - T^(n-1) by the step of least A-norm
error (see linalg.cg_solve); the field carries T^(n-1) for this, and
restart snapshots store it, so a resumed run repeats the unsplit one bit
for bit.  Assigning a new TemperatureField drops the history.

The loop itself is strictly sequential; parallelism lives inside a step,
whose assembly and CG solve run in the same row shares.
Runs are reproducible: the same configuration and worker count yield
bit-identical snapshot and probe files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import io as cgio
from .fem import Assembler, DirichletPlan, TemperatureField, check_assemblable, nodes_for_tags
from .linalg import SolveReport, cg_solve
from .mesh import BoxMeshPlan, BoxMeshSpec, Mesh, build_planned_box, generate_box, read_msh
from .physics import (
    ALWAYS_OFF,
    DAYS_PER_YEAR,
    SEASONAL,
    SECONDS_PER_DAY,
    ColumnController,
    MaterialTable,
    SeasonalForcing,
    air_temperature,
    columns_active,
)


class SimulationError(RuntimeError):
    """Invalid simulation setup detected outside config parsing."""


class SolverFailure(SimulationError):
    """The linear solver did not converge; carries the offending record."""

    def __init__(self, message: str, record: "StepRecord"):
        super().__init__(message)
        self.record = record


AIR_VALUE = "air"


@dataclass
class SimulationConfig:
    """Everything one run needs.

    ``mesh`` may be a file path (Gmsh MSH 2.2), a BoxMeshSpec, a BoxMeshPlan
    (box with painted regions and carved prisms) or an already built Mesh.
    ``dirichlet`` maps always-active boundary tags to a constant value, the
    string "air", or a callback g(points, t) -> deg C per node, evaluated
    each step on that tag's nodes.  ``source`` is an optional volumetric
    heat source callback f(points, t) -> W/m^3 per node.  The callbacks
    are not reachable from config files; verification drivers use them.
    """

    mesh: object
    table: MaterialTable
    forcing: SeasonalForcing = dc_field(default_factory=SeasonalForcing)
    controller: ColumnController = dc_field(
        default_factory=lambda: ColumnController(mode=ALWAYS_OFF)
    )
    tau: float = SECONDS_PER_DAY
    t_max: float = 5 * DAYS_PER_YEAR * SECONDS_PER_DAY
    initial_temperature: float = -5.0
    restart: str | Path | None = None
    dirichlet: Mapping[int, object] = dc_field(default_factory=dict)
    cadence: int = 1
    probe_points: Sequence[tuple[float, float, float]] = ()
    output_dir: str | Path | None = None
    write_vtk: bool = True
    write_restart: bool = False
    solver_tol: float = 1e-8
    solver_max_iter: int = 5000
    workers: int = 1
    source: Callable | None = None

    def validate(self):
        if not 0 < self.tau < math.inf:
            raise SimulationError(f"tau must be > 0 and finite, got {self.tau}")
        if not self.tau <= self.t_max < math.inf:
            raise SimulationError(f"t_max must be finite and >= tau ({self.tau}), got {self.t_max}")
        if int(self.cadence) < 1:
            raise SimulationError(f"output cadence must be >= 1, got {self.cadence}")
        if not math.isfinite(self.initial_temperature):
            raise SimulationError(f"initial temperature {self.initial_temperature} is not finite")
        for tag, value in self.dirichlet.items():
            if value != AIR_VALUE and not isinstance(value, (int, float)) and not callable(value):
                raise SimulationError(
                    f"dirichlet value for tag {tag} must be a number, 'air' or a "
                    f"callable, got {value!r}"
                )
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise SimulationError(f"dirichlet value for tag {tag} is not finite: {value}")
        if self.controller.mode == SEASONAL and self.controller.probe_point is None:
            raise SimulationError("seasonal controller needs a probe_point")
        if int(self.workers) < 1:
            raise SimulationError(f"workers must be >= 1, got {self.workers}")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise SimulationError(f"solver tol must be finite and > 0, got {self.solver_tol}")
        if int(self.solver_max_iter) < 1:
            raise SimulationError(f"solver max_iter must be >= 1, got {self.solver_max_iter}")


@dataclass
class StepRecord:
    """Diagnostics of one time step."""

    step: int
    t_cur: float
    t_air: float
    columns_active: bool
    solver: SolveReport | None
    t_min: float
    t_max: float
    t_mean: float
    assemble_seconds: float = 0.0


def step_count(t_max: float, tau: float, t_start: float = 0.0) -> int:
    """Steps a run from t_start to t_max executes: ceil((t_max - t_start) /
    tau), where a quotient within 1e-12 above an integer counts as that
    integer (so t_max = 3 * tau is 3 steps despite rounding)."""
    return max(0, math.ceil((float(t_max) - float(t_start)) / float(tau) - 1e-12))


def _build_mesh(source) -> Mesh:
    if isinstance(source, Mesh):
        return source
    if isinstance(source, BoxMeshPlan):
        return build_planned_box(source)
    if isinstance(source, BoxMeshSpec):
        return generate_box(source)
    return read_msh(source)


def _constrained_tags(config: SimulationConfig) -> list[int]:
    """The boundary tags a run may constrain, ascending: static, and column unless always off."""
    tags = {int(t) for t in config.dirichlet}
    if config.controller.mode != ALWAYS_OFF:
        tags.update(int(t) for t in config.controller.column_tags)
    return sorted(tags)


def initialize(config: SimulationConfig) -> tuple[Mesh, TemperatureField]:
    """Build the mesh and the initial field (uniform or from a restart), and
    check that the mesh assembles and every constrained tag and region
    resolves, as a run would at setup."""
    config.validate()
    mesh = _build_mesh(config.mesh)
    check_assemblable(mesh)
    nodes_for_tags(mesh, _constrained_tags(config))
    for region in np.unique(mesh.cell_region):
        config.table.for_region(region)
    if config.restart is not None:
        field = cgio.snapshot_read(config.restart, expected_nodes=mesh.n_nodes)
    else:
        field = TemperatureField.uniform(mesh, config.initial_temperature, time=0.0)
    return mesh, field


def _nearest_node(mesh: Mesh, point) -> int:
    d = mesh.nodes - np.asarray(point, dtype=np.float64)
    return int(np.argmin((d * d).sum(axis=1)))


class Simulation:
    """Mutable run state: mesh, current field and cached assembly plans."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.mesh, self.field = initialize(config)
        self.assembler = Assembler(self.mesh, config.table, workers=int(config.workers))
        self.step_index = 0
        self.records: list[StepRecord] = []

        ctrl = config.controller
        self._ctrl_node = (
            _nearest_node(self.mesh, ctrl.probe_point) if ctrl.probe_point is not None else 0
        )
        self.probe_nodes = np.array(
            [_nearest_node(self.mesh, p) for p in config.probe_points], dtype=np.int64
        )

        # resolve every boundary tag we may constrain, once
        self._static_tags = {int(t): v for t, v in config.dirichlet.items()}
        self._tag_nodes = {t: nodes_for_tags(self.mesh, [t]) for t in _constrained_tags(config)}
        self._plans: dict[tuple[int, ...], tuple[DirichletPlan, list]] = {}

        # rows for the probe CSV (initial state + every cadence-th step)
        self._csv_records: list[StepRecord] = []
        self._csv_probes: list[np.ndarray] = []
        self._out_dir: Path | None = None
        self._vtk_geometry = ""  # io.vtk_geometry of the mesh, formatted at the first snapshot
        if config.output_dir is not None:
            self._out_dir = Path(config.output_dir)
            self._out_dir.mkdir(parents=True, exist_ok=True)

    # -- dirichlet ----------------------------------------------------------

    def _active_tag_values(self, t_cur: float, t_air: float, active: bool) -> dict[int, object]:
        """Value of every tag constrained this step: a float, or per-node
        values (in the order of the tag's nodes) from a callable."""
        ctrl = self.config.controller
        out = {}
        for tag, value in self._static_tags.items():
            if callable(value):
                out[tag] = value(self.mesh.nodes[self._tag_nodes[tag]], t_cur)
            else:
                out[tag] = t_air if value == AIR_VALUE else float(value)
        if active:
            col_value = t_air if ctrl.column_temperature is None else float(ctrl.column_temperature)
            for tag in ctrl.column_tags:
                out[int(tag)] = col_value
        return out

    def _plan_for(self, tags: tuple[int, ...]) -> tuple[DirichletPlan, list]:
        plan = self._plans.get(tags)
        if plan is None:
            sel = np.zeros(self.mesh.n_nodes, dtype=bool)
            for t in tags:
                sel[self._tag_nodes[t]] = True
            nodes = np.flatnonzero(sel)
            dplan = DirichletPlan(self.assembler.pattern, nodes)
            # per-tag positions into the plan's node list, in ascending tag
            # order so that a later (larger) tag wins shared nodes
            slots = [
                (np.searchsorted(nodes, self._tag_nodes[t]), t) for t in sorted(tags)
            ]
            plan = (dplan, slots)
            self._plans[tags] = plan
        return plan

    # -- stepping -----------------------------------------------------------

    def step(self) -> StepRecord:
        """Advance one implicit step; returns (and stores) its record."""
        cfg = self.config
        tau = float(cfg.tau)
        t_cur = self.field.time + tau
        t_prev = self.field.values
        t_air = float(air_temperature(t_cur, cfg.forcing))
        soil_ref = float(t_prev[self._ctrl_node])
        active = columns_active(t_cur, soil_ref, cfg.controller, cfg.forcing)

        nodal_source = None
        if cfg.source is not None:
            nodal_source = np.asarray(cfg.source(self.mesh.nodes, t_cur), dtype=np.float64)

        tag_values = self._active_tag_values(t_cur, t_air, active)
        constraints = None
        if tag_values:
            dplan, slots = self._plan_for(tuple(sorted(tag_values)))
            values = np.empty(len(dplan.nodes))
            for pos, tag in slots:
                values[pos] = tag_values[tag]
            constraints = (dplan, values)

        t0 = time.perf_counter()
        system = self.assembler.assemble(
            self.field, tau, source=nodal_source, reuse_buffers=True, constraints=constraints
        )
        assemble_seconds = time.perf_counter() - t0

        # CG starts from T^n with this step's constraints, moved along the
        # last increment T^n - T^(n-1) (zero on the constrained nodes)
        x0 = t_prev.copy()
        direction = None if self.field.previous is None else t_prev - self.field.previous
        if constraints is not None:
            x0[dplan.nodes] = values
            if direction is not None:
                direction[dplan.nodes] = 0.0

        x, report = cg_solve(
            system.matrix,
            system.rhs,
            x0,
            tol=cfg.solver_tol,
            max_iter=int(cfg.solver_max_iter),
            direction=direction,
        )

        self.step_index += 1
        record = StepRecord(
            step=self.step_index,
            t_cur=t_cur,
            t_air=t_air,
            columns_active=bool(active),
            solver=report,
            t_min=float(x.min()),
            t_max=float(x.max()),
            t_mean=float(x.mean()),
            assemble_seconds=assemble_seconds,
        )
        if not report.converged:
            self.records.append(record)
            raise SolverFailure(
                f"CG did not converge at step {self.step_index} "
                f"(residual {report.residual:.3e} after {report.iterations} iterations)",
                record,
            )

        self.field = TemperatureField(x, t_cur, previous=t_prev)
        self.records.append(record)
        if self.step_index % int(cfg.cadence) == 0:
            self._emit(record)
        return record

    # -- output -------------------------------------------------------------

    def _emit(self, record: StepRecord):
        self._csv_records.append(record)
        self._csv_probes.append(self.field.values[self.probe_nodes].copy())
        if self._out_dir is None:
            return
        if self.config.write_vtk:
            self._vtk_geometry = self._vtk_geometry or cgio.vtk_geometry(self.mesh)
            path = self._out_dir / (cgio.VTK_FILE_PATTERN % record.step)
            cgio.write_vtk(self.mesh, self.field, path, self._vtk_geometry)
        if self.config.write_restart:
            cgio.snapshot_write(
                self._out_dir / (cgio.RESTART_FILE_PATTERN % record.step), self.field
            )

    def _emit_initial(self):
        record = StepRecord(
            step=0,
            t_cur=self.field.time,
            t_air=float(air_temperature(self.field.time, self.config.forcing)),
            columns_active=False,
            solver=None,
            t_min=float(self.field.values.min()),
            t_max=float(self.field.values.max()),
            t_mean=float(self.field.values.mean()),
        )
        self._emit(record)

    def flush_probes(self):
        if self._out_dir is not None:
            cgio.write_probes(
                self._csv_records,
                np.array(self._csv_probes).reshape(len(self._csv_probes), len(self.probe_nodes)),
                self._out_dir / cgio.PROBES_FILE_NAME,
            )

    def run(self) -> list[StepRecord]:
        """Execute step_count(t_max, tau, t_start) steps with snapshots per
        cadence; t_start is nonzero when resuming from a restart."""
        n_steps = step_count(self.config.t_max, self.config.tau, self.field.time)
        self._emit_initial()
        try:
            for _ in range(n_steps):
                self.step()
        finally:
            self.flush_probes()
        return self.records

    def close(self):
        self.assembler.close()


def run(config: SimulationConfig) -> list[StepRecord]:
    """Run a configured simulation to t_max; returns all step records."""
    sim = Simulation(config)
    try:
        return sim.run()
    finally:
        sim.close()
