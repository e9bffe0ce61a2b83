import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryoground.fem as fem
from cryoground.fem import (
    Assembler,
    DirichletPlan,
    FemError,
    LinearSystem,
    TemperatureField,
    UnknownTagError,
    nodes_for_tags,
)
from cryoground.linalg import CsrMatrix, cg_solve, matvec_into, share_bounds
from cryoground.mesh import (
    BoxMeshSpec,
    DegenerateCellError,
    Mesh,
    build_planned_box,
    generate_box,
    paint_region,
)
from cryoground.parallel import pool_available
from cryoground.physics import Material, MaterialTable, UnknownRegionError, apparent_coefficients
from cryoground.scenario import default_materials, well_mesh_plan
from cryoground.simulate import Simulation, SimulationConfig
from cryoground.verify import MmsCase

from fem_oracle import (
    cell_coefficients,
    csr,
    element_lumped_mass,
    element_stiffness,
    full_sort_setup,
    scipy_view,
    stiffness_values,
)
from test_assembly_oracle import lumpy_mesh


def random_tet(rng):
    while True:
        nodes = rng.uniform(-1, 1, (4, 3))
        mesh = Mesh(nodes, [[0, 1, 2, 3]], [1], np.empty((0, 3), int), [])
        vol = abs(np.linalg.det(nodes[1:] - nodes[0])) / 6.0
        if vol > 1e-3:
            return mesh


class TestElementStiffness:
    def test_reference_values(self, reference_tet):
        k = element_stiffness(reference_tet, 0, 1.0)
        assert k[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert k[0, 1] == pytest.approx(-1.0 / 6.0, rel=1e-14)

    def test_row_sums_zero_any_tet(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mesh = random_tet(rng)
            lam = float(rng.uniform(0.1, 5.0))
            k = element_stiffness(mesh, 0, lam)
            assert np.abs(k.sum(axis=1)).max() < 1e-12 * np.abs(k).max()
            assert np.abs(k - k.T).max() == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        mesh = random_tet(rng)
        k = element_stiffness(mesh, 0, 2.0)
        eig = np.linalg.eigvalsh(k)
        assert eig.min() > -1e-12 * eig.max()


class TestElementLumpedMass:
    def test_reference(self, reference_tet):
        m = element_lumped_mass(reference_tet, 0, 1.0)
        assert np.allclose(m, 1.0 / 24.0, rtol=1e-14)

    def test_zero_capacity(self, reference_tet):
        assert np.array_equal(element_lumped_mass(reference_tet, 0, 0.0), np.zeros(4))

    def test_sum_conserves_capacity(self):
        rng = np.random.default_rng(14)
        mesh = random_tet(rng)
        c = 3.7e6
        vol = abs(np.linalg.det(mesh.nodes[mesh.cells[0]][1:] - mesh.nodes[mesh.cells[0]][0])) / 6
        assert element_lumped_mass(mesh, 0, c).sum() == pytest.approx(c * vol, rel=1e-12)


class TestCellCoefficients:
    def test_fully_frozen(self, reference_tet, soil_table):
        field = TemperatureField(np.full(4, -10.0))
        c, lam = cell_coefficients(reference_tet, 0, field, soil_table)
        mat = soil_table.for_region(1)
        from cryoground.physics import frozen_thawed_coeffs

        crm, _, lamm, _ = frozen_thawed_coeffs(mat)
        assert c == pytest.approx(crm, rel=1e-14)
        assert lam == pytest.approx(lamm, rel=1e-14)

    def test_latent_spike_at_midpoint(self, reference_tet, soil_table):
        field = TemperatureField(np.zeros(4))
        c, _ = cell_coefficients(reference_tet, 0, field, soil_table)
        from cryoground.physics import effective_capacity

        expected = effective_capacity(0.0, soil_table.for_region(1), soil_table.phase)
        assert c == pytest.approx(expected, rel=1e-14)
        assert c > 5.0e7  # includes latent / (2 delta)

    def test_unknown_region(self, reference_tet, plain_table):
        bad = Mesh(
            reference_tet.nodes,
            reference_tet.cells,
            np.array([99]),
            reference_tet.boundary_facets,
            reference_tet.facet_tag,
        )
        with pytest.raises(UnknownRegionError, match="99"):
            cell_coefficients(bad, 0, TemperatureField(np.zeros(4)), plain_table)


class TestAssemble:
    def test_single_tet_matches_element_ops(self, reference_tet, plain_table):
        system = Assembler(reference_tet, plain_table).assemble(np.zeros(4), tau=1.0)
        k = element_stiffness(reference_tet, 0, 1.0)
        expected = k + np.eye(4) / 24.0
        assert np.allclose(scipy_view(system.matrix).toarray(), expected, atol=1e-15)
        assert np.array_equal(system.rhs, np.zeros(4))

    def test_uniform_field_is_steady(self, unit_box, plain_table):
        c0 = 4.5
        system = Assembler(unit_box, plain_table).assemble(np.full(unit_box.n_nodes, c0), tau=2.0)
        x, report = cg_solve(system.matrix, system.rhs, tol=1e-12)
        assert report.converged
        assert np.abs(x - c0).max() < 1e-10

    def test_tau_must_be_positive(self, unit_box, plain_table):
        """tau = inf would leave A = K alone, and nan no step at all."""
        for tau in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(FemError, match="tau must be > 0 and finite"):
                Assembler(unit_box, plain_table).assemble(np.zeros(unit_box.n_nodes), tau=tau)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=str)
    def test_non_finite_source_rejected(self, unit_box, plain_table, value):
        """A non-finite source would put it into the rhs and run the CG to
        max_iter; it is an input error before any fill."""
        asm = Assembler(unit_box, plain_table)
        source = np.zeros(unit_box.n_nodes)
        source[3] = value
        with pytest.raises(FemError, match="source contains non-finite"):
            asm.assemble(np.zeros(unit_box.n_nodes), 1.0, source=source)

    def test_stiffness_properties(self, unit_box, soil_table):
        rng = np.random.default_rng(5)
        field = rng.uniform(-10, 10, unit_box.n_nodes)
        asm = Assembler(unit_box, soil_table)
        kv = stiffness_values(asm, field)
        k = CsrMatrix(asm.row_offsets, asm.column_indices, kv)
        kd = scipy_view(k).toarray()
        assert np.abs(kd - kd.T).max() == 0.0
        scale = np.abs(kd).max()
        assert np.abs(kd.sum(axis=1)).max() <= 1e-9 * scale
        for _ in range(100):
            x = rng.standard_normal(unit_box.n_nodes)
            assert x @ (kd @ x) >= -1e-9 * scale * (x @ x)

    def test_rhs_is_lumped_capacity_times_field(self, unit_box, soil_table):
        rng = np.random.default_rng(6)
        field = rng.uniform(-3, 3, unit_box.n_nodes)
        tau = 7.0
        asm = Assembler(unit_box, soil_table)
        system = asm.assemble(field, tau)
        m_diag = asm.capacity_diagonal(field)
        assert np.allclose(system.rhs, m_diag / tau * field, rtol=1e-14)

    def test_source_hook_uniform(self, unit_box, plain_table):
        # insulated domain, uniform source f: T advances by tau * f / crho
        f = 2.5
        tau = 3.0
        t0 = np.full(unit_box.n_nodes, 1.0)
        system = Assembler(unit_box, plain_table).assemble(
            t0, tau, source=np.full(unit_box.n_nodes, f)
        )
        x, report = cg_solve(system.matrix, system.rhs, tol=1e-13)
        assert report.converged
        assert np.abs(x - (1.0 + tau * f)).max() < 1e-9

    def test_orphan_node_rejected(self, plain_table):
        nodes = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]], dtype=float
        )
        mesh = Mesh(nodes, [[0, 1, 2, 3]], [1], np.empty((0, 3), int), [])
        with pytest.raises(FemError, match="node 4"):
            Assembler(mesh, plain_table)

    def test_flattened_cell_rejected(self, plain_table):
        # volume 1.7e-18: nonzero, but far below 1e-14 * (longest edge)^3
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1e-17]], dtype=float)
        mesh = Mesh(nodes, [[0, 1, 2, 3]], [1], np.empty((0, 3), int), [])
        with pytest.raises(DegenerateCellError, match="cell 0"):
            Assembler(mesh, plain_table)

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    def test_worker_counts_bit_identical(self, soil_table, monkeypatch):
        # lift the CPU cap so that every count really splits the rows
        monkeypatch.setattr(fem, "usable_cpus", lambda: 4)
        soil = soil_table.materials[1]
        sand = Material.single_phase(crho=1.34e6, lam=0.47)
        layered = MaterialTable({1: soil, 2: sand}, soil_table.phase)
        no_phase_change = MaterialTable(
            {1: Material.single_phase(crho=2.0e6, lam=2.0), 2: sand}, soil_table.phase
        )
        big = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (24, 12, 8)))
        # a constant (single-phase) layer amid the soil: the shares fill
        # renumbered phase-change cells and add the constant cells' share
        painted = paint_region(big, (0.0, 2.0, 0.0, 1.0, 0.25, 0.5), 2)
        small = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (6, 3, 3)))
        # shares are cut at multiples of DOT_CHUNK (512) rows: 2,925 nodes
        # give every share rows, 112 nodes leave all but the last empty;
        # the last column is the number of phase-change cells
        cases = (
            (big, soil_table, True, big.n_cells),
            (small, soil_table, False, small.n_cells),
            (painted, layered, True, int(np.count_nonzero(painted.cell_region == 1))),
            (painted, no_phase_change, True, 0),
        )
        assert 0 < cases[2][3] < painted.n_cells
        for mesh, table, all_own_rows, phase_change_cells in cases:
            rng = np.random.default_rng(8)
            field = rng.uniform(-5, 5, mesh.n_nodes)
            serial_asm = Assembler(mesh, table)
            assert serial_asm._cmean.shape[0] == phase_change_cells
            serial = serial_asm.assemble(field, tau=3600.0)
            for nw in (2, 3, 4):
                asm = Assembler(mesh, table, workers=nw)
                assert asm.effective_workers() == nw
                par = asm.assemble(field, tau=3600.0, reuse_buffers=True)
                bounds = par.matrix.shares.bounds
                assert len(bounds) == nw + 1
                assert np.all(np.diff(bounds) > 0) == all_own_rows
                assert np.array_equal(serial.matrix.values, par.matrix.values)
                assert np.array_equal(serial.rhs, par.rhs)
                asm.close()

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    def test_fill_plans_are_the_cg_shares(self, soil_table, monkeypatch):
        """A step's rows are cut once: fill plan w owns exactly the rows (and
        their stored entries) of CG share w, and the one-share plan's cells
        span covers every phase-change cell."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 4)
        mesh = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (24, 12, 8)))
        assert mesh.n_nodes == 2925
        field = np.random.default_rng(10).uniform(-5, 5, mesh.n_nodes)
        for nw in (1, 2, 3, 4):
            asm = Assembler(mesh, soil_table, workers=nw)
            try:
                bounds = asm.assemble(field, 3600.0, reuse_buffers=True).matrix.shares.bounds
                plans, shares, *_ = asm._serial if nw == 1 else asm._pooled
                assert bounds == shares.bounds == share_bounds(asm.row_offsets, nw)
                assert len(bounds) == nw + 1 and np.all(np.diff(bounds) > 0)
                offsets = asm.row_offsets
                for plan, lo, hi in zip(plans, bounds[:-1], bounds[1:], strict=True):
                    assert plan.rows == slice(lo, hi)
                    assert plan.slots == slice(int(offsets[lo]), int(offsets[hi]))
                    diag = plan.slots.start + plan.diag
                    assert np.array_equal(diag, asm.pattern.diagonal_slots[lo:hi])
                if nw == 1:
                    assert plan.cells == slice(0, asm._cmean.shape[0])
            finally:
                asm.close()

    def test_workers_capped_at_cpu_affinity(self, soil_table, monkeypatch):
        """A process allowed on one CPU assembles serially, whatever it asks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(fem, "ForkPool", no_pool)
        mesh = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (4, 2, 2)))
        field = np.random.default_rng(9).uniform(-5, 5, mesh.n_nodes)
        asm = Assembler(mesh, soil_table, workers=4)
        assert asm.effective_workers() == 1
        got = asm.assemble(field, tau=3600.0)
        serial = Assembler(mesh, soil_table).assemble(field, tau=3600.0)
        assert np.array_equal(got.matrix.values, serial.matrix.values)
        assert np.array_equal(got.rhs, serial.rhs)


class TestFillReuse:
    """A fill copies out the A rows of its plan's last products when its key
    (the cell means clipped to physics.band_limits) and tau did not change;
    every value must still be the bits a fresh assembler gives, and the rhs
    is formed anew."""

    WORKERS = [
        1,
        pytest.param(
            2, marks=pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
        ),
    ]
    TAU = 3600.0

    @pytest.fixture(params=[("crho_i", "crho_w"), ("lambda_i", "lambda_w")], ids=["c", "lam"])
    def layered(self, request, soil_table, monkeypatch):
        """A soil whose c (or lam) does not move inside the band, so that a
        record of only the other coefficient would miss a change, under a
        constant layer (region 2), so that rows also take the constant
        cells' share."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 2)
        soil = soil_table.materials[1]
        frozen, thawed = request.param
        soil = dataclasses.replace(soil, **{frozen: getattr(soil, thawed)})
        sand = Material.single_phase(crho=1.34e6, lam=0.47)
        table = MaterialTable({1: soil, 2: sand}, soil_table.phase)
        # 1,377 nodes: each of two shares owns rows (cut at 512-row chunks)
        box = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (16, 8, 8)))
        return paint_region(box, (0.0, 2.0, 0.0, 1.0, 0.25, 0.5), 2), table

    @staticmethod
    def fields(mesh):
        """Frozen, into the phase band [-1, 1], across it, out of it and back,
        each level twice; two levels lift only the upper nodes (the last
        rows) or only the lower ones into the band."""
        noise = np.random.default_rng(41).uniform(-0.15, 0.15, mesh.n_nodes)
        upper = np.where(mesh.nodes[:, 2] > 0.5, 2.5, 0.0)
        lower = np.where(mesh.nodes[:, 2] < 0.5, 2.5, 0.0)
        levels = [-3.0 + noise, -3.0 + noise + upper, -0.8 + noise, 0.6 + noise, 3.0 + noise]
        levels += [-3.0 + noise, -3.0 + noise + lower, -3.0 + noise]
        return [f for f in levels for _ in range(2)]

    def fresh(self, mesh, table, field, tau=TAU):
        asm = Assembler(mesh, table)
        system = asm.assemble(field, tau)
        return system.matrix.values, system.rhs, asm.capacity_diagonal(field)

    def assert_fresh(self, mesh, table, field, values, rhs, capacity=None, tau=TAU):
        want = self.fresh(mesh, table, field, tau)
        assert values.tobytes() == want[0].tobytes()
        assert rhs.tobytes() == want[1].tobytes()
        if capacity is not None:
            assert capacity.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_matches_fresh_assembler_through_the_band(self, layered, workers):
        mesh, table = layered
        asm = Assembler(mesh, table, workers=workers)
        try:
            assert asm.effective_workers() == workers
            for field in self.fields(mesh):
                system = asm.assemble(field, self.TAU)
                capacity = asm.capacity_diagonal(field)
                self.assert_fresh(mesh, table, field, system.matrix.values, system.rhs, capacity)
        finally:
            asm.close()

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    def test_serial_and_pooled_calls_interleaved(self, layered):
        """Serial and pooled fills keep separate records, so neither reads
        the rows the other produced for another field."""
        mesh, table = layered
        fields = self.fields(mesh)
        asm = Assembler(mesh, table, workers=2)
        try:
            for serial_field, pooled_field in zip(fields, fields[::-1]):
                for workers, field in ((1, serial_field), (None, pooled_field)):
                    system = asm.assemble(field, self.TAU, workers=workers, reuse_buffers=True)
                    self.assert_fresh(mesh, table, field, system.matrix.values, system.rhs)
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_unchanged_coefficients_run_no_product(self, layered, workers, monkeypatch):
        """Counts the coefficient-law calls and the G_K and G_M products of
        the calling process's plan, so that the reuse can neither silently
        stop nor reach too far: a field that moves within the frozen or the
        thawed side runs neither, one that crosses a band edge or moves in
        the band runs both, and so does a new tau at the same key.
        capacity_diagonal between two fills forms M from the operators: it
        runs no fill and leaves the record as it was."""
        mesh, table = layered
        products, laws = [], []

        def counting(indptr, indices, data, x, out, add=False):
            products.append(data)
            matvec_into(indptr, indices, data, x, out, add)

        def counting_law(t, *args, **kwargs):
            laws.append(t)
            return apparent_coefficients(t, *args, **kwargs)

        monkeypatch.setattr(fem, "matvec_into", counting)
        monkeypatch.setattr(fem, "apparent_coefficients", counting_law)
        asm = Assembler(mesh, table, workers=workers)
        frozen, band = self.fields(mesh)[0], self.fields(mesh)[4]
        assert (frozen + 0.5).max() < -1.0 and (-frozen - 0.5).min() > 1.0
        assert np.abs(band).max() < 1.0
        edge = frozen + 2.0  # cell means on both sides of the lower band edge
        tau2 = 2.5 * self.TAU
        # (field, tau, fills that run the law and the products)
        steps = [(frozen, self.TAU, 1), (frozen + 0.5, self.TAU, 0), (frozen, self.TAU, 0),
                 (frozen, tau2, 1), (frozen + 0.5, tau2, 0), (edge, tau2, 1), (edge, tau2, 0),
                 (-frozen, tau2, 1), (-frozen - 0.5, tau2, 0), (band, tau2, 1), (band, tau2, 0),
                 (band, self.TAU, 1), (band, self.TAU, 0)]
        try:
            for field, tau, expected in steps:
                del products[:], laws[:]  # also those of the fresh assemblers below
                system = asm.assemble(field, tau, reuse_buffers=True)
                plans, *_, kept, _ = asm._serial if workers == 1 else asm._pooled
                assert len(plans) == workers and all(p.rows.stop > p.rows.start for p in plans)
                plan = plans[-1]
                key = kept.keys[plan.cells]
                if field is edge:
                    lo, hi = asm._limits
                    assert (key == lo).any() and ((key > lo) & (key < hi)).any()
                ran = sum(data is asm._gk.data or data is asm._gm.data for data in products)
                assert ran == 2 * expected
                assert len(laws) == expected
                assert all(np.shares_memory(t, kept.keys) for t in laws)
                del products[:], laws[:]
                capacity = asm.capacity_diagonal(-field)
                assert products == [] and len(laws) == 1
                # the rhs follows the field even where the matrix is reused
                self.assert_fresh(mesh, table, field, system.matrix.values, system.rhs, tau=tau)
                assert capacity.tobytes() == self.fresh(mesh, table, -field)[2].tobytes()
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_dirichlet_elimination_does_not_leak(self, layered, workers, monkeypatch):
        """The assembler eliminates a DirichletPlan in its own rows of A; a
        call at the same field and tau with another plan, or none, must not
        see them, so it refills every row: the calling process's plan runs
        its G_K and G_M products again.  A call with the plan of the call
        before keeps the rows and runs none."""
        mesh, table = layered
        products = []

        def counting(indptr, indices, data, x, out, add=False):
            products.append(data)
            matvec_into(indptr, indices, data, x, out, add)

        monkeypatch.setattr(fem, "matvec_into", counting)
        field = self.fields(mesh)[0]
        asm = Assembler(mesh, table, workers=workers)
        top = DirichletPlan(asm.pattern, nodes_for_tags(mesh, [6]))
        sides = DirichletPlan(asm.pattern, nodes_for_tags(mesh, [1, 3]))
        # (plan, constraint value, fills that run the products)
        steps = [(top, 5.0, 1), (top, 5.0, 0), (None, None, 1), (None, None, 0),
                 (top, 5.0, 1), (sides, -2.0, 1), (sides, -2.0, 0), (top, 5.0, 1)]
        try:
            for dplan, value, expected in steps:
                g = None if dplan is None else np.full(len(dplan.nodes), value)
                del products[:]
                system = asm.assemble(
                    field, self.TAU, reuse_buffers=True,
                    constraints=None if dplan is None else (dplan, g),
                )
                ran = sum(data is asm._gk.data or data is asm._gm.data for data in products)
                assert ran == 2 * expected
                fresh = Assembler(mesh, table).assemble(field, self.TAU)
                if dplan is not None:
                    DirichletPlan(fresh.matrix, dplan.nodes).apply(fresh, g)
                assert system.matrix.values.tobytes() == fresh.matrix.values.tobytes()
                assert system.rhs.tobytes() == fresh.rhs.tobytes()
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_kept_step_state(self, layered, workers):
        """A share whose fill keeps its key keeps its eliminated rows, and
        its CG share the inverse diagonal and start product; the results
        stay those of a fresh assembler, DirichletPlan.apply and cg_solve:
        when one of two shares keeps its rows (the lift of the upper nodes
        changes only the last rows), when the field returns to the keys
        the record held before them, after a fill that rewrote the rows
        without a solve, for a field in the band whose nodes keep their
        classes but not their keys, and for a second solve of a system
        changed in place after its first."""
        mesh, table = layered
        fields = self.fields(mesh)
        frozen, upper, band = fields[0], fields[2], fields[4]
        top = nodes_for_tags(mesh, [6])
        g = np.full(len(top), -4.0)
        asm = Assembler(mesh, table, workers=workers)
        plan = DirichletPlan(asm.pattern, top)

        def fresh_solve(field, x0, bump=0.0):
            system = Assembler(mesh, table).assemble(field, self.TAU)
            plan_fresh = DirichletPlan(system.matrix, top)
            plan_fresh.apply(system, g)
            system.matrix.values[system.matrix.diagonal_slots] += bump
            return cg_solve(system.matrix, system.rhs, x0, tol=1e-10)

        try:
            x = frozen
            # (field, solves, the shares that keep their rows, start product kept)
            for field, solves, kept, start_kept in (
                (frozen, True, [0, 0], 0), (None, True, [1, 1], 1), (upper, True, [1, 0], 1),
                (frozen, True, [1, 0], 1), (band, False, [0, 0], 0), (band, True, [1, 1], 0),
                (band, True, [1, 1], 1), (band + 0.01, True, [0, 0], 0),
            ):
                field = x if field is None else field
                system = asm.assemble(field, self.TAU, reuse_buffers=True, constraints=(plan, g))
                work = system.matrix.shares.work
                assert work.kept.tolist() == (kept if workers == 2 else [min(kept)])
                if solves:
                    x0 = x.copy()
                    x0[top] = g
                    got = cg_solve(system.matrix, system.rhs, x0, tol=1e-10)
                    assert work.start_kept[0] == (start_kept if workers == 2 else start_kept * min(kept))
                    want = fresh_solve(field, x0)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].iterations == want[1].iterations
                    x = got[0]
            # a second solve after a change in place keeps nothing
            system.matrix.values[system.matrix.diagonal_slots] += 1.0
            got = cg_solve(system.matrix, system.rhs, x0, tol=1e-10)
            assert work.start_kept[0] == 0.0
            assert got[0].tobytes() == fresh_solve(field, x0, bump=1.0)[0].tobytes()
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_kept_start_on_negative_zero_constraints(self, layered, workers):
        """A kept start takes A x0 on the constrained (identity) rows from
        x0; a product there sums from +0.0, so a constraint value -0.0 must
        give the +0.0 a fresh solve starts from, and its sign in the
        solution."""
        mesh, table = layered
        frozen = self.fields(mesh)[0]
        top = nodes_for_tags(mesh, [6])
        g = np.full(len(top), -0.0)
        asm = Assembler(mesh, table, workers=workers)
        plan = DirichletPlan(asm.pattern, top)
        try:
            x0 = frozen.copy()
            x0[top] = g
            system = asm.assemble(frozen, self.TAU, reuse_buffers=True, constraints=(plan, g))
            x0 = cg_solve(system.matrix, system.rhs, x0, tol=1e-10)[0]
            x0[top] = g
            field = frozen - 0.5  # the same keys and node classes: the rows are kept
            system = asm.assemble(field, self.TAU, reuse_buffers=True, constraints=(plan, g))
            got, report = cg_solve(system.matrix, system.rhs, x0, tol=1e-10)
            assert system.matrix.shares.work.start_kept[0] == 1.0
            assert report.iterations > 0
            fresh = Assembler(mesh, table).assemble(field, self.TAU)
            DirichletPlan(fresh.matrix, top).apply(fresh, g)
            want = cg_solve(fresh.matrix, fresh.rhs, x0, tol=1e-10)[0]
            assert np.signbit(want[top]).all()
            assert got.tobytes() == want.tobytes()
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_fill_cut_short_leaves_nothing_reusable(self, layered, workers, monkeypatch):
        """A fill that raises in the calling process's share, after the key
        test took in the new keys, leaves no record: the next assemble() at
        the same field and tau refills every row, as a fresh assembler
        fills them."""
        mesh, table = layered
        parent, armed = os.getpid(), []

        def failing_law(t, *args, **kwargs):
            if armed and os.getpid() == parent:
                armed.clear()
                raise RuntimeError("law cut short")
            return apparent_coefficients(t, *args, **kwargs)

        monkeypatch.setattr(fem, "apparent_coefficients", failing_law)
        frozen, band = self.fields(mesh)[0], self.fields(mesh)[4]
        asm = Assembler(mesh, table, workers=workers)
        try:
            asm.assemble(frozen, self.TAU)
            armed.append(True)
            with pytest.raises(RuntimeError, match="law cut short"):
                asm.assemble(band, self.TAU)
            assert not armed
            system = asm.assemble(band, self.TAU)
            self.assert_fresh(mesh, table, band, system.matrix.values, system.rhs)
        finally:
            asm.close()

    def test_non_finite_field_rejected_before_the_key_test(self, layered):
        """A NaN node would take class 0, so a cell keyed NaN with it would
        keep that key once the node is frozen again: a field of non-finite
        values is an input error, and the record stays the last good one."""
        mesh, table = layered
        asm = Assembler(mesh, table)
        frozen = self.fields(mesh)[0]
        band = self.fields(mesh)[4]
        bad = band.copy()
        bad[asm._cmean.indices[:4]] = np.nan  # the nodes of a phase-change cell
        asm.assemble(band, self.TAU)
        with pytest.raises(FemError, match="field contains non-finite"):
            asm.assemble(bad, self.TAU)
        system = asm.assemble(frozen, self.TAU)
        self.assert_fresh(mesh, table, frozen, system.matrix.values, system.rhs)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_class_changes_without_key_changes(self, layered, workers, monkeypatch):
        """The key test re-keys the cells of the nodes whose class moved and
        the uncertain cells, and no other: (a) nodes of constant cells alone
        crossing physics.node_limits run no C product, no law and no G_K or
        G_M product; (b) one phase-change node crossing lo_n while its
        cells' clipped means stay at lo re-keys exactly that node's cells
        and runs no law.  A and b stay a fresh assembler's."""
        mesh, table = layered
        products, laws = [], []

        def counting(indptr, indices, data, x, out, add=False):
            products.append((data, indices))
            matvec_into(indptr, indices, data, x, out, add)

        def counting_law(t, *args, **kwargs):
            laws.append(t)
            return apparent_coefficients(t, *args, **kwargs)

        monkeypatch.setattr(fem, "matvec_into", counting)
        monkeypatch.setattr(fem, "apparent_coefficients", counting_law)
        asm = Assembler(mesh, table, workers=workers)
        gm, cmean = asm._gm, asm._cmean
        runs = np.diff(gm.indptr)
        constant_only = np.flatnonzero(runs == 0)
        node = int(np.flatnonzero(runs == runs.max())[0])  # a phase-change node
        frozen = self.fields(mesh)[0]
        lo_n, hi_n = asm._node_limits
        crossed = frozen.copy()
        crossed[constant_only] = 3.0  # (a)
        lifted = crossed.copy()
        lifted[node] = 0.5 * lo_n  # (b): class 1, its cells' means below lo
        assert len(constant_only) and lo_n < lifted[node] < hi_n
        node_cells = gm.indices[gm.indptr[node] : gm.indptr[node + 1]]
        try:
            asm.assemble(frozen, self.TAU)
            for field, rekeyed in ((crossed, None), (lifted, node_cells), (crossed, node_cells)):
                del products[:], laws[:]
                system = asm.assemble(field, self.TAU)
                c_rows = [i.reshape(-1, 4) for data, i in products if data is cmean.data]
                if rekeyed is None:
                    assert c_rows == []
                else:  # the node's cells, and only they, take new keys
                    want = cmean.indices.reshape(-1, 4)[rekeyed]
                    assert len(c_rows) == 1 and np.array_equal(c_rows[0], want)
                assert not any(data is asm._gk.data or data is asm._gm.data for data, _ in products)
                assert laws == []
                self.assert_fresh(mesh, table, field, system.matrix.values, system.rhs)
        finally:
            asm.close()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_random_moves_match_fresh_assembler(self, layered, workers):
        """One assembler driven through random node moves in, across and out
        of the band (about node_limits too, nodes of the constant layer
        among them) and random changes of tau gives a fresh assembler's A
        and b after every step."""
        mesh, table = layered
        lo_n, hi_n = Assembler(mesh, table)._node_limits
        groups = {
            "all": np.arange(mesh.n_nodes),
            "constant layer": np.flatnonzero((mesh.nodes[:, 2] > 0.25) & (mesh.nodes[:, 2] < 0.5)),
            "upper": np.flatnonzero(mesh.nodes[:, 2] > 0.5),
            "one": np.array([mesh.n_nodes // 2]),
        }
        levels = {
            "frozen": lambda rng, k: rng.uniform(-3.2, -2.8, k),
            "lo_n": lambda rng, k: rng.choice([np.nextafter(lo_n, -np.inf), lo_n,
                                               np.nextafter(lo_n, np.inf)], k),
            "band": lambda rng, k: rng.uniform(-1.0, 1.0, k),
            "hi_n": lambda rng, k: rng.choice([np.nextafter(hi_n, -np.inf), hi_n,
                                               np.nextafter(hi_n, np.inf)], k),
            "thawed": lambda rng, k: rng.uniform(2.8, 3.2, k),
            "across": lambda rng, k: rng.uniform(-3.0, 3.0, k),
        }
        step = st.tuples(
            st.sampled_from(sorted(groups)), st.sampled_from(sorted(levels)),
            st.floats(0.05, 1.0), st.sampled_from([self.TAU, 2.5 * self.TAU]),
            st.integers(0, 2**32 - 1),
        )

        @given(st.lists(step, min_size=1, max_size=5))
        @settings(max_examples=10, deadline=None)
        def drive(steps):
            field = self.fields(mesh)[0].copy()
            asm = Assembler(mesh, table, workers=workers)
            try:
                for group, level, share, tau, seed in steps:
                    rng = np.random.default_rng(seed)
                    nodes = groups[group]
                    nodes = nodes[rng.random(len(nodes)) < share] if len(nodes) > 1 else nodes
                    field[nodes] = levels[level](rng, len(nodes))
                    system = asm.assemble(field, tau)
                    self.assert_fresh(mesh, table, field, system.matrix.values, system.rhs, tau=tau)
            finally:
                asm.close()

        drive()


class TestSetup:
    """Assembler.__init__ builds the pattern and the G_K and G_M operators
    from one sort each and the element geometry in blocks of cells; none of
    that may move a bit of the assembled values."""

    # sha256 of the assembled arrays on the 20^3 well mesh (numpy 2.4,
    # bundled OpenBLAS, x86-64), recorded when the constant cells' share of
    # K and M became a precomputed sum added after the phase-change cells'
    # products: on the rows where both kinds of cell meet, A, M and the rhs
    # moved by at most 1.2e-15 relative per entry (node volumes unchanged)
    WELL_SHA256 = {
        "matrix": "1bb9b2bc1827cbe36ad8e64fe14b117f2eeb97a758cdf184fe4ad016c1f8f89a",
        "rhs": "1b52abccb46cf9d39e2af65086a56396744c8552480ce7e1ab7401d776418a68",
        "capacity": "707b437a7bfb8a54b774c0dd0c03920dc80c8ea691b797a286fbd71c778b7d74",
        "node_volumes": "4b4546b2b08342ea667f13811651626ac152901ce148e1848180bbb7e9ca734e",
    }

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(
                2, marks=pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
            ),
        ],
    )
    def test_well_values_pinned(self, workers, monkeypatch):
        monkeypatch.setattr(fem, "usable_cpus", lambda: 2)
        mesh = build_planned_box(well_mesh_plan())
        # straddles the phase band [-1, 1], so the latent spike is active
        field = np.random.default_rng(2024).uniform(-2.0, 2.0, mesh.n_nodes)
        asm = Assembler(mesh, default_materials(), workers=workers)
        try:
            assert asm.effective_workers() == workers
            system = asm.assemble(field, tau=86400.0)
            got = {
                "matrix": system.matrix.values,
                "rhs": system.rhs,
                "capacity": asm.capacity_diagonal(field),
                "node_volumes": asm.node_volumes,
            }
        finally:
            asm.close()
        for name, digest in self.WELL_SHA256.items():
            assert hashlib.sha256(got[name].tobytes()).hexdigest() == digest, name

    # sha256 of the assembler's arrays on the 32^3 box of the MMS order study
    # (every cell constant), recorded from the build whose element geometry
    # came from np.cross and einsum over (cells, 4, 3) corner blocks
    MMS_BOX_SHA256 = {
        "row_offsets": "3aaa3c332b80a33061e2361ec3cd94e04be17ba83188f3f767742008a40c908c",
        "column_indices": "2a05eec43b21c8d308f3bdac77764a9c8f83dbf50f930a503bdeb15c7a8da54e",
        "node_volumes": "9c33bd351e6be8504f63ebf14c26b3d22a68f0d1dfa466c2e75201288b4ccaa5",
        "capacity": "9c33bd351e6be8504f63ebf14c26b3d22a68f0d1dfa466c2e75201288b4ccaa5",
        "matrix": "92b3b3ce56263aae507ed53af923cc78375d4803b01da97dfa1a78156e56b387",
        "rhs": "6f1b8cd7a10e4883600bc523aa76ef944d68abc9842a9b8a7e2d5bcf5f7556d3",
    }

    def test_mms_box_values_pinned(self):
        case = MmsCase()
        mesh = generate_box(BoxMeshSpec(case.lengths, (32, 32, 32)))
        asm = Assembler(mesh, case.table())
        field = case.exact(mesh.nodes, 0.0)
        system = asm.assemble(field, tau=0.1 / 32, source=case.source(mesh.nodes, 0.0))
        got = {
            "row_offsets": asm.row_offsets,
            "column_indices": asm.column_indices,
            "node_volumes": asm.node_volumes,
            "capacity": asm.capacity_diagonal(field),
            "matrix": system.matrix.values,
            "rhs": system.rhs,
        }
        for name, digest in self.MMS_BOX_SHA256.items():
            assert hashlib.sha256(got[name].tobytes()).hexdigest() == digest, name

    def test_geometry_block_size_moves_no_bit(self, monkeypatch):
        mesh = lumpy_mesh()  # regions 1 (soil) and 2 (sand)
        table = default_materials()
        field = np.random.default_rng(35).uniform(-2.0, 2.0, mesh.n_nodes)
        whole = Assembler(mesh, table)
        monkeypatch.setattr(fem, "_GEOMETRY_BLOCK", 7)
        assert mesh.n_cells > 7 * 10
        blocked = Assembler(mesh, table)
        pairs = {
            "G_K": (whole._gk.data, blocked._gk.data),
            "G_M": (whole._gm.data, blocked._gm.data),
            "K_const": (whole._k_const, blocked._k_const),
            "M_const": (whole._m_const, blocked._m_const),
            "node_volumes": (whole.node_volumes, blocked.node_volumes),
        }
        for name, (a, b) in pairs.items():
            assert np.array_equal(a, b), name
        a, b = whole.assemble(field, tau=3600.0), blocked.assemble(field, tau=3600.0)
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert a.rhs.tobytes() == b.rhs.tobytes()

    @pytest.mark.parametrize(
        "make, table",
        [
            (lumpy_mesh, default_materials),  # soil and constant sand cells
            (
                lambda: generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (3, 3, 3))),
                lambda: MaterialTable({1: Material.single_phase(crho=1.0, lam=1.0)}),
            ),
        ],
        ids=["lumpy", "box3-constant"],
    )
    def test_key_width_and_gather_block_move_no_bit(self, make, table, monkeypatch):
        """int64 keys and a 7-entry block for the scatters through the sort's
        permutation and for dropping the constant cells' entries build the
        operators of int32 keys and the default block, bit for bit."""
        mesh, table = make(), table()
        key_dtypes = []  # of the stable sort of the 10 upper keys per cell
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            if a.size == 10 * mesh.n_cells:
                key_dtypes.append(a.dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        narrow = Assembler(mesh, table)
        monkeypatch.setattr(fem, "_INT32_KEY_NODES", 0)
        monkeypatch.setattr(fem, "_GATHER_BLOCK", 7)
        assert 10 * mesh.n_cells > 7 * 10
        wide = Assembler(mesh, table)
        assert key_dtypes == [np.int32, np.int64]
        pairs = {
            "row_offsets": (narrow.row_offsets, wide.row_offsets),
            "column_indices": (narrow.column_indices, wide.column_indices),
            "diag_slots": (narrow.pattern.diagonal_slots, wide.pattern.diagonal_slots),
            "G_K data": (narrow._gk.data, wide._gk.data),
            "G_K indices": (narrow._gk.indices, wide._gk.indices),
            "G_K indptr": (narrow._gk.indptr, wide._gk.indptr),
            "K_const": (narrow._k_const, wide._k_const),
            "G_M data": (narrow._gm.data, wide._gm.data),
            "G_M indices": (narrow._gm.indices, wide._gm.indices),
            "G_M indptr": (narrow._gm.indptr, wide._gm.indptr),
            "M_const": (narrow._m_const, wide._m_const),
            "node_volumes": (narrow.node_volumes, wide.node_volumes),
        }
        for name, (a, b) in pairs.items():
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert narrow._gk.shape == wide._gk.shape and narrow._gm.shape == wide._gm.shape

    @pytest.mark.parametrize("block", [fem._GEOMETRY_BLOCK, 7])
    @pytest.mark.parametrize(
        "make, table",
        [
            (lumpy_mesh, default_materials),  # soil and constant sand cells
            (lambda: generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (6, 6, 6))), default_materials),
            (
                lambda: generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (6, 6, 6))),
                lambda: MaterialTable({1: Material.single_phase(crho=1.0, lam=1.0)}),
            ),
        ],
        ids=["lumpy", "box6-soil", "box6-constant"],
    )
    def test_upper_triangle_build_matches_full_sort(self, make, table, block, monkeypatch):
        """The pattern, G_K and K_const built from the 10 upper-triangle
        entries per cell and mirrored equal, bit for bit, those of one sort
        of all 16 entries per cell; the element matrices the mirror relies
        on are bitwise symmetric."""
        monkeypatch.setattr(fem, "_GEOMETRY_BLOCK", block)
        mesh, table = make(), table()
        asm = Assembler(mesh, table)
        ref = full_sort_setup(mesh, table)
        kmat = ref["element_matrices"]
        assert np.array_equal(kmat, kmat.transpose(0, 2, 1))
        pairs = {
            "row_offsets": (asm.row_offsets, ref["row_offsets"]),
            "column_indices": (asm.column_indices, ref["column_indices"]),
            "diag_slots": (asm.pattern.diagonal_slots, ref["diag_slots"]),
            "G_K indptr": (asm._gk.indptr, ref["gk"].indptr),
            "G_K indices": (asm._gk.indices, ref["gk"].indices),
            "G_K data": (asm._gk.data, ref["gk"].data),
            "K_const": (asm._k_const, ref["k_const"]),
        }
        for name, (got, want) in pairs.items():
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert asm._gk.shape == ref["gk"].shape

    def test_degenerate_cell_in_later_block_named_globally(self, plain_table, monkeypatch):
        box = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        # one flattened tet on four nodes of its own, appended after the box
        flat = np.array([[3, 0, 0], [4, 0, 0], [3, 1, 0], [3, 0, 1e-17]], dtype=float)
        mesh = Mesh(
            np.vstack([box.nodes, flat]),
            np.vstack([box.cells, box.n_nodes + np.arange(4)[None, :]]),
            np.append(box.cell_region, 1),
            box.boundary_facets,
            box.facet_tag,
        )
        monkeypatch.setattr(fem, "_GEOMETRY_BLOCK", 5)
        with pytest.raises(DegenerateCellError, match=f"cell {box.n_cells} "):
            Assembler(mesh, plain_table)

    def test_setup_memory_per_cell_bounded(self, plain_table):
        """Setting up the 16^3 box (24,576 cells) traces 282 B/cell of numpy
        allocations at its peak, and the 20^3 well (47,184 cells) 420 B/cell,
        since the 10-per-cell arrays are int32 but for the values, the
        element geometry is scattered into storage order and the constant
        cells' entries are dropped in place (302 and 427 B/cell with int64
        keys, an all-columns G_K and a whole-mask trim; 392 and 445 B/cell
        before the keys were sorted ahead of the element geometry), and G_K
        is built from the 10 upper-triangle entries per cell (585 and 543
        B/cell from all 16; 649 B/cell on the box before the constant-cell
        split freed the element geometry early, 756 B/cell with the grouped
        scatter plans the operators replaced, 1,930 B/cell with the two-sort
        builder before them)."""
        cases = [
            (generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (16, 16, 16))), plain_table, 325),
            (build_planned_box(well_mesh_plan()), default_materials(), 485),
        ]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for mesh, table, bound in cases:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                Assembler(mesh, table)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak / mesh.n_cells < bound, mesh.n_cells
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_box_setup_memory_per_cell_bounded(self, plain_table):
        """generate_box and Assembler.__init__ on the 24^3 box (82,944 cells)
        trace 162 and 228 B/cell of numpy allocations at their peaks (298
        B/cell for the assembler with int64 keys and an all-columns G_K;
        400 and 391 B/cell when boundary faces came from a lexsort of all
        face triples, the orientation test from np.linalg.det on all cells
        at once and the element geometry from np.einsum over (cells, 4, 3)
        corners)."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (24, 24, 24)))
            mesh_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Assembler(mesh, plain_table)
            assembler_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert mesh_peak / mesh.n_cells < 187
        assert assembler_peak / mesh.n_cells < 263


def one_step_field(mesh, table, dirichlet):
    """Field after one step of a small Simulation from 0 deg C."""
    config = SimulationConfig(
        mesh=mesh, table=table, tau=0.1, t_max=0.1, initial_temperature=0.0, dirichlet=dirichlet
    )
    sim = Simulation(config)
    sim.step()
    sim.close()
    return sim.field.values


class TestCollectDirichlet:
    """Which nodes the Dirichlet tags constrain, and with which value."""

    def test_empty_map(self, unit_box):
        assert len(nodes_for_tags(unit_box, [])) == 0

    def test_top_face_node_count(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (3, 4, 5)))
        nodes = nodes_for_tags(mesh, [6])
        assert len(nodes) == (3 + 1) * (4 + 1)
        assert (np.diff(nodes) > 0).all()
        assert np.allclose(mesh.nodes[nodes, 2], 1.0)

    def test_shared_node_deduplicated(self, unit_box, plain_table):
        # faces 1 and 5 share an edge of nodes; equal values constrain them
        # once (DirichletPlan rejects a repeated node)
        shared = np.intersect1d(nodes_for_tags(unit_box, [1]), nodes_for_tags(unit_box, [5]))
        assert len(shared) > 0
        values = one_step_field(unit_box, plain_table, {1: 3.0, 5: 3.0})
        assert (values[nodes_for_tags(unit_box, [1, 5])] == 3.0).all()

    def test_larger_tag_wins_conflicts(self, unit_box, plain_table):
        face1, face5 = nodes_for_tags(unit_box, [1]), nodes_for_tags(unit_box, [5])
        shared = np.intersect1d(face1, face5)
        values = one_step_field(unit_box, plain_table, {1: 3.0, 5: 7.0})
        assert (values[face5] == 7.0).all()
        assert (values[np.setdiff1d(face1, shared)] == 3.0).all()

    def test_unknown_tag(self, unit_box):
        with pytest.raises(UnknownTagError, match="42"):
            nodes_for_tags(unit_box, [42])


class TestApplyDirichlet:
    def test_1x1(self):
        system = LinearSystem(csr([[3.0]]), np.array([7.0]))
        DirichletPlan(system.matrix, np.array([0])).apply(system, np.array([5.0]))
        assert scipy_view(system.matrix).toarray().tolist() == [[1.0]]
        assert system.rhs.tolist() == [5.0]

    def test_2x2_hand_elimination(self):
        system = LinearSystem(csr([[2.0, -1.0], [-1.0, 2.0]]), np.zeros(2))
        DirichletPlan(system.matrix, np.array([0])).apply(system, np.array([1.0]))
        assert scipy_view(system.matrix).toarray().tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert system.rhs.tolist() == [1.0, 1.0]

    def test_constrain_everything(self, reference_tet, plain_table):
        system = Assembler(reference_tet, plain_table).assemble(np.zeros(4), tau=1.0)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        DirichletPlan(system.matrix, np.arange(4)).apply(system, g)
        assert np.array_equal(scipy_view(system.matrix).toarray(), np.eye(4))
        assert np.array_equal(system.rhs, g)

    def test_preserves_symmetry_exactly(self, unit_box, soil_table):
        rng = np.random.default_rng(4)
        field = rng.uniform(-4, 4, unit_box.n_nodes)
        system = Assembler(unit_box, soil_table).assemble(field, tau=3600.0)
        nodes = nodes_for_tags(unit_box, [5, 6])
        DirichletPlan(system.matrix, nodes).apply(system, rng.uniform(-20, 5, len(nodes)))
        dense = scipy_view(system.matrix).toarray()
        assert np.abs(dense - dense.T).max() == 0.0

    def test_matches_penalty_method(self, unit_box, plain_table):
        rng = np.random.default_rng(15)
        field = rng.uniform(-2, 2, unit_box.n_nodes)
        tau = 10.0
        asm = Assembler(unit_box, plain_table)
        nodes = nodes_for_tags(unit_box, [1, 6])
        g = np.where(np.isin(nodes, nodes_for_tags(unit_box, [6])), -1.5, 2.0)

        eliminated = asm.assemble(field, tau)
        DirichletPlan(eliminated.matrix, nodes).apply(eliminated, g)
        x_elim, rep = cg_solve(eliminated.matrix, eliminated.rhs, tol=1e-13, max_iter=2000)
        assert rep.converged

        penalty = asm.assemble(field, tau)
        dense = scipy_view(penalty.matrix).toarray()
        b = penalty.rhs.copy()
        big = 1e12
        for node, value in zip(nodes, g):
            dense[node, node] += big
            b[node] += big * value
        x_pen = np.linalg.solve(dense, b)
        denom = np.abs(x_elim).max()
        assert np.abs(x_elim - x_pen).max() <= 1e-6 * denom

    def test_rhs_correction_subtracts_in_ascending_constrained_column(self, unit_box, soil_table):
        """The rhs correction gives the bits of np.add.at over the entries
        (i constrained, j free) in storage order: b_j loses A_ij g_i one term
        at a time, in ascending i.  A is bitwise symmetric, so the A_ji that
        row j stores gives the same bits."""
        rng = np.random.default_rng(8)
        system = Assembler(unit_box, soil_table).assemble(
            rng.uniform(-4, 4, unit_box.n_nodes), tau=3600.0
        )
        system.rhs[:] = rng.standard_normal(unit_box.n_nodes) * 1e4
        nodes = nodes_for_tags(unit_box, [1, 5, 6])
        g = rng.uniform(-20, 5, len(nodes))
        m = system.matrix
        rows = np.repeat(np.arange(m.n), np.diff(m.row_offsets))
        constrained = np.isin(np.arange(m.n), nodes)
        cross = constrained[rows] & ~constrained[m.column_indices]
        want = system.rhs.copy()
        owner = np.searchsorted(nodes, rows[cross])
        np.add.at(want, m.column_indices[cross], -m.values[cross] * g[owner])
        want[nodes] = g
        DirichletPlan(m, nodes).apply(system, g)
        assert system.rhs.tobytes() == want.tobytes()

    def test_rhs_correction_takes_the_free_rows_own_coupling(self):
        """On a structurally symmetric A with A_01 != A_10, eliminating node
        0 takes A_10 g_0 from b_1, the entry row 1 stores."""
        system = LinearSystem(
            csr([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 6.0]]), np.array([0.0, 10.0, 20.0])
        )
        DirichletPlan(system.matrix, np.array([0])).apply(system, np.array([3.0]))
        assert system.rhs.tolist() == [3.0, 4.0, 20.0]
        assert scipy_view(system.matrix).toarray().tolist() == [
            [1.0, 0.0, 0.0], [0.0, 5.0, 1.0], [0.0, 1.0, 6.0]
        ]

    def test_structurally_unsymmetric_rejected(self):
        m = csr([[1.0, 2.0], [0.0, 3.0]])  # missing (1, 0)
        with pytest.raises(FemError, match="symmetric"):
            DirichletPlan(m, np.array([0]))

    @pytest.mark.parametrize(
        "nodes", [[5, 0, 26], [26, 5, 0], [0, 5, 5], [-1, 5], [5, 27]], ids=str
    )
    def test_bad_node_list_rejected(self, plain_table, nodes):
        """Unsorted, repeated or out-of-range nodes are an error, not a
        silently wrong elimination or a bare IndexError."""
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))  # 27 nodes
        system = Assembler(mesh, plain_table).assemble(np.zeros(mesh.n_nodes), tau=1.0)
        with pytest.raises(FemError, match="strictly increasing|outside"):
            DirichletPlan(system.matrix, np.array(nodes))

    @pytest.mark.parametrize("divisions", [(3, 3, 3), (1, 2, 5)], ids=["larger", "same_size"])
    def test_plan_of_another_pattern_rejected(self, plain_table, divisions):
        """A plan serves only the pattern it was built on: a plan of the
        (2, 2, 3) box (36 nodes) is an input error for a larger box and for
        the (1, 2, 5) box of as many nodes, at both entry points; a plan on
        equal copies of the pattern serves."""
        plan_mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 3)))
        plan = DirichletPlan(Assembler(plan_mesh, plain_table).pattern, np.array([0, 5]))
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), divisions))
        asm = Assembler(mesh, plain_table)
        field = np.zeros(mesh.n_nodes)
        with pytest.raises(FemError, match="another sparsity pattern"):
            asm.assemble(field, 1.0, constraints=(plan, np.ones(2)))
        with pytest.raises(FemError, match="another sparsity pattern"):
            plan.apply(asm.assemble(field, 1.0), np.ones(2))
        copied = CsrMatrix(asm.row_offsets.copy(), asm.column_indices.copy(), np.zeros(asm.nnz))
        got = asm.assemble(field, 1.0, constraints=(DirichletPlan(copied, np.array([0, 5])), np.ones(2)))
        want = asm.assemble(field, 1.0)
        DirichletPlan(asm.pattern, np.array([0, 5])).apply(want, np.ones(2))
        assert got.matrix.values.tobytes() == want.matrix.values.tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()

    def test_constraint_values_of_another_length_rejected(self, plain_table):
        """assemble(constraints=...) checks the values before it fills, as
        apply checks them: one per node and finite (apply would write a NaN
        into the rhs); the next call still eliminates in full."""
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        asm = Assembler(mesh, plain_table)
        plan = DirichletPlan(asm.pattern, np.array([0, 5]))
        field = np.zeros(mesh.n_nodes)
        with pytest.raises(FemError, match="plan nodes"):
            asm.assemble(field, 1.0, constraints=(plan, np.ones(3)))
        with pytest.raises(FemError, match="plan nodes"):
            plan.apply(asm.assemble(field, 1.0), np.ones(3))
        for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(FemError, match="constraint values contain non-finite"):
                asm.assemble(field, 1.0, constraints=(plan, np.array(bad)))
            with pytest.raises(FemError, match="constraint values contain non-finite"):
                plan.apply(asm.assemble(field, 1.0), np.array(bad))
        got = asm.assemble(field, 1.0, constraints=(plan, np.ones(2)))
        want = Assembler(mesh, plain_table).assemble(field, 1.0)
        plan.apply(want, np.ones(2))
        assert got.matrix.values.tobytes() == want.matrix.values.tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()


class TestMaximumPrinciple:
    def test_one_step_stays_in_bounds(self, plain_table):
        # cubic cells: the Kuhn stiffness has nonpositive off-diagonals
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (6, 6, 6)))
        rng = np.random.default_rng(3)
        t_prev = rng.uniform(-5.0, 5.0, mesh.n_nodes)
        system = Assembler(mesh, plain_table).assemble(t_prev, tau=0.05)
        nodes = nodes_for_tags(mesh, [5, 6])
        g = np.where(np.isin(nodes, nodes_for_tags(mesh, [6])), 20.0, -20.0)
        DirichletPlan(system.matrix, nodes).apply(system, g)
        x, report = cg_solve(system.matrix, system.rhs, tol=1e-12)
        assert report.converged
        lo = min(-20.0, t_prev.min())
        hi = max(20.0, t_prev.max())
        assert x.min() >= lo - 1e-9
        assert x.max() <= hi + 1e-9
