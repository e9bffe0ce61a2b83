import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import cryoground.fem as fem
from cryoground.fem import (
    Assembler,
    DirichletPlan,
    FemError,
    LinearSystem,
    TemperatureField,
    UnknownTagError,
    cell_coefficients,
    element_lumped_mass,
    element_stiffness,
    nodes_for_tags,
)
from cryoground.linalg import CsrMatrix, cg_solve
from cryoground.mesh import BoxMeshSpec, DegenerateCellError, Mesh, build_planned_box, generate_box
from cryoground.parallel import pool_available
from cryoground.physics import UnknownRegionError
from cryoground.scenario import default_materials, well_mesh_plan
from cryoground.simulate import Simulation, SimulationConfig

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
        assert np.allclose(system.matrix.to_dense(), expected, atol=1e-15)
        assert np.array_equal(system.rhs, np.zeros(4))

    def test_uniform_field_is_steady(self, unit_box, plain_table):
        c0 = 4.5
        system = Assembler(unit_box, plain_table).assemble(np.full(unit_box.n_nodes, c0), tau=2.0)
        x, report = cg_solve(system.matrix, system.rhs, tol=1e-12)
        assert report.converged
        assert np.abs(x - c0).max() < 1e-10

    def test_tau_must_be_positive(self, unit_box, plain_table):
        with pytest.raises(FemError, match="tau"):
            Assembler(unit_box, plain_table).assemble(np.zeros(unit_box.n_nodes), tau=0.0)

    def test_stiffness_properties(self, unit_box, soil_table):
        rng = np.random.default_rng(5)
        field = rng.uniform(-10, 10, unit_box.n_nodes)
        asm = Assembler(unit_box, soil_table)
        kv = asm.stiffness_values(field)
        k = CsrMatrix(asm.row_offsets, asm.column_indices, kv)
        kd = k.to_dense()
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
        # shares are cut at multiples of DOT_CHUNK (512) rows: 2,925 nodes
        # give every share rows, 112 nodes leave all but the last empty
        for cells, all_own_rows in (((24, 12, 8), True), ((6, 3, 3), False)):
            mesh = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), cells))
            rng = np.random.default_rng(8)
            field = rng.uniform(-5, 5, mesh.n_nodes)
            serial = Assembler(mesh, soil_table).assemble(field, tau=3600.0)
            for nw in (2, 3, 4):
                asm = Assembler(mesh, soil_table, workers=nw)
                assert asm.effective_workers() == nw
                par = asm.assemble(field, tau=3600.0, reuse_buffers=True)
                bounds = par.matrix.shares.bounds
                assert len(bounds) == nw + 1
                assert np.all(np.diff(bounds) > 0) == all_own_rows
                assert np.array_equal(serial.matrix.values, par.matrix.values)
                assert np.array_equal(serial.rhs, par.rhs)
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


class TestSetup:
    """Assembler.__init__ builds the pattern and the G_K and G_M operators
    from one sort each and the element geometry in blocks of cells; none of
    that may move a bit of the assembled values."""

    # sha256 of the assembled arrays on the 20^3 well mesh, recorded when
    # the precomputed operators and the closed-form geometry replaced the
    # grouped scatter plans and np.linalg.inv (numpy 2.4, bundled OpenBLAS,
    # x86-64); K and M then moved by at most 1.3e-15 relative per entry
    WELL_SHA256 = {
        "matrix": "80978b3778f0f8e55c6c3d65b861ad3c37b0c713a39943d2fb063c78fb1c332b",
        "rhs": "bf327e13cf1e27a4b30bc32fa760c4a1ba8d321bc7edb15f13ab905c44d96f82",
        "capacity": "b2dd4ba1e7051fb81a0499ebc652b883cff2d3fe3c190c2bbc8bb66edcaf4e15",
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
            "node_volumes": (whole.node_volumes, blocked.node_volumes),
        }
        for name, (a, b) in pairs.items():
            assert np.array_equal(a, b), name
        a, b = whole.assemble(field, tau=3600.0), blocked.assemble(field, tau=3600.0)
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert a.rhs.tobytes() == b.rhs.tobytes()

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
        """Setting up the 16^3 box (24,576 cells) traces 649 B/cell of numpy
        allocations at its peak (756 B/cell with the grouped scatter plans
        the operators replaced, 1,930 B/cell with the two-sort builder
        before them)."""
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (16, 16, 16)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Assembler(mesh, plain_table)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / mesh.n_cells < 1100


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
        system = LinearSystem(CsrMatrix.from_dense([[3.0]]), np.array([7.0]))
        DirichletPlan(system.matrix, np.array([0])).apply(system, np.array([5.0]))
        assert system.matrix.to_dense().tolist() == [[1.0]]
        assert system.rhs.tolist() == [5.0]

    def test_2x2_hand_elimination(self):
        system = LinearSystem(
            CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]), np.zeros(2)
        )
        DirichletPlan(system.matrix, np.array([0])).apply(system, np.array([1.0]))
        assert system.matrix.to_dense().tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert system.rhs.tolist() == [1.0, 1.0]

    def test_constrain_everything(self, reference_tet, plain_table):
        system = Assembler(reference_tet, plain_table).assemble(np.zeros(4), tau=1.0)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        DirichletPlan(system.matrix, np.arange(4)).apply(system, g)
        assert np.array_equal(system.matrix.to_dense(), np.eye(4))
        assert np.array_equal(system.rhs, g)

    def test_preserves_symmetry_exactly(self, unit_box, soil_table):
        rng = np.random.default_rng(4)
        field = rng.uniform(-4, 4, unit_box.n_nodes)
        system = Assembler(unit_box, soil_table).assemble(field, tau=3600.0)
        nodes = nodes_for_tags(unit_box, [5, 6])
        DirichletPlan(system.matrix, nodes).apply(system, rng.uniform(-20, 5, len(nodes)))
        dense = system.matrix.to_dense()
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
        dense = penalty.matrix.to_dense()
        b = penalty.rhs.copy()
        big = 1e12
        for node, value in zip(nodes, g):
            dense[node, node] += big
            b[node] += big * value
        x_pen = np.linalg.solve(dense, b)
        denom = np.abs(x_elim).max()
        assert np.abs(x_elim - x_pen).max() <= 1e-6 * denom

    def test_structurally_unsymmetric_rejected(self):
        m = CsrMatrix.from_coo(2, [0, 0], [0, 1], [1.0, 2.0])  # missing (1, 0)
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
