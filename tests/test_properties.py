"""Property-based checks spanning assembly, constraints and the solver."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryoground.fem as fem
from cryoground.fem import Assembler, DirichletPlan, TemperatureField, nodes_for_tags
from cryoground.linalg import CsrMatrix, cg_solve
from cryoground.mesh import BoxMeshSpec, generate_box, paint_region
from cryoground.parallel import pool_available
from cryoground.physics import Material, MaterialTable, PhaseModel

from fem_oracle import scipy_view, stiffness_values
from test_assembly_oracle import dense_oracle

PLAIN = MaterialTable({1: Material.single_phase(1.0, 1.0)}, PhaseModel(0.0, 1.0, 0.0))

box_divisions = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
box_extents = st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0), st.floats(0.2, 8.0))


@given(box_divisions, box_extents)
@settings(max_examples=20, deadline=None)
def test_box_stiffness_offdiagonals_nonpositive(divisions, extents):
    """Path-tet subdivision of a box keeps the stiffness an M-matrix for any
    cell aspect ratio, which is what the maximum-principle runs rely on."""
    mesh = generate_box(BoxMeshSpec(extents, divisions))
    asm = Assembler(mesh, PLAIN)
    kv = stiffness_values(asm, np.zeros(mesh.n_nodes))
    k = CsrMatrix(asm.pattern.row_offsets, asm.pattern.column_indices, kv)
    rows = np.repeat(np.arange(k.n), np.diff(k.row_offsets))
    off = k.values[rows != k.column_indices]
    assert off.max() <= 1e-12 * np.abs(k.values).max()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_dirichlet_elimination_properties(seed):
    """Symmetric elimination keeps the matrix symmetric and SPD, pins the
    constrained unknowns exactly and leaves a solvable system."""
    rng = np.random.default_rng(seed)
    divisions = tuple(int(v) for v in rng.integers(2, 4, 3))
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), divisions))
    field = rng.uniform(-8.0, 8.0, mesh.n_nodes)
    system = Assembler(mesh, PLAIN).assemble(field, tau=float(rng.uniform(0.01, 10.0)))

    k = int(rng.integers(1, mesh.n_nodes))
    nodes = np.sort(rng.choice(mesh.n_nodes, size=k, replace=False))
    values = rng.uniform(-30.0, 30.0, k)
    DirichletPlan(system.matrix, nodes).apply(system, values)

    dense = scipy_view(system.matrix).toarray()
    assert np.abs(dense - dense.T).max() == 0.0
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0.0

    x, report = cg_solve(system.matrix, system.rhs, tol=1e-12, max_iter=4 * mesh.n_nodes)
    assert report.converged
    assert np.abs(x[nodes] - values).max() <= 1e-9 * max(1.0, np.abs(values).max())


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_implicit_step_bounded_by_data(seed):
    """One unforced implicit step can create no new extremes beyond the
    initial field and the boundary data (cubic cells)."""
    rng = np.random.default_rng(seed)
    n_div = int(rng.integers(2, 5))
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (n_div, n_div, n_div)))
    t_prev = rng.uniform(-10.0, 10.0, mesh.n_nodes)
    system = Assembler(mesh, PLAIN).assemble(t_prev, tau=float(rng.uniform(0.001, 100.0)))

    g = float(rng.uniform(-25.0, 25.0))
    top = nodes_for_tags(mesh, [6])
    DirichletPlan(system.matrix, top).apply(system, np.full(len(top), g))
    x, report = cg_solve(system.matrix, system.rhs, tol=1e-12, max_iter=4 * mesh.n_nodes)
    assert report.converged
    lo = min(t_prev.min(), g) - 1e-9
    hi = max(t_prev.max(), g) + 1e-9
    assert x.min() >= lo and x.max() <= hi


# one assembler per example, driven through random steps: the kept fill
# rows, the kept elimination and the CG's kept state must give, bit for bit,
# what a fresh assembler, DirichletPlan.apply and cg_solve give
_KEPT_MESH = []
_KEPT_ORACLE = {}  # (field, tau): the dense A of the element-loop oracle


def _kept_mesh():
    """A 2 x 1 x 1 box of 637 nodes (two 512-row CG shares both own rows)
    with a constant sand layer, and its soil/sand table."""
    if not _KEPT_MESH:
        box = generate_box(BoxMeshSpec((2.0, 1.0, 1.0), (12, 6, 6)))
        mesh = paint_region(box, (0.0, 2.0, 0.0, 1.0, 0.25, 0.5), 2)
        soil = Material.freezing_porous(0.4, 2.17e6, 2.42e6, 1.9e6, 2.43, 2.22, 2.2)
        sand = Material.single_phase(1.34e6, 0.47)
        table = MaterialTable({1: soil, 2: sand}, PhaseModel(0.0, 0.8, 1.04e8))
        rng = np.random.default_rng(29)
        noise = rng.uniform(-0.3, 0.3, mesh.n_nodes)
        z = mesh.nodes[:, 2]
        fields = [
            -3.0 + noise,  # frozen
            -2.5 + noise,  # frozen, other means
            0.5 * noise,  # in the band
            0.5 * noise + 0.05,  # in the band: the nodes keep their classes, the cells not their keys
            -3.0 + noise + np.where(z > 0.5, 3.0, 0.0),  # across it
            -3.0 + noise + np.where(z < 0.2, 3.0, 0.0),  # across it, in share 0's rows only
            3.0 + noise,  # thawed
        ]
        plans = [
            None,  # assemble() without constraints
            nodes_for_tags(mesh, [6]),
            nodes_for_tags(mesh, [1, 3]),
        ]
        _KEPT_MESH.extend([mesh, table, fields, plans])
    return _KEPT_MESH


# a step's settings: the field (the last solution or one of the fields),
# tau, the constraint plan, the constraint value, the CG start (the last
# solution or zero), and whether the step solves; each step changes one
# setting of the step before (0: none), so that runs of steps keep their rows
KEPT_OPTIONS = (
    [-1, 0, 1, 2, 3, 4, 5, 6], [3600.0, 7200.0], [0, 1, 2], [-4.0, 2.5], [True, False], [True, False]
)
kept_steps = st.lists(
    st.tuples(st.integers(0, len(KEPT_OPTIONS)), st.integers(0, 7)), min_size=2, max_size=12
)


@pytest.mark.parametrize("workers", [1, 2])
@given(steps=kept_steps)
@settings(max_examples=10, deadline=None)
def test_kept_step_state_matches_fresh(workers, steps):
    mesh, table, fields, node_sets = _kept_mesh()
    with mock.patch.object(fem, "usable_cpus", lambda: 2):
        asm = Assembler(mesh, table, workers=workers)
        try:
            # the plans live as long as the assembler, as a simulation's do
            dplans = [None if n is None else DirichletPlan(asm.pattern, n) for n in node_sets]
            x = fields[0].copy()
            current = [1, 0, 1, 0, 0, 0]
            for k, (change, pick) in enumerate(steps):
                if change:
                    current[change - 1] = pick % len(KEPT_OPTIONS[change - 1])
                which, tau, plan, value, from_last, solve = (
                    o[c] for o, c in zip(KEPT_OPTIONS, current)
                )
                field = x.copy() if which < 0 else fields[which]
                dplan = dplans[plan]
                g = None if dplan is None else np.full(len(dplan.nodes), value)
                x0 = x.copy() if from_last else np.zeros(mesh.n_nodes)
                if dplan is not None:
                    x0[dplan.nodes] = g
                system = asm.assemble(
                    field, tau, reuse_buffers=True,
                    constraints=None if dplan is None else (dplan, g),
                )
                a, b = system.matrix.values.copy(), system.rhs.copy()
                fresh = Assembler(mesh, table).assemble(field, tau)
                if dplan is not None:
                    DirichletPlan(fresh.matrix, dplan.nodes).apply(fresh, g)
                assert a.tobytes() == fresh.matrix.values.tobytes()
                assert b.tobytes() == fresh.rhs.tobytes()
                if solve:
                    x, report = cg_solve(system.matrix, system.rhs, x0, tol=1e-10)
                    want, want_report = cg_solve(fresh.matrix, fresh.rhs, x0, tol=1e-10)
                    assert x.tobytes() == want.tobytes()
                    assert report.iterations == want_report.iterations
                if k == len(steps) - 1 and which >= 0:  # the element-loop oracle
                    if (which, tau) not in _KEPT_ORACLE:
                        field_k = TemperatureField(field)
                        _KEPT_ORACLE[which, tau] = dense_oracle(mesh, field_k, table, tau)[0]
                    dense = _KEPT_ORACLE[which, tau].copy()
                    if dplan is not None:
                        dense[dplan.nodes, :] = 0.0
                        dense[:, dplan.nodes] = 0.0
                        dense[dplan.nodes, dplan.nodes] = 1.0
                    got = scipy_view(fresh.matrix.with_values(a)).toarray()
                    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
        finally:
            asm.close()


# one assembler whose calls alternate its serial and its pooled layout (where
# there is a pool): each layout keeps its own record, rows, elimination and
# CG state, and every call and solve must still give, bit for bit, what a
# fresh assembler, DirichletPlan.apply and cg_solve give.  A call's settings:
# the field (the last solution or one of _kept_mesh's), tau, the constraints
# (none, static, static and column), the static and the column value (-0.0
# included: a kept CG start must take +0.0 for A x0 there), the layout
# (pooled or workers=1) and whether it solves; each call changes one setting
# of the call before (0: none), so that runs of calls keep their rows
LAYOUT_OPTIONS = (
    [-1, 0, 2, 3, 4, 6], [3600.0, 7200.0], [1, 0, 2], [-4.0, -0.0, 0.0, 2.5],
    [-0.0, -4.0, 0.0, 2.5], [True, False], [True, False],
)
layout_calls = st.lists(
    st.tuples(st.integers(0, len(LAYOUT_OPTIONS)), st.integers(0, 5)), min_size=2, max_size=16
)


@given(calls=layout_calls)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_layouts_keep_what_a_fresh_step_gives(calls):
    mesh, table, fields, _ = _kept_mesh()
    static, column = nodes_for_tags(mesh, [6]), nodes_for_tags(mesh, [2])
    node_sets = [None, static, np.union1d(static, column)]
    with mock.patch.object(fem, "usable_cpus", lambda: 2):
        asm = Assembler(mesh, table, workers=2 if pool_available() else 1)
    try:
        # the plans live as long as the assembler, as a simulation's do
        dplans = [None if n is None else DirichletPlan(asm.pattern, n) for n in node_sets]
        x, previous = fields[0].copy(), None  # the last solution and the one before it
        current = [0] * len(LAYOUT_OPTIONS)
        for change, pick in calls:
            if change:
                current[change - 1] = pick % len(LAYOUT_OPTIONS[change - 1])
            which, tau, kind, g_static, g_column, pooled, solve = (
                o[c] for o, c in zip(LAYOUT_OPTIONS, current)
            )
            field = x if which < 0 else fields[which]
            dplan, g = dplans[kind], None
            if dplan is not None:
                g = np.full(len(dplan.nodes), g_column)
                g[np.isin(dplan.nodes, static)] = g_static
            system = asm.assemble(
                field, tau, workers=None if pooled else 1, reuse_buffers=True,
                constraints=None if dplan is None else (dplan, g),
            )
            fresh = Assembler(mesh, table).assemble(field, tau)
            if dplan is not None:
                DirichletPlan(fresh.matrix, dplan.nodes).apply(fresh, g)
            assert system.matrix.values.tobytes() == fresh.matrix.values.tobytes()
            assert system.rhs.tobytes() == fresh.rhs.tobytes()
            if solve:
                # a time stepper's start: the last solution with this call's
                # constraints, moved along the last increment
                x0, direction = x.copy(), None if previous is None else x - previous
                if dplan is not None:
                    x0[dplan.nodes] = g
                    if direction is not None:
                        direction[dplan.nodes] = 0.0
                got, report = cg_solve(system.matrix, system.rhs, x0, 1e-10, direction=direction)
                want, want_report = cg_solve(fresh.matrix, fresh.rhs, x0, 1e-10, direction=direction)
                assert got.tobytes() == want.tobytes()
                assert report.iterations == want_report.iterations
                previous, x = x, got
    finally:
        asm.close()
